"""Command line surface: ingest -> detect -> resolve -> evaluate, plus demo.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Every output file starts with a header carrying the full run configuration
and the SHA-256 digests of the inputs, so any result can be reproduced.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__
from .aggregate import STRATEGIES, SVD_STRATEGY, resolve as resolve_situation
from .config import RunConfig
from .demo import run_reference_check
from .detect import detect_conflicts
from .errors import ArbiterError, DataError, ParseError
from .evaluate import EvaluationConfig, run_experiment
from .ingest import PRNG_NAME, apply_bins, augment_channels, compute_bins, load_requests, sha256_file, stabilize
from .intervals import TimeOfDayInterval, format_hms, parse_hms
from .log import parse_event_log
from .model import ConflictSituation, EventRows
from .records import check_record, decode_text, dumps_json, json_lines, parse_json, read_input, record_errors
from .store import load_store, write_store

CONFLICTS_SCHEMA = "homearbiter-conflicts/1"
RESOLUTIONS_SCHEMA = "homearbiter-resolutions/1"
REPORT_SCHEMA = "homearbiter-report/1"


# Type and help text of each RunConfig field's flag; defaults come from the field.
CONFIG_FLAGS = {
    "alpha": (float, "Spectrum share kept by the low-rank truncation."),
    "top_n": (int, "Scored items per resident feeding the candidate set."),
    "k": (int, "Number of items chosen per resolution."),
    "settling_window": (int, "Seconds under which rapid value changes fold together."),
    "bin_count": (int, "Bins for numeric attributes."),
    "lookback_days": (int, "Only use history from the trailing N days."),
    "seed": (int, "Seed of the channel draws of --channels."),
    "adopted_threshold": (float, "Active-day share above which an item counts as adopted."),
}
CONFIG_DEFAULTS = RunConfig()
EVALUATION_DEFAULTS = EvaluationConfig()


def config_options(*names: str):
    """One flag per named ``RunConfig`` field: the fields the command reads."""
    def decorate(command):
        for name in reversed(names):
            kind, text = CONFIG_FLAGS[name]
            command = click.option(f"--{name.replace('_', '-')}", type=kind, default=getattr(CONFIG_DEFAULTS, name),
                                   show_default=True, help=text)(command)
        return command
    return decorate


def _build_config(flags: dict) -> RunConfig:
    """The ``RunConfig`` of a command's config flags; every field it has no flag for keeps its default."""
    try:
        return RunConfig(**flags)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _input(path: str, sha256: str) -> dict:
    """A header's record of an input file: its name and the digest of the bytes read."""
    return {"path": Path(path).name, "sha256": sha256}


def _write_lines(lines, out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _window_json(window: TimeOfDayInterval) -> dict:
    return {"start": format_hms(window.start), "end": format_hms(window.end)}


@click.group()
@click.version_option(version=__version__)
def cli() -> None:
    """Detect and resolve conflicting service requests in a shared home."""


@cli.command()
@click.argument("logs", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Canonical event store to write.")
@click.option("--residents", default=None,
              help="Comma-separated resident ids assigned to the log files in order.")
@click.option("--location-map", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file mapping sensor labels to locations.")
@click.option("--channels", default=None,
              help="Comma-separated channel labels; TV events lacking a channel get one at random.")
@config_options("settling_window", "bin_count", "seed")
def ingest(logs, out, residents, location_map, channels, **kwargs) -> None:
    """Parse raw event logs into a stabilized, binned event store."""
    labels = None
    if channels is not None:
        labels = [c.strip() for c in channels.split(",") if c.strip()]
        if not labels:
            raise click.UsageError("--channels names no channel label")
    elif click.get_current_context().get_parameter_source("seed") is not ParameterSource.DEFAULT:
        raise click.UsageError("--seed seeds the channel draws of --channels and needs --channels")
    cfg = _build_config(kwargs)
    loc_map = map_input = None
    if location_map:
        text, digest = read_input(location_map)
        loc_map, map_input = parse_json(text, location_map), _input(location_map, digest)
        if not isinstance(loc_map, dict):
            raise DataError(f"{location_map}: location map must be a JSON object")
        for sensor, location in loc_map.items():
            if not isinstance(location, str) or not location.strip():
                raise DataError(f"{location_map}: location of {sensor!r} must be a non-empty string")

    ids = [r.strip() for r in residents.split(",")] if residents is not None else [None] * len(logs)
    if len(ids) != len(logs):
        raise click.UsageError(f"--residents names {len(ids)} ids for {len(logs)} log files")
    if "" in ids:
        raise click.UsageError("--residents names an empty id")
    for index, resident in enumerate(ids):
        if resident is not None and resident in ids[:index]:
            raise DataError(f"duplicate resident id {resident!r} in --residents")
    warnings: list[str] = []
    parts: list[EventRows] = []
    inputs: list[dict] = []
    for resident, path in zip(ids, logs):
        # Ids stay unique: a resident's own log numbers from 1, other logs on after the earlier logs' events.
        result = parse_event_log(path, resident=resident, location_map=loc_map,
                                 first_number=1 if resident is not None else sum(map(len, parts)) + 1)
        warnings.extend(f"{Path(path).name}: {w}" for w in result.warnings)
        parts.append(result.events)
        inputs.append(_input(path, result.sha256))

    events = stabilize(EventRows.joined(parts), cfg.settling_window, warnings)

    numeric_values: dict[tuple[str, str], list[float]] = {}
    for service_id, attributes in zip(events.service, events.attributes):
        for name, value in attributes.items():
            if value.kind == "numeric":
                numeric_values.setdefault((service_id, name), []).append(value.value)
    specs = {}
    for (service_id, attribute), values in sorted(numeric_values.items()):
        if len(set(values)) < cfg.bin_count:
            warnings.append(
                f"{service_id}/{attribute}: {len(set(values))} distinct values, fewer than "
                f"{cfg.bin_count} bins; left numeric"
            )
            continue
        specs[(service_id, attribute)] = compute_bins(values, cfg.bin_count, attribute=attribute)
    for (service_id, attribute), spec in specs.items():
        events = apply_bins(events, service_id, spec, warnings)

    if labels is not None:
        events = augment_channels(events, labels, seed=cfg.seed)

    header = {
        "config": cfg.as_dict(),
        "inputs": inputs,
        "bins": specs,
        "prng": PRNG_NAME,
        "warnings": warnings,
    }
    # The settings besides the config that shape the events, each recorded only when its flag is given.
    given = {"location_map": map_input, "channels": labels, "residents": ids if residents is not None else None}
    header.update((key, value) for key, value in given.items() if value is not None)
    write_store(out, events, header)
    for warning in warnings:
        click.echo(f"warning: {warning}", err=True)
    click.echo(f"wrote {len(events)} events to {out}", err=True)


def _load_inputs(store_path: str, requests_path: str, cfg: RunConfig):
    store = load_store(store_path)
    requests = load_requests(requests_path, bin_specs=store.bin_specs())
    header = {
        "config": cfg.as_dict(),
        "inputs": [_input(store_path, store.sha256), _input(requests_path, sha256_file(requests_path))],
    }
    return store, requests, header


def _situation_json(situation: ConflictSituation) -> dict:
    return {
        "service_id": situation.service_id,
        "location": situation.location,
        "attribute": situation.attribute,
        "window": _window_json(situation.window),
        "request_ids": [r.request_id for r in situation.requests],
        "residents": list(situation.residents),
    }


@cli.command()
@click.option("--store", "store_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--requests", "requests_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default=None, help="Output file; stdout when omitted.")
def detect(store_path, requests_path, out) -> None:
    """Report conflict situations among the current requests."""
    store, requests, header = _load_inputs(store_path, requests_path, CONFIG_DEFAULTS)
    situations = detect_conflicts(requests)
    lines = [dumps_json({"schema": CONFLICTS_SCHEMA, **header})]
    lines.extend(dumps_json(_situation_json(s)) for s in situations)
    _write_lines(lines, out)


def _load_conflict_stream(path: str, requests, inputs: list[dict]) -> list[ConflictSituation]:
    """Situations of a ``detect`` stream whose header names the digests of ``inputs``."""
    by_id = {r.request_id: r for r in requests}
    situations = []
    where = "stdin" if path == "-" else path
    text = decode_text(sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes(), where)
    header = None
    for lineno, obj in json_lines(text, where):
        if header is None:
            header = obj if isinstance(obj, dict) else {}
            if header.get("schema") != CONFLICTS_SCHEMA:
                raise ParseError(f"conflict stream schema {header.get('schema')!r}, expected {CONFLICTS_SCHEMA!r}",
                                 path=where, line=lineno)
            if _digests(header) != [entry["sha256"] for entry in inputs]:
                raise ParseError("conflict stream was detected from a different store or requests file "
                                 "(input sha256 digests differ)", path=where, line=lineno)
            continue
        with record_errors(where, lineno, "bad conflict record: "):
            check_record(obj, {"service_id": str, "location": str, "attribute": str, "request_ids": list, "window": dict})
            for request_id in obj["request_ids"]:
                if request_id not in by_id:
                    raise ParseError(f"conflict stream references unknown key {request_id!r}", path=where, line=lineno)
            situations.append(
                ConflictSituation(
                    service_id=obj["service_id"],
                    location=obj["location"],
                    attribute=obj["attribute"],
                    window=TimeOfDayInterval(parse_hms(obj["window"]["start"]), parse_hms(obj["window"]["end"])),
                    requests=tuple(by_id[i] for i in obj["request_ids"]),
                )
            )
    if header is None:
        raise ParseError(f"empty conflict stream, expected a {CONFLICTS_SCHEMA} header", path=where)
    return situations


def _digests(header: dict) -> list[str] | None:
    try:
        return [entry["sha256"] for entry in header["inputs"]]
    except (KeyError, TypeError):
        return None


def _round6(values) -> list:
    return [round(float(v), 6) + 0.0 for v in values]  # + 0.0: a zero is unsigned, whichever sign LAPACK gave


@cli.command()
@click.option("--store", "store_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--requests", "requests_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--conflicts", "conflicts_path", default=None,
              help="Resolve a previously detected conflict stream ('-' for stdin) instead of re-detecting.")
@click.option("--strategy", type=click.Choice(STRATEGIES), default=SVD_STRATEGY, show_default=True)
@click.option("--dump-preferences", "dump_preferences", type=click.Path(dir_okay=False), default=None,
              help="Write the per-situation preference tables as CSV.")
@click.option("--debug", is_flag=True, help="Embed matrices and factors in the output.")
@click.option("--out", default=None, help="Output file; stdout when omitted.")
@config_options("alpha", "top_n", "k", "lookback_days")
def resolve(store_path, requests_path, conflicts_path, strategy, dump_preferences, debug, out, **kwargs) -> None:
    """Resolve detected conflicts and rank the candidate items."""
    cfg = _build_config(kwargs)
    store, requests, header = _load_inputs(store_path, requests_path, cfg)
    if conflicts_path is not None:
        situations = _load_conflict_stream(conflicts_path, requests, header["inputs"])
    else:
        situations = detect_conflicts(requests)

    lines = [dumps_json({"schema": RESOLUTIONS_SCHEMA, "strategy": strategy, **header})]
    preference_rows = [
        f"# config: {dumps_json(header['config'])}",
        f"# inputs: {dumps_json(header['inputs'])}",
        "resident,item,score",
    ]
    for situation in situations:
        resolution = resolve_situation(situation, store.history, cfg, strategy)
        record = _situation_json(situation)
        record["strategy"] = strategy
        record["ranked"] = [[item, round(value, 6)] for item, value in resolution.ranked]
        record["chosen"] = list(resolution.chosen)
        diag = resolution.diagnostics
        if debug:
            record["debug"] = {
                "residents": list(diag.matrix.residents),
                "items": list(diag.matrix.items),
                "scores": [_round6(row) for row in diag.matrix.scores],
            }
            if diag.singular_values is not None:
                record["debug"].update(
                    singular_values=_round6(diag.singular_values),
                    rank=diag.rank,
                    request_centroid=_round6(diag.centroid),
                    consensus_scores=_round6(diag.consensus),
                )
        if dump_preferences:
            window, table = situation.window, diag.table
            preference_rows.append(
                f"# situation: {situation.service_id}/{situation.location}/{situation.attribute}"
                f"/{format_hms(window.start)}-{format_hms(window.end)}"
            )
            for resident, row in zip(table.residents, table.scores.tolist()):
                preference_rows.extend(f"{resident},{item},{score:.4f}"
                                       for item, score in zip(table.items, row) if score > 0)
        lines.append(dumps_json(record))
    _write_lines(lines, out)
    if dump_preferences:
        Path(dump_preferences).write_text("\n".join(preference_rows) + "\n", encoding="utf-8", newline="\n")


@cli.command()
@click.option("--store", "store_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--requests", "requests_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out-prefix", required=True, help="Reports are written as PREFIX.csv and PREFIX.json.")
@click.option("--strategies", default=",".join(EVALUATION_DEFAULTS.strategies), show_default=True,
              help="Comma-separated strategy labels to score.")
@click.option("--group-sizes", default=",".join(map(str, EVALUATION_DEFAULTS.group_sizes)), show_default=True,
              help="Comma-separated conflict group sizes to bucket.")
@click.option("--list-size", type=int, default=EVALUATION_DEFAULTS.recommendation_list_size, show_default=True,
              help="Length of each strategy's recommendation list.")
@click.option("--plot-data", is_flag=True, help="Also write PREFIX.<metric>.tsv series.")
@config_options("alpha", "top_n", "k", "lookback_days", "adopted_threshold")
def evaluate(store_path, requests_path, out_prefix, strategies, group_sizes, list_size, plot_data, **kwargs) -> None:
    """Score resolution strategies across the detected conflicts."""
    cfg = _build_config(kwargs)
    store, requests, header = _load_inputs(store_path, requests_path, cfg)
    try:
        eval_cfg = EvaluationConfig(
            strategies=tuple(s.strip() for s in strategies.split(",") if s.strip()),
            group_sizes=tuple(int(g) for g in group_sizes.split(",") if g.strip()),
            recommendation_list_size=list_size,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    report = run_experiment(store.history, requests, eval_cfg, cfg)

    meta = [
        f"config: {dumps_json(header['config'])}",
        f"inputs: {dumps_json(header['inputs'])}",
        f"strategies: {','.join(eval_cfg.strategies)} list_size: {eval_cfg.recommendation_list_size}",
    ]
    Path(f"{out_prefix}.csv").write_text(report.to_csv_text(meta), encoding="utf-8", newline="\n")
    payload = {"schema": REPORT_SCHEMA, **header, "list_size": eval_cfg.recommendation_list_size}
    payload.update(report.to_json_obj())
    Path(f"{out_prefix}.json").write_text(dumps_json(payload) + "\n", encoding="utf-8", newline="\n")
    if plot_data:
        for metric, text in report.plot_series(meta).items():
            Path(f"{out_prefix}.{metric}.tsv").write_text(text, encoding="utf-8", newline="\n")
    click.echo(f"wrote {out_prefix}.csv and {out_prefix}.json", err=True)


@cli.command()
def demo() -> None:
    """Run the built-in reference scenario and grade it against known outputs."""
    result = run_reference_check()
    for line in result.lines:
        click.echo(line)
    if not result.passed:
        raise ArbiterError("reference scenario produced unexpected values")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:  # usage errors included
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except ArbiterError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except Exception as exc:  # pragma: no cover - last-resort guard
        click.echo(f"internal error: {exc}", err=True)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
