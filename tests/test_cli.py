import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from homearbiter import ingest
from homearbiter.cli import cli, main
from homearbiter.config import RunConfig
from homearbiter.synthetic import DEFAULT_SEED, synthetic_household

from conftest import DELETE, rewrite_json_line

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
SRC_DIR = DATA_DIR.parent / "src"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    log_text, request_text = synthetic_household()
    (tmp / "log.csv").write_text(log_text, encoding="utf-8")
    (tmp / "requests.jsonl").write_text(request_text, encoding="utf-8")
    rc = main(["ingest", str(tmp / "log.csv"), "--out", str(tmp / "store.jsonl")])
    assert rc == 0
    return tmp


def test_bundled_fixture_matches_generator():
    log_text, request_text = synthetic_household(seed=DEFAULT_SEED)
    assert (DATA_DIR / "household60.csv").read_text(encoding="utf-8") == log_text
    assert (DATA_DIR / "household60_requests.jsonl").read_text(encoding="utf-8") == request_text


def test_ingest_is_deterministic(workspace, tmp_path):
    rc = main(["ingest", str(workspace / "log.csv"), "--out", str(tmp_path / "store2.jsonl")])
    assert rc == 0
    assert (tmp_path / "store2.jsonl").read_bytes() == (workspace / "store.jsonl").read_bytes()


@pytest.mark.parametrize("flags, kind", [([], "bin"), (["--bin-count", "1000"], "num")])
def test_ingest_writes_every_event_line_in_the_canonical_form(tmp_path, monkeypatch, capsys, flags, kind):
    # load_store reads a store of canonical lines without json.loads; any other store is read again by parse_json.
    store = tmp_path / "store.jsonl"
    assert main(["ingest", str(DATA_DIR / "household60.csv"), "--out", str(store), *flags]) == 0
    capsys.readouterr()
    header, *events = store.read_text(encoding="utf-8").splitlines()
    assert any(f'"kind":"{kind}"' in line for line in events)
    parsed = []
    parse_json = ingest.parse_json
    monkeypatch.setattr(ingest, "parse_json", lambda text, *where: parsed.append(text) or parse_json(text, *where))
    history = ingest.load_store(store).history
    assert sum(len(columns.date) for columns in history.groups.values()) == len(events)
    assert parsed == [header]


# The names that a tracer wraps to time the stages: of the cli module for ingest and the input readers,
# of the aggregate and evaluate modules for resolve and evaluate.
INGEST_STAGES = ("parse_event_log", "stabilize", "compute_bins", "apply_bins", "write_store")
RESOLVE_STAGES = ("build_preference_table", "build_item_set", "build_preference_matrix", "consensus_distance")
EVALUATE_STAGES = ("adopted_items", "satisfaction_gain", "harmonic_satisfaction", "average_satisfaction")
# The input readers of the cli module, which a tracer wraps for resolve and evaluate.
INPUT_STAGES = ("load_store", "load_requests", "sha256_file")


def _count_calls(monkeypatch, module, names) -> dict:
    """Wrap each named function of ``module`` to count its calls; the counts, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _stage=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_ingest_calls_each_stage_through_the_name_cli_imports(tmp_path, monkeypatch, capsys):
    from homearbiter import cli as cli_module

    calls = _count_calls(monkeypatch, cli_module, INGEST_STAGES)
    store = tmp_path / "store.jsonl"
    assert main(["ingest", str(DATA_DIR / "household60.csv"), "--out", str(store)]) == 0
    capsys.readouterr()
    binned = sum('"kind":"bin"' in line for line in store.read_text(encoding="utf-8").splitlines()[1:])
    assert binned > 0
    assert calls == {"parse_event_log": 1, "stabilize": 1, "compute_bins": 1, "apply_bins": binned, "write_store": 1}


def test_resolve_and_evaluate_call_each_stage_through_the_module_names(workspace, tmp_path, monkeypatch, capsys):
    from homearbiter import aggregate, cli as cli_module, evaluate

    inputs = ["--store", str(workspace / "store.jsonl"), "--requests", str(workspace / "requests.jsonl")]
    stores, load_store = [], cli_module.load_store
    monkeypatch.setattr(cli_module, "load_store", lambda path: stores.append(load_store(path)) or stores[-1])
    read = _count_calls(monkeypatch, cli_module, INPUT_STAGES)
    built = _count_calls(monkeypatch, aggregate, RESOLVE_STAGES)
    scored = _count_calls(monkeypatch, evaluate, EVALUATE_STAGES)
    out = tmp_path / "resolved.jsonl"
    assert main(["resolve", *inputs, "--debug", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert records
    assert read == {"load_store": 1, "load_requests": 1, "sha256_file": 2}
    assert built == {"build_preference_table": len(records), "build_item_set": len(records),
                     "build_preference_matrix": len(records),
                     "consensus_distance": sum(len(record["debug"]["items"]) for record in records)}
    assert main(["evaluate", *inputs, "--out-prefix", str(tmp_path / "report")]) == 0
    capsys.readouterr()
    assert read == {"load_store": 2, "load_requests": 2, "sha256_file": 4}
    details = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["details"]
    situations = [d for d in details if d["strategy"] == details[0]["strategy"]]
    assert scored == {"adopted_items": sum(d["group_size"] for d in situations), "satisfaction_gain": len(details),
                      "harmonic_satisfaction": len(details), "average_satisfaction": len(details)}
    # A tracer counts a loaded store's events: one per event line.
    event_lines = len((workspace / "store.jsonl").read_text(encoding="utf-8").splitlines()) - 1
    assert [len(store.events) for store in stores] == [event_lines] * 2


def test_store_header_embeds_config_and_digests(workspace):
    header = json.loads((workspace / "store.jsonl").read_text().splitlines()[0])
    assert header["schema"] == "homearbiter-store/1"
    assert header["config"]["alpha"] == 0.97
    assert header["inputs"][0]["path"] == "log.csv"
    assert len(header["inputs"][0]["sha256"]) == 64
    assert any(b["attribute"] == "temp" for b in header["bins"])


# The RunConfig fields each command reads, and a valid value of every field.
READS = {
    "ingest": ("settling_window", "bin_count", "seed"),
    "detect": (),
    "resolve": ("alpha", "top_n", "k", "lookback_days"),
    "evaluate": ("alpha", "top_n", "k", "lookback_days", "adopted_threshold"),
}
FLAG_VALUES = {"alpha": "0.5", "top_n": "2", "k": "2", "settling_window": "30", "bin_count": "2",
               "lookback_days": "10", "seed": "7", "adopted_threshold": "0.5"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _command_argv(command, workspace, tmp_path) -> list[str]:
    """A run of ``command`` on the workspace inputs that exits 0."""
    if command == "ingest":
        return ["ingest", str(workspace / "log.csv"), "--out", str(tmp_path / "store.jsonl")]
    out = ["--out-prefix", str(tmp_path / "report")] if command == "evaluate" else ["--out", str(tmp_path / "out")]
    return [command, "--store", str(workspace / "store.jsonl"), "--requests", str(workspace / "requests.jsonl"), *out]


def test_help_lists_the_config_flags_each_command_reads(capsys):
    assert sorted(FLAG_VALUES) == sorted(RunConfig().as_dict())
    for command, names in READS.items():
        assert main([command, "--help"]) == 0
        shown = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert {name for name in FLAG_VALUES if _flag(name) in shown} == set(names)


@pytest.mark.parametrize("command, name", [(command, name) for command, names in READS.items()
                                           for name in FLAG_VALUES if name not in names])
def test_a_config_flag_the_command_does_not_read_is_a_usage_error(workspace, tmp_path, capsys, command, name):
    assert main([*_command_argv(command, workspace, tmp_path), _flag(name), FLAG_VALUES[name]]) == 1
    assert f"No such option '{_flag(name)}'" in capsys.readouterr().err


def test_headers_record_every_config_field_with_unread_ones_at_default(workspace, tmp_path, capsys):
    argv = [*_command_argv("ingest", workspace, tmp_path), "--bin-count", "4", "--seed", "3", "--channels", "Ch1"]
    assert main(argv) == 0
    header = json.loads((tmp_path / "store.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert header["config"] == {**RunConfig().as_dict(), "bin_count": 4, "seed": 3}
    capsys.readouterr()


@pytest.mark.parametrize("flags, message", [
    (["--seed", "7"], "--seed seeds the channel draws of --channels and needs --channels"),
    (["--seed", "0"], "--seed seeds the channel draws of --channels and needs --channels"),
    (["--channels", ","], "--channels names no channel label"),
    (["--channels", " "], "--channels names no channel label"),
])
def test_ingest_flags_that_would_draw_nothing_are_usage_errors(tmp_path, capsys, flags, message):
    # The log is not valid CSV: the flags are rejected before any parsing.
    log = tmp_path / "log.csv"
    log.write_text("not,a,log\n", encoding="utf-8")
    assert main(["ingest", str(log), "--out", str(tmp_path / "store.jsonl"), *flags]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"Error: {message}"
    assert not (tmp_path / "store.jsonl").exists()


@pytest.mark.parametrize("residents", [" ,b", "a,", "", " "])
def test_ingest_empty_resident_id_is_a_usage_error(tmp_path, capsys, residents):
    # The logs are not valid CSV: the ids are rejected before any parsing.
    logs = [tmp_path / "a.csv", tmp_path / "b.csv"][:residents.count(",") + 1]
    for log in logs:
        log.write_text("not,a,log\n", encoding="utf-8")
    assert main(["ingest", *map(str, logs), "--residents", residents, "--out", str(tmp_path / "store.jsonl")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "Error: --residents names an empty id"
    assert not (tmp_path / "store.jsonl").exists()


@pytest.mark.parametrize("command, name", [("ingest", "bin_count"), ("resolve", "top_n")])
def test_a_bad_config_value_names_only_its_field(workspace, tmp_path, capsys, command, name):
    assert main([*_command_argv(command, workspace, tmp_path), _flag(name), "0"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"Error: {name} must be positive"


def test_detect_outputs_situations(workspace, tmp_path):
    out = tmp_path / "conflicts.jsonl"
    rc = main([
        "detect", "--store", str(workspace / "store.jsonl"),
        "--requests", str(workspace / "requests.jsonl"), "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "homearbiter-conflicts/1"
    situations = [json.loads(line) for line in lines[1:]]
    assert len(situations) == 6
    tv = [s for s in situations if s["service_id"] == "TV"]
    assert any(s["window"] == {"start": "20:00:00", "end": "20:30:00"} for s in tv)
    assert all(set(s) >= {"service_id", "location", "window", "request_ids"} for s in situations)
    # the lone lamp request conflicts with nobody
    assert not any("lamp" in s["service_id"] for s in situations)


def test_detect_then_resolve_equals_direct_resolve(workspace, tmp_path):
    conflicts = tmp_path / "conflicts.jsonl"
    rc = main([
        "detect", "--store", str(workspace / "store.jsonl"),
        "--requests", str(workspace / "requests.jsonl"), "--out", str(conflicts),
    ])
    assert rc == 0
    direct = tmp_path / "direct.jsonl"
    piped = tmp_path / "piped.jsonl"
    base = [
        "resolve", "--store", str(workspace / "store.jsonl"),
        "--requests", str(workspace / "requests.jsonl"),
    ]
    assert main(base + ["--out", str(direct)]) == 0
    assert main(base + ["--conflicts", str(conflicts), "--out", str(piped)]) == 0
    assert direct.read_bytes() == piped.read_bytes()


def test_resolve_debug_and_preferences_dump(workspace, tmp_path):
    out = tmp_path / "resolutions.jsonl"
    prefs = tmp_path / "prefs.csv"
    rc = main([
        "resolve", "--store", str(workspace / "store.jsonl"),
        "--requests", str(workspace / "requests.jsonl"),
        "--debug", "--dump-preferences", str(prefs), "--out", str(out), "--k", "2",
    ])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert all(r["strategy"] == "svd" for r in records)
    tv = next(r for r in records if r["window"]["start"] == "20:00:00")
    assert len(tv["chosen"]) == 2
    assert "debug" in tv and "singular_values" in tv["debug"]
    assert tv["debug"]["rank"] >= 1
    distances = [value for _, value in tv["ranked"]]
    assert distances == sorted(distances)

    pref_lines = prefs.read_text().splitlines()
    assert pref_lines[0].startswith("# config:")
    data_lines = [line for line in pref_lines if not line.startswith("#")]
    assert data_lines[0] == "resident,item,score"
    assert all(len(line.split(",")) == 3 for line in data_lines[1:])
    # scores are printed with four decimals
    assert all("." in line.split(",")[2] and len(line.split(",")[2].split(".")[1]) == 4 for line in data_lines[1:])
    assert any(line.startswith("# situation: TV/living room/channel/20:00:00-20:30:00") for line in pref_lines)


def test_resolve_baseline_strategy(workspace, tmp_path):
    out = tmp_path / "avg.jsonl"
    rc = main([
        "resolve", "--store", str(workspace / "store.jsonl"),
        "--requests", str(workspace / "requests.jsonl"),
        "--strategy", "avg", "--out", str(out),
    ])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert all(r["strategy"] == "avg" for r in records)
    scores = [value for _, value in records[0]["ranked"]]
    assert scores == sorted(scores, reverse=True)


def test_evaluate_writes_reports(workspace, tmp_path):
    prefix = tmp_path / "report"
    rc = main([
        "evaluate", "--store", str(workspace / "store.jsonl"),
        "--requests", str(workspace / "requests.jsonl"),
        "--out-prefix", str(prefix), "--plot-data",
    ])
    assert rc == 0
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.startswith("# config:")
    assert "strategy,group_size,conflicts,sg,harmonic,avg_satisfaction" in csv_text
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema"] == "homearbiter-report/1"
    assert payload["rows"]
    assert (tmp_path / "report.harmonic.tsv").exists()
    series = (tmp_path / "report.sg.tsv").read_text().splitlines()
    assert series[0].startswith("# config:")
    data_rows = [line for line in series if not line.startswith("#")]
    assert data_rows[0].startswith("group_size\t")


def test_evaluate_rerun_is_byte_identical(workspace, tmp_path):
    args = [
        "evaluate", "--store", str(workspace / "store.jsonl"),
        "--requests", str(workspace / "requests.jsonl"),
    ]
    assert main(args + ["--out-prefix", str(tmp_path / "one")]) == 0
    assert main(args + ["--out-prefix", str(tmp_path / "two")]) == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


def test_evaluate_unknown_strategy_is_usage_error(workspace, tmp_path, monkeypatch, capsys):
    import homearbiter.cli as cli_module

    def fail(*args, **kwargs):
        raise AssertionError("no strategy may be scored before all names are checked")

    monkeypatch.setattr(cli_module, "run_experiment", fail)
    cases = (
        (["--strategies", "svd,zmp"], "unknown strategy 'zmp'"),
        (["--strategies", "avg,avg"], "duplicate strategy in 'avg,avg'"),
        (["--group-sizes", "2,2"], "duplicate group size in '2,2'"),
        (["--strategies", "avg,avg", "--group-sizes", "2,2"], "duplicate strategy"),
        (["--group-sizes", ""], "need at least one group size"),
        (["--group-sizes", " , "], "need at least one group size"),
    )
    for options, message in cases:
        rc = main([
            "evaluate", "--store", str(workspace / "store.jsonl"),
            "--requests", str(workspace / "requests.jsonl"),
            "--out-prefix", str(tmp_path / "report"), *options,
        ])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()


def test_demo_passes(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] consensus distances" in out
    assert "[FAIL]" not in out
    assert "all checks passed" in out


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["resolve"]) == 1  # missing required options
    assert main(["ingest", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "s.jsonl")]) == 1
    assert main(["detect", "--store", "nope.jsonl", "--requests", "nope.jsonl"]) == 1
    capsys.readouterr()


def test_data_errors_exit_two(workspace, tmp_path, capsys):
    bad_log = tmp_path / "bad.csv"
    bad_log.write_text("date,time,sensor,status,value,resident,location\ngarbage\n", encoding="utf-8")
    assert main(["ingest", str(bad_log), "--out", str(tmp_path / "s.jsonl")]) == 2

    bad_requests = tmp_path / "bad.jsonl"
    bad_requests.write_text("{not json}\n", encoding="utf-8")
    rc = main(["detect", "--store", str(workspace / "store.jsonl"), "--requests", str(bad_requests)])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", ["1_0:00:00", "+1:00:00", " 9 : 0 : 0", "\u0660\u0669:00:00"])
def test_times_that_are_not_hms_exit_two_with_line(workspace, tmp_path, capsys, text):
    log = tmp_path / "log.csv"
    log.write_text("date,time,sensor,status,value,resident,location\n2026-01-01,08:00:00,TV,ON,Ch1,r1,den\n"
                   f'2026-01-01,"{text}",TV,OFF,,r1,den\n', encoding="utf-8")
    assert main(["ingest", str(log), "--out", str(tmp_path / "s.jsonl")]) == 2
    assert f"log.csv:3: expected HH:MM:SS, got {text.strip()!r}" in capsys.readouterr().err
    requests = tmp_path / "requests.jsonl"
    line = {"request_id": "q1", "service_id": "TV", "attribute": "channel", "value": "Ch1", "start": "20:00:00",
            "end": text, "location": "den", "resident": "r1"}
    requests.write_text(json.dumps({**line, "request_id": "q0", "end": "21:00:00"}) + "\n" + json.dumps(line) + "\n",
                        encoding="utf-8")
    assert main(["detect", "--store", str(workspace / "store.jsonl"), "--requests", str(requests)]) == 2
    assert f"requests.jsonl:2: expected HH:MM:SS, got {text!r}" in capsys.readouterr().err


def test_reversed_log_exits_two_with_line(tmp_path, capsys):
    header, *rows = (DATA_DIR / "household60.csv").read_text(encoding="utf-8").splitlines()
    reversed_log = tmp_path / "reversed.csv"
    reversed_log.write_text("\n".join([header, *reversed(rows)]) + "\n", encoding="utf-8")
    assert main(["ingest", str(reversed_log), "--out", str(tmp_path / "s.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"{reversed_log}:3: row at" in err and "warning" not in err
    assert not (tmp_path / "s.jsonl").exists()


def test_log_errors_name_the_first_line_of_a_record_spanning_lines(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("date,time,sensor,status,value,resident,location\n"
                   '2026-01-01,08:00:00,TV,ON,Ch1,r1,"living\nroom"\n'
                   "2026-01-01,09:00:00,TV,OFF,,r1,den\n"
                   "2026-01-01,10:00:00,TV,BOGUS,,r1,den\n", encoding="utf-8")
    assert main(["ingest", str(log), "--out", str(tmp_path / "s.jsonl")]) == 2
    assert capsys.readouterr().err == f"data error: {log}:5: unknown status 'BOGUS'\n"


def test_log_field_over_the_csv_limit_exits_two_with_line(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("date,time,sensor,status,value,resident,location\n"
                   "2026-01-01,08:00:00,TV,ON,Ch1,r1,den\n"
                   '2026-01-01,09:00:00,TV,SET,"' + "x" * (csv.field_size_limit() + 1) + '",r1,den\n',
                   encoding="utf-8")
    assert main(["ingest", str(log), "--out", str(tmp_path / "s.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {log}:3: bad CSV: field larger than field limit") and "internal" not in err
    assert not (tmp_path / "s.jsonl").exists()


def test_store_line_that_is_not_an_event_object_exits_two(workspace, tmp_path, capsys):
    header, *events = (workspace / "store.jsonl").read_text(encoding="utf-8").splitlines()
    event = json.loads(events[0])
    bad_attribute = dict(event, attributes={name: [1] for name in event["attributes"]})
    requests = ["--requests", str(workspace / "requests.jsonl")]
    for line in ("[1, 2]", '"text"', json.dumps(dict(event, attributes=[1])), json.dumps(bad_attribute)):
        store = tmp_path / "store.jsonl"
        store.write_text("\n".join([header, events[0], line, *events[1:]]) + "\n", encoding="utf-8")
        for command in (["detect"], ["resolve"], ["evaluate", "--out-prefix", str(tmp_path / "report")]):
            assert main([*command, "--store", str(store), *requests]) == 2
            assert f"{store}:3: bad event record" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("start", True),
    ("attribute", {"kind": "bin", "index": True, "bounds": "12"}),
    ("attribute", {"kind": "bin", "index": -0.0, "bounds": [1, 2]}),
    ("attribute", {"kind": "bin", "index": -1, "bounds": [1, 2]}),
    ("attribute", {"kind": "bin", "index": 1, "bounds": [1, 2, 3]}),
    ("attribute", {"kind": "bin", "index": 1, "bounds": [False, 2]}),
    ("attribute", {"kind": "num", "value": " 1e3 "}),
    ("attribute", {"kind": "num", "value": "3"}),
    ("attribute", {"kind": "num", "value": True}),
])
def test_store_value_that_no_writer_emits_exits_two(workspace, tmp_path, capsys, field, value):
    header, first, *events = (workspace / "store.jsonl").read_text(encoding="utf-8").splitlines()
    event = json.loads(first)
    if field == "attribute":
        event["attributes"] = {name: value for name in event["attributes"]}
    else:
        event[field] = value
    store = tmp_path / "store.jsonl"
    store.write_text("\n".join([header, first, json.dumps(event), *events]) + "\n", encoding="utf-8")
    assert main(["detect", "--store", str(store), "--requests", str(workspace / "requests.jsonl")]) == 2
    assert f"data error: {store}:3: bad event record" in capsys.readouterr().err


def test_request_line_that_is_not_a_request_object_exits_two(workspace, tmp_path, capsys):
    first, *rest = (workspace / "requests.jsonl").read_text(encoding="utf-8").splitlines()
    requests = tmp_path / "requests.jsonl"
    for line in ("[1]", json.dumps(dict(json.loads(first), start=5))):
        requests.write_text("\n".join([first, line, *rest]) + "\n", encoding="utf-8")
        for command in (["detect"], ["resolve"], ["evaluate", "--out-prefix", str(tmp_path / "report")]):
            assert main([*command, "--store", str(workspace / "store.jsonl"), "--requests", str(requests)]) == 2
            assert f"data error: {requests}:2: " in capsys.readouterr().err


def test_store_header_bins_are_checked_at_load(workspace, tmp_path, capsys):
    header, *events = (workspace / "store.jsonl").read_text(encoding="utf-8").splitlines()
    header = json.loads(header)
    entry = header["bins"][0]
    store = tmp_path / "store.jsonl"
    requests = ["--requests", str(workspace / "requests.jsonl")]
    broken = [
        [{k: v for k, v in entry.items() if k != "lo"}],
        [{"service_id": "thermostat"}],
        [dict(entry, boundaries=entry["boundaries"][::-1])],
        [dict(entry, bin_count=str(entry["bin_count"]))],
        [dict(entry, hi=None)],
        {"temp": entry},
    ]
    for bins in broken:
        store.write_text("\n".join([json.dumps(dict(header, bins=bins)), *events]) + "\n", encoding="utf-8")
        for command in (["detect"], ["resolve"], ["evaluate", "--out-prefix", str(tmp_path / "report")]):
            assert main([*command, "--store", str(store), *requests]) == 2
            assert f"data error: {store}:1: bad bins entry: " in capsys.readouterr().err


def test_multi_log_store_has_unique_event_ids(tmp_path, capsys):
    header, *rows = (DATA_DIR / "household60.csv").read_text(encoding="utf-8").splitlines()
    dates = sorted({row.split(",")[0] for row in rows})
    middle = dates[len(dates) // 2]
    halves = [tmp_path / "a.csv", tmp_path / "b.csv"]
    halves[0].write_text("\n".join([header, *(r for r in rows if r < middle)]) + "\n", encoding="utf-8")
    halves[1].write_text("\n".join([header, *(r for r in rows if r >= middle)]) + "\n", encoding="utf-8")
    for name, logs in (("a", halves[:1]), ("ab", halves)):
        assert main(["ingest", *map(str, logs), "--out", str(tmp_path / f"{name}.jsonl"), "--bin-count", "1000"]) == 0
    capsys.readouterr()
    first_half = (tmp_path / "a.jsonl").read_text(encoding="utf-8").splitlines()[1:]
    both = (tmp_path / "ab.jsonl").read_text(encoding="utf-8").splitlines()[1:]
    ids = [json.loads(line)["event_id"] for line in both]
    assert len(set(ids)) == len(ids) > len(first_half) > 0
    # The first log keeps its own ids; later logs number on after it.
    assert both[:len(first_half)] == first_half


def test_string_request_value_is_binned_like_a_number(workspace, tmp_path):
    text = (workspace / "requests.jsonl").read_text(encoding="utf-8")
    records = [json.loads(line) for line in text.splitlines()]
    thermostat = [r for r in records if r["service_id"] == "thermostat"]
    assert thermostat and all(isinstance(r["value"], float) for r in thermostat)
    as_text = tmp_path / "requests.jsonl"
    as_text.write_text("".join(
        json.dumps(dict(r, value=f"{r['value']:g}") if r["service_id"] == "thermostat" else r) + "\n"
        for r in records), encoding="utf-8")
    outputs = []
    for requests in (workspace / "requests.jsonl", as_text):
        out = tmp_path / "resolved.jsonl"
        assert main(["resolve", "--store", str(workspace / "store.jsonl"), "--requests", str(requests),
                     "--out", str(out)]) == 0
        outputs.append(out.read_text(encoding="utf-8").splitlines()[1:])
    assert outputs[0] == outputs[1]
    assert any('"thermostat"' in line for line in outputs[1])


def test_empty_request_file_resolves_cleanly(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "res.jsonl"
    rc = main([
        "resolve", "--store", str(workspace / "store.jsonl"),
        "--requests", str(empty), "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # header only
    capsys.readouterr()


def test_ingest_with_residents_merge(tmp_path):
    header = "date,time,sensor,status,value,resident,location\n"
    (tmp_path / "a.csv").write_text(
        header + "2026-01-01,20:00:00,TV,ON,channel=Ch1,x,living room\n"
        "2026-01-01,21:00:00,TV,OFF,,x,living room\n",
        encoding="utf-8",
    )
    (tmp_path / "b.csv").write_text(
        header + "2026-01-01,19:00:00,TV,ON,channel=Ch2,x,living room\n"
        "2026-01-01,20:30:00,TV,OFF,,x,living room\n",
        encoding="utf-8",
    )
    out = tmp_path / "store.jsonl"
    rc = main([
        "ingest", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
        "--residents", "ra,rb", "--out", str(out),
    ])
    assert rc == 0
    events = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert [e["resident"] for e in events] == ["rb", "ra"]  # sorted by start time
    # mismatched count is a usage error
    assert main([
        "ingest", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
        "--residents", "ra", "--out", str(out),
    ]) == 1


def test_ingest_rejects_a_duplicate_resident_id(tmp_path, capsys):
    header = "date,time,sensor,status,value,resident,location\n"
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_text(header + "2026-01-01,20:00:00,TV,ON,,x,den\n", encoding="utf-8")
    out = tmp_path / "store.jsonl"
    assert main(["ingest", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                 "--residents", "a,a", "--out", str(out)]) == 2
    assert "data error: duplicate resident id 'a' in --residents" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_rejects_a_duplicate_resident_id_before_parsing_any_log(tmp_path, capsys):
    header = "date,time,sensor,status,value,resident,location\n"
    (tmp_path / "bad.csv").write_text(header + "2026-01-01,25:00:00,TV,ON,,x,den\n", encoding="utf-8")
    (tmp_path / "good.csv").write_text(header + "2026-01-01,20:00:00,TV,ON,,x,den\n", encoding="utf-8")
    assert main(["ingest", str(tmp_path / "bad.csv"), str(tmp_path / "good.csv"),
                 "--residents", "a,a", "--out", str(tmp_path / "store.jsonl")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "data error: duplicate resident id 'a' in --residents"


def test_cli_module_runs_as_a_script():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "homearbiter.cli", "demo"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "demo: all checks passed" in done.stdout


def test_demo_failure_exits_three(monkeypatch, capsys):
    import homearbiter.demo as demo_module

    monkeypatch.setattr(demo_module, "EXPECTED_RANK", 3)
    assert main(["demo"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] kept rank" in out


def test_malformed_conflict_stream_exits_two(workspace, tmp_path, capsys):
    bad = tmp_path / "conflicts.jsonl"
    bad.write_text("{not json}\n", encoding="utf-8")
    rc = main([
        "resolve", "--store", str(workspace / "store.jsonl"),
        "--requests", str(workspace / "requests.jsonl"),
        "--conflicts", str(bad), "--out", str(tmp_path / "out.jsonl"),
    ])
    assert rc == 2
    unknown = tmp_path / "unknown.jsonl"
    unknown.write_text(
        '{"service_id":"TV","location":"living room","attribute":"channel",'
        '"window":{"start":"20:00:00","end":"20:30:00"},"request_ids":["ghost-1","ghost-2"]}\n',
        encoding="utf-8",
    )
    rc = main([
        "resolve", "--store", str(workspace / "store.jsonl"),
        "--requests", str(workspace / "requests.jsonl"),
        "--conflicts", str(unknown), "--out", str(tmp_path / "out2.jsonl"),
    ])
    assert rc == 2
    capsys.readouterr()
    detected, numeric_start = tmp_path / "detected.jsonl", tmp_path / "numeric-start.jsonl"
    assert main(["detect", "--store", str(workspace / "store.jsonl"), "--requests", str(workspace / "requests.jsonl"),
                 "--out", str(detected)]) == 0
    rewrite_json_line(detected, 2, ["window", "start"], 5, out=numeric_start)
    rc = main([
        "resolve", "--store", str(workspace / "store.jsonl"),
        "--requests", str(workspace / "requests.jsonl"),
        "--conflicts", str(numeric_start), "--out", str(tmp_path / "out3.jsonl"),
    ])
    assert rc == 2
    assert f"{numeric_start}:2: bad conflict record: expected HH:MM:SS, got 5" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("location", 5, "location must be a string"),
    ("location", None, "location must be a string"),
    ("location", ["living room"], "location must be a string"),
    ("location", {"room": "living room"}, "location must be a string"),
    ("service_id", ["TV"], "service_id must be a string"),
    ("attribute", 7, "attribute must be a string"),
    ("request_ids", "tv", "request_ids must be a list of strings"),
    ("request_ids", [1, 2], "request_ids must be a list of strings"),
    ("request_ids", None, "request_ids must be a list of strings"),
    ("window", "20:00:00", "window must be an object"),
    ("window", None, "window must be an object"),
    ("window", ["20:00:00", "20:30:00"], "window must be an object"),
])
def test_conflict_record_field_of_the_wrong_type_exits_two(workspace, tmp_path, capsys, field, value, message):
    inputs = ["--store", str(workspace / "store.jsonl"), "--requests", str(workspace / "requests.jsonl")]
    stream = tmp_path / "conflicts.jsonl"
    assert main(["detect", *inputs, "--out", str(stream)]) == 0
    rewrite_json_line(stream, 2, [field], value)
    assert main(["resolve", *inputs, "--conflicts", str(stream)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"data error: {stream}:2: bad conflict record: {message}"


@pytest.mark.parametrize("kind, lineno, keys, value, message", [
    ("conflicts", 2, ["service_id"], DELETE, "bad conflict record: missing field 'service_id'"),
    ("conflicts", 2, ["window", "end"], DELETE, "bad conflict record: missing field 'end'"),
    ("conflicts", 2, [], [1], "bad conflict record: expected a JSON object, got list"),
    ("store", 2, ["start"], DELETE, "bad event record: missing field 'start'"),
    ("store", 2, [], [1], "bad event record: expected a JSON object, got list"),
    ("store", 1, ["bins"], 5, "bad bins entry: bins must be a list"),
    ("store", 1, ["bins"], {"temp": {}}, "bad bins entry: bins must be a list"),
    ("store", 1, ["bins", 0, "lo"], DELETE, "bad bins entry: missing field 'lo'"),
    ("store", 1, ["bins", 0], [], "bad bins entry: expected a JSON object, got list"),
    ("requests", 1, ["start"], DELETE, "missing field 'start'"),
    ("requests", 1, [], [1], "expected a JSON object, got list"),
    ("store", 2, ["date"], "x", "bad event record: date must be an ISO date, got 'x'"),
])
def test_a_bad_record_reads_one_way_in_every_reader(workspace, tmp_path, capsys, kind, lineno, keys, value, message):
    inputs = {"store": workspace / "store.jsonl", "requests": workspace / "requests.jsonl"}
    stream = tmp_path / "conflicts.jsonl"
    assert main(["detect", "--store", str(inputs["store"]), "--requests", str(inputs["requests"]),
                 "--out", str(stream)]) == 0
    inputs["conflicts"] = stream
    inputs[kind] = bad = rewrite_json_line(inputs[kind], lineno, keys, value, out=tmp_path / f"bad-{kind}.jsonl")
    assert main(["resolve", "--store", str(inputs["store"]), "--requests", str(inputs["requests"]),
                 "--conflicts", str(inputs["conflicts"])]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"data error: {bad}:{lineno}: {message}"


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
def test_conflict_stream_lines_end_only_at_newlines(workspace, tmp_path, separator):
    # JSON allows these raw inside a string, and str.splitlines would end a line at each of them.
    inputs = ["--store", str(workspace / "store.jsonl"), "--requests", str(workspace / "requests.jsonl")]
    detected, stream = tmp_path / "detected.jsonl", tmp_path / "stream.jsonl"
    assert main(["detect", *inputs, "--out", str(detected)]) == 0
    header, *records = detected.read_text(encoding="utf-8").splitlines()
    header = json.dumps({**json.loads(header), "note": f"a{separator}b"}, ensure_ascii=False)
    stream.write_text("\r\n".join([header, *records]) + "\r\n", encoding="utf-8")
    assert main(["resolve", *inputs, "--conflicts", str(stream), "--out", str(tmp_path / "a.jsonl")]) == 0
    assert main(["resolve", *inputs, "--conflicts", str(detected), "--out", str(tmp_path / "b.jsonl")]) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_conflict_stream_header_must_match_inputs(workspace, tmp_path, capsys):
    renamed = tmp_path / "renamed-requests.jsonl"
    renamed.write_bytes((workspace / "requests.jsonl").read_bytes())
    conflicts = tmp_path / "conflicts.jsonl"
    assert main([
        "detect", "--store", str(workspace / "store.jsonl"), "--requests", str(renamed), "--out", str(conflicts),
    ]) == 0
    header, *records = conflicts.read_text().splitlines()

    def resolve_stream(lines, requests=workspace / "requests.jsonl"):
        stream = tmp_path / "stream.jsonl"
        stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main([
            "resolve", "--store", str(workspace / "store.jsonl"), "--requests", str(requests),
            "--conflicts", str(stream), "--out", str(tmp_path / "out.jsonl"),
        ])
        return rc, capsys.readouterr().err

    # digests, not file names, tie the stream to its inputs
    assert resolve_stream(["", header, *records]) == (0, "")

    bogus = json.loads(header)
    bogus["schema"] = "bogus/9"
    rc, err = resolve_stream(["", json.dumps(bogus), *records])
    assert rc == 2 and "stream.jsonl:2: conflict stream schema 'bogus/9'" in err

    rc, err = resolve_stream(records)
    assert rc == 2 and "stream.jsonl:1: conflict stream schema None" in err

    ghost = json.loads(records[0])
    ghost["request_ids"] = ["ghost-1", "ghost-2"]
    rc, err = resolve_stream([header, json.dumps(ghost)])
    assert rc == 2 and "stream.jsonl:2: conflict stream references unknown key 'ghost-1'" in err

    rc, err = resolve_stream([])
    assert rc == 2 and "empty conflict stream" in err

    other = tmp_path / "other-requests.jsonl"
    other.write_text(renamed.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    rc, err = resolve_stream([header, *records], requests=other)
    assert rc == 2 and "stream.jsonl:1: conflict stream was detected from a different" in err

    stale = json.loads(header)
    stale["inputs"][0]["sha256"] = "0" * 64
    rc, err = resolve_stream([json.dumps(stale), *records])
    assert rc == 2 and "input sha256 digests differ" in err
    for broken in ({k: v for k, v in stale.items() if k != "inputs"}, {**stale, "inputs": "x"}):
        assert resolve_stream([json.dumps(broken), *records])[0] == 2


def test_conflict_stream_errors_are_parse_errors_naming_the_line(tmp_path):
    from homearbiter.cli import CONFLICTS_SCHEMA, _load_conflict_stream
    from homearbiter.errors import ParseError

    header = json.dumps({"schema": CONFLICTS_SCHEMA, "inputs": []})
    record = {"service_id": "TV", "location": "den", "attribute": "channel", "request_ids": [], "window": 5}
    stream = tmp_path / "stream.jsonl"
    for lines, lineno in (
        ([json.dumps({"schema": "bogus/9"})], 1),
        (["", json.dumps({"schema": CONFLICTS_SCHEMA, "inputs": [{"sha256": "0" * 64}]})], 2),
        ([header, json.dumps({"request_ids": ["ghost-1"]})], 2),
        ([header, "", json.dumps(record)], 3),
        ([], None),
    ):
        stream.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            _load_conflict_stream(str(stream), [], [])
        assert (err.value.path, err.value.line) == (str(stream), lineno)


def test_ingest_rejects_values_whose_squares_overflow(tmp_path, capsys):
    rows = [f"2026-03-02,0{hour}:00:00,thermostat,ON,temp={value},alice,hall"
            for hour, value in zip(range(6, 10), ("1e154", "7e153", "1.1e154", "7e153"))]
    log = tmp_path / "log.csv"
    log.write_text("\n".join(["date,time,sensor,status,value,resident,location", *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "store.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["ingest", str(log), "--out", str(out), "--bin-count", "3"]) == 2
    assert caught == []
    assert capsys.readouterr().err == \
        "data error: attribute 'temp': values too large to bin (their squares overflow a float)\n"
    assert not out.exists()


def test_malformed_location_map_exits_two(tmp_path, capsys):
    header = "date,time,sensor,status,value,resident,location\n"
    (tmp_path / "log.csv").write_text(
        header + "2026-01-01,20:00:00,TV,ON,,r1,den\n2026-01-01,21:00:00,TV,OFF,,r1,den\n",
        encoding="utf-8",
    )
    bad_map = tmp_path / "map.json"
    bad_map.write_text("{broken", encoding="utf-8")
    rc = main([
        "ingest", str(tmp_path / "log.csv"), "--out", str(tmp_path / "store.jsonl"),
        "--location-map", str(bad_map),
    ])
    assert rc == 2
    bad_map.write_text("[1, 2]", encoding="utf-8")
    rc = main([
        "ingest", str(tmp_path / "log.csv"), "--out", str(tmp_path / "store.jsonl"),
        "--location-map", str(bad_map),
    ])
    assert rc == 2
    capsys.readouterr()


# An integer literal past the interpreter's 4300-digit limit on int-string
# conversion: valid JSON syntax that json.loads rejects with a plain ValueError.
HUGE_INTEGER = "9" * 5000


def test_request_line_with_a_huge_integer_exits_two(workspace, tmp_path, capsys):
    first, *rest = (workspace / "requests.jsonl").read_text(encoding="utf-8").splitlines()
    requests = tmp_path / "requests.jsonl"
    requests.write_text("\n".join([first, f'{{"value": {HUGE_INTEGER}}}', *rest]) + "\n", encoding="utf-8")
    assert main(["detect", "--store", str(workspace / "store.jsonl"), "--requests", str(requests)]) == 2
    assert f"data error: {requests}:2: bad JSON" in capsys.readouterr().err


def test_store_line_with_a_huge_integer_exits_two(workspace, tmp_path, capsys):
    header, *events = (workspace / "store.jsonl").read_text(encoding="utf-8").splitlines()
    store = tmp_path / "store.jsonl"
    requests = ["--requests", str(workspace / "requests.jsonl")]
    for lineno in (1, 2):
        lines = [header, *events]
        lines[lineno - 1] = lines[lineno - 1][:-1] + f',"extra":{HUGE_INTEGER}}}'
        store.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["resolve", "--store", str(store), *requests]) == 2
        assert f"data error: {store}:{lineno}: bad JSON" in capsys.readouterr().err


def test_conflict_stream_line_with_a_huge_integer_exits_two(workspace, tmp_path, capsys):
    inputs = ["--store", str(workspace / "store.jsonl"), "--requests", str(workspace / "requests.jsonl")]
    stream = tmp_path / "conflicts.jsonl"
    assert main(["detect", *inputs, "--out", str(stream)]) == 0
    header, *records = stream.read_text(encoding="utf-8").splitlines()
    stream.write_text("\n".join([header, f'{{"window": {HUGE_INTEGER}}}', *records]) + "\n", encoding="utf-8")
    assert main(["resolve", *inputs, "--conflicts", str(stream)]) == 2
    assert f"data error: {stream}:2: bad JSON" in capsys.readouterr().err


@pytest.mark.parametrize("location", [5, "", "  ", None, ["den"]])
def test_location_map_value_that_is_not_a_location_exits_two(tmp_path, capsys, location):
    location_map = tmp_path / "map.json"
    location_map.write_text(json.dumps({"radio": "kitchen", "TV": location}), encoding="utf-8")
    rc = main(["ingest", str(DATA_DIR / "household60.csv"), "--out", str(tmp_path / "store.jsonl"),
               "--location-map", str(location_map)])
    assert rc == 2
    assert f"data error: {location_map}: location of 'TV' must be a non-empty string" in capsys.readouterr().err
    assert not (tmp_path / "store.jsonl").exists()


def test_location_map_with_a_huge_integer_exits_two(tmp_path, capsys):
    location_map = tmp_path / "map.json"
    location_map.write_text(f'{{"TV": {HUGE_INTEGER}}}', encoding="utf-8")
    rc = main(["ingest", str(DATA_DIR / "household60.csv"), "--out", str(tmp_path / "store.jsonl"),
               "--location-map", str(location_map)])
    assert rc == 2
    assert f"data error: {location_map}: bad JSON" in capsys.readouterr().err
    assert not (tmp_path / "store.jsonl").exists()


@pytest.mark.parametrize("placement, newline", [("inside line 2", "\n"), ("after the last line", "\n"),
                                                ("inside line 2", "\r\n"), ("after the last line", "\r")])
@pytest.mark.parametrize("kind", ["store", "requests", "log", "location-map", "conflicts"])
def test_a_byte_that_is_not_utf8_exits_two_naming_its_line(workspace, tmp_path, capsys, kind, placement, newline):
    files = {"store": workspace / "store.jsonl", "requests": workspace / "requests.jsonl",
             "log": DATA_DIR / "household60.csv", "location-map": tmp_path / "map.json",
             "conflicts": tmp_path / "conflicts.jsonl"}
    files["location-map"].write_text(json.dumps({"TV": "den", "radio": "kitchen"}, indent=1), encoding="utf-8")
    assert main(["detect", "--store", str(files["store"]), "--requests", str(files["requests"]),
                 "--out", str(files["conflicts"])]) == 0
    lines = [line.encode("utf-8") for line in files[kind].read_text(encoding="utf-8").splitlines()]
    if placement == "inside line 2":
        lines[1] = lines[1][:5] + b"\xff" + lines[1][5:]
        lineno = 2
    else:
        lines.append(b"\xff")
        lineno = len(lines)
    files[kind] = tmp_path / f"bad-{files[kind].name}"
    files[kind].write_bytes(newline.encode().join(lines) + newline.encode())
    inputs = ["--store", str(files["store"]), "--requests", str(files["requests"])]
    argv = {"store": ["resolve", *inputs], "requests": ["evaluate", *inputs, "--out-prefix", str(tmp_path / "r")],
            "log": ["ingest", str(files["log"]), "--out", str(tmp_path / "out.jsonl")],
            "location-map": ["ingest", str(DATA_DIR / "household60.csv"), "--location-map",
                             str(files["location-map"]), "--out", str(tmp_path / "out.jsonl")],
            "conflicts": ["resolve", *inputs, "--conflicts", str(files["conflicts"])]}
    assert main(argv[kind]) == 2
    assert capsys.readouterr().err == f"data error: {files[kind]}:{lineno}: not UTF-8: byte 0xff (invalid start byte)\n"
    assert not (tmp_path / "out.jsonl").exists()


def test_history_is_indexed_once_per_call(workspace, tmp_path, monkeypatch, capsys):
    from homearbiter.model import ServiceEvent
    from homearbiter.preferences import History

    builds, events = [], []
    index, construct = History._index, ServiceEvent.__init__

    def counting_index(self, service, *columns):
        builds.append(len(service))
        index(self, service, *columns)

    def counting_events(self, *args, **kwargs):
        events.append(args or kwargs)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(History, "_index", counting_index)
    monkeypatch.setattr(ServiceEvent, "__init__", counting_events)
    inputs = ["--store", str(workspace / "store.jsonl"), "--requests", str(workspace / "requests.jsonl")]
    out = tmp_path / "resolutions.jsonl"
    assert main(["resolve", *inputs, "--out", str(out)]) == 0
    situations = len(out.read_text(encoding="utf-8").splitlines()) - 1
    assert situations >= 2 and len(builds) == 1 and builds[0] > 0
    assert events == []
    builds.clear()
    assert main(["evaluate", *inputs, "--out-prefix", str(tmp_path / "report")]) == 0
    assert len(builds) == 1 and builds[0] > 0
    assert events == []
    capsys.readouterr()


def test_readme_library_use_runs(workspace, monkeypatch, capsys):
    readme = (DATA_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 2
    monkeypatch.chdir(workspace)  # the snippets read store.jsonl and requests.jsonl
    namespace = {}
    for block in blocks:
        exec(block.split("```", 1)[0], namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(namespace["resolutions"]) >= 2
    assert [line.split(" ", 2)[2] for line in printed] == [str(r.chosen) for r in namespace["resolutions"]]


def test_readme_lists_each_commands_settings():
    readme = (DATA_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Reproducibility", 1)[1].split("\n## ", 1)[0]
    listed = {match[1]: dict(re.findall(r"`(--[a-z-]+)` \(([^) ]+)", match[2]))
              for match in re.finditer(r"^- `(\w+)`: (.*)$", section, re.M)}
    config = RunConfig().as_dict()
    assert listed == {
        name: {option.opts[0]: "unlimited" if option.default is None else str(option.default)
               for option in command.params if option.name in config}
        for name, command in cli.commands.items()
    }
