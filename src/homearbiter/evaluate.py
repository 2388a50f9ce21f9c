"""Strategy scoring: satisfaction gain, harmonic fairness, group-size sweeps."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .aggregate import STRATEGIES, Resolution, prepare, rank_prepared
from .config import RunConfig
from .detect import detect_conflicts
from .model import ConflictSituation, ServiceEvent, ServiceRequest
from .preferences import History, PreferenceMatrix, WindowEvents, window_events


@dataclass(frozen=True)
class EvaluationConfig:
    strategies: tuple[str, ...] = STRATEGIES
    group_sizes: tuple[int, ...] = (2, 3)
    recommendation_list_size: int = 2

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ValueError("need at least one strategy")
        if not self.group_sizes:
            raise ValueError("need at least one group size")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ValueError(f"unknown strategy {unknown[0]!r}; expected one of {', '.join(STRATEGIES)}")
        for name, values in (("strategy", self.strategies), ("group size", self.group_sizes)):
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} in {','.join(map(str, values))!r}")
        if any(g < 2 for g in self.group_sizes):
            raise ValueError("group sizes must be at least 2")
        if self.recommendation_list_size < 1:
            raise ValueError("recommendation_list_size must be positive")


# Every date ordinal is below this, so ``item * _DAYS + ordinal`` names one
# (item, date) pair.
_DAYS = dt.date.max.toordinal() + 1


def satisfaction_gain(
    table: PreferenceMatrix,
    group: Sequence[str],
    recommended: Sequence[str],
    adopted: Iterable[str],
) -> float:
    """Mean over members of their score sum across recommended-and-adopted items."""
    if not recommended:
        raise ValueError("recommended list must be non-empty")
    adopted_set = set(adopted)
    counted = [item for item in recommended if item in adopted_set]
    return sum(_score_sum(table, member, counted) for member in group) / len(group)


def _score_sum(table: PreferenceMatrix, member: str, items: Sequence[str]) -> float:
    """The member's scores summed over ``items``."""
    return sum(table.score(member, item) for item in items)


def adopted_items(events: WindowEvents, resident: str, attribute: str, threshold: float) -> set[str]:
    """Items the resident used on strictly more than ``threshold`` of active days.

    ``events`` are a situation's window events.  A day is active when the
    resident has any event on it, with or without ``attribute``; an item is
    adopted when the number of distinct active days carrying that item
    exceeds ``threshold`` times the number of active days.
    """
    mine = events.resident == events.history.resident_code(resident)
    dates = events.date[mine]
    if not len(dates):
        return set()
    items = events.items(attribute)[mine]
    used = items >= 0
    # The item code of each distinct (item, date) pair, counted per item.
    day_counts = np.bincount(_distinct(items[used] * _DAYS + dates[used]) // _DAYS)
    cutoff = threshold * len(_distinct(dates))
    return {events.history.item_labels[c] for c in np.flatnonzero(day_counts > cutoff).tolist()}


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, as ``np.unique`` gives them without importing ``numpy.ma`` (about 2 MB)."""
    ordered = np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def harmonic_satisfaction(table: PreferenceMatrix, group: Sequence[str], recommended: Sequence[str]) -> float:
    """Harmonic mean of per-member score sums over the recommended list.

    A member with a zero sum makes the metric 0 (maximal unfairness).
    """
    sums = [_score_sum(table, member, recommended) for member in group]
    if any(s <= 0 for s in sums):
        return 0.0
    return len(group) / sum(1.0 / s for s in sums)


def average_satisfaction(table: PreferenceMatrix, group: Sequence[str], chosen: str) -> float:
    """Mean of members' scores for the chosen item, each normalized by their own best.

    Members with an all-zero row carry no signal and are excluded.
    """
    bests = [(member, _best_score(table, member)) for member in group]
    shares = [table.score(member, chosen) / best for member, best in bests if best > 0]
    return sum(shares) / len(shares) if shares else 0.0


def _best_score(table: PreferenceMatrix, member: str) -> float:
    """The member's highest score; 0.0 when the table has no row or no column."""
    if member not in table.residents:
        return 0.0
    return max(table.scores[table.residents.index(member)].tolist(), default=0.0)


@dataclass(frozen=True)
class SituationMetrics:
    strategy: str
    situation_key: str
    group_size: int
    chosen: tuple[str, ...]
    recommended: tuple[str, ...]
    sg: float
    harmonic: float
    avg_satisfaction: float
    harmonic_zero_members: tuple[str, ...] = ()
    excluded_members: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReportRow:
    strategy: str
    group_size: int
    conflict_count: int
    sg: float | None
    harmonic: float | None
    avg_satisfaction: float | None


# The metrics of every record and row, in output order.
METRICS = ("sg", "harmonic", "avg_satisfaction")


@dataclass(frozen=True)
class MetricReport:
    rows: tuple[ReportRow, ...]
    details: tuple[SituationMetrics, ...]

    def to_csv_text(self, meta_lines: Sequence[str] = ()) -> str:
        rows = [[r.strategy, str(r.group_size), str(r.conflict_count), *(_fixed(getattr(r, m)) for m in METRICS)]
                for r in self.rows]
        return _delimited(meta_lines, ",", ["strategy", "group_size", "conflicts", *METRICS], rows)

    def to_json_obj(self) -> dict:
        return {
            "rows": [
                {
                    "strategy": r.strategy,
                    "group_size": r.group_size,
                    "conflicts": r.conflict_count,
                    **{metric: _rounded(getattr(r, metric)) for metric in METRICS},
                }
                for r in self.rows
            ],
            "details": [
                {
                    "strategy": d.strategy,
                    "situation": d.situation_key,
                    "group_size": d.group_size,
                    "chosen": list(d.chosen),
                    "recommended": list(d.recommended),
                    **{metric: _rounded(getattr(d, metric)) for metric in METRICS},
                    "harmonic_zero_members": list(d.harmonic_zero_members),
                    "excluded_members": list(d.excluded_members),
                }
                for d in self.details
            ],
        }

    def plot_series(self, meta_lines: Sequence[str] = ()) -> dict[str, str]:
        """Per-metric TSV series: group size rows, one strategy per column."""
        strategies = sorted({r.strategy for r in self.rows})
        sizes = sorted({r.group_size for r in self.rows})
        by_cell = {(r.strategy, r.group_size): r for r in self.rows}
        return {
            metric: _delimited(meta_lines, "\t", ["group_size", *strategies], [
                [str(size), *(_fixed(getattr(by_cell.get((s, size)), metric, None)) for s in strategies)]
                for size in sizes
            ])
            for metric in METRICS
        }


def _delimited(meta_lines: Sequence[str], sep: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """``# ``-prefixed meta lines, then the header and rows with ``sep`` between fields."""
    lines = [*(f"# {m}" for m in meta_lines), sep.join(header), *(sep.join(row) for row in rows)]
    return "\n".join(lines) + "\n"


def _fixed(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _rounded(value: float | None) -> float | None:
    return None if value is None else round(value, 6)


def run_experiment(
    history: History | Sequence[ServiceEvent],
    requests: Sequence[ServiceRequest],
    cfg: EvaluationConfig,
    run_cfg: RunConfig,
) -> MetricReport:
    """Score every strategy on every detected conflict, bucketed by group size.

    Deterministic for fixed inputs and configuration: conflicts come from a
    canonical detection pass and all aggregation is order-independent.  A
    plain event sequence is indexed once for all situations.
    """
    situations = detect_conflicts(requests)
    history = History.of(history)
    # Records by (strategy, group size), in report order.
    cells: dict[tuple[str, int], list[SituationMetrics]] = {
        (strategy, size): [] for strategy in cfg.strategies for size in cfg.group_sizes
    }
    # Every strategy ranks the same prepared matrix and is scored against the
    # same adopted items, and both read the same window events, so each
    # situation scans the history once and is prepared once.
    for situation in situations:
        size = len(situation.requests)
        if size in cfg.group_sizes:
            events = window_events(history, situation, run_cfg.lookback_days)
            members = sorted(situation.residents)
            adopted = set().union(*(adopted_items(events, member, situation.attribute, run_cfg.adopted_threshold)
                                    for member in members))
            prepared = prepare(situation, events, run_cfg)
            for strategy in cfg.strategies:
                resolution = rank_prepared(prepared, situation, run_cfg, strategy)
                cells[strategy, size].append(_score(situation, members, resolution, adopted,
                                                    cfg.recommendation_list_size))
    rows = tuple(_mean_row(strategy, size, records) for (strategy, size), records in cells.items())
    return MetricReport(rows=rows, details=tuple(d for records in cells.values() for d in records))


def _mean_row(strategy: str, size: int, records: Sequence[SituationMetrics]) -> ReportRow:
    """Each metric's mean over a cell's records, summed in record order; ``None`` for an empty cell."""
    means = (sum(getattr(r, metric) for r in records) / len(records) if records else None for metric in METRICS)
    return ReportRow(strategy, size, len(records), *means)


def _score(
    situation: ConflictSituation,
    members: Sequence[str],
    resolution: Resolution,
    adopted: set[str],
    list_size: int,
) -> SituationMetrics:
    """One strategy's resolution of a situation, scored by every metric."""
    table = resolution.diagnostics.table
    recommended = tuple(item for item, _ in resolution.ranked[:list_size])
    # The key drops the request ids; the metrics are positional, in METRICS order.
    return SituationMetrics(
        resolution.strategy, "/".join(map(str, situation.key()[:5])), len(situation.requests), resolution.chosen,
        recommended,
        satisfaction_gain(table, members, recommended, adopted),
        harmonic_satisfaction(table, members, recommended),
        average_satisfaction(table, members, resolution.ranked[0][0]),
        harmonic_zero_members=tuple(m for m in members if _score_sum(table, m, recommended) <= 0),
        excluded_members=tuple(m for m in members if _best_score(table, m) <= 0),
    )
