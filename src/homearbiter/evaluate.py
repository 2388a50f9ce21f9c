"""Strategy scoring: satisfaction gain, harmonic fairness, group-size sweeps."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .aggregate import STRATEGIES, ResolutionDiagnostics, prepare, rank_prepared
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
    return sum(table.score(member, item) for member in group for item in counted) / len(group)


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
    sums = [sum(table.score(member, item) for item in recommended) for member in group]
    if any(s <= 0 for s in sums):
        return 0.0
    return len(group) / sum(1.0 / s for s in sums)


def average_satisfaction(table: PreferenceMatrix, group: Sequence[str], chosen: str) -> float:
    """Mean of members' scores for the chosen item, each normalized by their own best.

    Members with an all-zero row carry no signal and are excluded.
    """
    shares = []
    for member in group:
        best = _best_score(table, member)
        if best > 0:
            shares.append(table.score(member, chosen) / best)
    if not shares:
        return 0.0
    return sum(shares) / len(shares)


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


@dataclass(frozen=True)
class MetricReport:
    rows: tuple[ReportRow, ...]
    details: tuple[SituationMetrics, ...]

    def to_csv_text(self, meta_lines: Sequence[str] = ()) -> str:
        lines = [f"# {m}" for m in meta_lines]
        lines.append("strategy,group_size,conflicts,sg,harmonic,avg_satisfaction")
        for row in self.rows:
            def fmt(x: float | None) -> str:
                return "" if x is None else f"{x:.6f}"
            lines.append(
                f"{row.strategy},{row.group_size},{row.conflict_count},"
                f"{fmt(row.sg)},{fmt(row.harmonic)},{fmt(row.avg_satisfaction)}"
            )
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "rows": [
                {
                    "strategy": r.strategy,
                    "group_size": r.group_size,
                    "conflicts": r.conflict_count,
                    "sg": None if r.sg is None else round(r.sg, 6),
                    "harmonic": None if r.harmonic is None else round(r.harmonic, 6),
                    "avg_satisfaction": None if r.avg_satisfaction is None else round(r.avg_satisfaction, 6),
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
                    "sg": round(d.sg, 6),
                    "harmonic": round(d.harmonic, 6),
                    "avg_satisfaction": round(d.avg_satisfaction, 6),
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
        series = {}
        for metric in ("sg", "harmonic", "avg_satisfaction"):
            lines = [f"# {m}" for m in meta_lines]
            lines.append("group_size\t" + "\t".join(strategies))
            for size in sizes:
                cells = []
                for strategy in strategies:
                    row = by_cell.get((strategy, size))
                    value = getattr(row, metric) if row else None
                    cells.append("" if value is None else f"{value:.6f}")
                lines.append(f"{size}\t" + "\t".join(cells))
            series[metric] = "\n".join(lines) + "\n"
        return series


def _situation_key(situation: ConflictSituation) -> str:
    return "/".join(
        [situation.service_id, situation.location, situation.attribute,
         str(situation.window.start), str(situation.window.end)]
    )


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
    # Every strategy ranks the same prepared matrix and is scored against the
    # same adopted items, and both read the same window events, so each
    # situation scans the history once and is prepared once.
    by_size: dict[int, list[tuple[ConflictSituation, ResolutionDiagnostics, set[str]]]] = {
        g: [] for g in cfg.group_sizes
    }
    for situation in situations:
        size = len(situation.requests)
        if size in by_size:
            events = window_events(history, situation, run_cfg.lookback_days)
            adopted: set[str] = set()
            for member in sorted(situation.residents):
                adopted |= adopted_items(events, member, situation.attribute, run_cfg.adopted_threshold)
            by_size[size].append((situation, prepare(situation, events, run_cfg), adopted))

    details: list[SituationMetrics] = []
    rows: list[ReportRow] = []
    for strategy in cfg.strategies:
        for size in cfg.group_sizes:
            cell = by_size[size]
            if not cell:
                rows.append(ReportRow(strategy, size, 0, None, None, None))
                continue
            sgs, harms, sats = [], [], []
            for situation, prepared, adopted in cell:
                resolution = rank_prepared(prepared, situation, run_cfg, strategy)
                table = prepared.table
                members = sorted(situation.residents)
                recommended = tuple(item for item, _ in resolution.ranked[: cfg.recommendation_list_size])
                sg = satisfaction_gain(table, members, recommended, adopted)
                harmonic = harmonic_satisfaction(table, members, recommended)
                chosen_top = resolution.ranked[0][0]
                avg_sat = average_satisfaction(table, members, chosen_top)
                zero_members = tuple(
                    m for m in members if sum(table.score(m, i) for i in recommended) <= 0
                )
                excluded = tuple(m for m in members if _best_score(table, m) <= 0)
                details.append(
                    SituationMetrics(
                        strategy=strategy,
                        situation_key=_situation_key(situation),
                        group_size=size,
                        chosen=resolution.chosen,
                        recommended=recommended,
                        sg=sg,
                        harmonic=harmonic,
                        avg_satisfaction=avg_sat,
                        harmonic_zero_members=zero_members,
                        excluded_members=excluded,
                    )
                )
                sgs.append(sg)
                harms.append(harmonic)
                sats.append(avg_sat)
            rows.append(
                ReportRow(
                    strategy=strategy,
                    group_size=size,
                    conflict_count=len(cell),
                    sg=sum(sgs) / len(sgs),
                    harmonic=sum(harms) / len(harms),
                    avg_satisfaction=sum(sats) / len(sats),
                )
            )
    return MetricReport(rows=tuple(rows), details=tuple(details))
