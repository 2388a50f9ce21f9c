"""Preference extraction from historical usage under a conflict window.

A resident's preference score for an item is the sum, over their past
events that overlap the conflict window and carry that item value, of each
event's temporal proximity to the window.  An event occupying exactly the
window weighs 1; partial overlaps weigh less, so ``k`` exact repeats plus
one partial overlap of weight ``p`` score ``k + p``.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Sequence

from .intervals import TimeOfDayInterval, covering_span, intervals_overlap
from .model import ServiceEvent, ConflictSituation


def temporal_proximity(intervals: Sequence[TimeOfDayInterval]) -> float:
    """Coincidence weight of a set of daily windows, in (0, 1].

    Defined as the total covered time of all intervals (overlaps counted with
    multiplicity) divided by ``span * n``, where ``span`` is the smallest arc
    containing every interval.  Equals 1 exactly when all intervals coincide;
    the more the intervals spread out, the closer to 0 it gets.
    """
    n = len(intervals)
    if n == 0:
        raise ValueError("temporal proximity of an empty interval set is undefined")
    total = sum(iv.duration() for iv in intervals)
    span = covering_span(intervals)
    return total / (span * n)


@dataclass(frozen=True)
class PreferenceTable:
    """Nonnegative scores per (resident, item) for one conflict window."""

    entries: dict[tuple[str, str], float]

    def __post_init__(self) -> None:
        for (resident, item), score in self.entries.items():
            if score < 0:
                raise ValueError(f"negative score for ({resident}, {item})")

    def score(self, resident: str, item: str) -> float:
        return self.entries.get((resident, item), 0.0)

    def row(self, resident: str) -> dict[str, float]:
        return {i: s for (r, i), s in self.entries.items() if r == resident}

    def top_items(self, resident: str, count: int) -> tuple[str, ...]:
        row = sorted(self.row(resident).items(), key=lambda kv: (-kv[1], kv[0]))
        return tuple(item for item, _ in row[:count])

    def max_score(self, resident: str) -> float:
        row = self.row(resident)
        return max(row.values()) if row else 0.0


def window_events(
    history: Sequence[ServiceEvent],
    situation: ConflictSituation,
    lookback_days: int | None = None,
) -> list[ServiceEvent]:
    """The situation's service/location events whose time of day touches its window.

    Matching is by time of day only: an event from any past date counts as
    long as its daily interval overlaps the window.  ``lookback_days`` keeps
    the trailing days of the whole history, counted back from its latest
    date.  History order is kept, so sums over the result do not depend on
    how it was filtered.
    """
    horizon = None
    if lookback_days is not None and history:
        horizon = max(e.date for e in history) - dt.timedelta(days=lookback_days - 1)
    window = situation.window
    return [
        e
        for e in history
        if e.service_id == situation.service_id
        and e.location == situation.location
        and (horizon is None or e.date >= horizon)
        and intervals_overlap(e.interval, window)
    ]


def build_preference_table(events: Sequence[ServiceEvent], situation: ConflictSituation) -> PreferenceTable:
    """Score every item the situation's members used in ``events``.

    ``events`` are the situation's :func:`window_events`; each member's
    event adds its temporal proximity to the window to that member's item.
    Residents with no matching event get an empty row (no entries).
    """
    entries: dict[tuple[str, str], float] = {}
    members = set(situation.residents)
    window = situation.window
    for event in events:
        if event.resident not in members:
            continue
        value = event.attribute(situation.attribute)
        if value is None:
            continue
        key = (event.resident, value.item_label())
        entries[key] = entries.get(key, 0.0) + temporal_proximity((event.interval, window))
    return PreferenceTable(entries=entries)
