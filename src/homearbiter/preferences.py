"""Preference extraction from historical usage under a conflict window.

A resident's preference score for an item is the sum, over their past
events that overlap the conflict window and carry that item value, of each
event's temporal proximity to the window.  An event occupying exactly the
window weighs 1; partial overlaps weigh less, so ``k`` exact repeats plus
one partial overlap of weight ``p`` score ``k + p``.

The history is read through a :class:`History`, numpy columns of every
event built once per command.  A situation's :func:`window_events` are a
mask over the columns of its service and location, and its
:class:`PreferenceMatrix` sums the matched events' proximities in closed
form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .intervals import SECONDS_PER_DAY, TimeOfDayInterval, covering_span
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
class PreferenceMatrix:
    """Nonnegative scores of residents (rows) for items (columns)."""

    residents: tuple[str, ...]
    items: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self) -> None:
        if self.scores.shape != (len(self.residents), len(self.items)):
            raise ValueError("matrix shape does not match residents/items")
        negative = np.argwhere(self.scores < 0)
        if len(negative):
            r, i = negative[0]
            raise ValueError(f"negative score for ({self.residents[r]}, {self.items[i]})")

    def score(self, resident: str, item: str) -> float:
        """The resident's score for the item; 0.0 when either has no row or column."""
        try:
            return self.scores.item(self.residents.index(resident), self.items.index(item))
        except ValueError:
            return 0.0

    def column(self, item: str) -> np.ndarray:
        try:
            return self.scores[:, self.items.index(item)]
        except ValueError:
            raise KeyError(f"item {item!r} is not a candidate") from None


class _Columns:
    """One (service, location)'s events as parallel arrays, in history order.

    Each time of day is split into a first segment ``[start, end1)`` and a
    second one ``[0, end2)``, which is empty unless the event wraps past
    midnight.
    """

    def __init__(self, date: np.ndarray, start: np.ndarray, end: np.ndarray, resident: np.ndarray,
                 items: dict[str, np.ndarray]):
        self.date = date
        self.start = start
        wraps = end < start
        self.end1 = np.where(wraps, SECONDS_PER_DAY, end)
        self.end2 = np.where(wraps, end, 0)
        self.duration = self.end1 - self.start + self.end2
        self.resident = resident
        self.items = items

    def overlap(self, window: TimeOfDayInterval) -> np.ndarray:
        """Seconds each event shares with ``window``, summed over the segment pairs."""
        total = np.zeros(len(self.date), dtype=np.int64)
        for s, e in window.segments():
            total += np.maximum(0, np.minimum(self.end1, e) - np.maximum(self.start, s))
            total += np.maximum(0, np.minimum(self.end2, e) - s)
        return total


_NONE = np.zeros(0, dtype=np.int64)
_NO_EVENTS = _Columns(_NONE, _NONE, _NONE, _NONE, {})


def _coded(values: Iterable, count: int) -> tuple[list, np.ndarray]:
    """The ``count`` values' distinct ones, in order of first appearance, and each value's index among them."""
    first: dict = {}  # each distinct value's first position
    position = np.fromiter(map(first.setdefault, values, itertools.count()), np.int64, count)
    code = np.zeros(count, dtype=np.int64)
    code[list(first.values())] = np.arange(len(first))
    return list(first), code[position]


class History:
    """A columnar index of an event history, built once and read by every situation.

    Per (service, location) it holds numpy arrays in history order: the date
    ordinal, the time of day, a resident code and, per attribute, an item
    code (-1 where the event lacks the attribute).  Codes index
    :attr:`residents` and :attr:`item_labels`, each in order of first
    appearance; ``latest`` is the latest date ordinal of the whole history,
    from which a lookback counts back.
    """

    def __init__(self, events: Iterable[ServiceEvent]):
        events = list(events)
        self._index([e.service_id for e in events], [e.location for e in events],
                    [e.date.toordinal() for e in events], [e.interval.start for e in events],
                    [e.interval.end for e in events], [e.resident for e in events],
                    [tuple((name, value.item_label()) for name, value in e.attributes.items()) for e in events])

    @classmethod
    def from_columns(cls, service: Sequence[str], location: Sequence[str], date: Sequence[int],
                     start: Sequence[int], end: Sequence[int], resident: Sequence[str],
                     items: Sequence[tuple[tuple[str, str], ...]]) -> History:
        """The index of a history given as columns, one entry per event in history order.

        ``date`` holds date ordinals, ``location`` normalized locations and
        ``items`` each event's ((attribute, item label), ...).
        """
        history = cls.__new__(cls)
        history._index(service, location, date, start, end, resident, items)
        return history

    def _index(self, service, location, date, start, end, resident, items) -> None:
        count = len(service)
        residents, resident = _coded(resident, count)
        self.residents = tuple(residents)
        self._resident_codes = {name: code for code, name in enumerate(residents)}
        date, start, end = (np.asarray(column, dtype=np.int64) for column in (date, start, end))
        self.latest = int(date.max()) if count else None

        # Events share few distinct item tuples: each tuple's item codes are found once, and item
        # labels get codes in order of first appearance over the tuples, which is that over the events.
        tuples, kind = _coded(items, count)
        item_codes: dict[str, int] = {}
        by_attribute: dict[str, np.ndarray] = {}
        for code, pairs in enumerate(tuples):
            for name, label in pairs:
                if name not in by_attribute:
                    by_attribute[name] = np.full(len(tuples), -1, dtype=np.int64)
                by_attribute[name][code] = item_codes.setdefault(label, len(item_codes))
        self.item_labels = tuple(item_codes)

        # One stable sort brings each (service, location)'s events together, in history order.
        keys, group = _coded(zip(service, location), count)
        order = np.argsort(group, kind="stable")
        bounds = np.cumsum(np.bincount(group, minlength=len(keys))).tolist()
        self.groups = {}
        for key, lo, hi in zip(keys, [0, *bounds], bounds):
            rows = order[lo:hi]
            columns = {name: codes[kind[rows]] for name, codes in by_attribute.items()}
            self.groups[key] = _Columns(date[rows], start[rows], end[rows], resident[rows],
                                        {name: column for name, column in columns.items() if column.max() >= 0})

    @classmethod
    def of(cls, history: History | Iterable[ServiceEvent]) -> History:
        """``history`` itself when it is already indexed, else a new index of its events."""
        return history if isinstance(history, History) else cls(history)

    def resident_code(self, resident: str) -> int:
        """The resident's code, or -1 when the history holds no event of theirs."""
        return self._resident_codes.get(resident, -1)


class WindowEvents:
    """A situation's window events: one entry per matched event, in history order.

    ``resident``, ``date`` and ``proximity`` (to the window) are arrays over
    the matched events; :meth:`items` gives their item codes for one
    attribute.  Codes index the :class:`History` the events came from.
    """

    def __init__(self, history: History, columns: _Columns, matched: np.ndarray, proximity: np.ndarray):
        self.history = history
        self._items = columns.items
        self._matched = matched
        self.resident = columns.resident[matched]
        self.date = columns.date[matched]
        self.proximity = proximity

    def __len__(self) -> int:
        return len(self._matched)

    def items(self, attribute: str) -> np.ndarray:
        """Item codes of ``attribute``, -1 for each event that lacks it."""
        column = self._items.get(attribute)
        return column[self._matched] if column is not None else np.full(len(self), -1, dtype=np.int64)


def window_events(
    history: History | Sequence[ServiceEvent],
    situation: ConflictSituation,
    lookback_days: int | None = None,
) -> WindowEvents:
    """The situation's service/location events whose time of day touches its window.

    Matching is by time of day only: an event from any past date counts as
    long as its daily interval overlaps the window.  ``lookback_days`` keeps
    the trailing days of the whole history, counted back from its latest
    date.  A plain event sequence is indexed on the spot; pass a
    :class:`History` to index once for many situations.

    An event of duration ``d_e`` sharing ``overlap`` seconds with a window
    of duration ``d_w`` has the pair proximity
    ``(d_e + d_w) / (2 * (d_e + d_w - overlap))``: two overlapping arcs
    cover their union, so that is :func:`temporal_proximity` of the pair.
    """
    history = History.of(history)
    columns = history.groups.get((situation.service_id, situation.location))
    if columns is None:
        return WindowEvents(history, _NO_EVENTS, np.zeros(0, dtype=np.int64), np.zeros(0))
    overlap = columns.overlap(situation.window)
    mask = overlap > 0
    if lookback_days is not None:
        mask &= columns.date >= history.latest - (lookback_days - 1)
    matched = np.flatnonzero(mask)
    total = columns.duration[matched] + situation.window.duration()
    proximity = total / (2 * (total - overlap[matched]))
    return WindowEvents(history, columns, matched, proximity)


def build_preference_table(events: WindowEvents, situation: ConflictSituation) -> PreferenceMatrix:
    """The situation's members, sorted, by every item they used in ``events``, sorted by label.

    ``events`` are the situation's :func:`window_events`; each member's
    event adds its temporal proximity to the window to that member's item.
    ``np.bincount`` adds in history order, as a sequential sum would.  A
    member with no matching event has a row of zeros.
    """
    history = events.history
    residents = tuple(sorted(situation.residents))
    codes = np.array([history.resident_code(r) for r in residents], dtype=np.int64)
    row_of = np.full(len(history.residents), -1, dtype=np.int64)
    row_of[codes[codes >= 0]] = np.flatnonzero(codes >= 0)
    rows = row_of[events.resident]
    items = events.items(situation.attribute)
    keep = (rows >= 0) & (items >= 0)
    used = sorted(set(items[keep].tolist()), key=history.item_labels.__getitem__)
    column_of = np.zeros(len(history.item_labels), dtype=np.int64)
    column_of[used] = np.arange(len(used))
    cells = rows[keep] * len(used) + column_of[items[keep]]
    scores = np.bincount(cells, weights=events.proximity[keep], minlength=len(residents) * len(used))
    return PreferenceMatrix(residents=residents, items=tuple(history.item_labels[c] for c in used),
                            scores=scores.reshape(len(residents), len(used)))
