"""Time-of-day intervals and their overlap arithmetic.

All times are integer seconds since midnight at 1-second resolution.
An interval whose end is smaller than its start wraps around midnight;
internally every interval is handled as one or two non-wrapping segments
``(start, end)`` with ``end`` in ``(start, 86400]``, so the rest of the
package only ever sees ordinary intervals.  Overlap uses open-interval
semantics: intervals that merely touch at an endpoint do not overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

SECONDS_PER_DAY = 86400

K = TypeVar("K")


# The text of each time field: one or two ASCII digits.
_FIELDS = {f"{n:02d}": n for n in range(100)} | {str(n): n for n in range(10)}


def parse_hms(text: str) -> int:
    """Parse ``HH:MM:SS``, each field one or two ASCII digits, into seconds since midnight."""
    if not isinstance(text, str):
        raise ValueError(f"expected HH:MM:SS, got {text!r}")
    try:
        h, m, s = map(_FIELDS.__getitem__, text.strip().split(":"))
    except (KeyError, ValueError):  # a field that is not one or two digits, or not three fields
        raise ValueError(f"expected HH:MM:SS, got {text!r}") from None
    if h > 23 or m > 59 or s > 59:
        raise ValueError(f"time of day out of range: {text!r}")
    return h * 3600 + m * 60 + s


def format_hms(seconds: int) -> str:
    """Format seconds since midnight as ``HH:MM:SS``."""
    if not 0 <= seconds < SECONDS_PER_DAY:
        raise ValueError(f"seconds out of range: {seconds}")
    return f"{seconds // 3600:02d}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"


def check_interval(start: int, end: int) -> None:
    """Raise ``ValueError`` unless ``start`` and ``end`` bound a :class:`TimeOfDayInterval`."""
    for name, value in (("start", start), ("end", end)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer second, got {value!r}")
        if not 0 <= value <= SECONDS_PER_DAY - 1:
            raise ValueError(f"{name} must be in [0, 86399], got {value}")
    if start == end:
        raise ValueError("zero-length interval")


def lead_time(start: int, t: int) -> int:
    """Seconds from ``start`` on to ``t`` around the day circle: how long before ``t`` a window from ``start`` began."""
    return (t - start) % SECONDS_PER_DAY


@dataclass(frozen=True)
class TimeOfDayInterval:
    """A daily time window ``[start, end]`` in seconds since midnight.

    ``end < start`` denotes a wrap around midnight (e.g. 23:00 -> 01:00).
    Zero-length intervals are rejected: a window must contain time.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        check_interval(self.start, self.end)

    @property
    def wraps(self) -> bool:
        return self.end < self.start

    def segments(self) -> tuple[tuple[int, int], ...]:
        """Non-wrapping segments ``(s, e)`` with ``e`` in ``(s, 86400]``."""
        if not self.wraps:
            return ((self.start, self.end),)
        if self.end == 0:
            return ((self.start, SECONDS_PER_DAY),)
        return ((self.start, SECONDS_PER_DAY), (0, self.end))

    def duration(self) -> int:
        return sum(e - s for s, e in self.segments())

    def covers(self, start: int, end: int) -> bool:
        """True when the arc ``(start, end)`` lies inside this interval."""
        return any(s <= start and end <= e for s, e in self.segments())

    def __str__(self) -> str:
        return f"[{format_hms(self.start)},{format_hms(self.end)}]"


def day_arcs(intervals: Sequence[TimeOfDayInterval]) -> list[tuple[int, int, tuple[int, ...]]]:
    """Cut the day circle at every endpoint of ``intervals`` into arcs ``(a, b, covering)``.

    ``covering`` holds the indices of the intervals that cover the arc; no
    endpoint falls inside an arc, so the arc's first second decides.  The arcs
    run in order from the earliest endpoint; the last one runs past 86400.
    """
    bounds = sorted({t for iv in intervals for t in (iv.start, iv.end)})
    ends = bounds[1:] + [t + SECONDS_PER_DAY for t in bounds[:1]]
    return [(a, b, tuple(i for i, iv in enumerate(intervals) if iv.covers(a, a + 1)))
            for a, b in zip(bounds, ends)]


def join_runs(arcs: Sequence[tuple[int, int, K]]) -> list[tuple[int, int, K]]:
    """Join consecutive arcs with equal keys into runs ``(a, b, key)``.

    ``arcs`` go once around the circle, as :func:`day_arcs` gives them, so
    the last run ends where the first one starts: with the same key, it is
    joined to the first run across midnight and ends past 86400.
    """
    runs: list[tuple[int, int, K]] = []
    for a, b, key in arcs:
        if runs and runs[-1][2] == key:
            runs[-1] = (runs[-1][0], b, key)
        else:
            runs.append((a, b, key))
    if len(runs) > 1 and runs[-1][2] == runs[0][2]:
        a, _, key = runs.pop()
        runs[0] = (a, runs[0][1] + SECONDS_PER_DAY, key)
    return runs


def covering_span(intervals: Sequence[TimeOfDayInterval]) -> int:
    """Length of the smallest circular arc containing every interval.

    That is the day minus its longest uncovered run; for a set whose hull does
    not cross midnight, ``max(end) - min(start)``, the plain linear span.
    """
    runs = join_runs([(a, b, bool(covering)) for a, b, covering in day_arcs(intervals)])
    return SECONDS_PER_DAY - max((b - a for a, b, covered in runs if not covered), default=0)
