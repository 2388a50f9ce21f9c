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
from typing import Sequence

SECONDS_PER_DAY = 86400


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


def covering_span(intervals: Sequence[TimeOfDayInterval]) -> int:
    """Length of the smallest circular arc containing every interval.

    For a set whose hull does not cross midnight this equals
    ``max(end) - min(start)``, the plain linear span.
    """
    segs: list[tuple[int, int]] = []
    for iv in intervals:
        segs.extend(iv.segments())
    segs.sort()
    merged: list[list[int]] = []
    for s, e in segs:
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    if len(merged) > 1 and merged[0][0] == 0 and merged[-1][1] == SECONDS_PER_DAY:
        merged[0][0] = merged[-1][0] - SECONDS_PER_DAY
        merged.pop()
    covered = sum(e - s for s, e in merged)
    if covered >= SECONDS_PER_DAY:
        return SECONDS_PER_DAY
    max_gap = 0
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        max_gap = max(max_gap, s2 - e1)
    wrap_gap = merged[0][0] + SECONDS_PER_DAY - merged[-1][1]
    max_gap = max(max_gap, wrap_gap)
    return SECONDS_PER_DAY - max_gap
