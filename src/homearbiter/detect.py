"""Conflict detection over concurrent service requests.

Two requests conflict when they target the same service, at the same
location, for the same attribute, from different residents, with different
values, over overlapping time windows (open-interval semantics: touching
endpoints do not overlap).

Groups are found with a sweep over each (service, location, attribute)
partition: a conflict situation is a maximal window over which the set of
co-active, mutually incompatible requests stays constant.  Chained overlaps
therefore split at every membership change, which matches a brute-force
scan of the timeline at 1-second resolution.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from .intervals import SECONDS_PER_DAY, TimeOfDayInterval
from .model import ConflictSituation, ServiceRequest


def _dedupe_by_resident(requests: list[ServiceRequest]) -> list[ServiceRequest]:
    # One request per resident per cell: keep the earliest start, then the
    # smallest request id.
    best: dict[str, ServiceRequest] = {}
    for r in requests:
        cur = best.get(r.resident)
        if cur is None or (r.interval.start, r.request_id) < (cur.interval.start, cur.request_id):
            best[r.resident] = r
    return list(best.values())


def _cells(group: list[ServiceRequest]) -> list[tuple[int, int, frozenset[str]]]:
    """Elementary sweep cells ``(start, end, member request ids)`` with conflicts."""
    points: set[int] = set()
    for r in group:
        for s, e in r.interval.segments():
            points.add(s)
            points.add(e % SECONDS_PER_DAY)
    bounds = sorted(points)
    cells = []
    for i, a in enumerate(bounds):
        b = bounds[i + 1] if i + 1 < len(bounds) else bounds[0] + SECONDS_PER_DAY
        if b <= a:
            continue
        active = [r for r in group if r.interval.covers(a, min(b, SECONDS_PER_DAY))
                  and (b <= SECONDS_PER_DAY or r.interval.covers(0, b - SECONDS_PER_DAY))]
        active = _dedupe_by_resident(active)
        if len(active) < 2:
            continue
        if len({r.value.item_label() for r in active}) < 2:
            continue
        cells.append((a, b, frozenset(r.request_id for r in active)))
    return cells


def _merge_cells(cells: list[tuple[int, int, frozenset[str]]]) -> list[tuple[int, int, frozenset[str]]]:
    if not cells:
        return []
    merged = [list(cells[0])]
    for a, b, members in cells[1:]:
        last = merged[-1]
        if last[1] % SECONDS_PER_DAY == a % SECONDS_PER_DAY and last[2] == members:
            last[1] = last[1] + (b - a)
        else:
            merged.append([a, b, members])
    # Stitch a run that crosses midnight: the last run ends on the circle
    # exactly where the first one starts, with the same membership.
    if len(merged) > 1:
        first, last = merged[0], merged[-1]
        if last[1] % SECONDS_PER_DAY == first[0] and last[2] == first[2]:
            last[1] = last[1] + (first[1] - first[0])
            merged.pop(0)
    return [(a, b, m) for a, b, m in merged]


def _window(a: int, b: int) -> TimeOfDayInterval:
    length = b - a
    if length >= SECONDS_PER_DAY:
        # Constant conflict around the whole clock; a daily window cannot
        # express a full circle, so stop one second short.
        return TimeOfDayInterval(a % SECONDS_PER_DAY, (a - 1) % SECONDS_PER_DAY)
    return TimeOfDayInterval(a % SECONDS_PER_DAY, b % SECONDS_PER_DAY)


def detect_conflicts(requests: Sequence[ServiceRequest]) -> list[ConflictSituation]:
    """Group requests into conflict situations.

    Returns situations in a canonical order (service, location, attribute,
    window, member ids); the result does not depend on input order.
    """
    partitions: dict[tuple[str, str, str], list[ServiceRequest]] = defaultdict(list)
    for r in requests:
        partitions[(r.service_id, r.location, r.attribute)].append(r)

    situations: list[ConflictSituation] = []
    for (service_id, location, attribute) in sorted(partitions):
        group = sorted(partitions[(service_id, location, attribute)], key=lambda r: r.request_id)
        if len(group) < 2:
            continue
        by_id = {r.request_id: r for r in group}
        for a, b, member_ids in _merge_cells(_cells(group)):
            members = tuple(by_id[i] for i in sorted(member_ids))
            situations.append(
                ConflictSituation(
                    service_id=service_id,
                    location=location,
                    attribute=attribute,
                    window=_window(a, b),
                    requests=members,
                )
            )
    situations.sort(key=lambda s: s.key())
    return situations
