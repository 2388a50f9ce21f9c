"""Conflict detection over concurrent service requests.

Two requests conflict when they target the same service, at the same
location, for the same attribute, from different residents, with different
values, over overlapping time windows (open-interval semantics: touching
endpoints do not overlap).

Each (service, location, attribute) partition takes the day-circle sweep
that ``covering_span`` also uses: ``intervals.day_arcs`` cuts the circle at
every request endpoint, each arc is keyed by its co-active, mutually
incompatible requests, and ``intervals.join_runs`` joins equal keys, across
midnight too.  A conflict situation is thus a maximal window over which that
set stays constant, so chained overlaps split at every membership change,
which matches a brute-force scan of the timeline at 1-second resolution.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from .intervals import SECONDS_PER_DAY, TimeOfDayInterval, day_arcs, join_runs, lead_time
from .model import ConflictSituation, ServiceRequest


def _members(active: list[ServiceRequest], t: int) -> tuple[ServiceRequest, ...] | None:
    """The requests of ``active`` on the arc from second ``t``, one per resident, if they conflict, else ``None``."""
    # Of a resident's requests, keep the one that began earliest before t, across
    # midnight too, then the smallest request id.
    best: dict[str, ServiceRequest] = {}
    for r in sorted(active, key=lambda r: (-lead_time(r.interval.start, t), r.request_id)):
        best.setdefault(r.resident, r)
    if len(best) < 2 or len({r.value.item_label() for r in best.values()}) < 2:
        return None
    return tuple(sorted(best.values(), key=lambda r: r.request_id))


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
    for (service_id, location, attribute), group in partitions.items():
        arcs = day_arcs([r.interval for r in group])
        for a, b, members in join_runs([(a, b, _members([group[i] for i in covering], a)) for a, b, covering in arcs]):
            if members is not None:
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
