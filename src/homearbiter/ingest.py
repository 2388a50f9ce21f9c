"""Value stabilization, statistical binning, channel draws and the request file.

Request file: one JSON object per line with keys request_id, service_id,
attribute, value, start, end (HH:MM:SS), location, resident.  Every field
but the value is a JSON string, the ids, attribute, location and resident
not an empty or all-space one; the value is a string or a finite number and
follows the log rule either way.
"""

from __future__ import annotations

import bisect
import datetime as dt
import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import groupby
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .intervals import TimeOfDayInterval, format_hms, parse_hms
from .log import parse_value
from .model import AttributeValue, EventRows, ServiceEvent, ServiceRequest, _ranks
from .records import check_record, decode_text, json_lines, record_errors

PRNG_NAME = "numpy-randomstate-mt19937/v1"
CHANNEL_SERVICE, CHANNEL_ATTRIBUTE = "TV", "channel"  # what ``--channels`` fills in


@dataclass(frozen=True)
class BinningSpec:
    """Cut points for one numeric attribute.

    ``boundaries`` are left-inclusive lower bounds of the next bin: a value
    lands in bin ``i`` when ``boundaries[i-1] <= value < boundaries[i]``
    (first bin open below, last open above).  ``lo``/``hi`` record the
    observed range so out-of-range inputs can be flagged.
    """

    attribute: str
    bin_count: int
    boundaries: tuple[float, ...]
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if isinstance(self.bin_count, bool) or not isinstance(self.bin_count, int) or self.bin_count < 1:
            raise ValueError("bin_count must be a positive integer")
        if len(self.boundaries) != self.bin_count - 1:
            raise ValueError("need bin_count - 1 boundaries")
        if any(b2 <= b1 for b1, b2 in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")

    @cached_property
    def bin_values(self) -> tuple[AttributeValue, ...]:
        """The binned value of each bin, shared by every value that lands in it."""
        return tuple(AttributeValue.binned(index, self.bin_bounds(index)) for index in range(self.bin_count))

    def bin_index(self, value: float) -> int:
        return bisect.bisect_right(self.boundaries, value)

    def bin_bounds(self, index: int) -> tuple[float, float]:
        lower = self.lo if index == 0 else self.boundaries[index - 1]
        upper = self.hi if index == self.bin_count - 1 else self.boundaries[index]
        return (lower, upper)


def stabilize(events: Sequence[ServiceEvent], settling_window: int, warnings: list[str] | None = None) -> EventRows:
    """Keep only the settled value of each burst of rapid changes, in store order.

    Within one (resident, service, location, day), consecutive events whose
    start times are closer than ``settling_window`` seconds form a run; only
    the run's final event survives, its interval stretched back to the first
    change, unless it wraps past midnight and would then reach its own end:
    it keeps its start, with a warning.  Idempotent: surviving starts are at
    least a window apart.  With unique ids the input order does not matter.
    """
    if settling_window <= 0:
        raise ValueError("settling_window must be positive")
    rows = EventRows.of(events).in_store_order()
    # A stable sort by group keeps the store order within a group: by start, then event id.
    group = _ranks(list(zip(rows.resident, rows.service, rows.location)))
    order = np.lexsort((rows.ordinal, group))
    start = rows.start[order]
    # Whether each event's run goes on to the next event of the sorted order.
    goes_on = (np.diff(group[order]) == 0) & (np.diff(rows.ordinal[order]) == 0) & (np.diff(start) < settling_window)
    first, survives = np.empty_like(start), np.empty(len(rows), dtype=bool)
    first[order] = start[np.maximum.accumulate(np.where(np.r_[True, ~goes_on], np.arange(len(start)), 0))]
    survives[order] = np.r_[~goes_on, True]
    kept = rows[np.flatnonzero(survives)]
    first = first[survives]
    own = (kept.end < kept.start) & (first <= kept.end)  # a wrapping survivor the stretch would turn inside out
    for i in np.flatnonzero(own).tolist() if warnings is not None else ():
        at, day = format_hms(int(kept.start[i])), dt.date.fromordinal(int(kept.ordinal[i]))
        warnings.append(f"{kept.service[i]}/{kept.resident[i]}: settled value at {day} {at} would span a whole day "
                        f"from {format_hms(int(first[i]))}; kept from {at}")
    return replace(kept, start=np.where(own, kept.start, first)).in_store_order()


def compute_bins(values: Sequence[float], bin_count: int, attribute: str = "value") -> BinningSpec:
    """Optimal 1-D partition of the values into ``bin_count`` groups.

    Minimizes the total within-bin sum of squared deviations from bin means
    by exact dynamic programming over the sorted distinct values (weighted by
    multiplicity).  Ties between equally good partitions break toward the
    earliest split.  Values so large that a float overflows on the way raise
    a :class:`DataError`.
    """
    if bin_count < 1:
        raise ValueError("bin_count must be positive")
    vals = sorted(float(v) for v in values)
    if len(vals) < bin_count:
        raise DataError(f"attribute {attribute!r}: {len(vals)} values cannot fill {bin_count} bins")
    distinct, weights = zip(*((v, len(list(equal))) for v, equal in groupby(vals)))  # each run's first value
    d = len(distinct)
    if d < bin_count:
        raise DataError(f"attribute {attribute!r}: {d} distinct values cannot fill {bin_count} bins")

    w = np.asarray(weights, dtype=np.float64)
    x = np.asarray(distinct, dtype=np.float64)

    def sse(i, j):
        # weighted SSE of distinct[i..j] inclusive, for a range of i or of j
        ww = cw[j + 1] - cw[i]
        ss = cs[j + 1] - cs[i]
        qq = cq[j + 1] - cq[i]
        return np.fmax(0.0, qq - ss * ss / ww)

    # cost[j]: least SSE of distinct[0..j] in m bins; prev[m][j]: where its last bin starts.
    # Every cost is finite, so argmin's first minimum is the earliest split of least cost.
    prev = [[-1] * d for _ in range(bin_count + 1)]
    try:
        # A float overflow would make costs inf or nan and the split arbitrary, so it stops the binning.
        with np.errstate(over="raise", invalid="raise"):
            cw = np.concatenate([[0.0], np.cumsum(w)])
            cs = np.concatenate([[0.0], np.cumsum(w * x)])
            cq = np.concatenate([[0.0], np.cumsum(w * x * x)])
            cost = sse(0, np.arange(d))
            for m in range(2, bin_count + 1):
                last, cost = cost, np.full(d, math.inf)
                for j in range(m - 1, d):
                    c = last[m - 2:j] + sse(slice(m - 1, j + 1), j)
                    best = int(np.argmin(c))
                    cost[j] = c[best]
                    prev[m][j] = m - 1 + best
    except FloatingPointError:
        raise DataError(f"attribute {attribute!r}: values too large to bin (their squares overflow a float)") from None

    cuts: list[int] = []
    j = d - 1
    for m in range(bin_count, 1, -1):
        i = prev[m][j]
        cuts.append(i)
        j = i - 1
    cuts.reverse()
    boundaries = tuple(distinct[i] for i in cuts)
    return BinningSpec(attribute=attribute, bin_count=bin_count, boundaries=boundaries, lo=vals[0], hi=vals[-1])


def bin_value(value: float, spec: BinningSpec) -> tuple[AttributeValue, str | None]:
    """Bin a numeric value; out-of-observed-range values clamp with a warning."""
    warning = None
    if value < spec.lo or value > spec.hi:
        warning = f"attribute {spec.attribute!r}: value {value:g} outside observed range [{spec.lo:g}, {spec.hi:g}]; clamped"
    return spec.bin_values[spec.bin_index(value)], warning


def _with_values(rows: EventRows, index: Sequence[int], name: str, values: Sequence[AttributeValue]) -> EventRows:
    """The rows with attribute ``name`` set to each value at its index; rows that shared attributes and get one
    value share the new attributes."""
    attributes = rows.attributes.copy()
    made: dict[tuple[int, int], dict] = {}  # rows.attributes and the values keep the keyed objects alive
    for row, value in zip(index, values):
        key = (id(attributes[row]), id(value))
        if key not in made:
            made[key] = {**attributes[row], name: value}
        attributes[row] = made[key]
    return replace(rows, attributes=attributes)


def apply_bins(events: Sequence[ServiceEvent], service_id: str, spec: BinningSpec,
               warnings: list[str] | None = None) -> EventRows:
    """Replace the numeric attribute named by the spec with its bin in each event of the service that has one.

    The bins of all the events come from one ``np.searchsorted``; other events pass unchanged.
    """
    rows = EventRows.of(events)
    index = [row for row in np.flatnonzero(rows.service == service_id).tolist()
             if getattr(rows.attributes[row].get(spec.attribute), "kind", None) == "numeric"]
    values = [rows.attributes[row][spec.attribute].value for row in index]
    for row, value in zip(index, values):
        if warnings is not None and not spec.lo <= value <= spec.hi:
            warnings.append(f"event {rows.ids[row]}: {bin_value(value, spec)[1]}")
    bins = np.searchsorted(spec.boundaries, values, side="right").tolist()  # bisect_right of each value
    return _with_values(rows, index, spec.attribute, [spec.bin_values[b] for b in bins])


def augment_channels(events: Sequence[ServiceEvent], channels: Sequence[str], seed: int) -> EventRows:
    """Assign a uniformly random channel to TV events that lack one.

    Draws come from a fixed, versioned generator (``PRNG_NAME``) seeded with
    ``seed``, one per such event in order, so the same seed always produces
    the same augmented log.  Events already carrying the attribute pass
    through untouched.
    """
    if not channels:
        raise ValueError("channels must be non-empty")
    rows = EventRows.of(events)
    index = [row for row in np.flatnonzero(rows.service == CHANNEL_SERVICE).tolist()
             if rows.attributes[row].get(CHANNEL_ATTRIBUTE) is None]
    draws = np.random.RandomState(seed).randint(0, len(channels), size=len(index)).tolist()
    picks = {draw: AttributeValue.categorical(channels[draw]) for draw in set(draws)}
    return _with_values(rows, index, CHANNEL_ATTRIBUTE, list(map(picks.__getitem__, draws)))


def load_requests(path: str | Path, bin_specs: Mapping[tuple[str, str], BinningSpec] | None = None) -> list[ServiceRequest]:
    """Read a JSON-lines request file.

    When ``bin_specs`` (keyed by (service_id, attribute)) is given, numeric
    request values are mapped into the matching bins so requested items live
    in the same item space as a binned history.
    """
    where = str(path)
    labels = ("request_id", "service_id", "attribute", "location", "resident")
    requests: list[ServiceRequest] = []
    seen: set[str] = set()
    for lineno, obj in json_lines(decode_text(Path(path).read_bytes(), where), where):
        with record_errors(where, lineno):
            check_record(obj, dict.fromkeys(labels, str))
            for name in labels:
                if not obj[name].strip():
                    raise ValueError(f"{name} must be non-empty")
            if obj["request_id"] in seen:
                raise ValueError(f"duplicate request id {obj['request_id']!r}")
            raw = obj["value"]
            if type(raw) not in (str, int, float):  # a bool is not an int here
                raise ValueError("value must be a string or a finite number")
            value = parse_value(str(raw))
            if value.kind == "numeric" and bin_specs:
                spec = bin_specs.get((obj["service_id"], obj["attribute"]))
                if spec is not None:
                    value, _ = bin_value(value.value, spec)
            requests.append(
                ServiceRequest(
                    request_id=obj["request_id"],
                    service_id=obj["service_id"],
                    attribute=obj["attribute"],
                    value=value,
                    interval=TimeOfDayInterval(parse_hms(obj["start"]), parse_hms(obj["end"])),
                    location=obj["location"],
                    resident=obj["resident"],
                )
            )
        seen.add(obj["request_id"])
    return requests


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
