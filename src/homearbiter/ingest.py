"""Log parsing, value stabilization, statistical binning, the event store.

Input formats
-------------
Event-log CSV (header required, UTF-8, LF):
    date,time,sensor,status,value,resident,location
with date ``YYYY-MM-DD``, time ``HH:MM:SS``, status one of ON/OFF/SET and a
free-form value field.  A value of the form ``name=val`` sets the attribute
``name``; a bare value sets the attribute ``value``; an empty value marks a
plain activation (attribute ``state=on``).  Values that parse as numbers
become numeric attributes, everything else is categorical; non-finite
numbers (``nan``, ``inf``) are rejected.  Rows must be in (date, time) order,
and an ON row needs a location, from its column or the location map.
Several logs make one household by joining their events: event ids are
unique, so :func:`stabilize` puts them in store order.

Request file: one JSON object per line with keys request_id, service_id,
attribute, value, start, end (HH:MM:SS), location, resident.  Every field
but the value is a JSON string, the ids, attribute, location and resident
not an empty or all-space one; the value is a string or a finite number and
follows the log rule either way.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import hashlib
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, ParseError
from .intervals import SECONDS_PER_DAY, TimeOfDayInterval, check_interval, format_hms, parse_hms
from .model import AttributeValue, ServiceEvent, ServiceRequest, finite_number, normalize_location
from .preferences import History

LOG_COLUMNS = ["date", "time", "sensor", "status", "value", "resident", "location"]
END_OF_DAY = SECONDS_PER_DAY - 1
ONE_DAY = dt.timedelta(days=1)
STORE_SCHEMA = "homearbiter-store/1"
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


def _replaced(event: ServiceEvent, attributes: Mapping[str, AttributeValue],
              interval: TimeOfDayInterval) -> ServiceEvent:
    """``dataclasses.replace`` of the attributes and interval, without its scan of the fields."""
    return ServiceEvent(event.event_id, event.service_id, attributes, event.date, interval, event.location,
                        event.resident)


def store_order(event: ServiceEvent) -> tuple:
    """Sort key of the canonical event order: date, start, resident, event id."""
    return (event.date, event.interval.start, event.resident, event.event_id)


@dataclass
class ParseResult:
    events: list[ServiceEvent]
    warnings: list[str]


def _parse_attribute(raw: str) -> tuple[str, AttributeValue]:
    raw = raw.strip()
    if not raw:
        return ("state", AttributeValue.categorical("on"))
    if "=" in raw:
        name, _, val = raw.partition("=")
        name = name.strip() or "value"
        raw = val.strip()
    else:
        name = "value"
    return (name, parse_value(raw))


def parse_value(raw: str) -> AttributeValue:
    """A number if ``raw`` parses as one, else a label.

    Raises ``ValueError`` for non-finite numbers and empty labels.
    """
    try:
        number = float(raw)
    except ValueError:
        return AttributeValue.categorical(raw)
    return AttributeValue.numeric(number)


def _read_log_records(path: str | Path, resident: str | None, location_map: Mapping[str, str]) -> Iterator[tuple]:
    """``(date, time, sensor, status, attribute, resident, location)`` per row.

    ``location`` is the normalized mapped location of an ON row and ``None``
    for the other statuses, which keep their session's location.
    """
    path = Path(path)
    # Dates, times, values and locations repeat across rows.  A memo holds only fields that passed
    # their checks, so a bad field still raises at its own row.
    dates: dict[str, dt.date] = {}
    times: dict[str, int] = {}
    attributes: dict[str, tuple[str, AttributeValue]] = {}
    locations: dict[tuple[str, str], str] = {}
    # The last physical line read; a quoted value may span lines, so a record's
    # number is the line after the previous record's end.
    end = 0
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                return
            if [h.strip() for h in header] != LOG_COLUMNS:
                raise ParseError(f"expected header {','.join(LOG_COLUMNS)!r}", path=str(path), line=1)
            end = reader.line_num
            previous = None
            for row in reader:
                lineno, end = end + 1, reader.line_num
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(LOG_COLUMNS):
                    raise ParseError(f"expected {len(LOG_COLUMNS)} fields, got {len(row)}", path=str(path), line=lineno)
                date_s, time_s, sensor, status, value, row_resident, location = map(str.strip, row)
                try:
                    date = dates.get(date_s)
                    if date is None:
                        date = dates[date_s] = dt.date.fromisoformat(date_s)
                    time = times.get(time_s)
                    if time is None:
                        time = times[time_s] = parse_hms(time_s)
                    attribute = attributes.get(value)
                    if attribute is None:
                        attribute = attributes[value] = _parse_attribute(value)
                except ValueError as exc:
                    raise ParseError(str(exc), path=str(path), line=lineno) from exc
                if previous is not None and (date, time) < previous:
                    raise ParseError(f"row at {date_s} {time_s} is earlier than the previous row; "
                                     "rows must be in (date, time) order", path=str(path), line=lineno)
                previous = (date, time)
                if not sensor:
                    raise ParseError("empty sensor label", path=str(path), line=lineno)
                status = status.upper()
                if status not in ("ON", "OFF", "SET"):
                    raise ParseError(f"unknown status {status!r}", path=str(path), line=lineno)
                effective_resident = resident if resident is not None else row_resident
                if not effective_resident:
                    raise ParseError("no resident id (column empty and none supplied)", path=str(path), line=lineno)
                if status == "ON":
                    mapped = locations.get((sensor, location))
                    if mapped is None:
                        mapped = normalize_location(location_map.get(sensor, location))
                        if not mapped:
                            raise ParseError("empty location (column empty and none mapped)", path=str(path), line=lineno)
                        locations[sensor, location] = mapped
                    location = mapped
                else:
                    location = None
                yield date, time, sensor, status, attribute, effective_resident, location
    except csv.Error as exc:
        raise ParseError(f"bad CSV: {exc}", path=str(path), line=end + 1) from exc
    except UnicodeDecodeError:
        read_text(path)  # raises the ParseError naming the line of the first byte that is not UTF-8
        raise


def parse_event_log(
    path: str | Path,
    resident: str | None = None,
    location_map: Mapping[str, str] | None = None,
    first_number: int = 1,
) -> ParseResult:
    """Fold ON/OFF/SET records into service events numbered from ``first_number``.

    ON opens a session per (sensor, resident); SET closes the running value
    segment and starts a new one with the changed attribute; OFF closes the
    session.  A session left open at a date change or at end of file is
    closed at 23:59:59 and reported in the warnings list.  An OFF on the next
    calendar day at an earlier time of day closes the session as an
    overnight, wrap-around event.  Event ids are ``<resident>-<number>``; a
    later log of one household numbers on after the earlier logs' events.
    """
    events: list[ServiceEvent] = []
    warnings: list[str] = []
    # (sensor, resident) -> its open session: (date, start, attributes, location).
    open_sessions: dict[tuple[str, str], tuple[dt.date, int, dict, str]] = {}
    counter = first_number - 1

    def emit(sensor: str, res: str, session: tuple, end: int) -> None:
        nonlocal counter
        date, start, attributes, location = session
        if end == start:
            return  # zero-length segment: value changed within one second
        counter += 1
        # A session emits at most once, and SET copies its attributes first, so the event may keep them.
        events.append(ServiceEvent(f"{res}-{counter:06d}", sensor, attributes, date,
                                   TimeOfDayInterval(start, end), location, res))

    def close_at_day_end(key: tuple[str, str], session: tuple) -> None:
        emit(key[0], key[1], session, END_OF_DAY)
        warnings.append(
            f"{key[0]}/{key[1]}: ON at {session[0]} {format_hms(session[1])} without OFF; closed at end of day"
        )

    for date, time, sensor, status, attribute, res, location in _read_log_records(path, resident, location_map or {}):
        key = (sensor, res)
        session = open_sessions.get(key)
        if session is not None and date != session[0]:
            if status == "OFF" and date == session[0] + ONE_DAY and time < session[1]:
                emit(sensor, res, session, time)
                del open_sessions[key]
                continue
            close_at_day_end(key, session)
            del open_sessions[key]
            session = None
        if status == "ON":
            if session is not None:
                emit(sensor, res, session, time)
                warnings.append(f"{sensor}/{res}: ON at {date} {format_hms(time)} while already on")
            name, value = attribute
            open_sessions[key] = (date, time, {name: value}, location)
        elif status == "SET":
            if session is None:
                warnings.append(f"{sensor}/{res}: SET at {date} {format_hms(time)} while off; ignored")
                continue
            emit(sensor, res, session, time)
            name, value = attribute
            attributes = dict(session[2])
            attributes[name] = value
            open_sessions[key] = (date, time, attributes, session[3])
        else:  # OFF
            if session is None:
                warnings.append(f"{sensor}/{res}: OFF at {date} {format_hms(time)} while not on; ignored")
                continue
            emit(sensor, res, session, time)
            del open_sessions[key]

    for key in sorted(open_sessions):
        close_at_day_end(key, open_sessions[key])

    events.sort(key=store_order)
    return ParseResult(events=events, warnings=warnings)


def stabilize(events: Sequence[ServiceEvent], settling_window: int) -> list[ServiceEvent]:
    """Keep only the settled value of each burst of rapid changes.

    Within one (resident, service, location, day), consecutive events whose
    start times are closer than ``settling_window`` seconds form a run; only
    the run's final event survives, its interval stretched back to the first
    change.  Idempotent: surviving starts are at least a window apart.  With
    unique event ids the result does not depend on the input order.
    """
    if settling_window <= 0:
        raise ValueError("settling_window must be positive")
    # In store order a group's events come by (start, event id), so each event either extends the
    # run of its group's previous event, and takes its slot as the run's last event, or starts a run.
    kept: list[ServiceEvent | None] = []
    firsts: list[int] = []  # the start of each kept event's run
    latest: dict[tuple, int] = {}  # (resident, service, location, day) -> slot of its latest event
    for e in sorted(events, key=store_order):
        group = (e.resident, e.service_id, e.location, e.date)
        start = first = e.interval.start
        slot = latest.get(group)
        if slot is not None and start - kept[slot].interval.start < settling_window:
            first = firsts[slot]
            kept[slot] = None
        latest[group] = len(kept)
        kept.append(e)
        firsts.append(first)
    out = [e if e.interval.start == first else _replaced(e, e.attributes, TimeOfDayInterval(first, e.interval.end))
           for e, first in zip(kept, firsts) if e is not None]
    if len(out) < len(kept):  # a run folded, and its survivor now starts earlier
        out.sort(key=store_order)
    return out


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
    distinct: list[float] = []
    weights: list[int] = []
    for v in vals:
        if distinct and v == distinct[-1]:
            weights[-1] += 1
        else:
            distinct.append(v)
            weights.append(1)
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
    return spec.bin_values[min(spec.bin_index(value), spec.bin_count - 1)], warning


def apply_bins(event: ServiceEvent, spec: BinningSpec, warnings: list[str] | None = None) -> ServiceEvent:
    """Replace the event's numeric attribute named by the spec with its bin."""
    current = event.attribute(spec.attribute)
    if current is None or current.kind != "numeric":
        raise ValueError(f"event {event.event_id} has no numeric attribute {spec.attribute!r}")
    binned, warning = bin_value(current.value, spec)
    if warning and warnings is not None:
        warnings.append(f"event {event.event_id}: {warning}")
    attrs = dict(event.attributes)
    attrs[spec.attribute] = binned
    return _replaced(event, attrs, event.interval)


def augment_channels(events: Sequence[ServiceEvent], channels: Sequence[str], seed: int) -> list[ServiceEvent]:
    """Assign a uniformly random channel to TV events that lack one.

    Draws come from a fixed, versioned generator (``PRNG_NAME``) seeded with
    ``seed``, so the same seed always produces the same augmented log.
    Events already carrying the attribute pass through untouched.
    """
    if not channels:
        raise ValueError("channels must be non-empty")
    rng = np.random.RandomState(seed)
    out: list[ServiceEvent] = []
    for e in events:
        if e.service_id == CHANNEL_SERVICE and e.attribute(CHANNEL_ATTRIBUTE) is None:
            pick = channels[int(rng.randint(0, len(channels)))]
            attrs = dict(e.attributes)
            attrs[CHANNEL_ATTRIBUTE] = AttributeValue.categorical(pick)
            out.append(_replaced(e, attrs, e.interval))
        else:
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# Requests

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
    for lineno, obj in json_lines(read_text(path), where):
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


# ---------------------------------------------------------------------------
# Canonical event store

def _event_from_json(obj: dict) -> ServiceEvent:
    """The event of a store line that :func:`load_store` accepted."""
    return ServiceEvent(
        event_id=obj["event_id"],
        service_id=obj["service_id"],
        attributes={k: AttributeValue.from_json(v) for k, v in obj["attributes"].items()},
        date=dt.date.fromisoformat(obj["date"]),
        interval=TimeOfDayInterval(obj["start"], obj["end"]),
        location=obj["location"],
        resident=obj["resident"],
    )


def decode_text(data: bytes, where: str) -> str:
    """UTF-8 ``data`` as text, with each ``\\r\\n`` or ``\\r`` read as ``\\n``, as ``open`` reads a file.

    A byte that is not UTF-8 raises a :class:`ParseError` naming ``where``
    and the line that holds the first such byte.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})", path=where, line=line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, by :func:`decode_text`."""
    return decode_text(Path(path).read_bytes(), str(path))


def parse_json(text: str, path: str, line: int | None = None):
    """``json.loads`` of one input, with any bad JSON raised as a :class:`ParseError` naming ``path:line``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", path=path, line=line) from exc
    except ValueError as exc:  # valid syntax past a parser limit: an integer of more than 4300 digits
        raise ParseError(f"bad JSON: {exc}", path=path, line=line) from exc


def json_lines(text: str, where: str) -> Iterator[tuple[int, object]]:
    """``(line number, value)`` of each non-blank line of a JSON-lines text, stripped, by :func:`parse_json`."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line:
            yield lineno, parse_json(line, where, lineno)


_KIND_NAMES = {str: "a string", list: "a list of strings", dict: "an object"}


def check_record(obj, fields: Mapping[str, type]) -> None:
    """Raise unless ``obj`` is a JSON object whose ``fields`` are of their kinds: strings, lists of strings, objects."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for name, kind in fields.items():
        if not isinstance(obj[name], kind) or kind is list and not all(isinstance(item, str) for item in obj[name]):
            raise ValueError(f"{name} must be {_KIND_NAMES[kind]}")


@contextmanager
def record_errors(where: str, lineno: int, prefix: str = "") -> Iterator[None]:
    """Raise a record's lookup, type, value or overflow error as a ``where:lineno: prefix...`` :class:`ParseError`.

    A ``KeyError``, such as :func:`check_record` raises for a missing field, reads ``missing field 'x'``.
    """
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{prefix}missing field {exc.args[0]!r}", path=where, line=lineno) from exc
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{prefix}{exc}", path=where, line=lineno) from exc


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _bins_to_json(specs: Mapping[tuple[str, str], BinningSpec]) -> list[dict]:
    return [{"service_id": service_id, "attribute": attribute, "bin_count": spec.bin_count,
             "boundaries": list(spec.boundaries), "lo": spec.lo, "hi": spec.hi}
            for (service_id, attribute), spec in sorted(specs.items())]


def _bins_from_json(entries) -> dict[tuple[str, str], BinningSpec]:
    if not isinstance(entries, list):
        raise ValueError("bins must be a list")
    specs = {}
    for entry in entries:
        check_record(entry, {"service_id": str, "attribute": str})
        if not isinstance(entry["boundaries"], list):
            raise ValueError("boundaries must be a list")
        key = (entry["service_id"], entry["attribute"])
        specs[key] = BinningSpec(attribute=key[1], bin_count=entry["bin_count"],
                                 boundaries=tuple(map(finite_number, entry["boundaries"])),
                                 lo=finite_number(entry["lo"]), hi=finite_number(entry["hi"]))
    return specs


@dataclass
class EventStore:
    """A loaded store.

    ``history`` is the index :func:`load_store` builds from the store file,
    whose text it does not keep.  The ``events`` read the file again on
    first access; a file changed since the load raises a
    :class:`DataError`.  ``header["bins"]``, when present, maps
    (service_id, attribute) to its spec.
    """

    header: dict
    history: History
    path: str
    stamp: tuple[int, int] = field(repr=False)  # the file's size and modification time at the load

    @cached_property
    def events(self) -> list[ServiceEvent]:
        """The event of every non-blank line after the header."""
        if _stamp(os.stat(self.path)) != self.stamp:
            raise DataError(f"{self.path}: store changed since it was loaded")
        return [_event_from_json(obj) for _, obj in islice(json_lines(read_text(self.path), self.path), 1, None)]

    def bin_specs(self) -> dict[tuple[str, str], BinningSpec]:
        return dict(self.header.get("bins", {}))


def _stamp(status: os.stat_result) -> tuple[int, int]:
    return status.st_size, status.st_mtime_ns


def write_store(path: str | Path, events: Sequence[ServiceEvent], header: Mapping) -> None:
    """Write the store; ``header["bins"]``, when present, maps (service_id, attribute) to its spec.

    Each event line is ``dumps_json`` of the event's record, written through
    :func:`_canonical_line`.  Attributes, dates and labels repeat across
    events, so each distinct one is encoded once.
    """
    header = {"schema": STORE_SCHEMA, **header}
    if "bins" in header:
        header["bins"] = _bins_to_json(header["bins"])
    blobs: dict[tuple, tuple[str, tuple]] = {}
    dates: dict[dt.date, str] = {}
    labels: dict[tuple[str, str, str], tuple[str, str, str]] = {}
    lines = [dumps_json(header)]
    for e in sorted(events, key=store_order):
        # Keyed by identity, since equal values can encode apart (0.0 and -0.0); each entry keeps
        # its values alive, so no other value can take their ids while the store is written.
        attributes = e.attributes
        identity = (*attributes, *map(id, attributes.values()))
        blob = blobs.get(identity)
        if blob is None:
            blob = blobs[identity] = (dumps_json({name: value.to_json() for name, value in attributes.items()}),
                                      tuple(attributes.values()))
        date = dates.get(e.date)
        if date is None:
            date = dates[e.date] = e.date.isoformat()  # digits and hyphens: json.dumps adds only the quotes
        label = (e.location, e.resident, e.service_id)
        texts = labels.get(label)
        if texts is None:
            texts = labels[label] = tuple(map(_json_text, label))
        lines.append(_canonical_line(blob[0], date, e.interval.end, _json_text(e.event_id), *texts, e.interval.start))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# A string that json.dumps writes as it is: printable ASCII without '"' or '\\'.
_VERBATIM = re.compile(r"[ !#-\[\]-~]*")


def _json_text(value: str) -> str:
    """The text between the quotes of ``json.dumps(value)``."""
    return value if _VERBATIM.fullmatch(value) else json.dumps(value)[1:-1]


def _canonical_line(attributes: str, date: str, end: int, event_id: str, location: str, resident: str,
                    service_id: str, start: int) -> str:
    """``dumps_json`` of an event record, from its encoded attributes object and string texts."""
    return (f'{{"attributes":{attributes},"date":"{date}","end":{end},"event_id":"{event_id}",'
            f'"location":"{location}","resident":"{resident}","service_id":"{service_id}","start":{start}}}')


# One match per event line of the form :func:`_canonical_line` writes in a piece of a store, with its
# fields but the event id captured; a line of any other form has none.  Neither ``.`` nor any class
# here matches a newline.  A captured string has no escape and no control character, so its text is
# its value.  An integer has no leading zero (invalid JSON) and at most five digits: every valid
# second fits, and int() never meets its 4300-digit limit.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_INTEGER = r"(0|[1-9][0-9]{0,4})"
_STORE_LINE = re.compile(
    rf'^\{{"attributes":(\{{.*?\}}),"date":{_STRING},"end":{_INTEGER},"event_id":"[^"\\\x00-\x1f]*",'
    rf'"location":{_STRING},"resident":{_STRING},"service_id":{_STRING},"start":{_INTEGER}\}}$', re.M)
_PIECE = 1 << 16  # characters of a store read at a time


def _pieces(handle) -> Iterator[str]:
    """The text of an open file in pieces of whole lines; each piece but the last ends with a newline."""
    rest = ""
    while chunk := handle.read(_PIECE):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield rest + chunk[:cut]
            rest = chunk[cut:]
        else:
            rest += chunk
    if rest:
        yield rest


def _items_of(attributes) -> tuple[tuple[str, str], ...]:
    """The (attribute, item label) pairs of a stored attributes object; raises ``ValueError`` unless valid."""
    return tuple((name, AttributeValue.item_label_of_json(value)) for name, value in attributes.items())


def _blob_items(blob: str) -> tuple[tuple[str, str], ...] | None:
    """The pairs of a captured attributes object, or ``None`` when it fails a check."""
    try:
        # A blob that json.loads accepts is one whole JSON value, so the line is an object
        # of exactly the eight fields, and json.loads of the line gives the captured values.
        return _items_of(json.loads(blob)) or None
    except (LookupError, TypeError, ValueError, OverflowError):
        return None


def _ordinal(date: str) -> int:
    """The ordinal of a captured date, or 0 (no date's) when it is not one."""
    try:
        return dt.date.fromisoformat(date).toordinal()
    except ValueError:
        return 0


def _checked_row(obj) -> tuple:
    """(service, location, date ordinal, start, end, resident, items) of a whole store event record."""
    check_record(obj, {**dict.fromkeys(("event_id", "service_id", "date", "location", "resident"), str),
                       "attributes": dict})
    items = _items_of(obj["attributes"])
    ordinal = _ordinal(obj["date"])
    if not ordinal:
        raise ValueError(f"date must be an ISO date, got {obj['date']!r}")
    start, end = obj["start"], obj["end"]
    check_interval(start, end)
    if not items:
        raise ValueError(f"event {obj['event_id']}: attributes must be non-empty")
    return obj["service_id"], normalize_location(obj["location"]), ordinal, start, end, obj["resident"], items


def _store_header(line: str, where: str, lineno: int) -> dict:
    """The header of a store, from its first non-blank line, stripped (``""`` when it has none)."""
    if not line:
        raise ParseError(f"no store header, expected schema {STORE_SCHEMA!r}", path=where)
    header = parse_json(line, where, lineno)
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != STORE_SCHEMA:
        raise ParseError(f"unknown store schema {schema!r}", path=where, line=lineno)
    if "bins" in header:
        with record_errors(where, lineno, "bad bins entry: "):
            header["bins"] = _bins_from_json(header["bins"])
    return header


class _EventColumns:
    """The :class:`History` columns of a store whose event lines are all canonical, read a piece at a time.

    Each piece's lines are captured by one ``findall``; every other step
    works on whole columns.  Attribute objects, dates and locations repeat
    across lines, so each distinct one is checked once.
    """

    def __init__(self):
        self.service: list[str] = []
        self.location: list[str] = []
        self.resident: list[str] = []
        self.items: list[tuple] = []
        none = np.zeros(0, dtype=np.int64)
        self.ordinal, self.start, self.end = [none], [none], [none]  # one array per piece
        self.blobs: dict[str, tuple | None] = {}
        self.ordinals: dict[str, int] = {}
        self.locations: dict[str, str] = {}
        self.labels: dict[str, str] = {}  # one copy of each resident and service label

    def read(self, piece: str) -> bool:
        """Whether each line of ``piece`` is a canonical event line that passes every check; only then add them."""
        rows = _STORE_LINE.findall(piece)
        if len(rows) != piece.count("\n") + (not piece.endswith("\n")):  # a blank line, or one of another form
            return False
        blob, date, end, location, resident, service, start = zip(*rows)
        del rows
        count = len(blob)
        for memo, check, column in ((self.blobs, _blob_items, blob), (self.ordinals, _ordinal, date),
                                    (self.locations, normalize_location, location)):
            for text in dict.fromkeys(column).keys() - memo.keys():
                memo[text] = check(text)
        items = list(map(self.blobs.__getitem__, blob))  # None for a blob that fails
        ordinal = np.fromiter(map(self.ordinals.__getitem__, date), np.int64, count)
        start, end = np.fromstring(",".join(start + end), dtype=np.int64, sep=",").reshape(2, count)
        if not all(items) or ((ordinal == 0) | (start == end) | (np.maximum(start, end) >= SECONDS_PER_DAY)).any():
            return False
        for columns, values in ((self.ordinal, ordinal), (self.start, start), (self.end, end)):
            columns.append(values)
        self.location.extend(map(self.locations.__getitem__, location))
        self.resident.extend(map(self.labels.setdefault, resident, resident))
        self.service.extend(map(self.labels.setdefault, service, service))
        self.items.extend(items)
        return True

    def history(self) -> History:
        return History.from_columns(self.service, self.location, np.concatenate(self.ordinal),
                                    np.concatenate(self.start), np.concatenate(self.end), self.resident, self.items)


def load_store(path: str | Path) -> EventStore:
    """Read a store, building the :class:`History` columns from the whole file.

    An event line must pass every check that building its
    :class:`ServiceEvent` makes; the first that fails raises a
    :class:`ParseError` naming its ``file:line``.  A store whose event
    lines are all in the canonical form :func:`write_store` writes is read
    a piece at a time by a pattern match over the text, and checked from
    the captured fields.  Any other store, with a blank line, a line of
    another form or a line that fails a check, is read again, whole, and
    each line checked as a JSON object in file order, which raises the
    first bad line's error.
    """
    where = str(path)
    columns = _EventColumns()
    try:
        with open(path, encoding="utf-8") as handle:
            stamp = _stamp(os.fstat(handle.fileno()))
            lineno = 1
            while (line := handle.readline()) and not line.strip():
                lineno += 1
            header = _store_header(line.strip(), where, lineno)
            canonical = all(map(columns.read, _pieces(handle)))
    except UnicodeDecodeError:
        canonical = False
    if canonical:
        history = columns.history()
    else:  # read_text names the line of a byte that is not UTF-8
        rows = []
        for lineno, obj in islice(json_lines(read_text(path), where), 1, None):
            with record_errors(where, lineno, "bad event record: "):
                rows.append(_checked_row(obj))
        history = History.from_columns(*(list(zip(*rows)) or [()] * 7))  # no rows: seven empty columns
    return EventStore(header=header, history=history, path=where, stamp=stamp)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()
