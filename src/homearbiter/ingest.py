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
import io
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, ParseError
from .intervals import SECONDS_PER_DAY, TimeOfDayInterval, check_interval, format_hms, parse_hms
from .model import AttributeValue, ServiceEvent, ServiceRequest, finite_number, normalize_location
from .preferences import History

LOG_COLUMNS = ["date", "time", "sensor", "status", "value", "resident", "location"]
END_OF_DAY = SECONDS_PER_DAY - 1
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


def _ranks(labels: Sequence) -> np.ndarray:
    """Each label's place in the order of the distinct labels."""
    rank = {label: index for index, label in enumerate(sorted(set(labels)))}
    return np.fromiter(map(rank.__getitem__, labels), np.int64, len(labels))


@dataclass(eq=False, repr=False)
class EventRows(Sequence[ServiceEvent]):
    """Service events as numpy columns; an item is a :class:`ServiceEvent`, built on access.

    ``ingest`` carries its events from the log to the store as rows and
    builds no event.  Rows share attributes mappings, which no step changes.
    """

    ids: np.ndarray  # of objects, like the service, location, resident and attributes columns
    service: np.ndarray
    location: np.ndarray
    resident: np.ndarray
    ordinal: np.ndarray  # of int64, like the start and end columns
    start: np.ndarray
    end: np.ndarray
    attributes: np.ndarray

    @classmethod
    def of(cls, events: Sequence[ServiceEvent]) -> EventRows:
        """The rows of ``events``: the events themselves when they are rows."""
        return events if isinstance(events, EventRows) else cls.from_records(
            [(e.event_id, e.service_id, e.location, e.resident, e.date.toordinal(), e.interval.start, e.interval.end,
              e.attributes) for e in events])

    @classmethod
    def from_records(cls, records: Sequence[tuple]) -> EventRows:
        """The rows of ``(event id, service, location, resident, date ordinal, start, end, attributes)`` records."""
        columns = list(zip(*records)) or [()] * 8
        return cls(*(np.fromiter(column, np.int64 if 4 <= index < 7 else object, len(column))  # int64: date, times
                     for index, column in enumerate(columns)))

    @classmethod
    def joined(cls, parts: Sequence[EventRows]) -> EventRows:
        """The rows of each part in turn."""
        return cls(*map(np.concatenate, zip(*(vars(part).values() for part in parts))))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        """The event at an integer ``index``, or the rows at a slice or an index array, in its order."""
        columns = [column[index] for column in vars(self).values()]
        if isinstance(index, (slice, np.ndarray)):
            return EventRows(*columns)
        event_id, service, location, resident, ordinal, start, end, attributes = columns
        return ServiceEvent(event_id, service, attributes, dt.date.fromordinal(int(ordinal)),
                            TimeOfDayInterval(int(start), int(end)), location, resident)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, EventRows)) else NotImplemented

    def in_store_order(self) -> EventRows:
        """The rows in store order: by date, start, resident and event id; the ids are ranked only for a tie."""
        keys = [_ranks(self.resident), self.ordinal * SECONDS_PER_DAY + self.start]  # np.lexsort: last key first
        order = np.lexsort(keys)
        if (np.diff(np.stack(keys)[:, order]) == 0).all(axis=0).any():
            order = np.lexsort([_ranks(self.ids), *keys])
        return self if (np.diff(order) > 0).all() else self[order]


@dataclass
class ParseResult:
    events: EventRows
    warnings: list[str]
    sha256: str  # of the log's bytes as read


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


def _row_labels(sensor: str, status: str, row_resident: str, location: str, resident: str | None,
                location_map: Mapping[str, str]) -> tuple[str, str, str, str | None]:
    """``(sensor, status, resident, location)`` of a log row's stripped label fields; raises ``ValueError`` at the
    first that fails.  ``location`` is the normalized mapped location of an ON row and ``None`` for the other
    statuses, which keep their session's location."""
    if not sensor:
        raise ValueError("empty sensor label")
    status = status.upper()
    if status not in ("ON", "OFF", "SET"):
        raise ValueError(f"unknown status {status!r}")
    resident = row_resident if resident is None else resident
    if not resident:
        raise ValueError("no resident id (column empty and none supplied)")
    location = normalize_location(location_map.get(sensor, location)) if status == "ON" else None
    if location == "":
        raise ValueError("empty location (column empty and none mapped)")
    return sensor, status, resident, location


def _read_log_records(text: str, where: str, resident: str | None, location_map: Mapping[str, str]) -> Iterator[tuple]:
    """``(date, time, sensor, status, attribute, resident, location)`` per row of a log's text, line ends as read."""
    # Dates, times, values and label fields repeat across rows.  A memo keeps no call that raised, so a bad
    # field still raises at its own row.
    date_of, time_of, attribute_of = map(cache, (dt.date.fromisoformat, parse_hms, _parse_attribute))
    labels_of = cache(lambda *fields: _row_labels(*fields, resident, location_map))
    # The last physical line read; a quoted value may span lines, so a record's
    # number is the line after the previous record's end.
    end = 0
    reader = csv.reader(io.StringIO(text, newline=""))  # a quoted \r\n stays inside its value, as in open(newline="")
    try:
        if (header := next(reader, None)) is None:
            return
        if [h.strip() for h in header] != LOG_COLUMNS:
            raise ParseError(f"expected header {','.join(LOG_COLUMNS)!r}", path=where, line=1)
        end = reader.line_num
        previous = None
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(LOG_COLUMNS):
                raise ParseError(f"expected {len(LOG_COLUMNS)} fields, got {len(row)}", path=where, line=lineno)
            date_s, time_s, sensor, status, value, row_resident, location = map(str.strip, row)
            with record_errors(where, lineno):
                date, time, attribute = date_of(date_s), time_of(time_s), attribute_of(value)
            if previous is not None and (date, time) < previous:
                raise ParseError(f"row at {date_s} {time_s} is earlier than the previous row; "
                                 "rows must be in (date, time) order", path=where, line=lineno)
            previous = (date, time)
            with record_errors(where, lineno):
                sensor, status, res, location = labels_of(sensor, status, row_resident, location)
            yield date, time, sensor, status, attribute, res, location
    except csv.Error as exc:
        raise ParseError(f"bad CSV: {exc}", path=where, line=end + 1) from exc


_LOG_HEADER = (",".join(LOG_COLUMNS) + "\n").encode()
# How each row of a log in the canonical form starts: digits where the template has a 0.
_ROW_START = np.frombuffer(b"0000-00-00,00:00:00,", dtype=np.uint8)
_DIGIT = _ROW_START == ord("0")


def _rest_record(rest: bytes, resident: str | None, location_map: Mapping[str, str]) -> tuple | None:
    """``(sensor, status, attribute, resident, location)`` of a row's fields after its time, if they pass every
    check of :func:`_read_log_records`."""
    try:
        sensor, status, value, row_resident, location = map(str.strip, rest.decode("utf-8").split(","))
        attribute = _parse_attribute(value)
        sensor, status, resident, location = _row_labels(sensor, status, row_resident, location, resident, location_map)
    except ValueError:  # not UTF-8, not five fields, a bad value or a bad label
        return None
    return sensor, status, attribute, resident, location


def _read_log_columns(data: bytes, resident: str | None,
                      location_map: Mapping[str, str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, list] | None:
    """The (date ordinal, time, rest code) columns of a log's bytes in the canonical form and the
    :func:`_rest_record` of each distinct rest, the fields after a row's time, by its code; else ``None``.

    The canonical form: the exact header, lines that each end in ``\\n`` or ``\\r\\n`` (the last one too), no
    other ``\\r``, no ``"`` or NUL byte, no line over the csv field limit, and rows in (date, time) order that each
    start with ``YYYY-MM-DD,HH:MM:SS,`` of a real date and time.  Dates and times are checked as columns, each
    distinct date and rest of a row once.  This reader words no error: the row reader reads a declined log and
    names its first bad line.
    """
    data = data.replace(b"\r\n", b"\n")  # the row reader reads a \r\n line end as a \n one; a lone \r declines
    if not data.startswith(_LOG_HEADER) or not data.endswith(b"\n") or any(c in data for c in (b'"', b"\r", b"\0")):
        return None
    text = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(text == ord("\n"))
    starts, ends = newlines[:-1] + 1, newlines[1:]
    if len(starts) and ((ends - starts).min() < len(_ROW_START) or (ends - starts).max() > csv.field_size_limit()):
        return None
    head = np.stack([text[starts + offset] for offset in range(len(_ROW_START))])  # (20, rows) of uint8
    digits = head[_DIGIT] - ord("0")  # a byte below "0" wraps around to above 9
    century, year, month, day, hour, minute, second = digits[0::2].astype(np.int64) * 10 + digits[1::2]
    stamp, time = ((century * 100 + year) * 100 + month) * 100 + day, (hour * 60 + minute) * 60 + second
    if ((digits > 9).any() or (head[~_DIGIT] != _ROW_START[~_DIGIT, None]).any() or (hour > 23).any()
            or (minute > 59).any() or (second > 59).any() or (np.diff(stamp * SECONDS_PER_DAY + time) < 0).any()):
        return None
    stamps, date_index = np.unique(stamp, return_inverse=True)
    try:
        ordinals = [dt.date(s // 10000, s // 100 % 100, s % 100).toordinal() for s in stamps.tolist()]
    except ValueError:
        return None
    rests = list(map(itemgetter(slice(len(_ROW_START), None)), data.split(b"\n")[1:-1]))
    codes = {rest: code for code, rest in enumerate(dict.fromkeys(rests))}
    records = [_rest_record(rest, resident, location_map) for rest in codes]
    if None in records:
        return None
    code = np.fromiter(map(codes.__getitem__, rests), np.int64, len(rests))
    return np.array(ordinals, dtype=np.int64)[date_index], time, code, records


def _coded_records(records: Iterator[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """The columns of :func:`_read_log_columns` for the records of :func:`_read_log_records`."""
    # A rest is keyed by its attribute's identity, as equal values can encode apart (0.0 and -0.0); the
    # rests keep each keyed attribute alive.
    codes: dict[tuple, int] = {}
    rests, rows = [], []
    for date, time, sensor, status, attribute, res, location in records:
        key = (sensor, status, id(attribute), res, location)
        if key not in codes:
            codes[key] = len(rests)
            rests.append((sensor, status, attribute, res, location))
        rows.append((date.toordinal(), time, codes[key]))
    ordinal, time, code = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return ordinal, time, code, rests


def _fold_sessions(ordinal: np.ndarray, time: np.ndarray, code: np.ndarray, rests: Sequence[tuple],
                   first_number: int) -> tuple[EventRows, list[str]]:
    """The events, in the order they close, and the warnings of the rows of a log in (date, time) order,
    given as columns and the ``(sensor, status, attribute, resident, location)`` record of each rest code.

    The rows are sorted by (sensor, resident), stably.  A run of rows starts at a key change, an ON or
    OFF row or a date change; only SET rows continue it, and a session is open after a row whose run
    starts at an ON row.  Each row's case and a segment's end come from its key's previous row.
    """
    sensor, status, attribute, resident, location = zip(*rests) if rests else [()] * 5
    keys = {key: index for index, key in enumerate(sorted(set(zip(sensor, resident))))}  # as end of file closes
    rest_key = np.array([keys[key] for key in zip(sensor, resident)], dtype=np.int64)
    order = np.argsort(rest_key[code], kind="stable")
    c, day, t = code[order], ordinal[order], time[order]
    k = rest_key[c]
    is_on, is_set = (np.array([label == name for label in status], dtype=bool)[c] for name in ("ON", "SET"))
    is_off = ~is_on & ~is_set
    same = np.diff(k, prepend=-1) == 0  # the previous row is of the same key
    new_run = ~same | ~is_set | (np.diff(day, prepend=day[:1]) != 0)
    run = np.maximum.accumulate(np.where(new_run, np.arange(len(c)), 0))  # the row its run starts at
    open_after = is_on[run]
    was_open = same & np.r_[False, open_after[:-1]]
    prev_day, prev_t = np.r_[day[:1], day[:-1]], np.r_[t[:1], t[:-1]]
    overnight = was_open & is_off & (day == prev_day + 1) & (t < prev_t)
    day_end = was_open & (day != prev_day) & ~overnight
    still_open = was_open & (day == prev_day)
    has_next = np.r_[same[1:], False]
    # Each segment ends at its key's next row, or at 23:59:59 at a day-end or end-of-file close; one that
    # ends where it starts is dropped.  Events close in file order, those at end of file last, by key.
    seg = np.flatnonzero(open_after)
    nxt = np.minimum(seg + 1, len(c) - 1)
    end = np.where(has_next[seg] & ~day_end[nxt], t[nxt], END_OF_DAY)
    kept = end != t[seg]
    closes = np.argsort(np.where(has_next[seg], order[nxt], len(c) + k[seg])[kept])
    seg, end = seg[kept][closes], end[kept][closes]
    # An ON row's attributes are one mapping per attribute; a SET row that goes on with the session adds its
    # attribute to the previous row's, through a memo shared by equal merges.
    on = {id(a): {a[0]: a[1]} for a in attribute}
    row_attributes = np.fromiter([on[id(a)] for a in attribute], object, len(attribute))[c]
    made: dict[tuple[int, int], dict] = {}  # the memo and the rows keep every keyed mapping alive
    sets = np.flatnonzero(open_after & is_set)
    for row, rest in zip(sets.tolist(), c[sets].tolist()):
        before, change = row_attributes[row - 1], attribute[rest]
        if (id(before), id(change)) not in made:
            made[id(before), id(change)] = {**before, change[0]: change[1]}
        row_attributes[row] = made[id(before), id(change)]
    sensor_of, resident_of, location_of = (np.fromiter(column, object, len(column))[c]
                                           for column in (sensor, resident, location))
    ids = [f"{r}-{number:06d}" for number, r in enumerate(resident_of[seg].tolist(), start=first_number)]
    events = EventRows(np.fromiter(ids, object, len(ids)), sensor_of[seg], location_of[run[seg]], resident_of[seg],
                       day[seg], t[seg], end, row_attributes[seg])
    # A row's own warning follows the day-end close it causes; end-of-file closes come last, by key.
    at, closed = 2 * order + 1, "ON at {} {} without OFF; closed at end of day"
    cases = [(day_end, at - 1, -1, closed), (open_after & ~has_next, 2 * (len(c) + k), 0, closed),
             (still_open & is_on, at, 0, "ON at {} {} while already on"),
             (~still_open & is_set, at, 0, "SET at {} {} while off; ignored"),
             (~still_open & ~overnight & is_off, at, 0, "OFF at {} {} while not on; ignored")]
    found = sorted((place, row + shift, text) for mask, places, shift, text in cases
                   for place, row in zip(places[mask].tolist(), np.flatnonzero(mask).tolist()))
    warnings = [f"{sensor_of[row]}/{resident_of[row]}: "
                + text.format(dt.date.fromordinal(int(day[row])), format_hms(int(t[row]))) for _, row, text in found]
    return events, warnings


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
    One leading UTF-8 byte-order mark is skipped.
    """
    location_map = location_map or {}
    where, data = str(path), Path(path).read_bytes()
    body = data.removeprefix(b"\xef\xbb\xbf")
    text = decode_utf8(body, where)  # a byte that is not UTF-8 is named before any other error
    columns = _read_log_columns(body, resident, location_map)
    if columns is None:
        columns = _coded_records(_read_log_records(text, where, resident, location_map))
    events, warnings = _fold_sessions(*columns, first_number)
    return ParseResult(events=events.in_store_order(), warnings=warnings, sha256=hashlib.sha256(data).hexdigest())


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
    return spec.bin_values[min(spec.bin_index(value), spec.bin_count - 1)], warning


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


def decode_utf8(data: bytes, where: str) -> str:
    """UTF-8 ``data`` as text, line ends as they are.

    A byte that is not UTF-8 raises a :class:`ParseError` naming ``where``
    and the line that holds the first such byte.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b"?").splitlines())  # a line ends at \n, \r\n or \r
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})", path=where, line=line) from None


def decode_text(data: bytes, where: str) -> str:
    """:func:`decode_utf8` of ``data``, with each ``\\r\\n`` or ``\\r`` read as ``\\n``, as ``open`` reads a file."""
    text = decode_utf8(data, where)
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_input(path: str | Path) -> tuple[str, str]:
    """The text of a UTF-8 file, by :func:`decode_text`, and the SHA-256 of its bytes, from one read."""
    data = Path(path).read_bytes()
    return decode_text(data, str(path)), hashlib.sha256(data).hexdigest()


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
    whose text it does not keep, and ``sha256`` the digest of the bytes it
    read.  The ``events`` read the file again on first access; a file whose
    digest changed since the load raises a :class:`DataError`.
    ``header["bins"]``, when present, maps (service_id, attribute) to its
    spec.
    """

    header: dict
    history: History
    path: str
    sha256: str

    @cached_property
    def events(self) -> list[ServiceEvent]:
        """The event of every non-blank line after the header."""
        text, digest = read_input(self.path)
        if digest != self.sha256:
            raise DataError(f"{self.path}: store changed since it was loaded")
        return [_event_from_json(obj) for _, obj in islice(json_lines(text, self.path), 1, None)]

    def bin_specs(self) -> dict[tuple[str, str], BinningSpec]:
        return dict(self.header.get("bins", {}))


def write_store(path: str | Path, events: Sequence[ServiceEvent], header: Mapping) -> None:
    """Write the store; ``header["bins"]``, when present, maps (service_id, attribute) to its spec.

    Each event line is ``dumps_json`` of the event's record, written through
    :func:`_canonical_line` from the columns of :class:`EventRows`.
    Attributes, dates and labels repeat across events, so each distinct one
    is encoded once.
    """
    header = {"schema": STORE_SCHEMA, **header}
    if "bins" in header:
        header["bins"] = _bins_to_json(header["bins"])
    ids, service, location, resident, ordinal, start, end, attributes = (
        column.tolist() for column in vars(EventRows.of(events).in_store_order()).values())
    # Keyed by identity, since equal values can encode apart (0.0 and -0.0); the rows keep the mappings alive.
    blobs = {id(mapping): dumps_json({name: value.to_json() for name, value in mapping.items()})
             for mapping in {id(mapping): mapping for mapping in attributes}.values()}
    dates = {day: dt.date.fromordinal(day).isoformat() for day in set(ordinal)}  # json.dumps adds only quotes
    texts = {label: _json_text(label) for label in {*location, *resident, *service}}
    labels = (map(texts.__getitem__, column) for column in (location, resident, service))
    lines = map(_canonical_line, map(blobs.__getitem__, map(id, attributes)), map(dates.__getitem__, ordinal), end,
                map(_json_text, ids), *labels, start)
    Path(path).write_text("\n".join([dumps_json(header), *lines]) + "\n", encoding="utf-8", newline="\n")


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
# fields but the event id captured; a line of any other form has none.  No class here matches a
# newline.  The attributes object is matched by its structure, so a label holding a brace declines.
# A captured string has no escape and no control character, so its text is its value.  An integer
# has no leading zero (invalid JSON) and at most five digits: every valid second fits, and int()
# never meets its 4300-digit limit.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_INTEGER = r"(0|[1-9][0-9]{0,4})"
_ATTRIBUTES = r'\{"[^"\n]*":\{[^{}\n]*\}(?:,"[^"\n]*":\{[^{}\n]*\})*\}'
_STORE_LINE = re.compile(
    rf'^\{{"attributes":({_ATTRIBUTES}),"date":{_STRING},"end":{_INTEGER},"event_id":"[^"\\\x00-\x1f]*",'
    rf'"location":{_STRING},"resident":{_STRING},"service_id":{_STRING},"start":{_INTEGER}\}}$', re.M)
_PIECE = 1 << 16  # characters of a store read at a time


def _pieces(text: str, start: int) -> Iterator[str]:
    """``text`` from ``start`` on in pieces of whole lines, none over ``_PIECE`` characters unless one line is;
    each piece but the last ends with a newline."""
    while start < len(text):
        end = text.rfind("\n", start, start + _PIECE) + 1 or text.find("\n", start + _PIECE) + 1 or len(text)
        yield text[start:end]
        start = end


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
    """Read a store once, building the :class:`History` columns from its whole text.

    The file's check as UTF-8, its digest and its text come from one read.
    An event line must pass every check that building its
    :class:`ServiceEvent` makes; the first that fails raises a
    :class:`ParseError` naming its ``file:line``.  A store whose event
    lines are all in the canonical form :func:`write_store` writes is read
    a piece at a time by a pattern match over the text, and checked from
    the captured fields.  Any other store, with a blank line, a line of
    another form or a line that fails a check, has each line of the same
    text checked as a JSON object in file order, which raises the first bad
    line's error.
    """
    where = str(path)
    text, digest = read_input(path)
    start = re.match(r"\s*", text).end()  # the header's first character: a blank line is all whitespace
    end = text.find("\n", start) + 1 or len(text)
    header = _store_header(text[start:end].strip(), where, text.count("\n", 0, start) + 1)
    columns = _EventColumns()
    if all(map(columns.read, _pieces(text, end))):
        history = columns.history()
    else:
        rows = []
        for lineno, obj in islice(json_lines(text, where), 1, None):
            with record_errors(where, lineno, "bad event record: "):
                rows.append(_checked_row(obj))
        history = History.from_columns(*(list(zip(*rows)) or [()] * 7))  # no rows: seven empty columns
    return EventStore(header=header, history=history, path=where, sha256=digest)


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
