"""The event log: a CSV of ON/OFF/SET rows, folded into service events.

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
unique, so ``stabilize`` puts them in store order.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import io
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ParseError
from .intervals import SECONDS_PER_DAY, format_hms, parse_hms
from .model import AttributeValue, EventRows, normalize_location
from .records import decode_utf8, record_errors

LOG_COLUMNS = ["date", "time", "sensor", "status", "value", "resident", "location"]
END_OF_DAY = SECONDS_PER_DAY - 1


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
