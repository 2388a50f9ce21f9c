import csv
import datetime as dt
import json
import math
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from homearbiter.errors import DataError, ParseError
from homearbiter.ingest import END_OF_DAY, LOG_COLUMNS, BinningSpec, EventRows, _parse_attribute
from homearbiter.intervals import SECONDS_PER_DAY, TimeOfDayInterval, format_hms, parse_hms
from homearbiter.linalg import SvdResult
from homearbiter.model import AttributeValue, ServiceEvent, ServiceRequest, normalize_location
from homearbiter.preferences import PreferenceMatrix


def hms(text: str) -> int:
    return parse_hms(text)


def shifted(text: str, seconds: int) -> str:
    """The ``HH:MM:SS`` time ``seconds`` after ``text`` around the day circle."""
    return format_hms((parse_hms(text) + seconds) % SECONDS_PER_DAY)


def interval(start: str, end: str) -> TimeOfDayInterval:
    return TimeOfDayInterval(parse_hms(start), parse_hms(end))


def overlap_length(a: TimeOfDayInterval, b: TimeOfDayInterval) -> int:
    """Length in seconds of the common part of two daily windows.

    Symmetric, nonnegative, and zero for windows that only touch at an
    endpoint.
    """
    return sum(max(0, min(ea, eb) - max(sa, sb)) for sa, ea in a.segments() for sb, eb in b.segments())


def intervals_overlap(a: TimeOfDayInterval, b: TimeOfDayInterval) -> bool:
    return overlap_length(a, b) > 0


def window_scan(history, situation, lookback_days=None):
    """A situation's window events by a plain per-event scan: the reference for ``window_events``."""
    latest = max((event.date for event in history), default=None)
    return [
        event for event in history
        if event.service_id == situation.service_id and event.location == situation.location
        and (lookback_days is None or (latest - event.date).days < lookback_days)
        and intervals_overlap(event.interval, situation.window)
    ]


def adopted_scan(events, resident, attribute, threshold):
    """Adopted items by a plain scan of window events: the reference for ``adopted_items``."""
    item_days, active_days = {}, set()
    for event in events:
        if event.resident == resident:
            active_days.add(event.date)
            value = event.attributes.get(attribute)
            if value is not None:
                item_days.setdefault(value.item_label(), set()).add(event.date)
    return {item for item, days in item_days.items() if len(days) > threshold * len(active_days)}


def matrix_from_entries(entries: Mapping[tuple[str, str], float], residents: Sequence[str] | None = None,
                        items: Sequence[str] | None = None) -> PreferenceMatrix:
    """A matrix holding ``entries`` ((resident, item) -> score) and 0 in every other cell.

    Rows default to the entries' residents and columns to their items, each sorted.
    """
    residents = tuple(sorted({r for r, _ in entries})) if residents is None else tuple(residents)
    items = tuple(sorted({i for _, i in entries})) if items is None else tuple(items)
    scores = np.zeros((len(residents), len(items)))
    for (resident, item), score in entries.items():
        scores[residents.index(resident), items.index(item)] = score
    return PreferenceMatrix(residents=residents, items=items, scores=scores)


def matrix_entries(matrix: PreferenceMatrix) -> dict[tuple[str, str], float]:
    """The matrix's non-zero cells, keyed by (resident, item)."""
    return {(resident, item): score
            for resident, row in zip(matrix.residents, matrix.scores.tolist())
            for item, score in zip(matrix.items, row) if score != 0}


def item_set_by_sort(entries: Mapping[tuple[str, str], float], situation, top_n: int) -> tuple[str, ...]:
    """Each member's ``top_n`` entries by (-score, label), plus the requested values, sorted: the reference
    for ``aggregate.build_item_set``."""
    items = {request.value.item_label() for request in situation.requests}
    for resident in situation.residents:
        row = sorted(((i, s) for (r, i), s in entries.items() if r == resident), key=lambda kv: (-kv[1], kv[0]))
        items.update(item for item, _ in row[:top_n])
    return tuple(sorted(items))


def matrix_by_lookup(entries: Mapping[tuple[str, str], float], item_set: Sequence[str],
                     residents: Sequence[str]) -> np.ndarray:
    """One looked-up entry per (resident, item) cell, 0.0 where there is none: the reference for
    ``aggregate.build_preference_matrix``."""
    return np.array([[entries.get((r, i), 0.0) for i in item_set] for r in residents], dtype=np.float64)


def event_from_json(obj) -> ServiceEvent:
    """A store event line's event by the per-line checks and constructors: the reference for ``load_store``."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for name in ("event_id", "service_id", "date", "location", "resident"):
        if not isinstance(obj[name], str):
            raise ValueError(f"{name} must be a string")
    attributes = obj["attributes"]
    if not isinstance(attributes, dict) or not all(isinstance(v, dict) for v in attributes.values()):
        raise ValueError("attributes must be an object of objects")
    return ServiceEvent(
        event_id=obj["event_id"],
        service_id=obj["service_id"],
        attributes={k: AttributeValue.from_json(v) for k, v in attributes.items()},
        date=dt.date.fromisoformat(obj["date"]),
        interval=TimeOfDayInterval(obj["start"], obj["end"]),
        location=obj["location"],
        resident=obj["resident"],
    )


# Any JSON value: scalars of every type, and lists and objects of them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
# The value that makes ``rewrite_json_line`` delete its field.
DELETE = object()


def rewrite_json_line(path: str | Path, lineno: int, keys: Sequence = (), value=DELETE,
                      out: str | Path | None = None) -> Path:
    """Write the JSON-lines file ``path`` with its line ``lineno`` (from 1) changed to ``out``, by default in place.

    ``keys`` is a path of object keys and list indices into the line's value:
    the field it names is set to ``value``, or deleted when ``value`` is
    :data:`DELETE`.  With no keys the whole line becomes ``value``.  Every
    other line is written as it was.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    obj = json.loads(lines[lineno - 1])
    if keys:
        *parents, last = keys
        node = obj
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    else:
        obj = value
    lines[lineno - 1] = json.dumps(obj)
    out = Path(path if out is None else out)
    out.write_text("\n".join(lines), encoding="utf-8")
    return out


def history_columns(events: Sequence[ServiceEvent]) -> tuple:
    """A history's residents, item labels, latest date ordinal and per-(service, location) columns, coded
    in order of first appearance by one pass over the events: the reference for ``preferences.History``."""
    residents: dict[str, int] = {}
    labels: dict[str, int] = {}
    rows: dict[tuple[str, str], list[tuple]] = {}
    for e in events:
        items = {name: labels.setdefault(value.item_label(), len(labels)) for name, value in e.attributes.items()}
        rows.setdefault((e.service_id, e.location), []).append(
            (e.date.toordinal(), e.interval, residents.setdefault(e.resident, len(residents)), items))
    groups = {}
    for key, group in rows.items():
        names = {name: None for *_, items in group for name in items}
        groups[key] = {
            "date": [date for date, *_ in group],
            "start": [interval.start for _, interval, *_ in group],
            "end1": [interval.segments()[0][1] for _, interval, *_ in group],
            "end2": [interval.end if interval.wraps else 0 for _, interval, *_ in group],
            "duration": [interval.duration() for _, interval, *_ in group],
            "resident": [resident for *_, resident, _ in group],
            "items": {name: [items.get(name, -1) for *_, items in group] for name in names},
        }
    latest = max((e.date.toordinal() for e in events), default=None)
    return tuple(residents), tuple(labels), latest, groups


def store_order(event: ServiceEvent) -> tuple:
    """Sort key of the canonical event order, date, start, resident, event id: the reference for the order of
    ``ingest.EventRows.in_store_order``."""
    return (event.date, event.interval.start, event.resident, event.event_id)


def event_to_json(e: ServiceEvent) -> dict:
    """An event's store record: ``dumps_json`` of it is the reference for ``write_store``'s event lines."""
    return {
        "event_id": e.event_id,
        "service_id": e.service_id,
        "attributes": {name: e.attributes[name].to_json() for name in sorted(e.attributes)},
        "date": e.date.isoformat(),
        "start": e.interval.start,
        "end": e.interval.end,
        "location": e.location,
        "resident": e.resident,
    }


def read_log_records(path: str | Path, resident: str | None, location_map: Mapping[str, str]) -> Iterator[tuple]:
    """``(date, time, sensor, status, attribute, resident, location)`` per row, parsing every field of every
    row: the reference for ``ingest._read_log_records``.

    ``location`` is the normalized mapped location of an ON row and ``None``
    for the other statuses, which keep their session's location.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            return
        if [h.strip() for h in header] != LOG_COLUMNS:
            raise ParseError(f"expected header {','.join(LOG_COLUMNS)!r}", path=str(path), line=1)
        previous = None
        end = reader.line_num
        for row in reader:
            lineno, end = end + 1, reader.line_num  # a record's first physical line
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(LOG_COLUMNS):
                raise ParseError(f"expected {len(LOG_COLUMNS)} fields, got {len(row)}", path=str(path), line=lineno)
            date_s, time_s, sensor, status, value, row_resident, location = (f.strip() for f in row)
            try:
                date = dt.date.fromisoformat(date_s)
                time = parse_hms(time_s)
                attribute = _parse_attribute(value)
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
                location = normalize_location(location_map.get(sensor, location))
                if not location:
                    raise ParseError("empty location (column empty and none mapped)", path=str(path), line=lineno)
            else:
                location = None
            yield date, time, sensor, status, attribute, effective_resident, location


def fold_sessions_loop(records, first_number: int = 1) -> tuple[EventRows, list[str]]:
    """The events, in the order they close, and the warnings of ``(date, time, sensor, status, attribute,
    resident, location)`` records, by a loop over the rows that keeps each key's open session: the
    reference for ``ingest._fold_sessions``."""
    events: list[tuple] = []  # the EventRows record of each event
    warnings: list[str] = []
    # (sensor, resident) -> its open session: (date, start, attributes, location).
    open_sessions: dict[tuple[str, str], tuple[dt.date, int, dict, str]] = {}
    # (id of a session's attributes or of None, id of a record's attribute) -> the attributes with it, shared by
    # its sessions.  The readers keep every attribute alive, and the memo every attributes, so no id is reused.
    made: dict[tuple[int, int], dict] = {}
    counter = first_number - 1
    one_day = dt.timedelta(days=1)

    def with_attribute(attributes: dict | None, attribute: tuple[str, AttributeValue]) -> dict:
        if (id(attributes), id(attribute)) not in made:
            made[id(attributes), id(attribute)] = {**(attributes or {}), attribute[0]: attribute[1]}
        return made[id(attributes), id(attribute)]

    def emit(sensor: str, res: str, session: tuple, end: int) -> None:
        nonlocal counter
        date, start, attributes, location = session
        if end == start:
            return  # zero-length segment: value changed within one second
        counter += 1
        events.append((f"{res}-{counter:06d}", sensor, location, res, date.toordinal(), start, end, attributes))

    def close_at_day_end(key: tuple[str, str], session: tuple) -> None:
        emit(key[0], key[1], session, END_OF_DAY)
        warnings.append(
            f"{key[0]}/{key[1]}: ON at {session[0]} {format_hms(session[1])} without OFF; closed at end of day"
        )

    for date, time, sensor, status, attribute, res, location in records:
        key = (sensor, res)
        session = open_sessions.get(key)
        if session is not None and date != session[0]:
            if status == "OFF" and date == session[0] + one_day and time < session[1]:
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
            open_sessions[key] = (date, time, with_attribute(None, attribute), location)
        elif status == "SET":
            if session is None:
                warnings.append(f"{sensor}/{res}: SET at {date} {format_hms(time)} while off; ignored")
                continue
            emit(sensor, res, session, time)
            open_sessions[key] = (date, time, with_attribute(session[2], attribute), session[3])
        else:  # OFF
            if session is None:
                warnings.append(f"{sensor}/{res}: OFF at {date} {format_hms(time)} while not on; ignored")
                continue
            emit(sensor, res, session, time)
            del open_sessions[key]

    for key in sorted(open_sessions):
        close_at_day_end(key, open_sessions[key])

    return EventRows.from_records(events), warnings


def compute_bins_loop(values: Sequence[float], bin_count: int, attribute: str = "value") -> BinningSpec:
    """Optimal 1-D partition of the values into ``bin_count`` groups, by a Python loop over every split:
    the reference for ``ingest.compute_bins``.

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

    try:
        with np.errstate(over="raise", invalid="raise"):
            w = np.asarray(weights, dtype=np.float64)
            x = np.asarray(distinct, dtype=np.float64)
            cw = np.concatenate([[0.0], np.cumsum(w)])
            cs = np.concatenate([[0.0], np.cumsum(w * x)])
            cq = np.concatenate([[0.0], np.cumsum(w * x * x)])

            def sse(i: int, j: int) -> float:
                # weighted SSE of distinct[i..j] inclusive
                ww = cw[j + 1] - cw[i]
                ss = cs[j + 1] - cs[i]
                qq = cq[j + 1] - cq[i]
                return max(0.0, qq - ss * ss / ww)

            inf = math.inf
            cost = [[inf] * d for _ in range(bin_count + 1)]
            prev = [[-1] * d for _ in range(bin_count + 1)]
            for j in range(d):
                cost[1][j] = sse(0, j)
            for m in range(2, bin_count + 1):
                for j in range(m - 1, d):
                    best, arg = inf, -1
                    for i in range(m - 1, j + 1):
                        c = cost[m - 1][i - 1] + sse(i, j)
                        if c < best:
                            best, arg = c, i
                    cost[m][j] = best
                    prev[m][j] = arg
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


def svd_loop(matrix) -> SvdResult:
    """``linalg.svd`` with its sign convention applied column by column: the reference for its array steps."""
    a_full, sigma, vt = np.linalg.svd(np.asarray(matrix, dtype=np.float64), full_matrices=True)
    v_full = vt.T
    m, n = a_full.shape[0], v_full.shape[0]
    k = min(m, n)
    for j in range(n):
        i = int(np.argmax(np.abs(v_full[:, j])))
        if v_full[i, j] < 0:
            v_full[:, j] = -v_full[:, j]
            if j < k:
                a_full[:, j] = -a_full[:, j]
    for j in range(k, m):
        i = int(np.argmax(np.abs(a_full[:, j])))
        if a_full[i, j] < 0:
            a_full[:, j] = -a_full[:, j]
    return SvdResult(A=a_full, singular_values=sigma, V=v_full)


def reconstruct(result) -> np.ndarray:
    """``A @ D @ V.T`` of an ``SvdResult``, with ``D`` the full m-by-n diagonal."""
    d = np.zeros((result.A.shape[0], result.V.shape[0]))
    k = len(result.singular_values)
    d[:k, :k] = np.diag(result.singular_values)
    return result.A @ d @ result.V.T


def binning_sse(values, spec) -> float:
    """Total within-bin SSE of the values under the spec's boundaries: the binning oracle."""
    groups: dict[int, list[float]] = {}
    for v in values:
        groups.setdefault(spec.bin_index(float(v)), []).append(float(v))
    total = 0.0
    for vs in groups.values():
        mean = sum(vs) / len(vs)
        total += sum((v - mean) ** 2 for v in vs)
    return total


_EVENT_COUNTER = [0]


def make_event(
    resident: str,
    start: str,
    end: str,
    channel: str | None = "Ch1",
    service: str = "TV",
    location: str = "living room",
    date: dt.date = dt.date(2026, 1, 1),
    attributes: dict | None = None,
    event_id: str | None = None,
) -> ServiceEvent:
    _EVENT_COUNTER[0] += 1
    if attributes is None:
        attributes = {"channel": AttributeValue.categorical(channel)} if channel else {}
    return ServiceEvent(
        event_id=event_id or f"ev-{_EVENT_COUNTER[0]:05d}",
        service_id=service,
        attributes=attributes,
        date=date,
        interval=interval(start, end),
        location=location,
        resident=resident,
    )


def make_request(
    resident: str,
    value: str,
    start: str = "20:00:00",
    end: str = "20:30:00",
    service: str = "TV",
    attribute: str = "channel",
    location: str = "living room",
    request_id: str | None = None,
    numeric: bool = False,
) -> ServiceRequest:
    _EVENT_COUNTER[0] += 1
    av = AttributeValue.numeric(float(value)) if numeric else AttributeValue.categorical(value)
    return ServiceRequest(
        request_id=request_id or f"req-{_EVENT_COUNTER[0]:05d}",
        service_id=service,
        attribute=attribute,
        value=av,
        interval=interval(start, end),
        location=location,
        resident=resident,
    )


@pytest.fixture
def reference_history():
    from homearbiter.demo import reference_history as build

    return build()


@pytest.fixture
def reference_requests():
    from homearbiter.demo import reference_requests as build

    return build()


@pytest.fixture
def reference_situation(reference_requests):
    from homearbiter.detect import detect_conflicts

    situations = detect_conflicts(reference_requests)
    assert len(situations) == 1
    return situations[0]


@pytest.fixture
def reference_table(reference_history, reference_situation):
    from homearbiter.preferences import build_preference_table, window_events

    return build_preference_table(window_events(reference_history, reference_situation), reference_situation)
