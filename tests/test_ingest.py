import csv
import dataclasses
import datetime as dt
import io
import itertools
import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from homearbiter import ingest
from homearbiter.errors import DataError, ParseError
from homearbiter.ingest import (
    LOG_COLUMNS,
    BinningSpec,
    apply_bins,
    augment_channels,
    bin_value,
    compute_bins,
    dumps_json,
    load_requests,
    load_store,
    parse_event_log,
    stabilize,
    store_order,
    write_store,
)
from homearbiter.intervals import SECONDS_PER_DAY, TimeOfDayInterval, parse_hms
from homearbiter.model import AttributeValue, ServiceEvent
from homearbiter.preferences import History

from conftest import (
    JSON_VALUES,
    binning_sse,
    compute_bins_loop,
    event_from_json,
    event_to_json,
    history_columns,
    make_event,
    read_log_records,
)

HEADER = "date,time,sensor,status,value,resident,location\n"


def write_log(tmp_path, body: str, name: str = "log.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# parse_event_log

def test_parse_direct_pairing(tmp_path):
    path = write_log(tmp_path, "2026-01-01,20:00:00,TV,ON,channel=Ch1,r1,living room\n"
                               "2026-01-01,21:00:00,TV,OFF,,r1,living room\n")
    result = parse_event_log(path)
    assert result.warnings == []
    assert len(result.events) == 1
    event = result.events[0]
    assert (event.interval.start, event.interval.end) == (parse_hms("20:00:00"), parse_hms("21:00:00"))
    assert event.attributes["channel"] == AttributeValue.categorical("Ch1")
    assert event.service_id == "TV"
    assert event.location == "living room"


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    result = parse_event_log(path)
    assert result.events == [] and result.warnings == []
    header_only = write_log(tmp_path, "", name="header.csv")
    result = parse_event_log(header_only)
    assert result.events == [] and result.warnings == []


def test_parse_unclosed_event_flags_warning(tmp_path):
    path = write_log(tmp_path, "2026-01-01,20:00:00,TV,ON,channel=Ch1,r1,living room\n")
    result = parse_event_log(path)
    assert len(result.events) == 1
    event = result.events[0]
    assert (event.interval.start, event.interval.end) == (parse_hms("20:00:00"), parse_hms("23:59:59"))
    assert len(result.warnings) == 1 and "without OFF" in result.warnings[0]


def test_parse_malformed_line_reports_position(tmp_path):
    path = write_log(tmp_path, "2026-01-01,20:00:00,TV,ON,,r1,living room\n"
                               "bad line\n")
    with pytest.raises(ParseError) as err:
        parse_event_log(path)
    assert ":3:" in str(err.value)


def test_parse_rejects_out_of_order_rows(tmp_path):
    rows = ("2026-01-01,20:00:00,TV,ON,channel=Ch1,r1,living room\n"
            "2026-01-01,21:00:00,TV,OFF,,r1,living room\n")
    for late_row in ("2026-01-01,20:30:00,TV,ON,channel=Ch2,r2,living room\n",
                     "2025-12-31,23:00:00,TV,ON,channel=Ch2,r2,living room\n"):
        path = write_log(tmp_path, rows + "\n" + late_row)
        with pytest.raises(ParseError, match=r"log\.csv:5: row at .* is earlier than the previous row"):
            parse_event_log(path)
    same_time = write_log(tmp_path, rows + "2026-01-01,21:00:00,TV,ON,channel=Ch2,r2,living room\n")
    assert len(parse_event_log(same_time).events) == 2


def test_parse_rejects_non_finite_values(tmp_path):
    for value in ("temp=nan", "temp=inf", "-Infinity", "temp="):
        path = write_log(tmp_path, "2026-01-01,20:00:00,thermostat,ON,temp=20,r1,bedroom\n"
                                   f"2026-01-01,20:10:00,thermostat,SET,{value},r1,bedroom\n")
        with pytest.raises(ParseError, match=r"log\.csv:3: "):
            parse_event_log(path)


def test_parse_bad_header(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_event_log(path)


def test_parse_overnight_wraps(tmp_path):
    path = write_log(tmp_path, "2026-01-01,23:00:00,TV,ON,channel=Ch1,r1,living room\n"
                               "2026-01-02,01:00:00,TV,OFF,,r1,living room\n")
    result = parse_event_log(path)
    assert result.warnings == []
    event = result.events[0]
    assert event.interval.wraps
    assert event.date == dt.date(2026, 1, 1)
    assert event.interval.duration() == 7200


def test_parse_set_splits_segments(tmp_path):
    path = write_log(tmp_path, "2026-01-01,20:00:00,TV,ON,channel=Ch1,r1,living room\n"
                               "2026-01-01,20:10:00,TV,SET,channel=Ch2,r1,living room\n"
                               "2026-01-01,21:00:00,TV,OFF,,r1,living room\n")
    result = parse_event_log(path)
    assert [e.attributes["channel"].label for e in result.events] == ["Ch1", "Ch2"]
    assert [(e.interval.start, e.interval.end) for e in result.events] == [
        (parse_hms("20:00:00"), parse_hms("20:10:00")),
        (parse_hms("20:10:00"), parse_hms("21:00:00")),
    ]
    assert [e.event_id for e in result.events] == ["r1-000001", "r1-000002"]
    later = parse_event_log(path, first_number=7).events
    assert [e.event_id for e in later] == ["r1-000007", "r1-000008"]
    assert [dataclasses.replace(e, event_id=f.event_id) for e, f in zip(later, result.events)] == result.events


def test_parse_orphan_records_warn(tmp_path):
    path = write_log(tmp_path, "2026-01-01,20:00:00,TV,SET,channel=Ch1,r1,living room\n"
                               "2026-01-01,20:30:00,TV,OFF,,r1,living room\n")
    result = parse_event_log(path)
    assert result.events == []
    assert len(result.warnings) == 2


def test_parse_resident_override_and_location_map(tmp_path):
    path = write_log(tmp_path, "2026-01-01,20:00:00,TV,ON,,whoever,\n"
                               "2026-01-01,21:00:00,TV,OFF,,whoever,\n")
    result = parse_event_log(path, resident="r9", location_map={"TV": "Den"})
    assert result.events[0].resident == "r9"
    assert result.events[0].location == "den"


def test_parse_rejects_an_on_row_without_a_location(tmp_path):
    path = write_log(tmp_path, "2026-01-01,20:00:00,TV,ON,,r1,den\n"
                               "2026-01-01,20:30:00,TV,OFF,,r1,\n"
                               "2026-01-01,21:00:00,TV,ON,,r1, \n")
    with pytest.raises(ParseError, match=r"log\.csv:4: empty location"):
        parse_event_log(path)
    assert parse_event_log(path, location_map={"TV": "den"}).events[-1].location == "den"


# Field texts drawn from small pools, so that each repeats down a log: valid ones, which may differ
# only in spacing, case or form, and invalid ones, of which a drawn log holds a few.
_GOOD_FIELDS = [
    ["2026-01-01", " 2026-01-02", "20260102", "2026-01-03"],
    ["20:00:00", "20:00:59", "9:5:0", " 21:00:00 ", "23:59:59"],
    ["TV", " TV ", "radio"],
    ["ON", "on", " Set ", "OFF", "off"],
    ["", "channel=Ch1", "Ch2", "temp=21.5", "temp=19", " temp = 19 ", "x=1"],
    ["r1", " r2 ", "r3"],
    ["living room", " Kitchen ", "den", "Den "],
]
_BAD_FIELDS = [
    ["2026-02-30", "", "x"],
    ["24:00:00", "1_0:00:00", "20:00", ""],
    [""],
    ["BOGUS", ""],
    ["=", "nan", "temp=inf", "x="],
    [""],
    [""],
]
_BAD_ROWS = [[], [" "], ["garbage"], ["2026-01-01", "20:00:00"]]


@st.composite
def _log_rows(draw):
    """Rows of valid fields, with a few fields, or whole rows, replaced by bad ones."""
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, _GOOD_FIELDS)).map(list), max_size=14))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        index, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(LOG_COLUMNS) - 1))
        rows[index][column] = draw(st.sampled_from(_BAD_FIELDS[column]))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(_BAD_ROWS))
    return rows


def _row_order(row):
    """Where a row sorts in a log in (date, time) order; rows with a bad date or time go last."""
    try:
        return (dt.date.fromisoformat(row[0].strip()), parse_hms(row[1]))
    except (IndexError, ValueError):
        return (dt.date.max, 0)


def _records_until_rejection(reader, path, resident, location_map):
    records = []
    try:
        for record in reader(path, resident, location_map):
            records.append(record)
    except ParseError as exc:
        return records, str(exc)
    return records, None


@settings(max_examples=300, deadline=None)
@given(rows=_log_rows(), ordered=st.booleans(), resident=st.sampled_from([None, "z", ""]),
       location_map=st.sampled_from([{}, {"TV": "Den"}, {"radio": " "}, {"TV": " Living Room "}]))
@example(rows=[["2026-01-01", "20:00:00", "TV", "ON", "Ch2", "r1", "den"],
               ["2026-01-01", "21:00:00", "TV", "ON", "nan", "r1", "den"],
               ["2026-01-01", "22:00:00", "TV", "ON", "nan", "r1", "den"]], ordered=False, resident=None,
         location_map={})
@example(rows=[["2026-01-01", "20:00:00", "radio", "ON", "", "r1", "den"],
               ["2026-01-01", "21:00:00", "radio", "ON", "", "r1", ""],
               ["2026-01-01", "22:00:00", "radio", "ON", "", "r1", "den"]], ordered=False, resident=None,
         location_map={"radio": " "})
@example(rows=[["2026-01-02", "21:00:00", "TV", "ON", "Ch2", "r1", "den"],
               ["20260102", "9:5:0", "TV", "OFF", "", "r1", "den"]], ordered=False, resident=None, location_map={})
def test_read_log_records_matches_the_per_row_oracle(tmp_path_factory, rows, ordered, resident, location_map):
    if ordered:
        rows = sorted(rows, key=_row_order)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([LOG_COLUMNS, *rows])
    path = tmp_path_factory.mktemp("log") / "log.csv"
    path.write_text(text.getvalue(), encoding="utf-8")
    assert (_records_until_rejection(ingest._read_log_records, path, resident, location_map)
            == _records_until_rejection(read_log_records, path, resident, location_map))


def test_parse_serialize_parse_roundtrip(tmp_path):
    path = write_log(tmp_path, "2026-01-01,20:00:00,TV,ON,channel=Ch1,r1,living room\n"
                               "2026-01-01,21:00:00,TV,OFF,,r1,living room\n"
                               "2026-01-02,07:00:00,thermostat,ON,temp=21.5,r1,bedroom\n"
                               "2026-01-02,08:00:00,thermostat,OFF,,r1,bedroom\n")
    events = parse_event_log(path).events
    store_path = tmp_path / "store.jsonl"
    write_store(store_path, events, header={"config": {}})
    first = store_path.read_bytes()
    loaded = load_store(store_path)
    assert loaded.events == events
    write_store(store_path, loaded.events, header={"config": {}})
    assert store_path.read_bytes() == first


def test_store_header_is_first_non_blank_line(tmp_path):
    path = write_log(tmp_path, "2026-01-01,20:00:00,TV,ON,channel=Ch1,r1,living room\n"
                               "2026-01-01,21:00:00,TV,OFF,,r1,living room\n")
    events = parse_event_log(path).events
    store_path = tmp_path / "store.jsonl"
    write_store(store_path, events, header={"config": {}})
    store_path.write_text("\n  \n" + store_path.read_text(encoding="utf-8"), encoding="utf-8")
    assert load_store(store_path).events == events

    event_first = tmp_path / "event_first.jsonl"
    event_first.write_text("\n" + "\n".join(store_path.read_text().splitlines()[3:]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"event_first\.jsonl:2: unknown store schema None"):
        load_store(event_first)
    header_only = tmp_path / "header_only.jsonl"
    header_only.write_text(store_path.read_text().splitlines()[2] + "\n\n \n", encoding="utf-8")
    store = load_store(header_only)  # blank lines: the checked read, of no event line
    assert (store.events, store.history.groups, store.history.latest) == ([], {}, None)
    for body in ("", "\n\n"):
        store_path.write_text(body, encoding="utf-8")
        with pytest.raises(ParseError, match="no store header"):
            load_store(store_path)


def test_store_events_read_the_file_again_and_reject_a_changed_one(tmp_path):
    path = write_log(tmp_path, "2026-01-01,20:00:00,TV,ON,channel=Ch1,r1,living room\n"
                               "2026-01-01,21:00:00,TV,OFF,,r1,living room\n"
                               "2026-01-02,20:00:00,TV,ON,channel=Ch2,r1,living room\n"
                               "2026-01-02,21:00:00,TV,OFF,,r1,living room\n")
    events = parse_event_log(path).events
    store_path = tmp_path / "store.jsonl"
    write_store(store_path, events, header={"config": {}})
    store, changed = load_store(store_path), load_store(store_path)
    assert store.events == events
    write_store(store_path, events[:1], header={"config": {}})
    with pytest.raises(DataError, match=r"store\.jsonl: store changed since it was loaded"):
        changed.events
    assert store.events == events and load_store(store_path).events == events[:1]


_STORE_EVENT = {
    "event_id": "r1-000001", "service_id": "TV", "date": "2026-01-01", "start": 72000, "end": 73800,
    "location": "living room", "resident": "r1",
    "attributes": {"channel": {"kind": "cat", "label": "Ch1"}, "temp": {"kind": "num", "value": 20.5}},
}


def _store_event_with(field, value):
    """The valid store event with one field, or one attribute value, replaced."""
    event = json.loads(json.dumps(_STORE_EVENT))
    if field in ("channel", "temp"):
        event["attributes"][field] = value
    else:
        event[field] = value
    return event


@settings(max_examples=150, deadline=None)
@given(line=JSON_VALUES | st.builds(_store_event_with, st.sampled_from([*_STORE_EVENT, "channel", "temp"]),
                                     JSON_VALUES))
@example(line=[1, 2])
@example(line=_store_event_with("attributes", [1]))
@example(line=_store_event_with("channel", "Ch1"))
@example(line=_store_event_with("temp", {"kind": "num", "value": float("nan")}))
@example(line=_store_event_with("temp", {"kind": "num", "value": 10 ** 400}))
def test_load_store_either_loads_an_event_line_or_names_it(tmp_path_factory, line):
    store_path = tmp_path_factory.mktemp("store") / "store.jsonl"
    valid = json.dumps(_STORE_EVENT)
    store_path.write_text("\n".join([json.dumps({"schema": "homearbiter-store/1"}), valid, json.dumps(line), valid])
                          + "\n", encoding="utf-8")
    try:
        store = load_store(store_path)
    except ParseError as exc:
        assert str(exc).startswith(f"{store_path}:3: ")
    else:
        assert len(store.events) == 3


_STORE_BINS = {"service_id": "thermostat", "attribute": "temp", "bin_count": 3, "boundaries": [19.0, 22.0],
               "lo": 16.0, "hi": 25.0}


def _bins_entry_with(field, value):
    """The valid bins entry with one field, or one boundary, replaced."""
    entry = json.loads(json.dumps(_STORE_BINS))
    if field == "boundary":
        entry["boundaries"][1] = value
    else:
        entry[field] = value
    return entry


@settings(max_examples=150, deadline=None)
@given(bins=JSON_VALUES
       | st.lists(st.builds(_bins_entry_with, st.sampled_from([*_STORE_BINS, "boundary"]), JSON_VALUES),
                  min_size=1, max_size=1)
       | st.builds(lambda entry: [entry], st.dictionaries(st.sampled_from(sorted(_STORE_BINS)), JSON_VALUES)))
@example(bins=[{k: v for k, v in _STORE_BINS.items() if k != "lo"}])
@example(bins=[{"service_id": "thermostat"}])
@example(bins=[_bins_entry_with("bin_count", 2.0)])
@example(bins=[_bins_entry_with("boundary", 10 ** 400)])
@example(bins=[_STORE_BINS])
def test_load_store_either_loads_the_header_bins_or_names_the_header(tmp_path_factory, bins):
    store_path = tmp_path_factory.mktemp("store") / "store.jsonl"
    store_path.write_text("\n".join([json.dumps({"schema": "homearbiter-store/1", "bins": bins}),
                                     json.dumps(_STORE_EVENT)]) + "\n", encoding="utf-8")
    try:
        store = load_store(store_path)
    except ParseError as exc:
        assert str(exc).startswith(f"{store_path}:1: bad bins entry: ")
    else:
        for (service_id, attribute), spec in store.bin_specs().items():
            assert isinstance(service_id, str) and spec.attribute == attribute
            assert bin_value(spec.hi, spec)[0].bin_index in range(spec.bin_count)
        if bins == [_STORE_BINS]:
            assert store.bin_specs() == {("thermostat", "temp"): BinningSpec("temp", 3, (19.0, 22.0), 16.0, 25.0)}
            write_store(store_path, store.events, store.header)
            assert json.loads(store_path.read_text(encoding="utf-8").splitlines()[0])["bins"] == bins


_STORE_HEADER = {"schema": "homearbiter-store/1", "bins": [_STORE_BINS], "config": {"bin_count": 3},
                 "inputs": [{"path": "log.csv", "sha256": "0" * 64}], "prng": "numpy-randomstate-mt19937/v1",
                 "warnings": []}


@settings(max_examples=150, deadline=None)
@given(first=JSON_VALUES | st.builds(lambda field, value: {**_STORE_HEADER, field: value},
                                      st.sampled_from(sorted(_STORE_HEADER)), JSON_VALUES))
@example(first=_STORE_HEADER)
@example(first={**_STORE_HEADER, "schema": "homearbiter-store/2"})
@example(first={**_STORE_HEADER, "bins": {"temp": 1}})
def test_load_store_either_loads_the_header_or_names_line_one(tmp_path_factory, first):
    store_path = tmp_path_factory.mktemp("store") / "store.jsonl"
    store_path.write_text("\n".join([json.dumps(first), json.dumps(_STORE_EVENT)]) + "\n", encoding="utf-8")
    try:
        store = load_store(store_path)
    except ParseError as exc:
        assert str(exc).startswith(f"{store_path}:1: ")
    else:
        assert store.header["schema"] == "homearbiter-store/1" and len(store.events) == 1
        assert all(isinstance(spec, BinningSpec) for spec in store.bin_specs().values())


_VALID_ATTRIBUTES = st.dictionaries(
    st.sampled_from(["channel", "station", "temp"]),
    st.sampled_from([{"kind": "cat", "label": "Ch1"}, {"kind": "cat", "label": "Ch2"},
                     {"kind": "num", "value": 20.5}, {"kind": "num", "value": 3}, {"kind": "num", "value": -0.0},
                     {"kind": "bin", "index": 2, "bounds": [21.0, 22.0]}, {"kind": "bin", "index": 0, "bounds": [1, 2]}]),
    min_size=1, max_size=2)
_VALID_EVENTS = st.builds(
    lambda number, resident, service, location, date, start, length, attributes: {
        "event_id": f"{resident}-{number:06d}", "service_id": service, "date": date, "start": start,
        "end": (start + length) % SECONDS_PER_DAY, "location": location, "resident": resident,
        "attributes": attributes},
    st.integers(1, 999), st.sampled_from(["r1", "r2", "r3"]), st.sampled_from(["TV", "radio"]),
    st.sampled_from(["living room", " Living Room ", "kitchen"]),
    st.sampled_from(["2026-01-01", "2026-01-02", "20260103", "2025-12-31"]),
    st.integers(0, SECONDS_PER_DAY - 1), st.integers(1, SECONDS_PER_DAY - 1), _VALID_ATTRIBUTES)
# Attribute values of every kind with arbitrary fields, and events with one field replaced.
_MUTATED_EVENTS = (
    JSON_VALUES
    | st.builds(_store_event_with, st.sampled_from([*_STORE_EVENT, "channel", "temp"]), JSON_VALUES)
    | st.builds(_store_event_with, st.sampled_from(["channel", "temp"]),
                st.fixed_dictionaries({"kind": st.sampled_from(["cat", "num", "bin"])},
                                      optional={"label": JSON_VALUES, "value": JSON_VALUES, "index": JSON_VALUES,
                                                "bounds": st.lists(st.integers() | st.floats() | st.text(max_size=3),
                                                                   max_size=3) | JSON_VALUES}))
)
_VARIED_EVENT = {**_STORE_EVENT, "location": " Living Room ", "date": "20260103", "start": 80000, "end": 3600,
                 "attributes": {"temp": {"kind": "num", "value": -0.0}, "level": {"kind": "bin", "index": 0,
                                                                                "bounds": [1, 2]}}}


def _group_columns(history):
    return {key: {"date": c.date.tolist(), "start": c.start.tolist(), "end1": c.end1.tolist(),
                  "end2": c.end2.tolist(), "duration": c.duration.tolist(), "resident": c.resident.tolist(),
                  "items": {name: column.tolist() for name, column in c.items.items()}}
            for key, c in history.groups.items()}


def _u_escape(match) -> str:
    return f'":"\\u{ord(match[1]):04x}'


class _Raw(str):
    """A store line given as its text, for lines no encoder writes."""


# Ways to write one store line: the canonical form ingest writes, and near-canonical texts.
_ENCODERS = {
    "canonical": dumps_json,
    "json": json.dumps,
    "leading-zero": lambda obj: re.sub(r'"start":(\d)', r'"start":0\1', dumps_json(obj)),
    # The first letter of the first string value (inside "attributes") or of the last as a \u escape.
    "escaped-first": lambda obj: re.sub(r'":"(\w)', _u_escape, dumps_json(obj), count=1),
    "escaped-last": lambda obj: re.sub(r'":"(\w)(?!.*":")', _u_escape, dumps_json(obj)),
    "padded": lambda obj: f"\t{dumps_json(obj)} ",
    "spaced": lambda obj: json.dumps(obj, sort_keys=True, separators=(" , ", " :")),
}
_CANONICAL = ["canonical"] * 7


def _encode(encoder, obj) -> str:
    return obj if isinstance(obj, _Raw) else _ENCODERS[encoder](obj)


def _canonical_event_text(old: str, new: str) -> _Raw:
    """The canonical line of the valid store event with the text ``old`` replaced by ``new``."""
    return _Raw(dumps_json(_STORE_EVENT).replace(old, new))


# Lines that load_store skips: empty, or all whitespace as str.strip sees it.
_BLANK_LINES = [_Raw(""), _Raw(" \t"), _Raw("\x1c\u3000")]
# Characters load_store reads at a time: a line of the store may span pieces, or fill one.
_PIECES = st.sampled_from([1, 40, 300, ingest._PIECE])


def _oracle_example(valid, mutated, position, encoders, later=(), gap=0, piece=ingest._PIECE):
    return example(valid=valid, mutated=mutated, position=position, encoders=encoders, later=list(later), gap=gap,
                   piece=piece)


def _store_outcome(store_path):
    """What loading a store gives: its error message, or its events and history."""
    try:
        store = load_store(store_path)
    except ParseError as exc:
        return str(exc)
    history = store.history
    return store.events, history.residents, history.item_labels, history.latest, _group_columns(history)


@settings(max_examples=200, deadline=None)
@given(valid=st.lists(_VALID_EVENTS, max_size=6), mutated=_MUTATED_EVENTS, position=st.integers(0, 6),
       encoders=st.lists(st.sampled_from(sorted(_ENCODERS)), min_size=7, max_size=7),
       later=st.lists(_MUTATED_EVENTS | _VALID_EVENTS | st.sampled_from(_BLANK_LINES), max_size=2),
       gap=st.integers(0, 6), piece=_PIECES)
@_oracle_example(valid=[_VARIED_EVENT, _STORE_EVENT], mutated=_VARIED_EVENT, position=1, encoders=_CANONICAL)
@_oracle_example(valid=[_VARIED_EVENT, _STORE_EVENT] * 3, mutated=_VARIED_EVENT, position=6,
                 encoders=["escaped-first", "escaped-last", "json", "padded", "spaced", "canonical", "leading-zero"])
@_oracle_example(valid=[_VARIED_EVENT, _STORE_EVENT] * 3, mutated=_STORE_EVENT, position=6,
                 encoders=["escaped-first", "escaped-last", "json", "padded", "spaced", "canonical", "canonical"])
@_oracle_example(valid=[], mutated=_store_event_with("temp", {"kind": "bin", "index": None, "bounds": [1, 2]}),
                 position=0, encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_store_event_with("temp", {"kind": "bin", "index": 1, "bounds": [1]}), position=0,
                 encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_store_event_with("temp", {"kind": "bin", "index": -0.0, "bounds": [1, 2]}),
                 position=0, encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_store_event_with("temp", {"kind": "bin", "index": True, "bounds": "12"}),
                 position=0, encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_store_event_with("temp", {"kind": "bin"}), position=0, encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_store_event_with("temp", {"kind": "num", "value": " 1e3 "}), position=0,
                 encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_store_event_with("temp", {"kind": "num", "value": "3"}), position=0,
                 encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_store_event_with("start", True), position=0, encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_store_event_with("start", 1.0), position=0, encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_store_event_with("start", 100000), position=0, encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_store_event_with("end", _STORE_EVENT["start"]), position=0, encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_store_event_with("attributes", {}), position=0, encoders=_CANONICAL)
@_oracle_example(valid=[_STORE_EVENT],
                 mutated={**_STORE_EVENT, "attributes": {"date": {"kind": "cat", "label": "2026-01-02"}}},
                 position=1, encoders=_CANONICAL)
@_oracle_example(valid=[_STORE_EVENT], mutated=_canonical_event_text('"start":72000', '"start":1' + "0" * 4300),
                 position=1, encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_canonical_event_text("living room", "living\x01room"), position=0,
                 encoders=_CANONICAL)
@_oracle_example(valid=[], mutated=_canonical_event_text("Ch1", "Ch\x1f1"), position=0, encoders=_CANONICAL)
# Two failing lines: a bad blob after a bad interval, and the other way round; a non-canonical line of
# bad JSON after a canonical line with a bad date; a repeated bad blob first used after a bad line.
@_oracle_example(valid=[_STORE_EVENT] * 3, mutated=_store_event_with("start", 86400), position=1,
                 encoders=_CANONICAL, later=[_store_event_with("temp", {"kind": "num", "value": "3"})], gap=1)
@_oracle_example(valid=[_STORE_EVENT] * 3, mutated=_store_event_with("temp", {"kind": "num", "value": "3"}),
                 position=1, encoders=_CANONICAL, later=[_store_event_with("end", _STORE_EVENT["start"])], gap=1)
@_oracle_example(valid=[_STORE_EVENT] * 2, mutated=_store_event_with("date", "2026-13-01"), position=0,
                 encoders=_CANONICAL, later=[_Raw('{"attributes": {"channel": ')], gap=2)
@_oracle_example(valid=[_STORE_EVENT] * 2, mutated=_store_event_with("date", "2026-13-01"), position=2,
                 encoders=["spaced"] * 7, later=[_Raw('{"attributes": {"channel": ')], gap=0)
@_oracle_example(valid=[_STORE_EVENT] * 4, mutated=_store_event_with("date", 20260101), position=1,
                 encoders=_CANONICAL, later=[_store_event_with("channel", {"kind": "cat", "label": ""})] * 2, gap=1)
@_oracle_example(valid=[_STORE_EVENT] * 4, mutated=_canonical_event_text('"end":73800', '"end":72000'),
                 position=1, encoders=_CANONICAL,
                 later=[_canonical_event_text('"label":"Ch1"', '"label":""')] * 2, gap=2, piece=1)
@_oracle_example(valid=[_VARIED_EVENT, _STORE_EVENT] * 3, mutated=_VARIED_EVENT, position=3,
                 encoders=["padded", "canonical", "json", "canonical", "spaced", "canonical", "escaped-last"],
                 later=[_STORE_EVENT, _VARIED_EVENT], gap=2, piece=40)
@_oracle_example(valid=[_STORE_EVENT] * 2, mutated=_STORE_EVENT, position=1, encoders=_CANONICAL,
                 later=_BLANK_LINES, gap=1)
# Pieces of one or two lines, so that the first pieces are taken before the last one declines: a trailing
# blank line, only the last line re-spaced, and a canonical last line whose end is its start.
@_oracle_example(valid=[_STORE_EVENT] * 3, mutated=_STORE_EVENT, position=3, encoders=_CANONICAL,
                 later=[_Raw("")], piece=300)
@_oracle_example(valid=[_STORE_EVENT] * 3, mutated=_STORE_EVENT, position=3,
                 encoders=["canonical"] * 3 + ["spaced"] + ["canonical"] * 3, piece=300)
@_oracle_example(valid=[_STORE_EVENT] * 3, mutated=_store_event_with("end", _STORE_EVENT["start"]), position=3,
                 encoders=_CANONICAL, piece=300)
def test_load_store_matches_the_per_line_event_oracle(tmp_path_factory, valid, mutated, position, encoders, later,
                                                      gap, piece):
    # A mutated line, more lines, then up to two more mutated (or valid) lines: when several lines
    # fail, in whichever check, the first of them in file order is the one named.
    events = [*valid[:position], mutated, *valid[position:position + gap], *later, *valid[position + gap:]]
    store_path = tmp_path_factory.mktemp("store") / "store.jsonl"
    header = json.dumps({"schema": "homearbiter-store/1"})
    lines = [_encode(encoder, event) for encoder, event in zip(itertools.cycle(encoders), events)]
    store_path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    expected, rejection = [], None
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            rejection = f"{store_path}:{lineno}: bad JSON: "
            break
        try:
            expected.append(event_from_json(obj))
        except (LookupError, TypeError, ValueError, OverflowError):
            rejection = f"{store_path}:{lineno}: bad event record: "
            break
    with mock.patch.object(ingest, "_PIECE", piece):
        outcome = _store_outcome(store_path)
    if isinstance(outcome, str):
        assert rejection is not None and outcome.startswith(rejection)
    else:
        assert rejection is None
        assert outcome[0] == expected
        oracle = History(expected)
        assert outcome[1:] == (oracle.residents, oracle.item_labels, oracle.latest, _group_columns(oracle))

    # Each valid JSON line rewritten with json.dumps's spaced separators, which the canonical
    # form never matches, loads to the same events or fails with the same message.
    def respaced(line):
        try:
            return json.dumps(json.loads(line))
        except ValueError:
            return line
    store_path.write_text("\n".join([header, *map(respaced, lines)]) + "\n", encoding="utf-8")
    with mock.patch.object(ingest, "_PIECE", piece):
        assert _store_outcome(store_path) == outcome


@pytest.mark.parametrize("encoder", ["canonical", "spaced"])
def test_load_store_reads_a_last_line_without_a_newline(tmp_path, encoder):
    store_path = tmp_path / "store.jsonl"
    lines = [json.dumps({"schema": "homearbiter-store/1"}), dumps_json(_STORE_EVENT), _encode(encoder, _VARIED_EVENT)]
    store_path.write_text("\n".join(lines), encoding="utf-8")
    # A store need not end with a newline: its last line is read like any other, not dropped.
    expected = [event_from_json(json.loads(line)) for line in lines[1:]]
    oracle = History(expected)
    assert _store_outcome(store_path) == (expected, oracle.residents, oracle.item_labels, oracle.latest,
                                          _group_columns(oracle))


# Strings with every character class json.dumps escapes or keeps: quotes, backslashes, control
# characters, DEL, non-ASCII, a lone surrogate and astral code points, next to plain printable ASCII.
_STORE_TEXTS = st.text(st.sampled_from(['a', 'Z', '0', ' ', '-', '~', '"', '\\', '/', '\x00', '\n', '\x1f', '\x7f',
                                        '\x80', '\u00e9', '\u2028', '\ufeff', '\ud800', '\U0001f600']) | st.characters(),
                       max_size=4)
# Shared values, including equal ones that encode apart: 0.0 and -0.0, an integer 1 and the float 1.0.
_SHARED_VALUES = [AttributeValue.numeric(0.0), AttributeValue.numeric(-0.0), AttributeValue(kind="numeric", value=1),
                  AttributeValue.numeric(1), AttributeValue.categorical("Ch1"), AttributeValue.binned(0, (-0.0, 2))]
_STORE_VALUES = (
    st.sampled_from(_SHARED_VALUES)
    | st.builds(AttributeValue.categorical, _STORE_TEXTS.filter(bool))
    | st.builds(AttributeValue.numeric, st.floats(allow_nan=False, allow_infinity=False))
    | st.builds(AttributeValue.binned, st.integers(0, 99),
                st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e3, 1e3)))
)
_WRITTEN_EVENTS = st.builds(
    lambda event_id, service, attributes, date, start, length, location, resident: ServiceEvent(
        event_id, service, attributes, date, TimeOfDayInterval(start, (start + length) % SECONDS_PER_DAY), location,
        resident),
    _STORE_TEXTS, _STORE_TEXTS, st.dictionaries(_STORE_TEXTS, _STORE_VALUES, min_size=1, max_size=3), st.dates(),
    st.integers(0, SECONDS_PER_DAY - 1), st.integers(1, SECONDS_PER_DAY - 1), _STORE_TEXTS, _STORE_TEXTS)


@settings(max_examples=100, deadline=None)
@given(events=st.lists(_WRITTEN_EVENTS, max_size=5))
@example(events=[make_event("r1", "20:00:00", "21:00:00", attributes={"temp": value}) for value in _SHARED_VALUES])
def test_write_store_lines_match_the_per_event_oracle(tmp_path_factory, events):
    store_path = tmp_path_factory.mktemp("store") / "store.jsonl"
    write_store(store_path, events, {"config": {}})
    ordered = sorted(events, key=store_order)
    assert store_path.read_text(encoding="utf-8").splitlines()[1:] == [dumps_json(event_to_json(e)) for e in ordered]
    assert load_store(store_path).events == ordered


# Events of few services, locations and residents, so groups repeat, whose attribute sets differ
# within and across groups, with values of every kind and labels that repeat across attributes.
# Their attributes come in name order, the order a store holds them in.
_GROUPED_EVENTS = st.builds(
    lambda number, service, location, resident, date, start, length, attributes: ServiceEvent(
        f"{resident}-{number:06d}", service, dict(sorted(attributes.items())), date,
        TimeOfDayInterval(start, (start + length) % SECONDS_PER_DAY), location, resident),
    st.integers(1, 999), st.sampled_from(["TV", "radio", "thermostat"]),
    st.sampled_from(["den", " Den ", "kitchen", "häll"]), st.sampled_from(["r1", "r2", "ré"]),
    st.dates(dt.date(2025, 12, 1), dt.date(2026, 2, 1)), st.integers(0, SECONDS_PER_DAY - 1),
    st.integers(1, SECONDS_PER_DAY - 1),
    st.dictionaries(st.sampled_from(["channel", "station", "temp"]),
                    st.sampled_from([AttributeValue.categorical("Ch1"), AttributeValue.categorical("3"),
                                     AttributeValue.numeric(3), AttributeValue.numeric(-0.0),
                                     AttributeValue.binned(1, (2.0, 4.0)), AttributeValue.categorical("bin1")]),
                    min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(events=st.lists(_GROUPED_EVENTS, max_size=12), piece=_PIECES)
@example(events=[], piece=ingest._PIECE)
@example(events=[make_event("r1", "20:00:00", "21:00:00", channel="Ch1"),
                 make_event("r2", "20:00:00", "21:00:00", attributes={"temp": AttributeValue.numeric(3)}),
                 make_event("r1", "22:00:00", "23:00:00", service="radio",
                            attributes={"station": AttributeValue.categorical("3")})], piece=40)
def test_history_of_events_and_of_the_loaded_store_match_the_per_event_oracle(tmp_path_factory, events, piece):
    store_path = tmp_path_factory.mktemp("store") / "store.jsonl"
    write_store(store_path, events, {"config": {}})
    with mock.patch.object(ingest, "_PIECE", piece):
        loaded = load_store(store_path).history
    ordered = sorted(events, key=store_order)
    indexed = History(ordered)
    expected = history_columns(ordered)
    for history in (loaded, indexed):
        assert (history.residents, history.item_labels, history.latest, _group_columns(history)) == expected
        assert list(history.groups) == list(expected[3])


# ---------------------------------------------------------------------------
# stabilize

def test_stabilize_channel_surfing():
    events = [
        make_event("r1", "20:00:00", "20:00:20", channel="Ch1"),
        make_event("r1", "20:00:20", "20:00:50", channel="Ch4"),
        make_event("r1", "20:00:50", "21:00:00", channel="Ch3"),
    ]
    out = stabilize(events, 60)
    assert len(out) == 1
    survivor = out[0]
    assert survivor.attributes["channel"].label == "Ch3"
    assert (survivor.interval.start, survivor.interval.end) == (parse_hms("20:00:00"), parse_hms("21:00:00"))


def test_stabilize_single_event_unchanged():
    events = [make_event("r1", "20:00:00", "21:00:00", channel="Ch1")]
    assert stabilize(events, 60) == events
    with pytest.raises(ValueError, match="settling_window"):
        stabilize(events, 0)


def test_stabilize_slow_changes_retained():
    events = [
        make_event("r1", "20:00:00", "20:02:00", channel="Ch1"),
        make_event("r1", "20:02:00", "21:00:00", channel="Ch2"),
    ]
    out = stabilize(events, 60)
    assert len(out) == 2


def test_stabilize_keys_separate_residents_and_days():
    events = [
        make_event("r1", "20:00:00", "20:00:30", channel="Ch1"),
        make_event("r2", "20:00:20", "21:00:00", channel="Ch2"),
        make_event("r1", "20:00:10", "21:00:00", channel="Ch5", date=dt.date(2026, 1, 2)),
    ]
    out = stabilize(events, 60)
    assert len(out) == 3


def _event_at(resident: str, start: int, end: int, channel: str, event_id: str):
    from homearbiter.intervals import TimeOfDayInterval
    from homearbiter.model import ServiceEvent

    return ServiceEvent(
        event_id=event_id,
        service_id="TV",
        attributes={"channel": AttributeValue.categorical(channel)},
        date=dt.date(2026, 1, 1),
        interval=TimeOfDayInterval(start, end),
        location="living room",
        resident=resident,
    )


@settings(max_examples=60, deadline=None)
@given(offsets=st.lists(st.integers(0, 3000), min_size=1, max_size=8, unique=True))
def test_stabilize_idempotent(offsets):
    events = [
        _event_at("r1", 72000 + offset, 82800, f"Ch{i % 3}", f"h-{i:03d}")
        for i, offset in enumerate(sorted(offsets))
    ]
    once = stabilize(events, 60)
    twice = stabilize(once, 60)
    assert once == twice


@settings(max_examples=60, deadline=None)
@given(starts=st.lists(st.tuples(st.sampled_from(["r1", "r2"]), st.integers(72000, 72300)), min_size=1, max_size=10),
       data=st.data())
def test_stabilize_does_not_depend_on_input_order(starts, data):
    # Unique ids make the canonical order total, so any input order folds the same runs.
    events = [_event_at(resident, start, 82800, f"Ch{i % 3}", f"e-{i:03d}") for i, (resident, start) in enumerate(starts)]
    shuffled = data.draw(st.permutations(events))
    assert stabilize(shuffled, 60) == stabilize(sorted(events, key=store_order), 60)


# ---------------------------------------------------------------------------
# binning

def brute_force_bins(values, bin_count):
    """Exhaustive minimum within-bin SSE over all cut placements."""
    vals = sorted(values)
    distinct = sorted(set(vals))

    def group_sse(group):
        mean = sum(group) / len(group)
        return sum((v - mean) ** 2 for v in group)

    best = None
    for cuts in itertools.combinations(range(1, len(distinct)), bin_count - 1):
        boundaries = tuple(distinct[i] for i in cuts)
        groups = {}
        for v in vals:
            idx = sum(1 for b in boundaries if b <= v)
            groups.setdefault(idx, []).append(v)
        sse = sum(group_sse(g) for g in groups.values())
        if best is None or sse < best[0] - 1e-12:
            best = (sse, boundaries)
    return best


def test_compute_bins_two_clusters():
    spec = compute_bins([1, 1, 1, 10, 10, 10], 2)
    assert spec.boundaries == (10.0,)
    assert binning_sse([1, 1, 1, 10, 10, 10], spec) == 0.0


def test_compute_bins_even_split():
    values = [1, 2, 3, 4, 5, 6]
    spec = compute_bins(values, 2)
    assert spec.boundaries == (4.0,)
    assert binning_sse(values, spec) == pytest.approx(4.0)


def test_compute_bins_three_way():
    values = list(range(1, 10))
    spec = compute_bins(values, 3)
    assert spec.boundaries == (4.0, 7.0)


def test_compute_bins_errors():
    with pytest.raises(DataError, match="temp"):
        compute_bins([1.0, 1.0, 1.0], 2, attribute="temp")
    with pytest.raises(DataError):
        compute_bins([1.0], 2)


def test_compute_bins_matches_brute_force_seeded():
    rng = np.random.RandomState(13)
    for n in range(1, 13):
        for bin_count in range(1, n + 1):
            for _ in range(6):
                values = [float(v) for v in rng.randint(0, 8, size=n)]
                if len(set(values)) < bin_count:
                    continue
                spec = compute_bins(values, bin_count)
                best_sse, best_bounds = brute_force_bins(values, bin_count)
                got = binning_sse(values, spec)
                assert got == pytest.approx(best_sse, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=12),
    bin_count=st.integers(1, 6),
)
def test_compute_bins_optimal_hypothesis(values, bin_count):
    if len(set(values)) < bin_count:
        return
    spec = compute_bins(values, bin_count)
    best_sse, _ = brute_force_bins(values, bin_count)
    assert binning_sse(values, spec) <= best_sse + 1e-9


# Values with ties, and values so large that their squares or the sums of them overflow, so that
# costs reach inf or nan and, for some splits, every candidate costs inf.
_BIN_VALUES = st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.0, 3.0, -1.5, 7e153, 1e154, 1.1e154, -1.3e154,
                                        1e160, 3e200, -1e300, 1e308])
                       | st.floats(-50, 50), min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(values=_BIN_VALUES, bin_count=st.integers(1, 7))
@example(values=[1e200, 2e200, 3e200, 1.0, 2.0], bin_count=3)
@example(values=[1e154, 7e153, 1.1e154, 7e153], bin_count=3)
@example(values=[0.1, 0.2, 0.3] * 4 + [0.7], bin_count=3)
def test_compute_bins_matches_the_per_split_loop(values, bin_count):
    def outcome(binning):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # overflow of the squares
                return binning(values, bin_count)
        except (DataError, ValueError) as exc:
            return type(exc), str(exc)
    assert outcome(compute_bins) == outcome(compute_bins_loop)


def test_apply_bins_membership_convention():
    spec = BinningSpec(attribute="temp", bin_count=2, boundaries=(5.0,), lo=1.0, hi=10.0)
    low, warn_low = bin_value(3.0, spec)
    at_boundary, warn_at = bin_value(5.0, spec)
    assert (low.bin_index, warn_low) == (0, None)
    assert (at_boundary.bin_index, warn_at) == (1, None)


def test_apply_bins_clamps_out_of_range():
    spec = BinningSpec(attribute="temp", bin_count=2, boundaries=(5.0,), lo=1.0, hi=10.0)
    value, warning = bin_value(99.0, spec)
    assert value.bin_index == 1
    assert warning is not None and "clamped" in warning


def test_apply_bins_replaces_attribute():
    spec = BinningSpec(attribute="temp", bin_count=2, boundaries=(5.0,), lo=1.0, hi=10.0)
    event = make_event("r1", "20:00:00", "21:00:00", channel=None,
                       attributes={"temp": AttributeValue.numeric(3.0),
                                   "mode": AttributeValue.categorical("eco")})
    warnings = []
    binned = apply_bins(event, spec, warnings)
    assert binned.attributes["temp"].kind == "binned"
    assert binned.attributes["temp"].bin_bounds == (1.0, 5.0)
    assert binned.attributes["mode"] == event.attributes["mode"]
    assert warnings == []
    with pytest.raises(ValueError):
        apply_bins(binned, spec)


# ---------------------------------------------------------------------------
# augment

def test_augment_channels_deterministic():
    events = [make_event("r1", "20:00:00", "21:00:00", channel=None,
                         attributes={"state": AttributeValue.categorical("on")}, event_id=f"e{i}")
              for i in range(50)]
    first = augment_channels(events, ["Ch1", "Ch2", "Ch3"], seed=9)
    second = augment_channels(events, ["Ch1", "Ch2", "Ch3"], seed=9)
    assert first == second
    assert all(e.attributes["channel"].kind == "categorical" for e in first)


def test_augment_channels_uniform():
    events = [make_event("r1", "20:00:00", "21:00:00", channel=None,
                         attributes={"state": AttributeValue.categorical("on")}, event_id=f"e{i}")
              for i in range(10000)]
    out = augment_channels(events, ["Ch1", "Ch2", "Ch3", "Ch4", "Ch5"], seed=9)
    counts = {}
    for e in out:
        counts[e.attributes["channel"].label] = counts.get(e.attributes["channel"].label, 0) + 1
    for channel in ("Ch1", "Ch2", "Ch3", "Ch4", "Ch5"):
        assert abs(counts[channel] - 2000) <= 100  # within 5%


def test_augment_preserves_existing_channels():
    events = [make_event("r1", "20:00:00", "21:00:00", channel="Ch9")]
    out = augment_channels(events, ["Ch1"], seed=1)
    assert out == events


# ---------------------------------------------------------------------------
# requests

def test_load_requests(tmp_path):
    path = tmp_path / "requests.jsonl"
    path.write_text(
        '{"request_id":"r-1","service_id":"TV","attribute":"channel","value":"Ch3",'
        '"start":"20:00:00","end":"20:30:00","location":"Living Room","resident":"r1"}\n',
        encoding="utf-8",
    )
    requests = load_requests(path)
    assert requests[0].value.item_label() == "Ch3"
    assert requests[0].location == "living room"


def test_load_requests_bins_numeric_values(tmp_path):
    path = tmp_path / "requests.jsonl"
    path.write_text(
        '{"request_id":"r-1","service_id":"thermostat","attribute":"temp","value":19.0,'
        '"start":"22:00:00","end":"22:30:00","location":"bedroom","resident":"r1"}\n',
        encoding="utf-8",
    )
    spec = BinningSpec(attribute="temp", bin_count=2, boundaries=(21.0,), lo=18.0, hi=25.0)
    requests = load_requests(path, bin_specs={("thermostat", "temp"): spec})
    assert requests[0].value.kind == "binned"
    assert requests[0].value.bin_index == 0


def _request_line(value):
    return json.dumps({"request_id": f"r-{value!r}", "service_id": "thermostat", "attribute": "temp",
                       "value": value, "start": "22:00:00", "end": "22:30:00", "location": "bedroom",
                       "resident": "r1"})


def test_request_values_follow_the_log_rule(tmp_path):
    path = tmp_path / "requests.jsonl"
    path.write_text("\n".join(_request_line(v) for v in (19.0, "19", " 23.5 ", "warm")) + "\n",
                    encoding="utf-8")
    spec = BinningSpec(attribute="temp", bin_count=2, boundaries=(21.0,), lo=18.0, hi=25.0)
    binned = [r.value.item_label() for r in load_requests(path, bin_specs={("thermostat", "temp"): spec})]
    assert binned == ["bin0", "bin0", "bin1", "warm"]
    assert [r.value.item_label() for r in load_requests(path)] == ["19", "19", "23.5", "warm"]


@pytest.mark.parametrize("field, value", [
    ("value", True), ("value", None), ("value", [19]), ("value", {"temp": 19}),
    ("resident", None), ("location", None), ("request_id", 7), ("service_id", True), ("attribute", ["temp"]),
])
def test_request_fields_that_are_not_json_strings_carry_line(tmp_path, field, value):
    path = tmp_path / "requests.jsonl"
    line = dict(json.loads(_request_line(19.0)), **{field: value})
    path.write_text(_request_line(20.0) + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"requests\.jsonl:2: {field} must be a string"):
        load_requests(path)


@pytest.mark.parametrize("location", ["", "  "])
def test_request_empty_location_carries_line(tmp_path, location):
    path = tmp_path / "requests.jsonl"
    line = dict(json.loads(_request_line(19.0)), location=location)
    path.write_text(_request_line(20.0) + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"requests\.jsonl:2: location must be non-empty"):
        load_requests(path)


@pytest.mark.parametrize("value", ["", "  "])
@pytest.mark.parametrize("field", ["request_id", "service_id", "attribute", "resident"])
def test_request_empty_labels_carry_line(tmp_path, field, value):
    # Like an empty location, an empty label would load and take part in detection.
    path = tmp_path / "requests.jsonl"
    line = dict(json.loads(_request_line(19.0)), **{field: value})
    path.write_text(_request_line(20.0) + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"requests\.jsonl:2: {field} must be non-empty"):
        load_requests(path)


def test_request_non_finite_values_carry_line(tmp_path):
    path = tmp_path / "requests.jsonl"
    for value in ("nan", "inf", "-Infinity", float("nan"), 1e400, 10**400):
        path.write_text(_request_line(19.0) + "\n" + _request_line(value) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"requests\.jsonl:2: .*finite"):
            load_requests(path)


_REQUEST = {"request_id": "q-1", "service_id": "TV", "attribute": "channel", "value": "Ch1",
            "start": "20:00:00", "end": "20:30:00", "location": "living room", "resident": "r1"}


def _request_with(field, value):
    return dict(_REQUEST, **{field: value})


@settings(max_examples=150, deadline=None)
@given(line=JSON_VALUES | st.builds(_request_with, st.sampled_from(sorted(_REQUEST)), JSON_VALUES))
@example(line=[1])
@example(line=_request_with("start", 5))
@example(line=_request_with("end", None))
@example(line=_request_with("value", {"a": [1]}))
def test_load_requests_either_loads_a_request_line_or_names_it(tmp_path_factory, line):
    path = tmp_path_factory.mktemp("requests") / "requests.jsonl"
    path.write_text("\n".join([json.dumps(_request_with("request_id", "q-0")), "", json.dumps(line),
                               json.dumps(_request_with("request_id", "q-9"))]) + "\n", encoding="utf-8")
    try:
        requests = load_requests(path)
    except ParseError as exc:
        assert str(exc).startswith(f"{path}:3: ") or str(exc) == f"{path}:4: duplicate request id 'q-9'"
    else:
        assert len(requests) == 3


def test_load_requests_names_a_duplicate_id_and_the_line_it_repeats_on(tmp_path):
    path = tmp_path / "requests.jsonl"
    line = json.dumps(_request_with("request_id", "q-1"))
    path.write_text("\n".join([line, json.dumps(_request_with("request_id", "q-2")), "", line]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_requests(path)
    assert (err.value.path, err.value.line) == (str(path), 4)
    assert str(err.value) == f"{path}:4: duplicate request id 'q-1'"


def test_load_requests_errors_carry_line(tmp_path):
    path = tmp_path / "requests.jsonl"
    path.write_text('{"request_id":"r-1"}\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_requests(path)
    assert ":1:" in str(err.value)
