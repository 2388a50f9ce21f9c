"""One harness for every JSON record reader: a record with any field deleted or replaced loads or names its line."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from homearbiter.cli import main
from homearbiter.errors import ParseError
from homearbiter.records import check_record, record_errors
from homearbiter.synthetic import synthetic_household

from conftest import DELETE, JSON_VALUES, rewrite_json_line

# Python's own wording of a type fault, which no reader may show.
PYTHON_TEXTS = ("indices must be integers", "not subscriptable", "is not iterable", "has no attribute",
                "unhashable type", "not supported between")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small store with a bins entry, its request file and the conflict stream ``detect`` writes from them."""
    tmp = tmp_path_factory.mktemp("records")
    log_text, request_text = synthetic_household(days=4)
    (tmp / "log.csv").write_text(log_text, encoding="utf-8")
    (tmp / "requests.jsonl").write_text(request_text, encoding="utf-8")
    paths = {"store": tmp / "store.jsonl", "requests": tmp / "requests.jsonl", "conflicts": tmp / "conflicts.jsonl"}
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["ingest", str(tmp / "log.csv"), "--out", str(paths["store"]), "--bin-count", "2"]) == 0
        assert main(["detect", "--store", str(paths["store"]), "--requests", str(paths["requests"]),
                     "--out", str(paths["conflicts"])]) == 0
    assert json.loads(paths["store"].read_text(encoding="utf-8").splitlines()[0])["bins"]
    return paths


def _line(path, lineno):
    return json.loads(path.read_text(encoding="utf-8").splitlines()[lineno - 1])


def _field_paths(obj, keys=()):
    """The key path of ``obj`` itself and of every value inside it, objects and lists alike."""
    yield keys
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _field_paths(value, (*keys, key))


# (reader, line number, message prefix): the first request, the first conflict record, the first store event
# line and the store header, whose bins entries are the records there.
READERS = [("requests", 1, ""), ("conflicts", 2, "bad conflict record: "), ("store", 2, "bad event record: "),
           ("store", 1, "bad bins entry: ")]


def _resolve(paths, kind) -> tuple[int, str]:
    """``resolve`` of the inputs, through the conflict stream when that is the changed file; its code and stderr."""
    stream = ["--conflicts", str(paths["conflicts"])] if kind == "conflicts" else []
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["resolve", "--store", str(paths["store"]), "--requests", str(paths["requests"]), *stream])
    return rc, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(reader=st.sampled_from(range(len(READERS))), keys=st.none(), value=st.just(DELETE) | JSON_VALUES,
       data=st.data())
@example(reader=1, keys=("window",), value="20:00:00", data=None)
@example(reader=1, keys=("window",), value=None, data=None)
@example(reader=1, keys=("service_id",), value=DELETE, data=None)
@example(reader=2, keys=("start",), value=DELETE, data=None)
@example(reader=3, keys=("bins",), value=5, data=None)
@example(reader=3, keys=("bins",), value={"temp": {}}, data=None)
@example(reader=3, keys=("bins", 0, "boundaries"), value=5, data=None)
def test_every_record_reader_loads_a_changed_record_or_names_its_line(inputs, tmp_path_factory, reader, keys, value,
                                                                       data):
    kind, lineno, prefix = READERS[reader]
    if keys is None:
        record = _line(inputs[kind], lineno)
        if kind == "store" and lineno == 1:  # the header: its bins list, an entry or a field of one
            keys = data.draw(st.sampled_from([("bins", *path) for path in _field_paths(record["bins"])]))
        else:
            keys = data.draw(st.sampled_from(list(_field_paths(record))))
    if not keys and value is DELETE:
        value = None  # a line cannot be deleted, only replaced
    paths = dict(inputs)
    paths[kind] = bad = rewrite_json_line(inputs[kind], lineno, keys, value,
                                          out=tmp_path_factory.mktemp("changed") / f"{kind}.jsonl")
    rc, err = _resolve(paths, kind)
    assert rc in (0, 2), err
    if rc == 2:
        last = err.splitlines()[-1]
        assert not any(text in last for text in PYTHON_TEXTS), last
        if last.startswith(f"data error: {bad}:{lineno}: "):
            message = last.removeprefix(f"data error: {bad}:{lineno}: ")
            assert message.startswith(prefix) or (
                kind == "conflicts" and message.startswith("conflict stream references unknown key ")) or (
                kind == "store" and lineno == 1 and message.startswith("unknown store schema ")), last
        else:  # a request id changed to one a later line holds
            assert kind == "requests" and keys == ("request_id",), last
            assert last.startswith(f"data error: {bad}:") and "duplicate request id" in last, last


_NAMES = st.sampled_from(["a", "b", "c", "d"])
_KINDS = {str: ("a string", lambda v: isinstance(v, str)),
          list: ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(i, str) for i in v)),
          dict: ("an object", lambda v: isinstance(v, dict))}


@given(obj=JSON_VALUES | st.dictionaries(_NAMES, JSON_VALUES | st.lists(st.text(max_size=3), max_size=3)),
       fields=st.dictionaries(_NAMES, st.sampled_from(sorted(_KINDS, key=str)), max_size=3))
@example(obj={"a": "x", "b": ["y"], "c": {}}, fields={"a": str, "b": list, "c": dict})
@example(obj={"a": ["y", 1]}, fields={"a": list})
@example(obj=[1], fields={"a": str})
def test_check_record_passes_a_record_whose_fields_have_their_kinds_or_names_one(obj, fields):
    try:
        with record_errors("records.jsonl", 7, "bad record: "):
            check_record(obj, fields)
    except ParseError as exc:
        assert (exc.path, exc.line) == ("records.jsonl", 7)
        message = str(exc).removeprefix("records.jsonl:7: bad record: ")
        if not isinstance(obj, dict):
            assert message == f"expected a JSON object, got {type(obj).__name__}"
        elif message.startswith("missing field "):
            assert any(message == f"missing field {name!r}" and name not in obj for name in fields)
        else:
            assert any(message == f"{name} must be {_KINDS[kind][0]}" and name in obj and not _KINDS[kind][1](obj[name])
                       for name, kind in fields.items())
    else:
        assert isinstance(obj, dict)
        assert all(name in obj and _KINDS[kind][1](obj[name]) for name, kind in fields.items())


LOCATION_MAP = {"TV": "den", "radio": "kitchen"}


@pytest.fixture(scope="module")
def household_log(tmp_path_factory):
    log = tmp_path_factory.mktemp("map") / "log.csv"
    log.write_text(synthetic_household(days=4)[0], encoding="utf-8")
    return log


@settings(max_examples=200, deadline=None)
@given(part=st.sampled_from(["file", "key", "value"]), sensor=st.sampled_from(sorted(LOCATION_MAP)),
       value=JSON_VALUES, key=st.text(max_size=8))
@example(part="file", sensor="TV", value=[1, 2], key="")
@example(part="file", sensor="TV", value={"TV": {"a": 1}}, key="")
@example(part="key", sensor="TV", value=None, key="radio")
@example(part="value", sensor="TV", value=" ", key="")
@example(part="value", sensor="radio", value=["den"], key="")
def test_ingest_applies_any_location_map_or_names_the_map_file(household_log, tmp_path_factory, part, sensor, value,
                                                                key):
    # Any JSON value as the whole map, or as one entry's key (a JSON key is a string) or value.
    if part == "file":
        location_map = value
    else:
        location_map = {(key if part == "key" and name == sensor else name):
                        (value if part == "value" and name == sensor else location)
                        for name, location in LOCATION_MAP.items()}
    tmp = tmp_path_factory.mktemp("changed")
    path = tmp / "map.json"
    path.write_text(json.dumps(location_map), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["ingest", str(household_log), "--location-map", str(path), "--out", str(tmp / "store.jsonl")])
    assert rc in (0, 2), err.getvalue()
    if rc == 2:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith(f"data error: {path}: "), last
        assert not any(text in last for text in PYTHON_TEXTS), last
