"""The event store: a JSON header line with the schema, the run's settings, input digests, bins and warnings,
then the ``dumps_json`` line of each event record in store order, as :func:`write_store` writes and
:func:`load_store` reads them.
"""

from __future__ import annotations

import datetime as dt
import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, ParseError
from .ingest import BinningSpec
from .intervals import SECONDS_PER_DAY, TimeOfDayInterval, check_interval
from .model import AttributeValue, EventRows, ServiceEvent, finite_number, normalize_location
from .preferences import History
from .records import check_record, dumps_json, json_lines, parse_json, read_input, record_errors

STORE_SCHEMA = "homearbiter-store/1"


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
