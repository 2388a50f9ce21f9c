"""Domain vocabulary: attribute values, service events and their rows, requests, conflicts.

Every type here is immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .intervals import SECONDS_PER_DAY, TimeOfDayInterval


def normalize_location(label: str) -> str:
    """Locations match by exact equality after trimming and lowercasing."""
    return label.strip().lower()


@dataclass(frozen=True)
class AttributeValue:
    """A categorical label, a raw numeric reading, or a binned numeric value.

    Binned values carry the bounds of the bin that produced them so a stored
    event can be re-interpreted without the original binning run.
    """

    kind: str  # "categorical" | "numeric" | "binned"
    label: str | None = None
    value: float | None = None
    bin_index: int | None = None
    bin_bounds: tuple[float, float] | None = None

    @classmethod
    def categorical(cls, label: str) -> "AttributeValue":
        return cls(kind="categorical", label=label)

    @classmethod
    def numeric(cls, value: float) -> "AttributeValue":
        return cls(kind="numeric", value=float(value))

    @classmethod
    def binned(cls, index: int, bounds: tuple[float, float]) -> "AttributeValue":
        return cls(kind="binned", bin_index=index, bin_bounds=(float(bounds[0]), float(bounds[1])))

    def __post_init__(self) -> None:
        if self.kind == "categorical":
            if not isinstance(self.label, str) or not self.label:
                raise ValueError("categorical value needs a label")
        elif self.kind == "numeric":
            if self.value is None or not math.isfinite(self.value):
                raise ValueError(f"numeric value needs a finite number, got {self.value}")
        elif self.kind == "binned":
            if self.bin_index is None or self.bin_bounds is None:
                raise ValueError("binned value needs index and bounds")
        else:
            raise ValueError(f"unknown attribute value kind {self.kind!r}")

    def item_label(self) -> str:
        """The value's item: the one identity that detection, preference tables and reports compare."""
        if self.kind == "categorical":
            return self.label  # type: ignore[return-value]
        if self.kind == "numeric":
            return _number_label(self.value)
        return f"bin{self.bin_index}"

    def to_json(self) -> dict[str, Any]:
        if self.kind == "categorical":
            return {"kind": "cat", "label": self.label}
        if self.kind == "numeric":
            return {"kind": "num", "value": self.value}
        return {"kind": "bin", "index": self.bin_index, "bounds": list(self.bin_bounds)}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "AttributeValue":
        cls.item_label_of_json(obj)  # every check of a stored value
        if obj["kind"] == "cat":
            return cls.categorical(obj["label"])
        if obj["kind"] == "num":
            return cls.numeric(obj["value"])
        return cls.binned(obj["index"], obj["bounds"])

    @staticmethod
    def item_label_of_json(obj: Any) -> str:
        """``from_json(obj).item_label()``, building no value.

        A stored value must be one that :meth:`to_json` writes: a label is a
        non-empty string, a number is a finite JSON number, a bin index is a
        non-negative integer and its bounds are a list of two finite numbers.
        Booleans are not numbers.  Anything else raises ``ValueError``.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"attribute value must be an object, got {type(obj).__name__}")
        kind = obj.get("kind")
        if kind == "cat":
            label = obj["label"]
            if not isinstance(label, str) or not label:
                raise ValueError("categorical value needs a label")
            return label
        if kind == "num":
            return _number_label(finite_number(obj["value"]))
        if kind == "bin":
            index, bounds = obj["index"], obj["bounds"]
            if type(index) is not int or index < 0:
                raise ValueError(f"bin index must be a non-negative integer, got {index!r}")
            if type(bounds) is not list or len(bounds) != 2:
                raise ValueError(f"bin bounds must be a list of two numbers, got {bounds!r}")
            finite_number(bounds[0]), finite_number(bounds[1])
            return f"bin{index}"
        raise ValueError(f"unknown attribute value kind {kind!r}")


def finite_number(value: Any) -> float:
    """A JSON number as a float; a bool, a string or a non-finite number raises ``ValueError``."""
    if type(value) in (int, float) and math.isfinite(value):  # a bool is not an int here
        return float(value)
    raise ValueError(f"expected a finite number, got {value!r}")


def _number_label(value: float) -> str:
    """``value`` with ``:g`` when that reads back as ``value``, else its ``repr``; -0.0 and 0.0 are one item, "0"."""
    value = value or 0.0
    label = f"{value:g}"
    return label if float(label) == value else repr(value)


@dataclass(frozen=True)
class ServiceEvent:
    """One recorded usage of a service by one resident."""

    event_id: str
    service_id: str
    attributes: Mapping[str, AttributeValue]
    date: dt.date
    interval: TimeOfDayInterval
    location: str
    resident: str

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError(f"event {self.event_id}: attributes must be non-empty")
        object.__setattr__(self, "location", normalize_location(self.location))


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


@dataclass(frozen=True)
class ServiceRequest:
    """A resident's current demand: one attribute value over one time window."""

    request_id: str
    service_id: str
    attribute: str
    value: AttributeValue
    interval: TimeOfDayInterval
    location: str
    resident: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", normalize_location(self.location))


@dataclass(frozen=True)
class ConflictSituation:
    """A group of mutually incompatible requests over one shared window.

    Members all target the same service, location and attribute, come from
    pairwise-distinct residents, every member's interval covers the window,
    and at least two distinct values are requested.
    """

    service_id: str
    location: str
    attribute: str
    window: TimeOfDayInterval
    requests: tuple[ServiceRequest, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.requests) < 2:
            raise ValueError("a conflict situation needs at least two requests")
        object.__setattr__(self, "location", normalize_location(self.location))
        residents = [r.resident for r in self.requests]
        if len(set(residents)) != len(residents):
            raise ValueError("conflicting requests must come from distinct residents")
        for r in self.requests:
            if r.service_id != self.service_id or r.location != self.location:
                raise ValueError(f"request {r.request_id} does not match the situation's service/location")
            if r.attribute != self.attribute:
                raise ValueError(f"request {r.request_id} targets attribute {r.attribute!r}, expected {self.attribute!r}")
            if not all(r.interval.covers(s, e) for s, e in self.window.segments()):
                raise ValueError(f"request {r.request_id} does not cover the situation window")
        if len({r.value.item_label() for r in self.requests}) < 2:
            raise ValueError("a conflict situation needs at least two distinct requested values")
        ordered = tuple(sorted(self.requests, key=lambda r: (r.resident, r.request_id)))
        object.__setattr__(self, "requests", ordered)

    @property
    def residents(self) -> tuple[str, ...]:
        return tuple(r.resident for r in self.requests)

    def key(self) -> tuple:
        return (
            self.service_id,
            self.location,
            self.attribute,
            self.window.start,
            self.window.end,
            tuple(r.request_id for r in self.requests),
        )
