"""Domain vocabulary: attribute values, service events, requests, conflicts.

Every type here is immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .intervals import TimeOfDayInterval


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

    def key(self) -> tuple:
        """Equality key used by conflict checks and item grouping."""
        if self.kind == "categorical":
            return ("cat", self.label)
        if self.kind == "numeric":
            return ("num", self.value)
        return ("bin", self.bin_index)

    def item_label(self) -> str:
        """Stable item name used in preference tables and reports."""
        if self.kind == "categorical":
            return self.label  # type: ignore[return-value]
        if self.kind == "numeric":
            return f"{self.value:g}"
        return f"bin{self.bin_index}"

    def to_json(self) -> dict[str, Any]:
        if self.kind == "categorical":
            return {"kind": "cat", "label": self.label}
        if self.kind == "numeric":
            return {"kind": "num", "value": self.value}
        return {"kind": "bin", "index": self.bin_index, "bounds": list(self.bin_bounds)}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "AttributeValue":
        kind = obj.get("kind")
        if kind == "cat":
            return cls.categorical(obj["label"])
        if kind == "num":
            return cls.numeric(obj["value"])
        if kind == "bin":
            return cls.binned(obj["index"], tuple(obj["bounds"]))
        raise ValueError(f"unknown attribute value kind {kind!r}")

    @staticmethod
    def item_label_of_json(obj: Mapping[str, Any]) -> str:
        """``from_json(obj).item_label()``, making the same checks but building no value."""
        kind = obj.get("kind")
        if kind == "cat":
            label = obj["label"]
            if not isinstance(label, str) or not label:
                raise ValueError("categorical value needs a label")
            return label
        if kind == "num":
            value = float(obj["value"])
            if not math.isfinite(value):
                raise ValueError(f"numeric value needs a finite number, got {value}")
            return f"{value:g}"
        if kind == "bin":
            index, bounds = obj["index"], tuple(obj["bounds"])
            float(bounds[0]), float(bounds[1])  # the conversions binned() makes
            if index is None:
                raise ValueError("binned value needs index and bounds")
            return f"bin{index}"
        raise ValueError(f"unknown attribute value kind {kind!r}")


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

    def attribute(self, name: str) -> AttributeValue | None:
        return self.attributes.get(name)


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
        if len({r.value.key() for r in self.requests}) < 2:
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
