import datetime as dt

import numpy as np
import pytest

from homearbiter.intervals import TimeOfDayInterval, parse_hms
from homearbiter.model import AttributeValue, ServiceEvent, ServiceRequest


def hms(text: str) -> int:
    return parse_hms(text)


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
            value = event.attribute(attribute)
            if value is not None:
                item_days.setdefault(value.item_label(), set()).add(event.date)
    return {item for item, days in item_days.items() if len(days) > threshold * len(active_days)}


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
