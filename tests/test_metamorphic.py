"""Symmetries of the whole pipeline: rotating every time of day, reordering the request lines, adding the
events of another service and location, relabelling the residents in order, and doubling the history."""

import contextlib
import dataclasses
import datetime as dt
import io
import json

from hypothesis import example, given, settings, strategies as st

from homearbiter.aggregate import STRATEGIES, resolve
from homearbiter.cli import main
from homearbiter.config import RunConfig
from homearbiter.detect import detect_conflicts
from homearbiter.ingest import sha256_file
from homearbiter.intervals import SECONDS_PER_DAY, TimeOfDayInterval, format_hms
from homearbiter.model import AttributeValue, ServiceEvent, ServiceRequest
from homearbiter.preferences import History
from homearbiter.store import write_store

_RESIDENTS = st.sampled_from(["alice", "bob", "cara"])
_CHANNELS = st.sampled_from(["Ch1", "Ch2", "Ch3"])
# Times on a 15-minute grid, so that windows overlap often; a length is under a day.
_STARTS = st.integers(0, 95).map(lambda k: k * 900)
_LENGTHS = st.integers(1, 12).map(lambda k: k * 900)
# (resident, channel, start second, length in seconds) of each request, and (..., day) of each event.
_REQUESTS = st.lists(st.tuples(_RESIDENTS, _CHANNELS, _STARTS, _LENGTHS), min_size=2, max_size=6)
_EVENTS = st.lists(st.tuples(_RESIDENTS, _CHANNELS, _STARTS, _LENGTHS, st.integers(0, 2)), max_size=16)
# The midnight case: alice asked for Ch1 at 23:50 and Ch3 at 00:05, bob for Ch2 at 00:05, all until 00:30.
_MIDNIGHT = [("alice", "Ch1", 85800, 2400), ("alice", "Ch3", 300, 1500), ("bob", "Ch2", 300, 1500)]
_MIDNIGHT_HISTORY = [("alice", "Ch1", 85500, 1800, 0), ("bob", "Ch2", 0, 2700, 1), ("alice", "Ch3", 600, 900, 2)]
CONFIG = RunConfig(k=2)


def _interval(start: int, length: int) -> TimeOfDayInterval:
    return TimeOfDayInterval(start % SECONDS_PER_DAY, (start + length) % SECONDS_PER_DAY)


def _requests(specs) -> list[ServiceRequest]:
    return [ServiceRequest(request_id=f"q{i}", service_id="TV", attribute="channel",
                           value=AttributeValue.categorical(channel), interval=_interval(start, length),
                           location="den", resident=resident)
            for i, (resident, channel, start, length) in enumerate(specs)]


def _events(specs) -> list[ServiceEvent]:
    return [ServiceEvent(event_id=f"{resident}-{i:06d}", service_id="TV",
                         attributes={"channel": AttributeValue.categorical(channel)},
                         date=dt.date(2026, 1, 1) + dt.timedelta(days=day), interval=_interval(start, length),
                         location="den", resident=resident)
            for i, (resident, channel, start, length, day) in enumerate(specs)]


def _rotated(record, delta: int):
    """The event or request with its time of day moved ``delta`` seconds on; its date stays."""
    return dataclasses.replace(record, interval=_interval(record.interval.start + delta, record.interval.duration()))


def _key(situation, delta: int = 0) -> tuple:
    """The situation's members and its window, moved ``delta`` seconds on."""
    return (tuple(r.request_id for r in situation.requests), (situation.window.start + delta) % SECONDS_PER_DAY,
            (situation.window.end + delta) % SECONDS_PER_DAY)


@settings(max_examples=150, deadline=None)
@given(requests=_REQUESTS, events=_EVENTS, delta=st.integers(0, SECONDS_PER_DAY - 1))
@example(requests=_MIDNIGHT, events=_MIDNIGHT_HISTORY, delta=600)
@example(requests=_MIDNIGHT[::2], events=_MIDNIGHT_HISTORY, delta=600)
def test_rotating_every_time_of_day_rotates_each_window_and_keeps_every_ranking(requests, events, delta):
    requests, events = _requests(requests), _events(events)
    situations = sorted(detect_conflicts(requests), key=lambda s: _key(s, delta))
    turned = sorted(detect_conflicts([_rotated(r, delta) for r in requests]), key=_key)
    assert [_key(s, delta) for s in situations] == [_key(s) for s in turned]
    history, turned_history = History(events), History([_rotated(e, delta) for e in events])
    for strategy in STRATEGIES:
        for situation, rotated in zip(situations, turned):
            ranked = resolve(situation, history, CONFIG, strategy).ranked
            turned_ranked = resolve(rotated, turned_history, CONFIG, strategy).ranked
            if strategy == "use-first":  # its ranked figure is the winner's start second, which moves too
                ranked = [(item, (start + delta) % SECONDS_PER_DAY) for item, start in ranked]
            assert turned_ranked == tuple(ranked), strategy


def _request_line(request: ServiceRequest) -> str:
    return json.dumps({"request_id": request.request_id, "service_id": request.service_id,
                       "attribute": request.attribute, "value": request.value.item_label(),
                       "start": format_hms(request.interval.start), "end": format_hms(request.interval.end),
                       "location": request.location, "resident": request.resident})


def _outputs(directory, store, lines) -> list[str]:
    """``detect``, every strategy's ``resolve`` and ``evaluate`` of the request lines, each with the request
    file's digest written as ``<requests>`` and the store's as ``<store>``."""
    requests = directory / "requests.jsonl"
    requests.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = directory / "out.jsonl"
    inputs = ["--store", str(store), "--requests", str(requests)]
    runs = [([*command, *inputs, "--out", str(out)], [out])
            for command in (["detect"], *(["resolve", "--strategy", strategy] for strategy in STRATEGIES))]
    runs.append((["evaluate", *inputs, "--out-prefix", str(directory / "report")],
                 [directory / "report.json", directory / "report.csv"]))
    texts = []
    for argv, paths in runs:
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        texts.extend(path.read_text(encoding="utf-8").replace(sha256_file(requests), "<requests>")
                     .replace(sha256_file(store), "<store>") for path in paths)
    return texts


@settings(max_examples=25, deadline=None)
@given(requests=_REQUESTS, events=_EVENTS, data=st.data())
@example(requests=_MIDNIGHT, events=_MIDNIGHT_HISTORY, data=None)
def test_permuting_the_request_lines_changes_no_output_byte(tmp_path_factory, requests, events, data):
    directory = tmp_path_factory.mktemp("permuted")
    store = directory / "store.jsonl"
    write_store(store, _events(events), {})
    lines = [_request_line(r) for r in _requests(requests)]
    permuted = lines[::-1] if data is None else data.draw(st.permutations(lines))
    assert _outputs(directory, store, permuted) == _outputs(directory, store, lines)


# (resident, (service, location, attribute), value, start second, length in seconds, day) of each event of a
# service and location that no request names; its days reach past the history's.
_OTHER_EVENTS = st.lists(st.tuples(st.sampled_from(["alice", "dave"]),
                                   st.sampled_from([("radio", "den", "station"), ("TV", "kitchen", "channel")]),
                                   _CHANNELS, _STARTS, _LENGTHS, st.integers(0, 5)), min_size=1, max_size=8)


def _other_events(specs) -> list[ServiceEvent]:
    return [ServiceEvent(event_id=f"{resident}-x{i:06d}", service_id=service,
                         attributes={attribute: AttributeValue.categorical(value)},
                         date=dt.date(2026, 1, 1) + dt.timedelta(days=day), interval=_interval(start, length),
                         location=location, resident=resident)
            for i, (resident, (service, location, attribute), value, start, length, day) in enumerate(specs)]


@settings(max_examples=25, deadline=None)
@given(requests=_REQUESTS, events=_EVENTS, other=_OTHER_EVENTS)
@example(requests=_MIDNIGHT, events=_MIDNIGHT_HISTORY,
         other=[("dave", ("TV", "kitchen", "channel"), "Ch2", 300, 1500, 5)])
def test_adding_events_of_another_service_and_location_changes_no_output_byte(tmp_path_factory, requests, events,
                                                                             other):
    # Only the situation's (service, location) events are read when lookback_days is unset.  With it set, the
    # horizon counts back from the whole history's latest date, so a later event elsewhere can move it.
    directory = tmp_path_factory.mktemp("other")
    store = directory / "store.jsonl"
    lines = [_request_line(r) for r in _requests(requests)]
    write_store(store, _events(events), {})
    expected = _outputs(directory, store, lines)
    write_store(store, _events(events) + _other_events(other), {})
    assert _outputs(directory, store, lines) == expected


@settings(max_examples=100, deadline=None)
@given(requests=_REQUESTS, events=_EVENTS,
       labels=st.lists(st.text("abcdefz", min_size=1, max_size=3), min_size=3, max_size=3, unique=True).map(sorted))
@example(requests=_MIDNIGHT, events=_MIDNIGHT_HISTORY, labels=["a", "aa", "b"])
def test_relabelling_residents_in_order_keeps_every_ranking_and_choice(requests, events, labels):
    relabel = dict(zip(["alice", "bob", "cara"], labels))  # the residents' order stays
    renamed = [(relabel[resident], *rest) for resident, *rest in requests]
    situations, relabelled = detect_conflicts(_requests(requests)), detect_conflicts(_requests(renamed))
    assert [_key(s) for s in situations] == [_key(s) for s in relabelled]
    history = History(_events(events))
    relabelled_history = History(_events([(relabel[resident], *rest) for resident, *rest in events]))
    for strategy in STRATEGIES:
        for situation, other in zip(situations, relabelled):
            assert [relabel[r] for r in situation.residents] == list(other.residents)
            resolution = resolve(situation, history, CONFIG, strategy)
            relabelled_resolution = resolve(other, relabelled_history, CONFIG, strategy)
            assert relabelled_resolution.ranked == resolution.ranked, strategy
            assert relabelled_resolution.chosen == resolution.chosen, strategy


@settings(max_examples=100, deadline=None)
@given(requests=_REQUESTS, events=_EVENTS)
@example(requests=_MIDNIGHT, events=_MIDNIGHT_HISTORY)
def test_doubling_every_history_event_keeps_every_choice(requests, events):
    history = _events(events)
    doubled = History(history + [dataclasses.replace(e, event_id=f"{e.event_id}-copy") for e in history])
    history = History(history)
    for strategy in STRATEGIES:
        for situation in detect_conflicts(_requests(requests)):
            chosen = resolve(situation, history, CONFIG, strategy).chosen
            assert resolve(situation, doubled, CONFIG, strategy).chosen == chosen, strategy
