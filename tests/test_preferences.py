import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from homearbiter.evaluate import adopted_items
from homearbiter.intervals import SECONDS_PER_DAY, TimeOfDayInterval
from homearbiter.model import AttributeValue, ConflictSituation
from homearbiter.preferences import History, PreferenceMatrix, build_preference_table, temporal_proximity, window_events

from conftest import adopted_scan, interval, make_event, make_request, matrix_entries, window_scan


def test_temporal_proximity_worked_values():
    got = temporal_proximity([interval("20:00:00", "21:00:00"), interval("20:45:00", "21:45:00")])
    assert got == pytest.approx(0.571, abs=0.005)
    got = temporal_proximity([interval("18:00:00", "19:00:00"), interval("18:10:00", "19:10:00")])
    assert got == pytest.approx(0.857, abs=0.005)


def test_temporal_proximity_identical_is_one():
    a = interval("20:00:00", "20:30:00")
    assert temporal_proximity([a, a]) == 1.0


def test_temporal_proximity_disjoint_pair():
    got = temporal_proximity([interval("00:00:00", "00:10:00"), interval("00:20:00", "00:30:00")])
    assert got == pytest.approx((600 + 600) / (1800 * 2))


def test_temporal_proximity_empty_errors():
    with pytest.raises(ValueError):
        temporal_proximity([])


@settings(max_examples=120, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 86399), st.integers(0, 86399)).filter(lambda p: p[0] != p[1]),
        min_size=1,
        max_size=5,
    ),
    seed=st.randoms(),
)
def test_temporal_proximity_properties(data, seed):
    intervals = [TimeOfDayInterval(s, e) for s, e in data]
    value = temporal_proximity(intervals)
    assert 0.0 < value <= 1.0
    shuffled = list(intervals)
    seed.shuffle(shuffled)
    assert temporal_proximity(shuffled) == pytest.approx(value, abs=1e-12)
    if len({(iv.start, iv.end) for iv in intervals}) > 1:
        assert value < 1.0
    else:
        assert value == pytest.approx(1.0)


def test_temporal_proximity_event_window_goldens():
    window = interval("20:00:00", "20:30:00")
    assert temporal_proximity((interval("20:00:00", "20:30:00"), window)) == 1.0
    assert temporal_proximity((interval("20:15:00", "20:45:00"), window)) == pytest.approx(0.667, abs=5e-4)
    assert temporal_proximity((interval("20:00:00", "21:00:00"), window)) == pytest.approx(0.75, abs=1e-12)


def _situation(window=interval("20:00:00", "20:30:00"), location="living room"):
    requests = tuple(
        dataclasses.replace(make_request(resident, value, location=location, request_id=resident), interval=window)
        for resident, value in (("r1", "Ch1"), ("r2", "Ch2"))
    )
    return ConflictSituation(service_id="TV", location=location, attribute="channel", window=window,
                             requests=requests)


def _described(window, attribute="channel"):
    """(resident, date, item or None, proximity) of each window event, in order."""
    history = window.history
    return [
        (history.residents[r], dt.date.fromordinal(d), history.item_labels[i] if i >= 0 else None, p)
        for r, d, i, p in zip(window.resident.tolist(), window.date.tolist(),
                              window.items(attribute).tolist(), window.proximity.tolist())
    ]


def _describe(events, situation, attribute="channel"):
    """The same description, straight from the events."""
    return [
        (e.resident, e.date, e.attributes.get(attribute).item_label() if e.attributes.get(attribute) else None,
         temporal_proximity((e.interval, situation.window)))
        for e in events
    ]


def test_window_events_filters():
    situation = _situation(location="Living Room")
    keep = make_event("r1", "20:10:00", "20:40:00")
    other_location = make_event("r1", "20:10:00", "20:40:00", location="kitchen")
    other_service = make_event("r1", "20:10:00", "20:40:00", service="radio")
    too_early = make_event("r1", "19:00:00", "19:30:00")
    also_keep = make_event("r3", "19:59:59", "20:00:01", attributes={"state": AttributeValue.categorical("on")})
    history = [keep, other_location, other_service, too_early, also_keep]
    assert _described(window_events(history, situation)) == _describe([keep, also_keep], situation)
    assert len(window_events([], situation)) == 0


def test_window_events_drops_disjoint_and_touching_events():
    situation = _situation(interval("10:00:00", "11:00:00"))
    disjoint = make_event("r1", "08:00:00", "09:00:00")
    touching = [make_event("r1", "09:30:00", "10:00:00"), make_event("r1", "11:00:00", "11:30:00")]
    wrapped = make_event("r1", "23:00:00", "10:00:01")
    assert _described(window_events([disjoint, *touching, wrapped], situation)) == _describe([wrapped], situation)


def test_preference_score_worked_value():
    # 18 exact-window events plus two suffix events whose pair proximities are
    # 0.9375 and 0.5025: the paper's worked score of 19.44.
    situation = _situation()
    history = [make_event("r1", "20:00:00", "20:30:00") for _ in range(18)]
    history.append(make_event("r1", "20:03:45", "20:30:00"))
    history.append(make_event("r1", "20:29:51", "20:30:00"))
    table = build_preference_table(window_events(history, situation), situation)
    assert table.score("r1", "Ch1") == 19.44


def test_preference_matrix_checks_its_shape_and_scores():
    with pytest.raises(ValueError, match="shape"):
        PreferenceMatrix(residents=("r1",), items=("a", "b"), scores=np.zeros((1, 3)))
    with pytest.raises(ValueError, match=r"negative score for \(r2, b\)"):
        PreferenceMatrix(residents=("r1", "r2"), items=("a", "b"), scores=np.array([[1.0, 0.0], [0.0, -0.5]]))
    matrix = PreferenceMatrix(residents=("r1",), items=("a",), scores=np.array([[2.0]]))
    assert (matrix.score("r1", "a"), matrix.score("r9", "a"), matrix.score("r1", "z")) == (2.0, 0.0, 0.0)


def test_build_preference_table_missing_item_is_zero():
    situation = _situation()
    table = build_preference_table(window_events([make_event("r1", "20:00:00", "20:30:00")], situation), situation)
    assert table.score("r1", "Ch1") == 1.0
    assert table.score("r1", "Ch9") == 0.0


def test_history_value_of_negative_zero_scores_the_requested_item_zero():
    window = interval("20:00:00", "20:30:00")
    requests = tuple(make_request(resident, value, attribute="temp", numeric=True, request_id=resident)
                     for resident, value in (("r1", "0"), ("r2", "5")))
    situation = ConflictSituation(service_id="TV", location="living room", attribute="temp", window=window,
                                  requests=requests)
    history = [make_event("r1", "20:00:00", "20:30:00", attributes={"temp": AttributeValue.numeric(-0.0)})]
    table = build_preference_table(window_events(history, situation), situation)
    assert matrix_entries(table) == {("r1", "0"): 1.0}


def test_build_preference_table_mixed_proximities():
    situation = _situation()
    history = [
        make_event("r1", "20:00:00", "20:30:00"),  # 1.0
        make_event("r1", "20:00:00", "21:00:00"),  # 0.75
        make_event("r1", "20:03:45", "20:30:00"),  # 0.9375
        make_event("r3", "20:00:00", "20:30:00"),  # not a member
    ]
    table = build_preference_table(window_events(history, situation), situation)
    assert matrix_entries(table) == {("r1", "Ch1"): 2.6875}


def _arcs_overlap(a, b):
    """Whether two daily arcs share time, from their starts and lengths alone."""
    length_a = (a.end - a.start) % SECONDS_PER_DAY
    length_b = (b.end - b.start) % SECONDS_PER_DAY
    return (b.start - a.start) % SECONDS_PER_DAY < length_a or (a.start - b.start) % SECONDS_PER_DAY < length_b


def brute_force_table(history, situation, lookback_days):
    """Direct per-event evaluation of the extraction rules."""
    latest = max((event.date for event in history), default=None)
    entries = {}
    for event in history:
        if event.service_id != situation.service_id or event.location != situation.location:
            continue
        if lookback_days is not None and (latest - event.date).days >= lookback_days:
            continue
        value = event.attributes.get(situation.attribute)
        if value is None or event.resident not in situation.residents:
            continue
        if not _arcs_overlap(event.interval, situation.window):
            continue
        key = (event.resident, value.item_label())
        entries[key] = entries.get(key, 0.0) + temporal_proximity([event.interval, situation.window])
    return entries


_arcs = st.tuples(st.integers(0, SECONDS_PER_DAY - 1), st.integers(1, SECONDS_PER_DAY - 1)).map(
    lambda p: TimeOfDayInterval(p[0], (p[0] + p[1]) % SECONDS_PER_DAY)
)
_events = st.builds(
    lambda resident, service, location, channel, day, arc: dataclasses.replace(
        make_event(resident, "20:00:00", "20:30:00", channel=channel, service=service, location=location,
                   date=dt.date(2026, 1, 1) + dt.timedelta(days=day),
                   attributes=None if channel else {"state": AttributeValue.categorical("on")}),
        interval=arc,
    ),
    st.sampled_from(("r1", "r2", "r3")),
    st.sampled_from(("TV", "TV", "radio")),
    st.sampled_from(("living room", "living room", "kitchen")),
    st.sampled_from(("Ch1", "Ch2", "Ch3", None)),
    st.integers(0, 9),
    _arcs,
)


@settings(max_examples=150, deadline=None)
@given(history=st.lists(_events, max_size=25), window=_arcs, lookback_days=st.none() | st.integers(1, 11))
def test_build_preference_table_matches_brute_force(history, window, lookback_days):
    situation = _situation(window)
    table = build_preference_table(window_events(history, situation, lookback_days), situation)
    assert matrix_entries(table) == brute_force_table(history, situation, lookback_days)


@settings(max_examples=100, deadline=None)
@given(history=st.lists(_events, max_size=25), window=_arcs)
def test_build_preference_table_rows_are_the_members_and_columns_their_items(history, window):
    situation = _situation(window)
    table = build_preference_table(window_events(history, situation), situation)
    assert table.residents == tuple(sorted(situation.residents))
    assert table.items == tuple(sorted({item for _, item in brute_force_table(history, situation, None)}))


def test_build_preference_table_worked_cell(reference_history, reference_situation):
    table = build_preference_table(window_events(reference_history, reference_situation), reference_situation)
    assert table.score("r1", "Ch1") == pytest.approx(19.44, abs=1e-9)


def test_build_preference_table_empty_history(reference_situation):
    table = build_preference_table(window_events([], reference_situation), reference_situation)
    assert matrix_entries(table) == {}
    assert matrix_entries(table) == {}


def test_preference_linearity_under_duplication(reference_history, reference_situation):
    doubled = list(reference_history) + [
        dataclasses.replace(e, event_id=e.event_id + "-copy") for e in reference_history
    ]
    base = build_preference_table(window_events(reference_history, reference_situation), reference_situation)
    double = build_preference_table(window_events(doubled, reference_situation), reference_situation)
    assert set(matrix_entries(double)) == set(matrix_entries(base))
    for key, score in matrix_entries(base).items():
        assert matrix_entries(double)[key] == pytest.approx(2 * score, rel=1e-12)


def test_preference_bounded_by_event_count(reference_history, reference_situation):
    table = build_preference_table(window_events(reference_history, reference_situation), reference_situation)
    counts = {}
    for event in reference_history:
        key = (event.resident, event.attributes["channel"].label)
        counts[key] = counts.get(key, 0) + 1
    for key, score in matrix_entries(table).items():
        assert score <= counts[key] + 1e-12


def test_lookback_filter(reference_situation):
    recent = make_event("r1", "20:00:00", "20:30:00", channel="Ch1", date=dt.date(2026, 3, 1))
    stale = make_event("r1", "20:00:00", "20:30:00", channel="Ch1", date=dt.date(2025, 1, 1))

    def matched(history, lookback_days):
        return _described(window_events(history, reference_situation, lookback_days=lookback_days))

    assert matched([recent, stale], 30) == _describe([recent], reference_situation)
    table_all = build_preference_table(window_events([recent, stale], reference_situation), reference_situation)
    assert table_all.score("r1", "Ch1") == pytest.approx(2.0)
    # The horizon counts back from the latest date of the whole history,
    # whatever service that last event used.
    later_radio = make_event("r1", "08:00:00", "09:00:00", service="radio", date=dt.date(2026, 6, 1))
    assert matched([recent, stale, later_radio], 30) == []
    assert matched([recent, stale, later_radio], 93) == _describe([recent], reference_situation)
    edge = make_event("r1", "20:00:00", "20:30:00", channel="Ch1", date=dt.date(2026, 1, 31))
    assert matched([edge, stale, recent], 30) == _describe([edge, recent], reference_situation)
    assert matched([edge, stale, recent], 29) == _describe([recent], reference_situation)
    # A lookback reaching past the first calendar day keeps the whole history.
    assert matched([edge, stale, recent], 10**7) == _describe([edge, stale, recent], reference_situation)


@settings(max_examples=150, deadline=None)
@given(
    history=st.lists(_events, max_size=30),
    windows=st.lists(_arcs, min_size=1, max_size=3),
    lookback_days=st.none() | st.integers(1, 11),
    later_radio=st.booleans(),
    threshold=st.sampled_from((0.1, 0.5, 0.6, 1.0)),
)
@example(history=[], windows=[TimeOfDayInterval(72000, 73800)], lookback_days=3, later_radio=False, threshold=0.6)
def test_history_index_matches_per_event_scan(history, windows, lookback_days, later_radio, threshold):
    if later_radio:
        # The lookback horizon counts back from this event, on another service.
        history = history + [make_event("r1", "08:00:00", "09:00:00", service="radio", date=dt.date(2026, 1, 13))]
    for ordered in (history, history[::-1]):
        index = History(ordered)
        for window in windows:
            situation = _situation(window)
            events = window_events(index, situation, lookback_days)
            expected = window_scan(ordered, situation, lookback_days)
            assert len(events) == len(expected)
            assert matrix_entries(build_preference_table(events, situation)) == \
                brute_force_table(ordered, situation, lookback_days)
            for resident in ("r1", "r2", "r3", "r9"):
                for attribute in ("channel", "state"):
                    assert adopted_items(events, resident, attribute, threshold) == \
                        adopted_scan(expected, resident, attribute, threshold)
