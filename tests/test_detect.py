import dataclasses

import numpy as np
import pytest

from homearbiter.detect import detect_conflicts
from homearbiter.intervals import SECONDS_PER_DAY, TimeOfDayInterval
from homearbiter.model import AttributeValue, ServiceRequest

from conftest import hms, intervals_overlap, make_request, shifted


def is_conflict(a: ServiceRequest, b: ServiceRequest) -> bool:
    """Pairwise conflict predicate; symmetric in its arguments."""
    return (
        a.service_id == b.service_id
        and a.location == b.location
        and a.attribute == b.attribute
        and a.resident != b.resident
        and a.value.item_label() != b.value.item_label()
        and intervals_overlap(a.interval, b.interval)
    )


def test_is_conflict_motivation_case():
    a = make_request("r1", "Ch3")
    b = make_request("r2", "Ch2")
    assert is_conflict(a, b)
    assert is_conflict(b, a)


def test_is_conflict_same_resident():
    a = make_request("r1", "Ch3")
    b = make_request("r1", "Ch2")
    assert not is_conflict(a, b)


def test_is_conflict_same_value():
    a = make_request("r1", "Ch3")
    b = make_request("r2", "Ch3")
    assert not is_conflict(a, b)


def test_is_conflict_needs_overlap_and_place():
    a = make_request("r1", "Ch3", start="08:00:00", end="09:00:00")
    b = make_request("r2", "Ch2", start="09:00:00", end="10:00:00")
    assert not is_conflict(a, b)  # touching only
    c = make_request("r2", "Ch2", location="kitchen")
    assert not is_conflict(make_request("r1", "Ch3"), c)
    d = make_request("r2", "Ch2", service="radio")
    assert not is_conflict(make_request("r1", "Ch3"), d)
    e = make_request("r2", "5", attribute="volume")
    assert not is_conflict(make_request("r1", "Ch3"), e)


def test_is_conflict_symmetric_random():
    rng = np.random.RandomState(2)
    for _ in range(80):
        def rand_request(i):
            start = int(rng.randint(0, 120))
            end = start + 1 + int(rng.randint(0, 120))
            return make_request(
                f"r{rng.randint(0, 3)}",
                f"v{rng.randint(0, 3)}",
                service=f"s{rng.randint(0, 2)}",
                location=("living room", "kitchen")[rng.randint(0, 2)],
                start=f"00:{start // 60:02d}:{start % 60:02d}",
                end=f"00:{end // 60 + 1:02d}:{end % 60:02d}",
            )
        a, b = rand_request(0), rand_request(1)
        assert is_conflict(a, b) == is_conflict(b, a)
        # The sweep finds a situation in a pair exactly when the pairwise rule holds.
        assert bool(detect_conflicts([a, b])) == is_conflict(a, b)


def test_detect_numbers_of_one_item_do_not_conflict():
    # 21 and 2.1e1 are both item "21": one item cannot be a conflict to rank.
    requests = [make_request("r1", "21", numeric=True, attribute="temp"),
                make_request("r2", "2.1e1", numeric=True, attribute="temp")]
    assert [r.value.item_label() for r in requests] == ["21", "21"]
    assert detect_conflicts(requests) == []


def test_detect_numbers_that_differ_past_six_digits_conflict():
    requests = [make_request("r1", "1234567", numeric=True, attribute="temp"),
                make_request("r2", "1234568", numeric=True, attribute="temp")]
    assert [r.value.item_label() for r in requests] == ["1234567.0", "1234568.0"]
    [situation] = detect_conflicts(requests)
    assert situation.residents == ("r1", "r2")


def test_detect_label_of_a_bin_item_does_not_conflict_with_that_bin():
    binned = make_request("r2", "x", attribute="temp")
    binned = dataclasses.replace(binned, value=AttributeValue.binned(1, (18.0, 20.0)))
    assert detect_conflicts([make_request("r1", "bin1", attribute="temp"), binned]) == []


def test_detect_motivation_scenario():
    requests = [
        make_request("r1", "Ch3", request_id="a"),
        make_request("r2", "Ch2", request_id="b"),
        make_request("r3", "Ch5", request_id="c"),
    ]
    situations = detect_conflicts(requests)
    assert len(situations) == 1
    situation = situations[0]
    assert (situation.window.start, situation.window.end) == (72000, 73800)
    assert situation.residents == ("r1", "r2", "r3")


def test_detect_different_services_no_conflict():
    requests = [
        make_request("r1", "Ch3", service="TV"),
        make_request("r2", "Ch2", service="radio"),
    ]
    assert detect_conflicts(requests) == []


def test_detect_chain_splits_at_membership_changes():
    requests = [
        make_request("r1", "Ch1", start="20:00:00", end="20:30:00", request_id="A"),
        make_request("r2", "Ch2", start="20:20:00", end="20:50:00", request_id="B"),
        make_request("r3", "Ch3", start="20:40:00", end="21:00:00", request_id="C"),
    ]
    situations = detect_conflicts(requests)
    got = [
        (tuple(r.request_id for r in s.requests), s.window.start, s.window.end)
        for s in situations
    ]
    assert got == [
        (("A", "B"), 73200, 73800),  # 20:20 - 20:30
        (("B", "C"), 74400, 75000),  # 20:40 - 20:50
    ]


def test_detect_order_independent():
    requests = [
        make_request("r1", "Ch1", start="20:00:00", end="20:30:00", request_id="A"),
        make_request("r2", "Ch2", start="20:20:00", end="20:50:00", request_id="B"),
        make_request("r3", "Ch3", start="20:40:00", end="21:00:00", request_id="C"),
        make_request("r4", "Ch1", start="20:25:00", end="20:45:00", request_id="D"),
    ]
    keys = [s.key() for s in detect_conflicts(requests)]
    for perm in ([3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
        assert [s.key() for s in detect_conflicts([requests[i] for i in perm])] == keys


def test_detect_wraparound_conflict():
    requests = [
        make_request("r1", "Ch1", start="23:30:00", end="00:30:00", request_id="A"),
        make_request("r2", "Ch2", start="23:45:00", end="00:15:00", request_id="B"),
    ]
    situations = detect_conflicts(requests)
    assert len(situations) == 1
    window = situations[0].window
    assert (window.start, window.end) == (85500, 900)  # 23:45 -> 00:15
    assert window.wraps


def sweep_oracle(requests):
    """Second-by-second scan: co-active, multi-valued request groups.

    A request is active during second ``t`` when some segment covers the
    slab [t, t+1).  Runs of seconds with identical member sets become
    situations; runs touching across midnight merge.
    """
    by_partition = {}
    for r in requests:
        by_partition.setdefault((r.service_id, r.location, r.attribute), []).append(r)
    found = []
    for key in sorted(by_partition):
        group = by_partition[key]
        seconds = sorted({
            t for r in group for s, e in r.interval.segments() for t in range(s, e)
        })
        runs = []  # (start_t, end_t, members)
        for t in seconds:
            active = [r for r in group
                      if any(s <= t < e for s, e in r.interval.segments())]
            best = {}  # per resident, the request that began longest before t, around the circle
            for r in sorted(active, key=lambda r: (-((t - r.interval.start) % SECONDS_PER_DAY), r.request_id)):
                best.setdefault(r.resident, r)
            active = list(best.values())
            if len(active) < 2 or len({r.value.item_label() for r in active}) < 2:
                continue
            members = frozenset(r.request_id for r in active)
            if runs and runs[-1][1] == t and runs[-1][2] == members:
                runs[-1] = (runs[-1][0], t + 1, members)
            else:
                runs.append((t, t + 1, members))
        if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == SECONDS_PER_DAY and runs[0][2] == runs[-1][2]:
            first = runs.pop(0)
            runs[-1] = (runs[-1][0], first[1] + SECONDS_PER_DAY, first[2])
        for start, end, members in runs:
            found.append((key, start % SECONDS_PER_DAY, end % SECONDS_PER_DAY, members))
    return sorted(found)


def _detected_keys(situations):
    return sorted(
        (
            (s.service_id, s.location, s.attribute),
            s.window.start,
            s.window.end,
            frozenset(r.request_id for r in s.requests),
        )
        for s in situations
    )


def test_detect_matches_second_scan_oracle_randomized():
    rng = np.random.RandomState(17)
    for case in range(250):
        n = int(rng.randint(2, 7))
        requests = []
        for i in range(n):
            start = int(rng.randint(0, 240))
            length = int(rng.randint(1, 180))
            end = min(start + length, 420)
            if end == start:
                end += 1
            requests.append(
                ServiceRequest(
                    request_id=f"q{i}",
                    service_id=("TV", "fan")[rng.randint(0, 2)] if case % 3 == 0 else "TV",
                    attribute="channel",
                    value=AttributeValue.categorical(f"v{rng.randint(0, 3)}"),
                    interval=TimeOfDayInterval(start, end),
                    location="living room",
                    resident=f"r{rng.randint(0, 4)}",
                )
            )
        assert _detected_keys(detect_conflicts(requests)) == sweep_oracle(requests), f"case {case}"


def test_detect_matches_second_scan_oracle_across_midnight():
    rng = np.random.RandomState(29)
    for case in range(300):
        requests = []
        for i in range(int(rng.randint(2, 7))):
            start = SECONDS_PER_DAY - int(rng.randint(1, 301))
            end = (start + int(rng.randint(1, 401))) % SECONDS_PER_DAY
            requests.append(
                ServiceRequest(
                    request_id=f"q{i}",
                    service_id="TV",
                    attribute="channel",
                    value=AttributeValue.categorical(f"v{rng.randint(0, 3)}"),
                    interval=TimeOfDayInterval(start, end),
                    location="living room",
                    resident=f"r{rng.randint(0, 4)}",
                )
            )
        assert _detected_keys(detect_conflicts(requests)) == sweep_oracle(requests), f"case {case}"


def test_detect_matches_oracle_wraparound_cases():
    cases = [
        [("q0", "r1", "v1", 86100, 300), ("q1", "r2", "v2", 86200, 200)],
        [("q0", "r1", "v1", 86350, 120), ("q1", "r2", "v2", 50, 200), ("q2", "r3", "v3", 86300, 400)],
        [("q0", "r1", "v1", 86000, 800), ("q1", "r2", "v1", 86100, 500), ("q2", "r2", "v2", 86100, 500)],
        # r1's q0 began before midnight and q1 after it; q0 began first.
        [("q0", "r1", "v1", 85800, 2400), ("q1", "r1", "v3", 300, 1500), ("q2", "r2", "v2", 300, 1500)],
    ]
    for case in cases:
        requests = [
            ServiceRequest(
                request_id=rid,
                service_id="TV",
                attribute="channel",
                value=AttributeValue.categorical(value),
                interval=TimeOfDayInterval(start, (start + length) % SECONDS_PER_DAY),
                location="living room",
                resident=resident,
            )
            for rid, resident, value, start, length in case
        ]
        assert _detected_keys(detect_conflicts(requests)) == sweep_oracle(requests)


def test_detect_same_resident_duplicates_deduped():
    requests = [
        make_request("r1", "Ch1", start="20:00:00", end="21:00:00", request_id="A"),
        make_request("r1", "Ch4", start="20:10:00", end="20:50:00", request_id="B"),
        make_request("r2", "Ch2", start="20:00:00", end="21:00:00", request_id="C"),
    ]
    situations = detect_conflicts(requests)
    assert len(situations) == 1
    assert tuple(r.request_id for r in situations[0].requests) == ("A", "C")


@pytest.mark.parametrize("shift", [0, 600, 43200])
def test_detect_dedupe_keeps_the_request_that_began_first_across_midnight(shift):
    # a1 began at 23:50, fifteen minutes before a2, though its start second is the larger one.
    requests = [
        make_request("alice", "Ch1", start=shifted("23:50:00", shift), end=shifted("00:30:00", shift), request_id="a1"),
        make_request("alice", "Ch3", start=shifted("00:05:00", shift), end=shifted("00:30:00", shift), request_id="a2"),
        make_request("bob", "Ch2", start=shifted("00:05:00", shift), end=shifted("00:30:00", shift), request_id="b1"),
    ]
    (situation,) = detect_conflicts(requests)
    assert tuple(r.request_id for r in situation.requests) == ("a1", "b1")
    assert (situation.window.start, situation.window.end) == (hms(shifted("00:05:00", shift)),
                                                              hms(shifted("00:30:00", shift)))
