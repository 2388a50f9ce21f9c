import numpy as np
import pytest
from hypothesis import given, strategies as st

from homearbiter.intervals import (
    SECONDS_PER_DAY,
    TimeOfDayInterval,
    covering_span,
    format_hms,
    parse_hms,
)

from conftest import interval, overlap_length


def test_parse_format_roundtrip():
    assert parse_hms("20:00:00") == 72000
    assert parse_hms("00:00:00") == 0
    assert parse_hms("23:59:59") == 86399
    assert format_hms(72000) == "20:00:00"
    for text in ("07:03:59", "00:00:01", "12:30:00"):
        assert format_hms(parse_hms(text)) == text


def test_parse_rejects_garbage():
    for bad in ("24:00:00", "aa:bb:cc", "20:00", "-1:00:00", "20:61:00"):
        with pytest.raises(ValueError):
            parse_hms(bad)


def test_parse_accepts_one_or_two_digits_per_field():
    assert parse_hms("9:5:7") == parse_hms("09:05:07") == parse_hms(" 09:05:07 ") == 32707
    assert parse_hms("0:0:0") == 0


# Each one used to load as a time: int() reads "1_0" as 10 and accepts signs, spaces and non-ASCII digits.
NOT_HMS = ["1_0:00:00", "+1:00:00", " 9 : 0 : 0", "\u0660\u0669:00:00", "\uff11\uff10:00:00", "009:00:00", "20:00:0_0"]


@pytest.mark.parametrize("text", NOT_HMS)
def test_parse_rejects_fields_that_are_not_one_or_two_ascii_digits(text):
    with pytest.raises(ValueError, match="expected HH:MM:SS"):
        parse_hms(text)


def test_zero_length_rejected():
    with pytest.raises(ValueError):
        TimeOfDayInterval(100, 100)


def test_bounds_enforced():
    with pytest.raises(ValueError):
        TimeOfDayInterval(-1, 100)
    with pytest.raises(ValueError):
        TimeOfDayInterval(0, SECONDS_PER_DAY)


def test_overlap_golden_quarter_hour():
    a = interval("20:00:00", "21:00:00")
    b = interval("20:45:00", "21:45:00")
    assert overlap_length(a, b) == 900


def test_overlap_identical():
    a = interval("20:00:00", "20:30:00")
    assert overlap_length(a, a) == 1800


def test_overlap_disjoint():
    assert overlap_length(interval("08:00:00", "09:00:00"), interval("10:00:00", "11:00:00")) == 0


def test_overlap_touching_is_zero():
    assert overlap_length(interval("08:00:00", "09:00:00"), interval("09:00:00", "10:00:00")) == 0


def test_overlap_wraparound():
    wrap = interval("23:00:00", "01:00:00")
    assert wrap.wraps
    assert wrap.duration() == 7200
    assert overlap_length(wrap, interval("00:30:00", "02:00:00")) == 1800
    assert overlap_length(wrap, interval("23:30:00", "01:30:00")) == 5400
    # [22:00 -> 02:00] meets [01:00 -> 23:00] in two separate one-hour arcs.
    assert overlap_length(interval("22:00:00", "02:00:00"), interval("01:00:00", "23:00:00")) == 7200


def _intervals(draw_wrap: bool = True):
    def build(pair):
        s, e = pair
        return TimeOfDayInterval(s, e)

    base = st.tuples(st.integers(0, SECONDS_PER_DAY - 1), st.integers(0, SECONDS_PER_DAY - 1)).filter(
        lambda p: p[0] != p[1]
    )
    if not draw_wrap:
        base = base.filter(lambda p: p[0] < p[1])
    return base.map(build)


@given(a=_intervals(), b=_intervals())
def test_overlap_symmetric(a, b):
    assert overlap_length(a, b) == overlap_length(b, a)


@given(a=_intervals())
def test_overlap_self_is_duration(a):
    assert overlap_length(a, a) == a.duration()
    # Any sub-arc of a, here its first half, overlaps a by its own length.
    half = TimeOfDayInterval(a.start, (a.start + max(1, a.duration() // 2)) % SECONDS_PER_DAY)
    assert overlap_length(half, a) == overlap_length(a, half) == half.duration()


@given(a=_intervals(), b=_intervals())
def test_overlap_bounded_by_durations(a, b):
    assert overlap_length(a, b) <= min(a.duration(), b.duration())


@given(a=_intervals())
def test_covering_span_of_single_interval(a):
    assert covering_span([a]) == a.duration()


def _span_by_second_scan(intervals):
    """86400 minus the longest circular run of seconds no interval covers."""
    uncovered = np.ones(SECONDS_PER_DAY, dtype=bool)
    for iv in intervals:
        for s, e in iv.segments():
            uncovered[s:e] = False
    if not uncovered.any():
        return SECONDS_PER_DAY
    # Around the circle twice, so a run across midnight is counted whole.
    twice = np.concatenate([[False], uncovered, uncovered, [False]]).astype(np.int8)
    edges = np.flatnonzero(np.diff(twice))
    return SECONDS_PER_DAY - int((edges[1::2] - edges[::2]).max())


def test_covering_span_matches_a_second_scan():
    rng = np.random.RandomState(23)
    kinds = {"wrapping": 0, "near full day": 0, "fully covering": 0}
    for case in range(400):
        intervals = []
        for _ in range(int(rng.randint(1, 5))):
            start = int(rng.randint(0, SECONDS_PER_DAY))
            length = int(rng.choice([rng.randint(1, 3601), rng.randint(80000, SECONDS_PER_DAY)]))
            intervals.append(TimeOfDayInterval(start, (start + length) % SECONDS_PER_DAY))
        if case % 4 == 3:
            # An interval and its complement cover the whole day between them.
            intervals[-1:] = [intervals[-1], TimeOfDayInterval(intervals[-1].end, intervals[-1].start)]
        expected = _span_by_second_scan(intervals)
        assert covering_span(intervals) == expected, f"case {case}"
        kinds["wrapping"] += any(iv.wraps for iv in intervals)
        kinds["near full day"] += any(iv.duration() >= 80000 for iv in intervals)
        kinds["fully covering"] += expected == SECONDS_PER_DAY
    assert min(kinds.values()) >= 50, kinds
