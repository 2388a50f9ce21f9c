import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homearbiter.aggregate import resolve
from homearbiter.config import RunConfig
from homearbiter.detect import detect_conflicts
from homearbiter.evaluate import (
    EvaluationConfig,
    adopted_items,
    average_satisfaction,
    harmonic_satisfaction,
    run_experiment,
    satisfaction_gain,
)
from homearbiter.preferences import PreferenceMatrix, window_events

from conftest import adopted_scan, make_event, make_request, matrix_from_entries, window_scan

WORKED_ENTRIES = {
    ("r1", "Ch1"): 19.44, ("r1", "Ch2"): 14.48, ("r1", "Ch3"): 15.20, ("r1", "Ch5"): 11.04,
    ("r2", "Ch1"): 20.00, ("r2", "Ch2"): 17.20, ("r2", "Ch3"): 14.52, ("r2", "Ch5"): 20.00,
    ("r3", "Ch1"): 16.08, ("r3", "Ch2"): 14.12, ("r3", "Ch3"): 14.40, ("r3", "Ch5"): 20.00,
}


def worked_table() -> PreferenceMatrix:
    return matrix_from_entries(dict(WORKED_ENTRIES))


# ---------------------------------------------------------------------------
# satisfaction gain

def test_sg_single_member():
    table = matrix_from_entries({("r1", "Ch1"): 19.44})
    assert satisfaction_gain(table, ["r1"], ["Ch1"], {"Ch1"}) == pytest.approx(19.44)


def test_sg_nothing_adopted_is_zero():
    table = worked_table()
    assert satisfaction_gain(table, ["r1", "r2"], ["Ch1"], set()) == 0.0


def test_sg_mean_over_members():
    table = matrix_from_entries({("a", "x"): 10.0, ("b", "x"): 20.0})
    assert satisfaction_gain(table, ["a", "b"], ["x"], {"x"}) == pytest.approx(15.0)


def test_sg_worked_top2_all_adopted():
    table = worked_table()
    got = satisfaction_gain(table, ["r1", "r2", "r3"], ["Ch2", "Ch3"], {"Ch1", "Ch2", "Ch3", "Ch5"})
    oracle = ((14.48 + 15.20) + (17.20 + 14.52) + (14.12 + 14.40)) / 3
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(29.97, abs=0.005)


def test_sg_monotone_in_adopted_items():
    table = worked_table()
    base = satisfaction_gain(table, ["r1", "r2"], ["Ch1", "Ch2"], {"Ch1"})
    more = satisfaction_gain(table, ["r1", "r2"], ["Ch1", "Ch2"], {"Ch1", "Ch2"})
    assert more >= base


def test_sg_requires_recommendations():
    with pytest.raises(ValueError):
        satisfaction_gain(worked_table(), ["r1"], [], set())


# ---------------------------------------------------------------------------
# adopted items

def _usage_events(days_with_item, active_days, item="Ch1", other="Ch9"):
    events = []
    base = dt.date(2026, 2, 1)
    for day in range(active_days):
        channel = item if day < days_with_item else other
        events.append(
            make_event("r1", "20:00:00", "20:30:00", channel=channel, date=base + dt.timedelta(days=day))
        )
    return events


def _evening_situation():
    return detect_conflicts([make_request("r1", "Ch1"), make_request("r2", "Ch2")])[0]


def test_adopted_items_strictly_above_threshold():
    situation = _evening_situation()
    adopted = adopted_items(window_events(_usage_events(7, 10), situation), "r1", "channel", threshold=0.6)
    assert "Ch1" in adopted
    not_adopted = adopted_items(window_events(_usage_events(6, 10), situation), "r1", "channel", threshold=0.6)
    assert "Ch1" not in not_adopted
    assert adopted_items(window_events(_usage_events(7, 10), situation), "r2", "channel", threshold=0.6) == set()


def test_adopted_items_empty_history():
    assert adopted_items(window_events([], _evening_situation()), "r1", "channel", threshold=0.6) == set()


def test_adopted_items_only_window_overlap_counts():
    situation = _evening_situation()
    busy_morning = [
        make_event("r1", "08:00:00", "09:00:00", channel="Ch1", date=dt.date(2026, 2, 1) + dt.timedelta(days=d))
        for d in range(10)
    ]
    assert adopted_items(window_events(busy_morning, situation), "r1", "channel", threshold=0.6) == set()
    assert adopted_items(window_events(_usage_events(7, 10), situation), "r1", "channel", threshold=0.6) == {"Ch1"}


# ---------------------------------------------------------------------------
# harmonic

def test_harmonic_equal_sums():
    table = matrix_from_entries({("a", "x"): 10.0, ("b", "x"): 10.0})
    assert harmonic_satisfaction(table, ["a", "b"], ["x"]) == pytest.approx(10.0)


def test_harmonic_derived_value():
    table = matrix_from_entries({("a", "x"): 4.0, ("b", "x"): 12.0})
    assert harmonic_satisfaction(table, ["a", "b"], ["x"]) == pytest.approx(6.0)


def test_harmonic_zero_sum_member():
    table = matrix_from_entries({("a", "x"): 4.0})
    assert harmonic_satisfaction(table, ["a", "b"], ["x"]) == 0.0


@settings(max_examples=100, deadline=None)
@given(sums=st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=6))
def test_harmonic_at_most_arithmetic(sums):
    entries = {(f"m{i}", "x"): value for i, value in enumerate(sums)}
    table = matrix_from_entries(entries)
    members = sorted(r for r, _ in entries)
    harmonic = harmonic_satisfaction(table, members, ["x"])
    arithmetic = sum(sums) / len(sums)
    assert harmonic <= arithmetic + 1e-9
    if max(sums) - min(sums) > 1e-9 * max(sums):
        assert harmonic < arithmetic


# ---------------------------------------------------------------------------
# average satisfaction

def test_average_satisfaction_everyone_top_item():
    table = matrix_from_entries({("a", "x"): 5.0, ("a", "y"): 1.0, ("b", "x"): 9.0})
    assert average_satisfaction(table, ["a", "b"], "x") == 1.0


def test_average_satisfaction_half():
    table = matrix_from_entries({("a", "x"): 10.0, ("a", "y"): 20.0})
    assert average_satisfaction(table, ["a"], "x") == pytest.approx(0.5)


def test_average_satisfaction_worked_value():
    got = average_satisfaction(worked_table(), ["r1", "r2", "r3"], "Ch2")
    assert got == pytest.approx(0.770, abs=5e-4)


def test_average_satisfaction_excludes_zero_rows():
    table = matrix_from_entries({("a", "x"): 10.0})
    assert average_satisfaction(table, ["a", "ghost"], "x") == 1.0
    assert average_satisfaction(table, ["ghost"], "x") == 0.0


def test_average_satisfaction_in_unit_interval():
    rng = np.random.RandomState(5)
    for _ in range(30):
        entries = {
            (f"m{i}", f"i{j}"): float(abs(rng.randn()) * 10)
            for i in range(3)
            for j in range(4)
        }
        table = matrix_from_entries(entries)
        value = average_satisfaction(table, [f"m{i}" for i in range(3)], "i1")
        assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# run_experiment

def _experiment_inputs():
    history = []
    base = dt.date(2026, 2, 1)
    rng = np.random.RandomState(11)
    for day in range(25):
        for resident, favorite in (("a", "Ch1"), ("b", "Ch2"), ("c", "Ch3")):
            channel = favorite if rng.random_sample() < 0.5 else f"Ch{1 + rng.randint(0, 3)}"
            history.append(
                make_event(resident, "20:00:00", "21:00:00", channel=channel, date=base + dt.timedelta(days=day))
            )
    requests = [
        make_request("a", "Ch1", request_id="qa"),
        make_request("b", "Ch2", request_id="qb"),
        make_request("c", "Ch3", request_id="qc"),
        make_request("a", "Ch1", start="21:30:00", end="22:00:00", request_id="qa2"),
        make_request("b", "Ch3", start="21:30:00", end="22:00:00", request_id="qb2"),
    ]
    return history, requests


def test_run_experiment_shape_and_determinism():
    history, requests = _experiment_inputs()
    cfg = EvaluationConfig(strategies=("avg", "svd"), group_sizes=(2, 3), recommendation_list_size=2)
    first = run_experiment(history, requests, cfg, RunConfig())
    second = run_experiment(history, requests, cfg, RunConfig())
    assert first == second
    assert len(first.rows) == 4
    by_cell = {(r.strategy, r.group_size): r for r in first.rows}
    assert by_cell[("avg", 3)].conflict_count == 1
    assert by_cell[("avg", 2)].conflict_count == 1
    assert by_cell[("svd", 3)].sg is not None


def test_run_experiment_no_conflicts_yields_null_rows():
    history, _ = _experiment_inputs()
    report = run_experiment(history, [], EvaluationConfig(strategies=("avg",), group_sizes=(2,)), RunConfig())
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.conflict_count == 0
    assert row.sg is None and row.harmonic is None and row.avg_satisfaction is None
    assert report.details == ()


def test_run_experiment_matches_per_strategy_resolve(monkeypatch):
    # Sharing one window scan, one prepared matrix and one adopted-item set
    # per situation must score exactly as resolving each strategy on its own.
    import homearbiter.aggregate as aggregate
    import homearbiter.evaluate as evaluate

    history, requests = _experiment_inputs()
    run_cfg = RunConfig(k=2)
    cfg = EvaluationConfig(group_sizes=(2, 3), recommendation_list_size=2)
    builds, scans = [], []

    def counting(calls, func):
        def wrapper(*args, **kwargs):
            calls.append(args[1])
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(aggregate, "build_preference_table", counting(builds, aggregate.build_preference_table))
    monkeypatch.setattr(evaluate, "window_events", counting(scans, evaluate.window_events))
    report = run_experiment(history, requests, cfg, run_cfg)
    monkeypatch.undo()
    situations = detect_conflicts(requests)
    # One history scan and one table build per situation, in detection order.
    assert builds == situations and scans == situations

    expected = []
    for strategy in cfg.strategies:
        for size in cfg.group_sizes:
            for situation in (s for s in situations if len(s.requests) == size):
                resolution = resolve(situation, history, run_cfg, strategy)
                table = resolution.diagnostics.table
                members = sorted(situation.residents)
                recommended = tuple(item for item, _ in resolution.ranked[:2])
                window = window_scan(history, situation)
                adopted = set().union(*(adopted_scan(window, m, situation.attribute, 0.6) for m in members))
                expected.append((strategy, size, resolution.chosen, recommended,
                                 satisfaction_gain(table, members, recommended, adopted),
                                 harmonic_satisfaction(table, members, recommended),
                                 average_satisfaction(table, members, resolution.ranked[0][0])))
    got = [(d.strategy, d.group_size, d.chosen, d.recommended, d.sg, d.harmonic, d.avg_satisfaction)
           for d in report.details]
    assert got == expected


def test_report_rows_are_the_means_of_their_cells_records():
    history, requests = _experiment_inputs()
    # Resident d has no history, so d scores zero on every item.
    requests += [make_request("a", "Ch1", start="20:30:00", end="21:00:00", request_id="qa3"),
                 make_request("d", "Ch9", start="20:30:00", end="21:00:00", request_id="qd3")]
    cfg = EvaluationConfig(strategies=("svd", "avg", "use-first"), group_sizes=(2, 3, 4))
    run_cfg = RunConfig(k=2)
    report = run_experiment(history, requests, cfg, run_cfg)
    assert [(r.strategy, r.group_size) for r in report.rows] == \
        [(s, g) for s in cfg.strategies for g in cfg.group_sizes]
    for row in report.rows:
        records = [d for d in report.details if (d.strategy, d.group_size) == (row.strategy, row.group_size)]
        assert row.conflict_count == len(records)
        for metric in ("sg", "harmonic", "avg_satisfaction"):
            values = [getattr(d, metric) for d in records]
            assert getattr(row, metric) == (sum(values) / len(values) if values else None)
    assert [r.conflict_count for r in report.rows if r.group_size == 4] == [0, 0, 0]

    situations = {"/".join(map(str, s.key()[:5])): s for s in detect_conflicts(requests)}
    for d in report.details:
        situation = situations[d.situation_key]
        resolution = resolve(situation, history, run_cfg, d.strategy)
        table = resolution.diagnostics.table
        members = sorted(situation.residents)
        # A zero member is one whose own harmonic score is 0; an excluded
        # member is one average_satisfaction leaves out, having no positive score.
        assert d.harmonic_zero_members == tuple(
            m for m in members if harmonic_satisfaction(table, [m], d.recommended) == 0)
        assert (d.harmonic == 0) == bool(d.harmonic_zero_members)
        assert d.excluded_members == tuple(
            m for m in members if not (table.scores[table.residents.index(m)] > 0).any())
        kept = [m for m in members if m not in d.excluded_members]
        top = resolution.ranked[0][0]
        assert d.avg_satisfaction == (average_satisfaction(table, kept, top) if kept else 0.0)
    assert any(d.excluded_members == ("d",) and d.harmonic_zero_members for d in report.details)


def test_run_experiment_reads_the_run_config_adopted_threshold():
    history, requests = _experiment_inputs()
    cfg = EvaluationConfig(strategies=("svd",))
    low, high = (run_experiment(history, requests, cfg, RunConfig(adopted_threshold=t)) for t in (0.1, 0.9))
    # The threshold picks the adopted items only: rankings stay, sg moves.
    assert [(d.chosen, d.recommended, d.harmonic) for d in low.details] == \
        [(d.chosen, d.recommended, d.harmonic) for d in high.details]
    assert all(lo.sg >= hi.sg for lo, hi in zip(low.details, high.details))
    assert [d.sg for d in low.details] != [d.sg for d in high.details]


def test_run_experiment_rejects_unknown_strategy():
    history, requests = _experiment_inputs()
    with pytest.raises(ValueError):
        run_experiment(history, requests, EvaluationConfig(strategies=("nope",)), RunConfig())


def test_report_serialization_round():
    history, requests = _experiment_inputs()
    report = run_experiment(history, requests, EvaluationConfig(strategies=("avg",), group_sizes=(2, 3)), RunConfig())
    csv_text = report.to_csv_text(["config: {}"])
    assert csv_text.startswith("# config: {}\nstrategy,group_size,conflicts,")
    assert csv_text.count("\navg,") == 2
    series = report.plot_series()
    assert set(series) == {"sg", "harmonic", "avg_satisfaction"}
    assert series["sg"].splitlines()[0] == "group_size\tavg"
    payload = report.to_json_obj()
    assert {row["strategy"] for row in payload["rows"]} == {"avg"}
