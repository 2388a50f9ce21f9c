import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homearbiter.aggregate import (
    PreferenceMatrix,
    build_item_set,
    build_preference_matrix,
    consensus_distance,
    consensus_scores,
    rank_by_average,
    rank_by_least_misery,
    rank_by_most_pleasure,
    request_centroid,
    resolve,
)
from homearbiter.config import RunConfig
from homearbiter.detect import detect_conflicts
from homearbiter.errors import DataError
from homearbiter.linalg import TruncatedSvd, svd, truncate
from homearbiter.model import ConflictSituation

from conftest import hms, item_set_by_sort, make_request, matrix_by_lookup, matrix_from_entries, shifted

WORKED = np.array(
    [
        [19.44, 14.48, 15.20, 11.04],
        [20.00, 17.20, 14.52, 20.00],
        [16.08, 14.12, 14.40, 20.00],
    ]
)
ITEMS = ("Ch1", "Ch2", "Ch3", "Ch5")
RESIDENTS = ("r1", "r2", "r3")


def worked_matrix() -> PreferenceMatrix:
    return PreferenceMatrix(residents=RESIDENTS, items=ITEMS, scores=WORKED.copy())


def worked_table() -> PreferenceMatrix:
    entries = {
        (r, i): WORKED[ri, ii]
        for ri, r in enumerate(RESIDENTS)
        for ii, i in enumerate(ITEMS)
    }
    return matrix_from_entries(entries)


# ---------------------------------------------------------------------------
# item set / matrix

def test_item_set_worked_example(reference_table, reference_situation):
    assert build_item_set(reference_table, reference_situation, 3) == ("Ch1", "Ch2", "Ch3", "Ch5")


def test_item_set_single_resident_keeps_everything():
    table = matrix_from_entries({("r1", "Cha"): 3.0, ("r1", "Chb"): 1.0})
    situation_requests = [make_request("r1", "Cha", request_id="A"), make_request("r2", "Chb", request_id="B")]
    from homearbiter.detect import detect_conflicts

    situation = detect_conflicts(situation_requests)[0]
    assert build_item_set(table, situation, 5) == ("Cha", "Chb")


def test_item_set_includes_requested_outside_top_n(reference_table, reference_situation):
    # shrink top_n so low scorers drop out, but requested items stay
    item_set = build_item_set(reference_table, reference_situation, 1)
    for request in reference_situation.requests:
        assert request.value.item_label() in item_set


def test_item_set_missing_resident_everywhere_errors(reference_situation):
    empty = matrix_from_entries({})
    # every situation member still has a request, so this must not raise
    assert build_item_set(empty, reference_situation, 3) == ("Ch2", "Ch3", "Ch5")


def test_build_matrix_worked_rows(reference_table, reference_situation):
    item_set = build_item_set(reference_table, reference_situation, 3)
    matrix = build_preference_matrix(reference_table, item_set)
    assert np.allclose(matrix.scores, WORKED, atol=1e-9)


def test_build_matrix_single_cell():
    table = matrix_from_entries({("r1", "x"): 7.0})
    matrix = build_preference_matrix(table, ("x",))
    assert matrix.scores.tolist() == [[7.0]]


def test_build_matrix_zero_fill():
    table = matrix_from_entries({("r1", "x"): 7.0}, residents=("r1", "r2"))
    matrix = build_preference_matrix(table, ("x", "y"))
    assert matrix.scores[1].tolist() == [0.0, 0.0]
    assert matrix.scores[0, 1] == 0.0


# Table items, and requested values that may lie outside the table; few distinct scores, so ties are common.
_TABLE_ITEMS = ("a", "b", "c", "d", "e")
_OUTSIDE_ITEMS = ("x", "y")


@st.composite
def _tables(draw):
    """A situation, a table over its sorted members, members without entries scoring 0, and the entries."""
    values = draw(st.lists(st.sampled_from(_TABLE_ITEMS + _OUTSIDE_ITEMS), min_size=2, max_size=4)
                  .filter(lambda v: len(set(v)) >= 2))
    requests = tuple(make_request(f"r{n}", value, request_id=f"q{n}") for n, value in enumerate(values))
    situation = ConflictSituation(service_id="TV", location="living room", attribute="channel",
                                  window=requests[0].interval, requests=requests)
    members = sorted(situation.residents)
    entries = draw(st.dictionaries(st.tuples(st.sampled_from(members), st.sampled_from(_TABLE_ITEMS)),
                                   st.sampled_from((0.5, 1.0, 2.0, 2.6875)), max_size=12))
    # Columns no member scored stay in the table as zeros; the columns come in any order.
    unscored = draw(st.lists(st.sampled_from(_TABLE_ITEMS), max_size=2))
    items = draw(st.permutations(sorted({item for _, item in entries} | set(unscored))))
    return situation, matrix_from_entries(entries, residents=members, items=items), entries



@st.composite
def _scores_alpha_columns(draw):
    """A non-negative matrix up to 8x12, an alpha in (0, 1) and a non-empty set of its columns."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    entries = st.floats(0, 1e3, allow_nan=False, allow_infinity=False)
    scores = np.array(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
    alpha = draw(st.floats(0, 1, exclude_min=True, exclude_max=True))
    requested = sorted(draw(st.sets(st.integers(0, cols - 1), min_size=1)))
    return scores, alpha, requested


@settings(max_examples=200, deadline=None)
@given(drawn=_scores_alpha_columns())
def test_consensus_is_the_mean_of_the_requested_columns_of_the_rank_w_reconstruction(drawn):
    # A_w diag(s_w) V_w[j] is column j of the reconstruction, so projecting the
    # unrounded mean of the requested rows of V_w gives the mean of those
    # columns, whatever the signs of the factors.
    scores, alpha, requested = drawn
    tsvd = truncate(svd(scores), alpha)
    ideal = tsvd.A_w @ np.diag(tsvd.singular_values) @ tsvd.V_w.T
    got = consensus_scores(tsvd, tsvd.V_w[requested].mean(axis=0))
    assert np.max(np.abs(got - ideal[:, requested].mean(axis=1))) <= 1e-9 * scores.max()

@settings(max_examples=200, deadline=None)
@given(drawn=_tables(), top_n=st.integers(1, 4),
       columns=st.lists(st.sampled_from(_TABLE_ITEMS + _OUTSIDE_ITEMS), min_size=1, max_size=5, unique=True))
def test_item_set_and_matrix_match_the_dict_rows(drawn, top_n, columns):
    situation, table, entries = drawn
    members = sorted(situation.residents)
    item_set = build_item_set(table, situation, top_n)
    assert item_set == item_set_by_sort(entries, situation, top_n)
    # A table with rows for the scored members only gives the same candidates.
    assert build_item_set(matrix_from_entries(entries), situation, top_n) == item_set
    for candidates in (item_set, tuple(columns)):
        matrix = build_preference_matrix(table, candidates)
        assert (matrix.residents, matrix.items) == (tuple(members), candidates)
        assert matrix.scores.tolist() == matrix_by_lookup(entries, candidates, members).tolist()


# ---------------------------------------------------------------------------
# centroid / consensus / distances

def _worked_truncated() -> TruncatedSvd:
    return truncate(svd(WORKED), 0.97)


def test_request_centroid_worked_absolute(reference_situation):
    tsvd = _worked_truncated()
    centroid = request_centroid(tsvd, ITEMS, reference_situation)
    assert np.allclose(np.abs(centroid), [0.48, 0.15], atol=0.01)


def test_request_centroid_hand_average():
    v = np.array([[0.6, 0.1], [0.2, 0.9]])
    tsvd = TruncatedSvd(A_w=np.eye(2), singular_values=np.array([1.0, 1.0]), V_w=v, rank=2)
    requests = [make_request("r1", "a", request_id="A"), make_request("r2", "b", request_id="B")]
    from homearbiter.detect import detect_conflicts

    situation = detect_conflicts(requests)[0]
    centroid = request_centroid(tsvd, ("a", "b"), situation)
    assert np.allclose(centroid, [(0.6 + 0.2) / 2, (0.1 + 0.9) / 2])


def test_request_centroid_unknown_item_errors():
    tsvd = _worked_truncated()
    requests = [make_request("r1", "Ch9", request_id="A"), make_request("r2", "Ch2", request_id="B")]
    from homearbiter.detect import detect_conflicts

    situation = detect_conflicts(requests)[0]
    with pytest.raises(DataError):
        request_centroid(tsvd, ITEMS, situation)


def test_consensus_scores_worked_value():
    tsvd = _worked_truncated()
    # quantized centroid in this kernel's sign convention
    consensus = consensus_scores(tsvd, np.array([0.48, 0.15]))
    assert np.allclose(consensus, [13.623, 17.539, 16.107], atol=0.05)


def test_consensus_scores_zero_centroid():
    tsvd = _worked_truncated()
    assert np.allclose(consensus_scores(tsvd, np.zeros(2)), 0.0)


def test_consensus_scores_rank_one_expansion():
    a = np.array([[0.6], [0.8]])
    tsvd = TruncatedSvd(A_w=a, singular_values=np.array([5.0]), V_w=np.array([[1.0], [0.0]]), rank=1)
    got = consensus_scores(tsvd, np.array([2.0]))
    assert np.allclose(got, 5.0 * 2.0 * a[:, 0])


def test_consensus_distance_worked_values():
    matrix = worked_matrix()
    tsvd = _worked_truncated()
    consensus = consensus_scores(tsvd, np.round(request_centroid_for_worked(tsvd), 2))
    expected = {"Ch1": 6.32, "Ch2": 2.19, "Ch3": 3.81, "Ch5": 5.28}
    for item, target in expected.items():
        assert consensus_distance(matrix, item, consensus) == pytest.approx(target, abs=0.02)


def request_centroid_for_worked(tsvd):
    from homearbiter.detect import detect_conflicts

    requests = [
        make_request("r1", "Ch3", request_id="A"),
        make_request("r2", "Ch2", request_id="B"),
        make_request("r3", "Ch5", request_id="C"),
    ]
    situation = detect_conflicts(requests)[0]
    return request_centroid(tsvd, ITEMS, situation)


def test_consensus_distance_zero_for_matching_column():
    matrix = worked_matrix()
    assert consensus_distance(matrix, "Ch2", WORKED[:, 1]) == 0.0


def test_consensus_distance_hand_computed():
    matrix = PreferenceMatrix(residents=("r1", "r2"), items=("a", "b"), scores=np.array([[3.0, 0.0], [4.0, 0.0]]))
    assert consensus_distance(matrix, "a", np.zeros(2)) == 5.0
    with pytest.raises(KeyError):
        consensus_distance(matrix, "zzz", np.zeros(2))


# ---------------------------------------------------------------------------
# resolve pipeline

def test_resolve_worked_example(reference_history, reference_situation):
    cfg = RunConfig(alpha=0.97, top_n=3, k=2)
    resolution = resolve(reference_situation, reference_history, cfg)
    assert tuple(sorted(resolution.chosen)) == ("Ch2", "Ch3")
    assert [item for item, _ in resolution.ranked] == ["Ch2", "Ch3", "Ch5", "Ch1"]


def test_resolve_deterministic(reference_history, reference_situation):
    cfg = RunConfig(alpha=0.97, top_n=3, k=2)
    first = resolve(reference_situation, reference_history, cfg)
    second = resolve(reference_situation, reference_history, cfg)
    assert first.ranked == second.ranked
    assert first.chosen == second.chosen


def test_sign_invariance_of_consensus(reference_situation):
    tsvd = _worked_truncated()
    base_centroid = np.round(request_centroid_for_worked(tsvd), 2)
    base = consensus_scores(tsvd, base_centroid)
    w = tsvd.rank
    for signs in itertools.product((1.0, -1.0), repeat=w):
        flip = np.array(signs)
        flipped = TruncatedSvd(
            A_w=tsvd.A_w * flip,
            singular_values=tsvd.singular_values.copy(),
            V_w=tsvd.V_w * flip,
            rank=w,
        )
        centroid = np.round(request_centroid_for_worked(flipped), 2)
        assert np.allclose(consensus_scores(flipped, centroid), base, atol=1e-8)


# ---------------------------------------------------------------------------
# baselines

def test_baseline_average_worked_values():
    ranked = dict(rank_by_average(worked_matrix()))
    assert ranked["Ch1"] == pytest.approx(18.51, abs=0.01)
    assert ranked["Ch2"] == pytest.approx(15.27, abs=0.01)
    assert ranked["Ch3"] == pytest.approx(14.71, abs=0.01)
    assert ranked["Ch5"] == pytest.approx(17.01, abs=0.01)


def test_baseline_least_misery_worked_values():
    ranked = dict(rank_by_least_misery(worked_matrix()))
    assert ranked["Ch1"] == pytest.approx(16.08, abs=0.01)
    assert ranked["Ch2"] == pytest.approx(14.12, abs=0.01)
    assert ranked["Ch5"] == pytest.approx(11.04, abs=0.01)


def test_baseline_most_pleasure_worked_values():
    ranked = dict(rank_by_most_pleasure(worked_matrix()))
    for item, target in zip(ITEMS, (20.00, 17.20, 15.20, 20.00)):
        assert ranked[item] == pytest.approx(target, abs=0.01)


def test_baselines_coincide_for_single_resident():
    matrix = PreferenceMatrix(residents=("r1",), items=("a", "b"), scores=np.array([[2.0, 5.0]]))
    assert rank_by_average(matrix) == rank_by_least_misery(matrix) == rank_by_most_pleasure(matrix)


def test_baselines_match_fold_oracle():
    rng = np.random.RandomState(31)
    for _ in range(25):
        rows, cols = int(rng.randint(1, 6)), int(rng.randint(1, 7))
        scores = np.abs(rng.randn(rows, cols)) * 10
        items = tuple(f"i{j}" for j in range(cols))
        matrix = PreferenceMatrix(residents=tuple(f"r{i}" for i in range(rows)), items=items, scores=scores)
        for rank_fn, fold in (
            (rank_by_average, np.mean),
            (rank_by_least_misery, np.min),
            (rank_by_most_pleasure, np.max),
        ):
            got = dict(rank_fn(matrix))
            for j, item in enumerate(items):
                assert got[item] == pytest.approx(float(fold(scores[:, j])))
            values = [v for _, v in rank_fn(matrix)]
            assert values == sorted(values, reverse=True)


def _situation(*requests):
    (situation,) = detect_conflicts(list(requests))
    return situation


def test_use_first():
    early = make_request("r2", "Ch2", start="20:00:00", end="20:30:00", request_id="B")
    later = make_request("r1", "Ch3", start="20:05:00", end="20:30:00", request_id="A")
    resolution = resolve(_situation(early, later), [], RunConfig(k=2), "use-first")
    assert resolution.ranked == (("Ch2", float(hms("20:00:00"))),)
    assert resolution.chosen == ("Ch2",)
    tie_a = make_request("ra", "Chx", start="20:00:00", end="20:30:00")
    tie_b = make_request("rb", "Chy", start="20:00:00", end="20:30:00")
    assert resolve(_situation(tie_b, tie_a), [], RunConfig(), "use-first").chosen == ("Chx",)


@pytest.mark.parametrize("shift", [0, 600, 43200])
def test_use_first_grants_who_asked_first_across_midnight(shift):
    # alice asked at 23:50, fifteen minutes before bob, though her start second is the larger one.
    alice = make_request("alice", "Ch1", start=shifted("23:50:00", shift), end=shifted("00:30:00", shift))
    bob = make_request("bob", "Ch2", start=shifted("00:05:00", shift), end=shifted("00:30:00", shift))
    resolution = resolve(_situation(alice, bob), [], RunConfig(), "use-first")
    assert resolution.ranked == (("Ch1", float(alice.interval.start)),)


def test_resolve_with_strategy_dispatch(reference_history, reference_situation):
    cfg = RunConfig(k=2)
    for strategy in ("svd", "avg", "lm", "mp", "use-first"):
        resolution = resolve(reference_situation, reference_history, cfg, strategy)
        assert resolution.strategy == strategy
        assert resolution.chosen
    assert resolve(reference_situation, reference_history, cfg).ranked == resolve(
        reference_situation, reference_history, cfg, "svd"
    ).ranked
    with pytest.raises(ValueError):
        resolve(reference_situation, reference_history, cfg, "zmp")


def test_resolve_with_strategy_use_first(reference_history, reference_situation):
    resolution = resolve(reference_situation, reference_history, RunConfig(), "use-first")
    assert resolution.chosen == ("Ch3",)  # r1 is the lexicographically first of the tied starts
