import numpy as np
import pytest
from hypothesis import given, strategies as st

from homearbiter.errors import ConvergenceError
from homearbiter.linalg import SvdResult, svd, truncate

from conftest import reconstruct, svd_loop

WORKED_MATRIX = np.array(
    [
        [19.44, 14.48, 15.20, 11.04],
        [20.00, 17.20, 14.52, 20.00],
        [16.08, 14.12, 14.40, 20.00],
    ]
)


def test_singular_values_of_worked_matrix():
    result = svd(WORKED_MATRIX)
    assert np.allclose(result.singular_values, [57.1127, 6.8771, 1.8235], atol=1e-3)


def test_identity_singular_values():
    assert np.allclose(svd(np.eye(3)).singular_values, [1.0, 1.0, 1.0], atol=1e-12)


def test_random_matrix_reconstruction_and_orthogonality():
    rng = np.random.RandomState(4)
    m = rng.randn(4, 5)
    result = svd(m)
    assert np.max(np.abs(reconstruct(result) - m)) < 1e-8
    assert np.max(np.abs(result.A.T @ result.A - np.eye(4))) < 1e-8
    assert np.max(np.abs(result.V.T @ result.V - np.eye(5))) < 1e-8


def test_singular_values_sorted_and_nonnegative():
    rng = np.random.RandomState(5)
    for _ in range(20):
        result = svd(rng.randn(rng.randint(1, 7), rng.randint(1, 9)))
        sv = result.singular_values
        assert np.all(sv >= 0)
        assert np.all(np.diff(sv) <= 1e-12)


def test_transpose_has_same_spectrum():
    rng = np.random.RandomState(6)
    m = rng.randn(5, 8)
    assert np.allclose(svd(m).singular_values, svd(m.T).singular_values, atol=1e-9)


def test_sign_convention_dominant_entry_nonnegative():
    rng = np.random.RandomState(7)
    for _ in range(10):
        result = svd(rng.randn(4, 6))
        for j in range(result.V.shape[1]):
            col = result.V[:, j]
            assert col[np.argmax(np.abs(col))] >= 0


def test_sign_steps_match_the_column_loop_bit_for_bit():
    rng = np.random.RandomState(12)
    matrices = [np.zeros((3, 4)), np.ones((4, 2)), np.eye(5)[:, :3], np.zeros((0, 3)), np.zeros((3, 0))]
    for _ in range(300):
        m, n = rng.randint(1, 13), rng.randint(1, 41)
        # Rounded non-negative scores repeat entries and leave some columns tied or zero.
        matrices.append(rng.randn(m, n) if rng.randint(2) else np.round(rng.rand(m, n) * rng.randint(1, 4)))
    for matrix in matrices:
        got, want = svd(matrix), svd_loop(matrix)
        assert got.A.tobytes() == want.A.tobytes() and got.A.shape == want.A.shape
        assert got.V.tobytes() == want.V.tobytes() and got.V.shape == want.V.shape


def test_svd_input_validation():
    with pytest.raises(ValueError):
        svd(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        svd(np.array([[np.inf, 1.0]]))


def test_zero_matrix():
    result = svd(np.zeros((3, 4)))
    assert np.allclose(result.singular_values, 0.0)
    assert np.max(np.abs(result.A.T @ result.A - np.eye(3))) < 1e-12
    assert np.max(np.abs(result.V.T @ result.V - np.eye(4))) < 1e-12


def test_truncate_worked_example():
    result = svd(WORKED_MATRIX)
    assert truncate(result, 0.97).rank == 2


def test_truncate_single_dominant_value():
    fake = SvdResult(A=np.eye(3), singular_values=np.array([1.0, 0.0, 0.0]), V=np.eye(3))
    assert truncate(fake, 0.9).rank == 1


def test_truncate_cumulative_rule():
    # shares 0.4 and 0.7: the first strictly above 0.5 is the second
    fake = SvdResult(A=np.eye(4), singular_values=np.array([4.0, 3.0, 2.0, 1.0]), V=np.eye(4))
    assert truncate(fake, 0.5).rank == 2


def test_truncate_alpha_validation():
    fake = SvdResult(A=np.eye(2), singular_values=np.array([1.0, 1.0]), V=np.eye(2))
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            truncate(fake, alpha)


@given(
    sigma=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=8),
    alphas=st.tuples(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99)),
)
def test_truncate_monotone_in_alpha(sigma, alphas):
    sv = np.sort(np.asarray(sigma))[::-1]
    n = len(sv)
    fake = SvdResult(A=np.eye(n), singular_values=sv, V=np.eye(n))
    lo, hi = min(alphas), max(alphas)
    assert truncate(fake, lo).rank <= truncate(fake, hi).rank


def test_lapack_failure_raises_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceError, match="4x4"):
        svd(np.random.RandomState(0).randn(4, 4))


def test_property_suite_against_numpy_oracle():
    rng = np.random.RandomState(11)
    for _ in range(60):
        m = rng.randn(rng.randint(1, 9), rng.randint(1, 13)) * rng.choice([0.01, 1.0, 100.0])
        result = svd(m)
        scale = max(1.0, float(np.max(np.abs(m))))
        assert np.max(np.abs(reconstruct(result) - m)) / scale < 1e-8
        oracle = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(result.singular_values, oracle, atol=1e-8 * max(1.0, oracle.max()))
