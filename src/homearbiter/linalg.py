"""Small dense-matrix kernel: full SVD and energy-controlled truncation.

The decomposition is numpy's LAPACK-backed ``np.linalg.svd``; this module
adds input validation, a deterministic sign convention and the truncation
rule.

Sign convention: the entry of largest magnitude in each right singular
vector is made nonnegative, and the mirror flip is applied to the paired
left vector.  SVD signs are otherwise arbitrary; fixing them keeps golden
outputs stable.  Downstream consumers are provably sign-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


def as_matrix(data) -> np.ndarray:
    """Validate and return a finite float64 2-D array."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Full factorization ``M = A @ D @ V.T``.

    ``A`` is m-by-m, ``V`` is n-by-n, and ``D`` is the m-by-n diagonal
    carrying ``singular_values`` (length min(m, n), nonincreasing).
    """

    A: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class TruncatedSvd:
    """Leading-``rank`` factors of an :class:`SvdResult`."""

    A_w: np.ndarray
    singular_values: np.ndarray
    V_w: np.ndarray
    rank: int


def svd(matrix) -> SvdResult:
    """Full singular value decomposition of a real matrix.

    Parameters
    ----------
    matrix:
        Any 2-D array-like with finite entries.

    Raises
    ------
    ConvergenceError
        If LAPACK's divide-and-conquer driver does not converge.
    """
    m_in = as_matrix(matrix)
    m, n = m_in.shape
    try:
        a_full, sigma, vt = np.linalg.svd(m_in, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD of a {m}x{n} matrix did not converge") from exc
    v_full = vt.T

    # Fix signs: dominant entry of each right vector nonnegative, mirrored
    # onto the paired left vector; unpaired basis columns fixed independently.
    k = min(m, n)
    v_signs = _dominant_signs(v_full)
    v_full *= v_signs
    a_full *= np.concatenate([v_signs[:k], _dominant_signs(a_full[:, k:])])
    return SvdResult(A=a_full, singular_values=sigma, V=v_full)


def _dominant_signs(columns: np.ndarray) -> np.ndarray:
    """-1.0 for each column whose largest-magnitude entry (the first of a tie) is negative, else 1.0."""
    if not columns.size:
        return np.ones(columns.shape[1])
    dominant = columns[np.argmax(np.abs(columns), axis=0), np.arange(columns.shape[1])]
    return np.where(dominant < 0, -1.0, 1.0)


def truncate(result: SvdResult, alpha: float) -> TruncatedSvd:
    """Keep the smallest leading rank whose energy share strictly exceeds ``alpha``.

    ``alpha`` in (0, 1) controls smoothing: the rank ``w`` is the least index
    with ``sum(sigma[:w]) / sum(sigma) > alpha``.  A zero spectrum keeps one
    factor.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    sigma = result.singular_values
    total = float(np.sum(sigma))
    if total == 0.0:
        w = 1
    else:
        ratios = np.cumsum(sigma) / total
        above = ratios > alpha
        w = int(np.argmax(above)) + 1 if above.any() else len(sigma)
    return TruncatedSvd(
        A_w=result.A[:, :w].copy(),
        singular_values=sigma[:w].copy(),
        V_w=result.V[:, :w].copy(),
        rank=w,
    )
