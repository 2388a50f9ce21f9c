"""Preference aggregation: latent-space resolution and classic baselines.

The resolver builds a residents-by-items preference matrix for the
conflicting group, factorizes it, and truncates the factorization to the
leading components that carry an ``alpha`` share of the spectrum.  The
requested items' rows of the truncated item-feature matrix are averaged
into a latent request centroid; projecting the centroid back through the
resident factors yields a per-resident consensus score vector.  Items whose
preference columns sit closest to that consensus (in Euclidean distance)
are the resolution choices, because they are the candidates the whole group
is most likely to accept.

Baselines rank items by their column mean (avg), minimum (lm, least
misery), or maximum (mp, most pleasure); use-first simply grants the
earliest requester's value, "earliest" measured back from the start of the
conflict window, across midnight too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import RunConfig
from .errors import DataError
from .intervals import lead_time
from .linalg import TruncatedSvd, svd, truncate
from .model import ConflictSituation, ServiceEvent
from .preferences import History, PreferenceMatrix, WindowEvents, build_preference_table, window_events

SVD_STRATEGY = "svd"

# Latent request coordinates are quantized to this many decimals before the
# projection step; published reference outputs use 2-decimal centroids.
CENTROID_DECIMALS = 2


@dataclass(frozen=True)
class ResolutionDiagnostics:
    table: PreferenceMatrix
    matrix: PreferenceMatrix
    singular_values: np.ndarray | None = None
    rank: int | None = None
    centroid: np.ndarray | None = None
    consensus: np.ndarray | None = None


@dataclass(frozen=True)
class Resolution:
    """Ranked candidates for one conflict situation.

    ``ranked`` pairs each item with its ranking figure: the consensus
    distance (ascending) for the svd strategy, the aggregate score
    (descending) for avg/lm/mp, and the requested start second for
    use-first.  ``chosen`` holds the leading ``k`` items.
    """

    strategy: str
    ranked: tuple[tuple[str, float], ...]
    chosen: tuple[str, ...]
    diagnostics: ResolutionDiagnostics


def build_item_set(table: PreferenceMatrix, situation: ConflictSituation, top_n: int) -> tuple[str, ...]:
    """Candidate items: each member's ``top_n`` scored items plus all requested values.

    A member's scored items are the positive cells of their row, highest first, ties by label.
    Ordered lexicographically; the order fixes the matrix columns.
    """
    if top_n < 1:
        raise ValueError("top_n must be positive")
    items = {request.value.item_label() for request in situation.requests}
    for row in table.scores.tolist():
        scored = sorted((-score, item) for item, score in zip(table.items, row) if score > 0)
        items.update(item for _, item in scored[:top_n])
    return tuple(sorted(items))


def build_preference_matrix(table: PreferenceMatrix, item_set: Sequence[str]) -> PreferenceMatrix:
    """The table's rows over the candidate columns; an item the table lacks scores 0."""
    if not item_set:
        raise ValueError("item set must be non-empty")
    column = {item: j for j, item in enumerate(table.items)}
    # Index -1 picks the appended zero column: the score of an item the table lacks.
    padded = np.hstack([table.scores, np.zeros((len(table.residents), 1))])
    scores = np.take(padded, [column.get(item, -1) for item in item_set], axis=1)
    return PreferenceMatrix(residents=table.residents, items=tuple(item_set), scores=scores)


def request_centroid(
    tsvd: TruncatedSvd,
    item_set: Sequence[str],
    situation: ConflictSituation,
) -> np.ndarray:
    """Mean of the requested items' rows of the truncated item-feature matrix."""
    items = list(item_set)
    rows = []
    for request in situation.requests:
        label = request.value.item_label()
        try:
            idx = items.index(label)
        except ValueError:
            raise DataError(f"requested item {label!r} missing from the item set") from None
        rows.append(tsvd.V_w[idx])
    return np.mean(rows, axis=0)


def consensus_scores(tsvd: TruncatedSvd, centroid: np.ndarray) -> np.ndarray:
    """Project a latent centroid back to per-resident score space."""
    centroid = np.asarray(centroid, dtype=np.float64)
    if centroid.shape != (tsvd.rank,):
        raise ValueError(f"centroid has shape {centroid.shape}, expected ({tsvd.rank},)")
    return tsvd.A_w @ (tsvd.singular_values * centroid)


def consensus_distance(matrix: PreferenceMatrix, item: str, consensus: np.ndarray) -> float:
    """Euclidean distance between an item's score column and the consensus vector."""
    column = matrix.column(item)
    if consensus.shape != column.shape:
        raise ValueError(f"consensus has shape {consensus.shape}, expected {column.shape}")
    return float(np.linalg.norm(column - consensus))


def prepare(situation: ConflictSituation, events: WindowEvents, cfg: RunConfig) -> ResolutionDiagnostics:
    """Preference table -> item set -> matrix: the inputs every strategy ranks.

    ``events`` are the situation's :func:`~homearbiter.preferences.window_events`.
    """
    table = build_preference_table(events, situation)
    matrix = build_preference_matrix(table, build_item_set(table, situation, cfg.top_n))
    return ResolutionDiagnostics(table=table, matrix=matrix)


def _rank_by_consensus(prepared: ResolutionDiagnostics, situation: ConflictSituation, cfg: RunConfig):
    """SVD, truncation at ``cfg.alpha``, quantized request centroid, then items by consensus distance."""
    matrix = prepared.matrix
    factors = svd(matrix.scores)
    tsvd = truncate(factors, cfg.alpha)
    centroid = np.round(request_centroid(tsvd, matrix.items, situation), CENTROID_DECIMALS)
    consensus = consensus_scores(tsvd, centroid)
    distances = ((item, consensus_distance(matrix, item, consensus)) for item in matrix.items)
    ranked = tuple(sorted(distances, key=lambda pair: (pair[1], pair[0])))
    return ranked, replace(prepared, singular_values=factors.singular_values, rank=tsvd.rank,
                           centroid=centroid, consensus=consensus)


def _rank_descending(matrix: PreferenceMatrix, fold) -> tuple[tuple[str, float], ...]:
    pairs = [(item, float(fold(matrix.scores[:, j]))) for j, item in enumerate(matrix.items)]
    return tuple(sorted(pairs, key=lambda pair: (-pair[1], pair[0])))


def rank_by_average(matrix: PreferenceMatrix) -> tuple[tuple[str, float], ...]:
    return _rank_descending(matrix, np.mean)


def rank_by_least_misery(matrix: PreferenceMatrix) -> tuple[tuple[str, float], ...]:
    return _rank_descending(matrix, np.min)


def rank_by_most_pleasure(matrix: PreferenceMatrix) -> tuple[tuple[str, float], ...]:
    return _rank_descending(matrix, np.max)


def _rank_use_first(prepared: ResolutionDiagnostics, situation: ConflictSituation, cfg: RunConfig):
    """Only the value of whoever asked earliest before the window, across midnight too (ties: smallest resident id)."""
    winner = min(situation.requests, key=lambda r: (-lead_time(r.interval.start, situation.window.start), r.resident))
    return ((winner.value.item_label(), float(winner.interval.start)),), prepared


# Strategy label -> ranker(prepared, situation, cfg) -> (ranked, diagnostics).
# The lambdas look the baselines up at call time, so wrappers set on this
# module see every call.
_RANKERS = {
    SVD_STRATEGY: _rank_by_consensus,
    "avg": lambda prepared, situation, cfg: (rank_by_average(prepared.matrix), prepared),
    "lm": lambda prepared, situation, cfg: (rank_by_least_misery(prepared.matrix), prepared),
    "mp": lambda prepared, situation, cfg: (rank_by_most_pleasure(prepared.matrix), prepared),
    "use-first": _rank_use_first,
}
STRATEGIES = tuple(_RANKERS)


def rank_prepared(prepared: ResolutionDiagnostics, situation: ConflictSituation, cfg: RunConfig,
                  strategy: str) -> Resolution:
    """Rank one prepared situation with ``strategy``; the first ``cfg.k`` items are chosen."""
    if strategy not in _RANKERS:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}")
    ranked, diagnostics = _RANKERS[strategy](prepared, situation, cfg)
    return Resolution(strategy, ranked, tuple(item for item, _ in ranked[: cfg.k]), diagnostics)


def resolve(situation: ConflictSituation, history: History | Sequence[ServiceEvent], cfg: RunConfig,
            strategy: str = SVD_STRATEGY) -> Resolution:
    """Resolve one situation with any strategy in :data:`STRATEGIES` (default: latent consensus).

    A plain event sequence is indexed on the spot; to resolve many
    situations, index it once as a :class:`~homearbiter.preferences.History`
    and pass that.  Ranked items tie-break lexicographically.
    """
    events = window_events(history, situation, cfg.lookback_days)
    return rank_prepared(prepare(situation, events, cfg), situation, cfg, strategy)
