"""Conflict detection and resolution for IoT services in shared homes."""

from .config import RunConfig
from .errors import ArbiterError, ConvergenceError, DataError, ParseError
from .intervals import TimeOfDayInterval
from .model import AttributeValue, ConflictSituation, ServiceEvent, ServiceRequest
from .detect import detect_conflicts
from .preferences import History, PreferenceMatrix, build_preference_table, temporal_proximity, window_events
from .linalg import SvdResult, TruncatedSvd, svd, truncate
from .aggregate import (
    Resolution,
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
from .evaluate import (
    EvaluationConfig,
    MetricReport,
    adopted_items,
    average_satisfaction,
    harmonic_satisfaction,
    run_experiment,
    satisfaction_gain,
)
from .ingest import (
    BinningSpec,
    EventRows,
    apply_bins,
    augment_channels,
    compute_bins,
    load_requests,
    load_store,
    parse_event_log,
    stabilize,
    write_store,
)

__version__ = "0.1.0"
