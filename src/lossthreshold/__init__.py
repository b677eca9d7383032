"""Optimal error thresholds of surface codes with qubit loss.

Thresholds p_c(q) are located as roots of the duality gap of diluted
spin-glass models on the Nishimori line: a random-sign Ising model for the
uncorrelated X/Z channel and a two-layer (eight-vertex) model for the
depolarizing channel, evaluated exactly on small clusters.
"""

from .model import (
    CHANNEL_KINDS,
    DEPOLARIZING,
    UNCORRELATED,
    ChannelSpec,
    DomainError,
    EdgeDisorder,
)
from .cluster import (
    ClusterFileError,
    ClusterSpec,
    NonFinite,
    ShapeMismatch,
    Slot,
    UnknownCluster,
    Vertex,
    builtin_cluster,
    builtin_names,
    calibration_status,
    cluster_from_dict,
    cluster_partition,
    cluster_to_dict,
    gauge_orbit_check,
    load_cluster_file,
)
from .duality import (
    NonPositiveDual,
    dual_cluster_partition,
    dual_edge_factor,
    edge_factor,
    pure_self_dual_point,
)
from .replica import (
    GapEvaluation,
    TooManyTerms,
    gap,
    gap_closed_form_single,
)
from .solver import (
    NoSignChange,
    ThresholdResult,
    solve_threshold,
    sweep,
)
from .reference import reference_p_c0, reference_thresholds

__version__ = "0.1.0"
