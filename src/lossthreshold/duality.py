"""Binary Fourier (Hadamard) transforms of edge Boltzmann factors and dual cluster factors.

An edge Boltzmann factor has one component per spin-pair parity: (x_0, x_1)
for a single-layer edge, (x_00, x_01, x_10, x_11) for a two-layer slot indexed
by (primal parity, dual-layer parity). Its dual is the normalized Hadamard
transform, x_0* = (x_0 + x_1)/sqrt(2) on one layer and the tensor square of
that with overall normalization 1/2 on two layers.

The dual cluster factor x_0* is the same internal-spin sum as the primal one,
on the same graph, but with every slot weight replaced by its dual components.
Dual components can be negative, so the sum is accumulated in sign-magnitude
log form and must come out strictly positive to have a logarithm.

Both sums are evaluated from one table: for each (disorder state, parity
cell) of a slot, the log of its edge factor, the log magnitude of its dual
component, and whether that component is zero or negative. These four add up
over the slots of a configuration. The exact class path reads the table
through its slot-count histograms (`replica`); sampled and single
assignments go through `log_factor_batch`, which takes rows of disorder
state indices (for Monte Carlo, the distinct rows of a chunk). Apart from
the closed-form oracle `replica.gap_closed_form_single`, the dual weights
have no other form; `cluster.cluster_partition` keeps a direct-energy
primal sum as a reference.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import EdgeDisorder, NishimoriCoupling
from .cluster import (
    CONFIG_BLOCK,
    ClusterFactor,
    ClusterSpec,
    DisorderAssignment,
    NonFinite,
    ShapeMismatch,
    SignedLogSum,
    _coupling,
    _iter_parity_blocks,
    signs_array,
)

SQRT2 = math.sqrt(2.0)


class NonPositiveDual(ArithmeticError):
    """The dual cluster sum came out <= 0, so its log does not exist."""


def dual_edge_factor_single(x) -> tuple[float, float]:
    """Hadamard dual of a single-layer edge factor: ((x0+x1)/sqrt2, (x0-x1)/sqrt2)."""
    x0, x1 = x
    return ((x0 + x1) / SQRT2, (x0 - x1) / SQRT2)


def dual_edge_factor_twolayer(x) -> tuple[float, float, float, float]:
    """Four-point Hadamard dual of a two-layer slot factor.

    x*_{ab} = (1/2) sum over eta, eta* in {+1,-1} of eta^a (eta*)^b x_{eta eta*},
    with components ordered (x_00, x_01, x_10, x_11). Applying it twice is the
    identity.
    """
    a, b, c, d = x
    return (
        0.5 * (a + b + c + d),
        0.5 * (a - b + c - d),
        0.5 * (a + b - c - d),
        0.5 * (a - b - c + d),
    )


def edge_factor_single(disorder: EdgeDisorder, K):
    """Primal components (weight at parallel pair, weight at antiparallel pair).

    K is one coupling or an array of them; each component has its shape. A
    diluted edge has sign 0 and so weight exp(0) = 1 at either parity.
    """
    return (np.exp(K * disorder.sign), np.exp(-K * disorder.sign))


def edge_factor_twolayer(disorder: EdgeDisorder, K):
    """Primal components of a two-layer slot, indexed by (primal, dual) parity.

    K is one coupling or an array of them, as in `edge_factor_single`.
    """
    t, ts = disorder.sign, disorder.dual_sign
    return tuple(
        np.exp(K * (t * eta + ts * eta_star + t * ts * eta * eta_star))
        for eta, eta_star in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    )


def _slot_cells(P: np.ndarray, D: np.ndarray | None) -> np.ndarray:
    """Cell of every slot in a block of parity rows, in edge-factor component order.

    The cell is 1 for an odd primal edge and 0 for an even one; on two
    layers it is twice that plus 1 for an odd dual edge.
    """
    cell = (P < 0.0).astype(np.intp)
    return cell if D is None else 2 * cell + (D < 0.0)


def _log_weight_tables(layers: int, support, K) -> np.ndarray:
    """Per (disorder state, cell) terms that add up over the slots of a configuration.

    Shape (4, states, cells, *K.shape): log primal weight, log |dual weight|,
    1 where the dual weight is zero and 1 where it is negative, built from
    the edge factors and their Hadamard duals, for one coupling K or an
    array of them. A configuration's dual term vanishes when any of its
    slots has a zero dual weight (whose log is stored as 0), and its sign is
    the parity of its negative ones.
    """
    if layers == 1:
        factor, dual = edge_factor_single, dual_edge_factor_single
    else:
        factor, dual = edge_factor_twolayer, dual_edge_factor_twolayer
    primal = np.array([factor(d, K) for d in support], dtype=np.float64)
    dual_w = np.stack(dual(primal.swapaxes(0, 1)), axis=1)
    tables = np.empty((4, *primal.shape))
    tables[0] = np.log(primal)
    tables[2] = dual_w == 0.0
    tables[1] = np.log(np.abs(dual_w) + tables[2])
    tables[3] = dual_w < 0.0
    return tables


def _dual_terms(log_dual: np.ndarray, zeros: np.ndarray, negatives: np.ndarray):
    """Log magnitude and sign of dual terms from their summed table entries.

    The summed counts are whole numbers, so the sign is read from the parity
    of their int32 cast, which holds any count of slots.
    """
    parity = negatives.astype(np.int32) & 1
    return np.where(zeros > 0.0, -np.inf, log_dual), (1 - 2 * parity).astype(np.float64)


def log_factor_batch(
    cluster: ClusterSpec,
    support,
    idx: np.ndarray,
    K: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln x_0, ln |x_0*|, sign of x_0*) for rows of per-slot disorder states.

    idx has shape (n, S) and indexes `support`, the disorder states. Rows
    are one-hot encoded as column s*m + state, so one matrix product per
    block of configurations against the per-slot table
    W[s*m + a, (k, c)] = T[k, a, cell of slot s in configuration c]
    gives all four summed terms of `_log_weight_tables`. The cost is per
    row, so callers pass each distinct row once: Monte Carlo sends the
    distinct rows of a chunk with their counts kept aside, and exact
    averages count the same cells once per cluster (`replica.class_table`).
    """
    tables = _log_weight_tables(cluster.layers, support, K)
    n, S = idx.shape
    m = len(support)
    onehot = np.zeros((n, S * m))
    onehot[np.arange(n)[:, None], np.arange(S) * m + idx] = 1.0
    # W holds 4m numbers per (configuration, slot); taking configurations in
    # steps keeps it within CONFIG_BLOCK * S of them on large clusters
    step = max(1, CONFIG_BLOCK // (4 * m))
    primal, dual = SignedLogSum(n), SignedLogSum(n)
    for P, D in _iter_parity_blocks(cluster):
        cells = _slot_cells(P, D)
        for lo in range(0, len(cells), step):
            W = tables[:, :, cells[lo : lo + step]].transpose(3, 1, 0, 2).reshape(S * m, -1)
            log_p, log_d, zeros, negatives = np.split(onehot @ W, 4, axis=1)
            primal.add(log_p)
            dual.add(*_dual_terms(log_d, zeros, negatives))
    return primal.result()[0], *dual.result()


def _require_positive_dual(cluster: ClusterSpec, bad: np.ndarray, states: np.ndarray, support, K: float):
    """Raise NonPositiveDual naming the signs of the first row of `states` flagged in `bad`."""
    if np.any(bad):
        signs = [support[s].sign for s in states[int(np.argmax(bad))]]
        raise NonPositiveDual(
            f"dual sum of cluster {cluster.name!r} is not positive for signs {signs} at K={K}"
        )


def dual_cluster_partition(
    cluster: ClusterSpec,
    disorder: DisorderAssignment,
    K: NishimoriCoupling | float,
) -> ClusterFactor:
    """ln x_0* of the cluster: same spin sum as the primal factor, dual slot weights.

    The assignment goes through `log_factor_batch` as one row whose support
    is the assignment itself. Raises NonPositiveDual when the signed sum is
    not strictly positive, which happens for some exotic geometries at
    strong coupling; registered clusters stay positive over the whole
    supported range.
    """
    if len(disorder) != cluster.slot_count:
        raise ShapeMismatch(
            f"cluster {cluster.name!r} has {cluster.slot_count} slots, got {len(disorder)} disorder entries"
        )
    signs_array(disorder, cluster.layers)  # raises ShapeMismatch on the wrong layer count
    kval = _coupling(K)
    if not math.isfinite(kval):
        raise NonFinite(f"dual cluster partition of {cluster.name!r} is not finite (K={kval})")
    states = np.arange(cluster.slot_count)[None, :]
    _, logmag, sign = log_factor_batch(cluster, disorder, states, kval)
    _require_positive_dual(cluster, sign <= 0, states, disorder, kval)
    return ClusterFactor(float(logmag[0]))


@lru_cache(maxsize=1)
def pure_self_dual_point() -> float:
    """Coupling K_c with exp(-2 K_c) = tanh K_c, by bisection to 1e-12.

    This is the clean-system self-dual point, K_c = ln(1 + sqrt2)/2; it anchors
    the numerics because the threshold condition must degenerate to it when
    disorder is switched off.
    """
    f = lambda k: math.exp(-2.0 * k) - math.tanh(k)
    lo, hi = 0.1, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
