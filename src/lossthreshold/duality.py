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
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import EdgeDisorder, NishimoriCoupling
from .cluster import (
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
LOG_SQRT2 = 0.5 * math.log(2.0)
LOG2 = math.log(2.0)


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


def edge_factor_single(disorder: EdgeDisorder, K: float) -> tuple[float, float]:
    """Primal components (weight at parallel pair, weight at antiparallel pair)."""
    if disorder.diluted:
        return (1.0, 1.0)
    return (math.exp(K * disorder.sign), math.exp(-K * disorder.sign))


def edge_factor_twolayer(disorder: EdgeDisorder, K: float) -> tuple[float, float, float, float]:
    """Primal components of a two-layer slot, indexed by (primal, dual) parity."""
    if disorder.diluted:
        return (1.0, 1.0, 1.0, 1.0)
    t, ts = disorder.sign, disorder.dual_sign
    out = []
    for eta, eta_star in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        out.append(math.exp(K * (t * eta + ts * eta_star + t * ts * eta * eta_star)))
    return tuple(out)


def _dual_constants_single(K: float) -> tuple[float, float]:
    """(ln(sqrt2 cosh K), ln(sqrt2 sinh K)); the second is -inf at K = 0."""
    mag0 = math.log(SQRT2 * math.cosh(K))
    s = math.sinh(K)
    mag1 = math.log(SQRT2 * s) if s > 0.0 else -math.inf
    return mag0, mag1


def _dual_constants_twolayer(K: float) -> tuple[float, float]:
    """(ln A, ln S) with A = (e^{3K}+3e^{-K})/2, S = (e^{3K}-e^{-K})/2."""
    a = 0.5 * (math.exp(3.0 * K) + 3.0 * math.exp(-K))
    s = 0.5 * (math.exp(3.0 * K) - math.exp(-K))
    return math.log(a), (math.log(s) if s > 0.0 else -math.inf)


def log_dual_partition_batch(
    cluster: ClusterSpec,
    tau: np.ndarray,
    tau_star: np.ndarray | None,
    K: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(log magnitude, sign) of the dual sum for a batch of sign rows.

    The dual weight of a slot depends only on the parity of its edge spins and
    the slot's disorder: magnitude ln(sqrt2 cosh K) or ln(sqrt2 sinh K)
    (single layer), ln A or ln S (two layer), and the disorder signs enter
    only through an overall sign per term. Diluted slots contribute sqrt(2)
    (resp. 2) at even parity and kill odd-parity terms outright, so each
    configuration reduces to integer parity counts, which come from a handful
    of matrix products. The cost is per row: this serves sampled and single
    assignments. Exact averages go through `replica.class_table` instead,
    which counts the same cells once per cluster.
    """
    tau = np.asarray(tau, dtype=np.float64)
    n = tau.shape[0]
    nondil = (tau != 0.0).astype(np.float64)
    dil = 1.0 - nondil
    acc = SignedLogSum(n)

    if cluster.layers == 1:
        mag0, mag1 = _dual_constants_single(K)
        neg = (tau < 0.0).astype(np.float64)
        for P, _ in _iter_parity_blocks(cluster):
            odd = 0.5 * (1.0 - P)
            even = 1.0 - odd
            n_even = nondil @ even.T
            n_odd = nondil @ odd.T
            d_even = dil @ even.T
            d_bad = dil @ odd.T
            logmag = n_even * mag0 + d_even * LOG_SQRT2
            if math.isinf(mag1):
                logmag = np.where(n_odd > 0.5, -np.inf, logmag)
            else:
                logmag = logmag + n_odd * mag1
            logmag = np.where(d_bad > 0.5, -np.inf, logmag)
            sign = 1.0 - 2.0 * np.mod(neg @ odd.T, 2.0)
            acc.add(logmag, sign)
        return acc.result()

    tau_star = np.asarray(tau_star, dtype=np.float64)
    mag_a, mag_s = _dual_constants_twolayer(K)
    neg_p = (tau < 0.0).astype(np.float64)
    neg_d = (tau_star < 0.0).astype(np.float64)
    neg_c = (tau * tau_star < 0.0).astype(np.float64)
    for P, D in _iter_parity_blocks(cluster):
        pp = 0.5 * (1.0 - P)
        pd = 0.5 * (1.0 - D)
        q00 = (1.0 - pp) * (1.0 - pd)
        q01 = (1.0 - pp) * pd
        q10 = pp * (1.0 - pd)
        q11 = pp * pd
        n00 = nondil @ q00.T
        n_s = nondil @ (q01 + q10 + q11).T
        d00 = dil @ q00.T
        d_bad = dil @ (q01 + q10 + q11).T
        logmag = n00 * mag_a + d00 * LOG2
        if math.isinf(mag_s):
            logmag = np.where(n_s > 0.5, -np.inf, logmag)
        else:
            logmag = logmag + n_s * mag_s
        logmag = np.where(d_bad > 0.5, -np.inf, logmag)
        flips = neg_d @ q01.T + neg_p @ q10.T + neg_c @ q11.T
        sign = 1.0 - 2.0 * np.mod(flips, 2.0)
        acc.add(logmag, sign)
    return acc.result()


def dual_cluster_partition(
    cluster: ClusterSpec,
    disorder: DisorderAssignment,
    K: NishimoriCoupling | float,
) -> ClusterFactor:
    """ln x_0* of the cluster: same spin sum as the primal factor, dual slot weights.

    Raises NonPositiveDual when the signed sum is not strictly positive,
    which happens for some exotic geometries at strong coupling; registered
    clusters stay positive over the whole supported range.
    """
    if len(disorder) != cluster.slot_count:
        raise ShapeMismatch(
            f"cluster {cluster.name!r} has {cluster.slot_count} slots, got {len(disorder)} disorder entries"
        )
    kval = _coupling(K)
    tau, tau_star = signs_array(disorder, cluster.layers)
    logmag, sign = log_dual_partition_batch(
        cluster, tau[None, :], None if tau_star is None else tau_star[None, :], kval
    )
    if int(sign[0]) <= 0:
        raise NonPositiveDual(
            f"dual sum of cluster {cluster.name!r} is not positive for {tuple(int(t) for t in tau)} at K={kval}"
        )
    value = float(logmag[0])
    if not np.isfinite(value):
        raise NonFinite(f"dual cluster partition of {cluster.name!r} is not finite (K={kval})")
    return ClusterFactor(value, 1)


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
