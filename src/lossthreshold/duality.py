"""Binary Fourier (Hadamard) transforms of edge Boltzmann factors and dual cluster factors.

An edge Boltzmann factor has one component per spin-pair parity: (x_0, x_1)
for a single-layer edge, (x_00, x_01, x_10, x_11) for a two-layer slot indexed
by (primal parity, dual-layer parity). Its dual is the normalized Hadamard
transform, x_0* = (x_0 + x_1)/sqrt(2) on one layer and the tensor square of
that with overall normalization 1/2 on two layers.

The dual cluster factor x_0* is the same internal-spin sum as the primal one,
on the same graph, but with every slot weight replaced by its dual components.
Dual components can be negative, so the sum must come out strictly positive
to have a logarithm, and larger than its rounding: where the terms cancel
below double precision, rounding decides the sign, and the sum is refused.

Both sums come from one kernel in two steps. A slot's primal weight is
exp(K e), with e an integer energy (`_cell_energies`), and its dual one of
three magnitudes a, b and c, with a sign free of K. The counts step,
`count_rows`, sums per (configuration, row of disorder states) the energy,
the slots in cell 0 that are not lost, and the dual sign: integers, free
of K, compiled once per cluster by `replica.class_table`. It reads each
slot's parity cell in each configuration from `cluster.slot_cells`. The
values step, `log_factor_batch`, turns them into ln x_0 and ln x_0* at an
array of couplings. `cluster.cluster_partition` keeps a direct-energy primal sum as
a reference, and `replica.gap_closed_form_single` a closed-form gap.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import LAYER_SUPPORT, EdgeDisorder
from .cluster import (
    CONFIG_BLOCK,
    ClusterSpec,
    DisorderAssignment,
    NonFinite,
    ShapeMismatch,
    signs_array,
    slot_cells,
)

SQRT2 = math.sqrt(2.0)
EPS = float(np.finfo(np.float64).eps)
# a dual sum whose rounding bound (see log_factor_batch) exceeds this
# fraction of its value is refused rather than logged
ROUNDING_LIMIT = 1e-2


class NonPositiveDual(ArithmeticError):
    """The dual cluster sum came out <= 0, so its log does not exist."""


class UnsignedDual(NonPositiveDual):
    """The dual cluster sum cancels below double precision, so rounding decides its sign."""


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


def _cell_energies(disorder: EdgeDisorder, layers: int) -> tuple[int, ...]:
    """Exponent over K of each primal component of a slot, in component order.

    On one layer: t at a parallel pair, -t at an antiparallel one. On two:
    t*eta + t*'eta* + t*t*'eta*eta* for (eta, eta*) = (+,+), (+,-), (-,+), (-,-).
    """
    t = disorder.sign
    if layers == 1:
        return (t, -t)
    ts = disorder.dual_sign
    return tuple(
        t * eta + ts * eta_star + t * ts * eta * eta_star
        for eta, eta_star in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    )


def edge_factor_single(disorder: EdgeDisorder, K):
    """Primal components (weight at parallel pair, weight at antiparallel pair).

    K is one coupling or an array of them; each component has its shape. A
    diluted edge has sign 0 and so weight exp(0) = 1 at either parity.
    """
    return tuple(np.exp(K * e) for e in _cell_energies(disorder, 1))


def edge_factor_twolayer(disorder: EdgeDisorder, K):
    """Primal components of a two-layer slot, indexed by (primal, dual) parity.

    K is one coupling or an array of them, as in `edge_factor_single`.
    """
    return tuple(np.exp(K * e) for e in _cell_energies(disorder, 2))


def _flag_base(slots: int) -> int:
    """The power of two above `slots` that scales the zero count in a flag column."""
    return 1 << slots.bit_length()


_FACTOR_AND_DUAL = {1: (edge_factor_single, dual_edge_factor_single),
                    2: (edge_factor_twolayer, dual_edge_factor_twolayer)}
# a support holds the clean state first and the lost one last; a lost slot's
# factor is exp(K * 0) = 1 at every K, so its dual is one number
_LOST_DUAL = {n: float(dual(factor(LAYER_SUPPORT[n][-1], 0.0))[0])
              for n, (factor, dual) in _FACTOR_AND_DUAL.items()}


def _dual_magnitudes(layers: int, K: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(a, b, c) at a 1-D array K of couplings: a clean slot's dual in cells 0 and 1, a lost slot's in cell 0.

    For K > 0 every state that is not lost has dual a in cell 0 and ±b in
    every other cell, with the signs `_state_columns` records; a lost
    slot's is c in cell 0 and 0 elsewhere.
    """
    factor, dual = _FACTOR_AND_DUAL[layers]
    a, b, *_ = dual(factor(LAYER_SUPPORT[layers][0], K))
    return a, b, _LOST_DUAL[layers]


def _state_columns(layers: int, slots: int) -> np.ndarray:
    """(3, states, cells) float32 integers of a slot in each (state of `model.LAYER_SUPPORT[layers]`, cell).

    The energy of `_cell_energies`; 1 in cell 0 of a state that is not
    lost; and a flag (see `_dual_signs`), 1 where the dual component is
    negative and `_flag_base(slots)` where it is zero, with the signs of the
    Hadamard dual at K = 1, the same at every K > 0.
    """
    support = LAYER_SUPPORT[layers]
    factor, dual = _FACTOR_AND_DUAL[layers]
    energy = np.array([_cell_energies(d, layers) for d in support])
    sign = np.sign([dual(factor(d, 1.0)) for d in support])
    cell0 = np.outer([not d.diluted for d in support], np.arange(2 * layers) == 0)
    return np.stack([energy, cell0, (sign < 0) + _flag_base(slots) * (sign == 0)]).astype(np.float32)


@lru_cache(maxsize=16)
def _count_table(cluster: ClusterSpec, lo: int, hi: int) -> np.ndarray:
    """The float32 count table of configurations [lo, hi): row k * (hi - lo) + c, column s*m + a
    holds column k of `_state_columns` for state a in the cell of slot s in configuration lo + c."""
    columns = _state_columns(cluster.layers, cluster.slot_count).transpose(0, 2, 1)
    table = columns[:, slot_cells(cluster, lo, hi)].reshape(3 * (hi - lo), -1)
    table.flags.writeable = False
    return table


def _dual_signs(flag: np.ndarray, base: int) -> np.ndarray:
    """The sign of each dual term, 0 where it has a zero weight, from its summed flag.

    A summed flag is (negative slots) + base * (zero slots), with base a
    power of two above the slot count, so the term is zero when the flag
    reaches base; otherwise its sign is the parity of the flag. The flags
    are whole numbers, so one table lookup on their cast gives every sign.
    """
    lookup = (1 - 2 * (np.arange(base + 1) & 1)).astype(np.int8)
    lookup[base] = 0
    entry = flag.astype(np.intp)
    np.minimum(entry, base, out=entry)
    return lookup.take(entry)


def count_block(cluster: ClusterSpec) -> int:
    """Configurations per count table of `count_rows`: all of them, up to CONFIG_BLOCK // 3m.

    A table holds 3m numbers per (configuration, slot), so one holds at most
    CONFIG_BLOCK * S of them.
    """
    return min(cluster.config_count, max(1, CONFIG_BLOCK // (3 * len(LAYER_SUPPORT[cluster.layers]))))


def count_rows(cluster: ClusterSpec, idx: np.ndarray):
    """The counts step: the energy, n and dual sign of every (configuration, row) of disorder state indices.

    idx has shape (rows, S), any integer dtype, and entries in [0, m), the
    states of `model.LAYER_SUPPORT[cluster.layers]`; anything else raises
    ValueError, here rather than when the counts are read. The result
    yields (3, configurations, rows) float32 blocks in configuration order:
    per (configuration, row) the sum of the row's slot energies, its slots
    in cell 0 that are not lost, and the sign of its dual term, 0 where a
    lost slot sits outside cell 0. Each block is the product of a count
    table with the rows' one-hot encoding (a 1 in row s*m + state for each
    slot s): sums of at most S small integers, exact in float32 in any
    order, so a row's counts depend on neither its batch nor the BLAS.
    """
    (n, S), m = idx.shape, len(LAYER_SUPPORT[cluster.layers])
    if idx.size and not 0 <= idx.min() <= idx.max() < m:
        raise ValueError(f"disorder state indices must lie in [0, {m}), got {idx.min()} to {idx.max()}")
    onehot = np.empty((S, m, n), dtype=np.float32)
    np.equal(np.ascontiguousarray(idx.T)[:, None, :], np.arange(m).astype(idx.dtype)[:, None], out=onehot)
    # only a cluster whose configurations fit in one table keeps it cached
    step, total = count_block(cluster), cluster.config_count
    table = _count_table if step == total else _count_table.__wrapped__

    def blocks():
        for lo in range(0, total, step):
            counts = (table(cluster, lo, min(lo + step, total)) @ onehot.reshape(S * m, n)).reshape(3, -1, n)
            counts[2] = _dual_signs(counts[2], _flag_base(S))
            yield counts

    return blocks()


def _configuration_sum(terms: np.ndarray, carry: np.ndarray | None = None) -> np.ndarray:
    """carry, then (points, configurations, rows) terms, summed over configurations in configuration order."""
    if carry is not None:
        terms = np.concatenate([carry[:, None], terms], axis=1)
    # numpy adds many rows configuration by configuration, but one row pairwise
    return np.add.accumulate(terms, axis=1)[:, -1] if terms.shape[2] == 1 else terms.sum(axis=1)


def log_factor_batch(cluster: ClusterSpec, blocks, K) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The values step: (ln x_0, ln |x_0*|, sign of x_0*, rounding bound of x_0*) per point and row.

    `blocks` holds the (3, configurations, rows) energy, n and sign of
    `count_rows`, or of a table compiled from it, in configuration order;
    K is a 1-D array of couplings at least 0, one per point (anything else
    raises ValueError). Each output is (points, rows). With top a row's
    largest energy, n_0 = S - ℓ its n in configuration 0 (every slot in
    cell 0) and `_dual_magnitudes` a, b, c:

        ln x_0  = K top + ln sum_c exp(K (E_c - top)),
        ln x_0* = n_0 ln a + ℓ ln c + ln sum_c sign_c exp((n_c - n_0)(ln a - ln b)).

    Each sum carries from block to block, and the primal is rescaled where a
    block raises top. Configuration 0, first, has the largest dual term, 1,
    so the dual needs no max. Both sums run in configuration order, so a
    row and a point have the same bits whatever shares the call. The
    rounding bound, configurations * eps * sum |terms| / |sum terms|,
    bounds the relative error of x_0*; where it nears 1, rounding decides
    the sign.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 1 or not (K >= 0.0).all():
        raise ValueError(f"K must be a 1-D array of couplings at least 0, got {K!r}")
    a, b, c = _dual_magnitudes(cluster.layers, K)
    with np.errstate(divide="ignore"):
        log_a, log_b, log_c = np.log(a), np.log(b), math.log(c)
    # b is 0 at K = 0 (and where e^{3K} - e^{-K} rounds to 0); the cap keeps
    # the terms of n_c = n_0 at exp(0) = 1 and sends every other one to 0
    S = cluster.slot_count
    gap = np.minimum(log_a - log_b, np.finfo(np.float64).max / S)
    top = n0 = primal = total = magnitude = None
    for energy, cell0, sign in blocks:
        if top is None:
            top, n0 = energy.max(axis=0), cell0[0]
        else:
            lift = np.maximum(top, energy.max(axis=0))
            primal *= np.exp(K[:, None] * (top - lift))
            top = lift
        terms = (energy - top) * K[:, None, None]
        np.exp(terms, out=terms)
        primal = _configuration_sum(terms, primal)
        terms = (cell0 - n0) * gap[:, None, None]
        np.exp(terms, out=terms)
        terms *= sign
        total = _configuration_sum(terms, total)
        magnitude = _configuration_sum(np.abs(terms, out=terms), magnitude)
    logp = K[:, None] * top + np.log(primal)
    size = np.abs(total)
    with np.errstate(divide="ignore"):
        # n_0 ln a + ℓ ln c = n_0 (ln a - ln c) + S ln c
        logd = n0 * (log_a - log_c)[:, None] + (S * log_c + np.log(size))
        rounding = cluster.config_count * EPS * magnitude / size
    return logp, logd, np.sign(total).astype(np.int64), rounding


def _require_positive_dual(cluster: ClusterSpec, bad: np.ndarray, states: np.ndarray, K: float, rounding=None):
    """Raise NonPositiveDual naming the signs of the first row of `states` flagged in `bad`.

    With `rounding` (the bounds of `log_factor_batch`), a row whose bound
    exceeds ROUNDING_LIMIT is flagged too, and raises UnsignedDual.
    """
    unsigned = np.zeros_like(bad) if rounding is None else rounding > ROUNDING_LIMIT
    flagged = bad | unsigned
    if np.any(flagged):
        i = int(np.argmax(flagged))
        signs = [LAYER_SUPPORT[cluster.layers][s].sign for s in states[i]]
        if unsigned[i]:
            raise UnsignedDual(
                f"dual sum of cluster {cluster.name!r} cancels below double precision for "
                f"signs {signs} at K={K}: its rounding bound is {rounding[i]:.3g} of its value"
            )
        raise NonPositiveDual(
            f"dual sum of cluster {cluster.name!r} is not positive for signs {signs} at K={K}"
        )


def dual_cluster_partition(cluster: ClusterSpec, disorder: DisorderAssignment, K: float) -> float:
    """ln x_0* of the cluster: same spin sum as the primal factor, dual slot weights.

    The assignment goes through both steps of the kernel as one row of
    indices into the support of its layer count (`model.LAYER_SUPPORT`).
    K must be finite (NonFinite) and at least 0 (ValueError). Raises
    NonPositiveDual when the signed sum is not strictly positive, and its
    subclass UnsignedDual when the sum cancels so far that rounding decides
    its sign (the bound of `log_factor_batch` over ROUNDING_LIMIT). Both
    happen at strong coupling: for some custom clusters, and for some
    classes of registered B at p = 1e-9 (ROADMAP item 1, step (b), is the
    mend). The solver never asks below `solver.BRACKET_LO` = 1e-6.
    """
    if len(disorder) != cluster.slot_count:
        raise ShapeMismatch(
            f"cluster {cluster.name!r} has {cluster.slot_count} slots, got {len(disorder)} disorder entries"
        )
    signs_array(disorder, cluster.layers)  # raises ShapeMismatch on the wrong layer count
    if not math.isfinite(K):
        raise NonFinite(f"dual cluster partition of {cluster.name!r} is not finite (K={K})")
    states = np.array([[LAYER_SUPPORT[cluster.layers].index(d) for d in disorder]])
    _, logmag, sign, rounding = log_factor_batch(cluster, count_rows(cluster, states), [K])
    _require_positive_dual(cluster, sign[0] <= 0, states, K, rounding[0])
    return float(logmag[0, 0])


def pure_self_dual_point() -> float:
    """Coupling K_c with exp(-2 K_c) = tanh K_c: the clean-system self-dual point.

    Its closed form is K_c = ln(1 + sqrt2)/2; it anchors the numerics
    because the threshold condition must degenerate to it when disorder is
    switched off.
    """
    return 0.5 * math.log1p(SQRT2)
