"""Binary Fourier (Hadamard) transforms of edge Boltzmann factors and dual cluster factors.

An edge Boltzmann factor has one component per spin-pair parity: (x_0, x_1)
for a single-layer edge, (x_00, x_01, x_10, x_11) for a two-layer slot indexed
by (primal parity, dual-layer parity). Its dual is the normalized Hadamard
transform, x_0* = (x_0 + x_1)/sqrt(2) on one layer and the tensor square of
that with overall normalization 1/2 on two layers.

The dual cluster factor x_0* is the same internal-spin sum as the primal one,
on the same graph, but with every slot weight replaced by its dual components.
Dual components can be negative, so the sum is accumulated in sign-magnitude
log form and must come out strictly positive to have a logarithm. It must
also be larger than its rounding: where the terms cancel below double
precision, rounding decides the sign, and the sum is refused.

Both sums are evaluated from one table: for each (disorder state, parity
cell) of a slot, the log of its edge factor, the log magnitude of its dual
component, and one flag column that counts a negative component as 1 and a
zero one as a power of two above the slot count. These three add up over
the slots of a configuration. `log_factor_batch` is the one function that
forms x_0 and x_0* from them: it takes a one-hot encoding of rows of
disorder state indices, made by `encode_rows`, and a 1-D array of
couplings. It serves the exact average (one row per disorder class, whose
encoding `replica.class_table` compiles once with the table), the
distinct rows of a Monte Carlo chunk and `dual_cluster_partition`. Per
call it builds only what depends on the couplings: the tables above, from
one exp. Apart from the closed-form oracle
`replica.gap_closed_form_single`, the dual weights have no other form;
`cluster.cluster_partition` keeps a direct-energy primal sum as a
reference.
"""

from __future__ import annotations

import math

import numpy as np

from .model import EdgeDisorder
from .cluster import (
    CONFIG_BLOCK,
    ClusterSpec,
    DisorderAssignment,
    NonFinite,
    ShapeMismatch,
    SignedLogSum,
    _iter_parity_blocks,
    signs_array,
)

SQRT2 = math.sqrt(2.0)
EPS = float(np.finfo(np.float64).eps)
# a dual sum whose rounding bound (see log_factor_batch) exceeds this
# fraction of its value is refused rather than logged
ROUNDING_LIMIT = 1e-2
# The row kernel's matrix product adds a row's slot terms in slot order
# where its column lies in a whole block of 8 columns. OpenBLAS computes a
# tail of fewer columns with other kernels, whose order differs (measured:
# OpenBLAS 0.3.31 on AVX-512), so that a row's bits would depend on how many
# rows share its batch. Rows are padded to blocks of 16 columns.
ROW_GRAIN = 16


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


def _slot_cells(P: np.ndarray, D: np.ndarray | None) -> np.ndarray:
    """Cell of every slot in a block of parity rows, in edge-factor component order.

    The cell is 1 for an odd primal edge and 0 for an even one; on two
    layers it is twice that plus 1 for an odd dual edge.
    """
    cell = (P < 0.0).astype(np.intp)
    return cell if D is None else 2 * cell + (D < 0.0)


def _flag_base(slots: int) -> int:
    """The power of two above `slots` that scales the zero count in a flag column."""
    return 1 << slots.bit_length()


def _log_weight_tables(cluster: ClusterSpec, support, K: np.ndarray) -> np.ndarray:
    """Per (disorder state, cell) terms that add up over the slots of a configuration.

    Shape (3, states, cells, points) for a 1-D array K of couplings: log
    primal weight, log |dual weight| and a flag. The primal weights are one
    exp over the (states, cells, points) array of `_cell_energies` times K,
    with the bits of `edge_factor_single` / `edge_factor_twolayer`, and the
    dual weights their Hadamard duals. The flag is 1 where the dual weight
    is negative and `_flag_base(slot count)` where it is zero, so that a
    configuration's summed flag holds both its count of negative slots
    (below the base) and whether any slot is zero (see `_dual_signs`). The
    log of a zero dual weight is stored as 0.
    """
    dual = dual_edge_factor_single if cluster.layers == 1 else dual_edge_factor_twolayer
    energies = np.array([_cell_energies(d, cluster.layers) for d in support], dtype=np.float64)
    primal = np.exp(energies[:, :, None] * K)
    dual_w = np.stack(dual(primal.swapaxes(0, 1)), axis=1)
    zero = dual_w == 0.0
    tables = np.empty((3, *primal.shape))
    tables[0] = np.log(primal)
    tables[1] = np.log(np.abs(dual_w) + zero)
    tables[2] = (dual_w < 0.0) + _flag_base(cluster.slot_count) * zero
    return tables


def _dual_signs(flag: np.ndarray, base: int) -> np.ndarray:
    """The sign of each dual term, 0 where it has a zero weight, from its summed flag.

    A summed flag is (negative slots) + base * (zero slots), with base a
    power of two above the slot count, so the term is zero when the flag
    reaches base; otherwise its sign is the parity of the flag. The flags
    are whole numbers, so one table lookup on their cast gives every sign.
    """
    lookup = 1.0 - 2.0 * (np.arange(base + 1) & 1)
    lookup[base] = 0.0
    entry = flag.astype(np.intp)
    np.minimum(entry, base, out=entry)
    return lookup.take(entry)


def encode_rows(idx: np.ndarray, m: int) -> np.ndarray:
    """The one-hot encoding of rows of disorder state indices that `log_factor_batch` takes.

    idx has shape (n, S) and entries in [0, m), the states of a support of
    m; any other entry raises ValueError. Column i of the (S*m, width)
    float64 result has a 1 in row s*m + state for each slot s of row i,
    and width is n rounded up to a multiple of ROW_GRAIN with empty
    columns, so that a row has the same bits in a batch of any size.
    """
    n, S = idx.shape
    if idx.size and not 0 <= idx.min() <= idx.max() < m:
        raise ValueError(f"disorder state indices must lie in [0, {m}), got {idx.min()} to {idx.max()}")
    # empty columns pad the rows to a multiple of ROW_GRAIN, so that no row is in a tail
    width = n + (-n % ROW_GRAIN)
    onehot = np.zeros((S, m, width))
    states = np.arange(m).astype(idx.dtype)[:, None]
    np.equal(np.ascontiguousarray(idx.T)[:, None, :], states, out=onehot[:, :, :n])
    return onehot.reshape(S * m, width)


def log_factor_batch(
    cluster: ClusterSpec,
    support,
    encoding: np.ndarray,
    K,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ln x_0, ln |x_0*|, sign of x_0*, rounding bound of x_0*) for encoded rows of disorder states.

    `encoding` is `encode_rows` of rows that index `support`, the disorder
    states; its shape must be (S*len(support), width). K is a 1-D array of
    couplings, one per point (any other shape raises ValueError), and each
    output has shape (points, width): one column per encoded row, then the
    padding columns, whose values callers drop. The rows are the class
    representatives of `replica.class_table`, encoded once with the table,
    the distinct rows of a Monte Carlo chunk or one assignment
    (`dual_cluster_partition`).

    One batched matrix product per block of configurations of the
    per-point table
    W[point, (k, c), s*m + a] = T[k, a, cell of slot s in configuration c, point]
    with the encoding gives all three summed terms of `_log_weight_tables`,
    as (points, configurations, width) blocks, so both log-sum-exps sum each
    row's configurations in configuration order, and a point has the same
    bits whatever points share its call. A dual term's sign, and 0 for a
    zero term, is applied by a multiply (`_dual_signs`); configuration 0,
    where every slot's dual weight is at its largest and never zero, sets
    the scale. The rounding bound is configurations * eps * sum |terms| /
    |sum terms|, a bound on the relative error of x_0*; where it nears 1,
    rounding decides the sign.
    """
    S, m = cluster.slot_count, len(support)
    if encoding.ndim != 2 or encoding.shape[0] != S * m:
        raise ValueError(f"encoding must have {S * m} rows (slots x states), got shape {encoding.shape}")
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 1:
        raise ValueError(f"K must be a 1-D array of couplings, got shape {K.shape}")
    # (points, 3, states, cells): each point's three terms per (state, cell)
    tables = np.moveaxis(_log_weight_tables(cluster, support, K), -1, 0)
    width = encoding.shape[1]
    base = _flag_base(S)
    # W holds 3m numbers per (point, configuration, slot); taking
    # configurations in steps keeps it within CONFIG_BLOCK * S of them per
    # point on large clusters
    step = max(1, CONFIG_BLOCK // (3 * m))
    shape = (len(K), width)
    primal, dual = SignedLogSum(shape, axis=1), SignedLogSum(shape, axis=1)
    for P, D in _iter_parity_blocks(cluster):
        cells = _slot_cells(P, D)
        for lo in range(0, len(cells), step):
            W = tables[..., cells[lo : lo + step]].transpose(0, 1, 3, 4, 2).reshape(len(K), -1, S * m)
            log_p, log_d, flag = (W @ encoding).reshape(len(K), 3, -1, width).swapaxes(0, 1)
            primal.add(log_p)
            dual.add(log_d, _dual_signs(flag, base))
    logd, sign = dual.result()
    rounding = cluster.config_count * EPS * dual.condition()
    return primal.result()[0], logd, sign, rounding


def _require_positive_dual(
    cluster: ClusterSpec, bad: np.ndarray, states: np.ndarray, support, K: float, rounding=None
):
    """Raise NonPositiveDual naming the signs of the first row of `states` flagged in `bad`.

    With `rounding` (the bounds of `log_factor_batch`), a row whose bound
    exceeds ROUNDING_LIMIT is flagged too, and raises UnsignedDual.
    """
    unsigned = np.zeros_like(bad) if rounding is None else rounding > ROUNDING_LIMIT
    flagged = bad | unsigned
    if np.any(flagged):
        i = int(np.argmax(flagged))
        signs = [support[s].sign for s in states[i]]
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

    The assignment goes through `log_factor_batch` as one row whose support
    is the assignment itself. Raises NonPositiveDual when the signed sum is
    not strictly positive, which happens for some exotic geometries at
    strong coupling, and its subclass UnsignedDual when the sum cancels so
    far that rounding decides its sign (the bound of `log_factor_batch`
    over ROUNDING_LIMIT); registered clusters stay positive over the whole
    supported range.
    """
    if len(disorder) != cluster.slot_count:
        raise ShapeMismatch(
            f"cluster {cluster.name!r} has {cluster.slot_count} slots, got {len(disorder)} disorder entries"
        )
    signs_array(disorder, cluster.layers)  # raises ShapeMismatch on the wrong layer count
    if not math.isfinite(K):
        raise NonFinite(f"dual cluster partition of {cluster.name!r} is not finite (K={K})")
    states = np.arange(cluster.slot_count)[None, :]
    encoding = encode_rows(states, len(disorder))
    _, logmag, sign, rounding = log_factor_batch(cluster, disorder, encoding, [K])
    _require_positive_dual(cluster, sign[0, :1] <= 0, states, disorder, K, rounding[0, :1])
    return float(logmag[0, 0])


def pure_self_dual_point() -> float:
    """Coupling K_c with exp(-2 K_c) = tanh K_c: the clean-system self-dual point.

    Its closed form is K_c = ln(1 + sqrt2)/2; it anchors the numerics
    because the threshold condition must degenerate to it when disorder is
    switched off.
    """
    return 0.5 * math.log1p(SQRT2)
