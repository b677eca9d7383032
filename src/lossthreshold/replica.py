"""Quenched-average gap between primal and dual cluster factors.

The threshold condition equates the disorder averages of the log cluster
factors. The quantity evaluated here is

    Delta(p, q) = E[ln x_0] - E[ln x_0*]

with the expectation over independent per-slot disorder. Its root in p, at
fixed loss rate q, is the optimal error threshold.

Every point reads a table (`ClassTable`) of columns, each the rows of
disorder states that share level histograms (`duality.count_levels`),
compiled with the table, and of (column, state-count vector,
multiplicity) pairs. A point takes the kernel's values step
(`duality.log_factor_batch`) on those histograms and weighs each column by
its pairs' multiplicities and disorder probabilities, whose products it
forms once per count vector. There are two kinds of table, one builder,
`_compile`, for both, and one evaluation path, `_exact_gaps`, that reads
both.

A cluster's class table covers every joint disorder assignment (3^S
single-layer, 5^S two-layer, including zero-probability states so the term
count is parameter-independent), but never visits them one by one. What an
assignment contributes depends only on how many slots sit in each (disorder
state, parity cell) for every internal-spin configuration, so assignments
whose per-configuration histograms agree up to a permutation of
configurations form one class, and every assignment of a class has the same
primal and dual sums. Classes whose counts give the same level
histograms, the multisets of configuration energies and of signed dual
terms, have the same sums too, and share one column. The class table is
compiled once and cached; its multiplicities are whole numbers, so its
Delta is exact.

A drawn table covers clusters whose exact work exceeds TERM_BUDGET. Its
rows are the distinct rows of a Monte Carlo draw of N samples at one point
p0, merged into columns as the classes are, and a pair's multiplicity is
draws / (N P_p0(vector)), draws being the counts of the pair's rows. Read
at any p, a row weighs count/N times its likelihood ratio P_p/P_p0, so
Delta is the importance-weighted mean of the draw, a fixed function of p:
the sample-average approximation (Shapiro, Dentcheva & Ruszczynski 2009,
ch. 5). Read at p0 it is the plain sample mean. A counter-based generator
makes the uniforms of every chunk of samples reproducible and identical
across points, so one call draws each chunk once for all its tables. A
call makes two passes over a pool of `worker_count` threads: one item per
chunk draws its uniforms and decodes them at every point, and one item per
table merges that table's chunks and builds it. Sampled rows repeat often,
within a chunk and across chunks, so a chunk only decodes its rows into
distinct ones, and a table merges the distinct rows of all its chunks and
counts each once: near the root of B at 100 000 samples, 1.2 % (q = 0) to
21 % (q = 0.3) of the drawn rows. A table keeps only the level histograms
of its columns, fewer still (B at 100 000 samples, seed 3, at the closed
form's roots: 1 301 / 19 140 / 15 659 distinct rows in 48 / 1 276 / 813
columns at q = 0 / 0.2 / 0.4), so that its memory does not grow with the
2^internal configurations, and no read counts a row again.

`point_tables` gives the table each point of a round reads: the class table
on the exact policy, a table drawn at the point itself on the Monte Carlo
one. `table_gaps` evaluates points on given tables and returns arrays of
Delta, of its standard error and of its slope in p; the solver reads one
table per q through it. Both check the round's points once
(`model.check_points`) and build their couplings and disorder probabilities
as arrays, with no object per point: each K from the scalar
`model.coupling`, the probabilities element-wise from
`model.disorder_probs`, so a point has the same bits in any round.
`gap_batch` is the two in one call, and `gap` its one-point case, from a
`ChannelSpec` to a `GapEvaluation`. Draws are spread over a pool of
threads, reads run on the calling thread, and no point's value depends on
its neighbours in the call.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import model
from .cluster import CONFIG_BLOCK, ClusterSpec, NonFinite, ShapeMismatch, slot_cells
from .duality import (
    ROUNDING_LIMIT,
    Levels,
    UnsignedDual,
    _require_positive_dual,
    _row_signs,
    count_block,
    count_levels,
    log_factor_batch,
)

EXACT = "exact"
MONTE_CARLO = "monte-carlo"
POLICIES = (EXACT, MONTE_CARLO)

# bound on exact_work, checked before anything is compiled
TERM_BUDGET = 10**8
# |Delta| up to this at a bracket end is rounding, not a sign: a geometry whose
# primal and dual sums coincide has Delta = 0 at every p, and its computed
# value scatters around zero in the last bits.
GAP_FLOOR = 1e-12
# a class table's gap whose dual sums may round it by more than this share of
# GAP_FLOOR is refused; on the registered clusters the bound stays below
# 5.7e-14, 4.4 times under the 2.5e-13 this allows. A drawn table's columns
# are refused one by one instead, past `duality.ROUNDING_LIMIT`: a weighted
# bound of config_count * eps alone passes 2.5e-13 past 10 internal spins
ROUNDING_SHARE = 0.25
DEFAULT_MC_SAMPLES = 100_000
MIN_MC_SAMPLES = 1000

# a read holds (points x pairs) arrays of at most this many elements, one
# point at least: 21 points of an exact B sweep (6 096 pairs) share one
# `_exact_gaps` call, and the 3 certificate points of a drawn B table (2 839
# pairs at q = 0.2 and 1 000 000 samples, seed 5)
READ_SLICE = 1 << 17

# Monte Carlo samples are drawn in fixed-size chunks. The partition depends
# only on the cluster and the sample count, never on the worker count, and so
# do a table's merged distinct rows, its columns and their order, so parallel
# runs are bit-identical: a point's sums run over the table's columns in that
# order. The draws themselves depend on the partition (a chunk's stream
# starts at its first sample times the slot count). A chunk holds
# _CHUNK_TARGET (row, configuration) pairs of one count table
# (`count_block`), and a counts-step slice of distinct rows no more.
_CHUNK_TARGET = 1 << 20
_CHUNK_MAX = 1 << 16
# `_distinct_rows` packs rows, and `count_levels` counts them, at most this
# many at a time: the packing's float copy stays small (2.7 MB at 41 slots)
# however many rows a table merges, and so do the counts step's float32 blocks
_ROW_BLOCK = 1 << 13


class TooManyTerms(ValueError):
    """Exact enumeration would exceed the term budget."""


@dataclass(frozen=True)
class GapEvaluation:
    """Value of Delta(p, q) with evaluation metadata."""

    delta: float
    method: str
    std_error: float
    terms: int


def _integer(name: str, value) -> int:
    """`value` as an int, a numpy integer with its bits; ValueError naming `name` for a float, a string or a bool."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name}={value!r} must be an integer")


def worker_count(workers: int | None = None) -> int:
    """Resolve a worker count: explicit argument, THRESHOLD_WORKERS, or all cores.

    Raises ValueError when `workers` is not an integer of at least 1 (a
    float, a string or a bool is refused, a numpy integer taken), or when
    THRESHOLD_WORKERS is set but is not an integer of at least 1.
    """
    if workers is not None:
        count = _integer("workers", workers)
        if count < 1:
            raise ValueError(f"workers={workers!r} must be an integer of at least 1")
        return count
    env = os.environ.get("THRESHOLD_WORKERS", "").strip()
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"THRESHOLD_WORKERS={env!r} must be an integer of at least 1")
    return int(env)


def support_size(layers: int) -> int:
    """Disorder states per slot: +1, -1, lost on one layer; four sign pairs and lost on two."""
    return len(model.LAYER_SUPPORT[layers])


def exact_work(cluster: ClusterSpec) -> int:
    """Assignments times internal configurations, the quantity the term budget bounds.

    It is what a plain enumeration would sum, and it bounds every level of
    the class-table fold, so a cluster within budget compiles within it.
    """
    return support_size(cluster.layers) ** cluster.slot_count * cluster.config_count


def check_policy(policy: str) -> None:
    """Refuse a policy other than "exact" and "monte-carlo"."""
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")


def _chunk_size(cluster: ClusterSpec) -> int:
    """Rows of a Monte Carlo chunk, and at most those of a kernel slice of distinct rows."""
    return min(_CHUNK_MAX, _CHUNK_TARGET // count_block(cluster))


def _chunk_bounds(total: int, cluster: ClusterSpec) -> list[tuple[int, int]]:
    size = _chunk_size(cluster)
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _run_chunks(fn, items, workers: int) -> list:
    """[fn(*item) for item in items], over up to `workers` threads.

    `point_tables` makes two passes through it: one item per Monte Carlo
    chunk, which draws the chunk's uniforms and decodes them at every
    point, then one item per point, which merges the point's chunks and
    builds its table. At most `workers` items run at a time, so the chunk
    pass holds at most that many draws.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(*item) for item in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(lambda item: fn(*item), items))


def _check_layers(kind: str, cluster: ClusterSpec):
    layers = model.channel_layers(kind)
    if layers != cluster.layers:
        raise ShapeMismatch(
            f"channel {kind!r} has {layers} layer(s) but cluster "
            f"{cluster.name!r} has {cluster.layers}"
        )


def _round_points(kind: str, p, q) -> tuple[np.ndarray, np.ndarray]:
    """K (points,) and disorder probabilities (points, states) of a round, checked at once.

    `model.check_points` raises the DomainError of the first point a gap
    cannot take. K comes point by point from the scalar `model.coupling`
    (numpy's log does not round as `math.log` does), and the probabilities
    from `model.disorder_probs` element-wise, so every entry has the bits
    of those functions at its point alone.
    """
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError(f"p and q must be sequences of one length, got {p.shape} and {q.shape}")
    model.check_points(kind, p, q)
    coupling = model.coupling
    K = np.array([coupling(kind, x) for x in p.tolist()], dtype=np.float64)
    return K, np.stack(model.disorder_probs(kind, p, q), axis=1)


@dataclass(frozen=True)
class ClassTable:
    """Disorder classes of a cluster, merged into columns of equal primal and dual sums.

    Two assignments are in one class when, over all 2^internal
    configurations, they give the same multiset of per-configuration
    histograms, the number of slots in each (disorder state, parity cell).
    Cells are the parities of a slot's edges, (primal) on one layer and
    (primal, dual) on two, as `cluster.slot_cells` gives them. Every
    assignment in a class has the same primal and dual sums and the same
    probability.

    A class's sums depend only on its `duality.count_rows` counts: on the
    multiset of its configurations' energies, and on the multiset of their
    (dual sign, cell-0 count) pairs, leaving out dual sign 0, whose term is
    0. Those multisets are its level histograms (`duality.Levels`). Classes
    that share them have the same sums, so they share one column (E: 3 150
    classes in 340 columns, B: 13 881 in 1 561). A column keeps its levels,
    which the kernel's values step reads as they are, and the states of one
    representative class, whose signs errors name. Its classes may differ
    in probability, so the table lists (column, state-count vector,
    multiplicity) pairs, the
    assignments of the column with each distinct count of slots per
    disorder state: `count_vectors[count_index]` holds each pair's counts,
    and a point computes only the weights of the distinct vectors (330 on
    E) before adding them up per column. A vector's clean and error counts,
    the slots in the support's first state and in the states between it
    and the lost one, give d ln(weight)/dp = errors/p - clean/(1-p).

    A drawn table (`_drawn_table`) is built the same way from the distinct
    rows of a Monte Carlo draw at a point p0 (B at q = 0.2, 100 000
    samples: 19 140 rows in 1 276 columns and 1 833 pairs), and keeps
    `draws`, how often the draw holds the rows of each pair. Either kind
    records the cluster it was compiled for, and is read on that cluster
    only.
    """

    cluster: ClusterSpec
    representative: np.ndarray  # (columns, slots) int8 state indices of one assignment per column
    levels: Levels  # the level histograms of each column
    count_vectors: np.ndarray  # (vectors, states) intp distinct slot counts per disorder state
    clean: np.ndarray  # (vectors,) float64 slots of each vector in the clean state
    errors: np.ndarray  # (vectors,) float64 slots of each vector in a state neither clean nor lost
    column_index: np.ndarray  # (pairs,) intp column of each pair, ascending
    count_index: np.ndarray  # (pairs,) intp row of count_vectors holding each pair's slot counts
    # (pairs,) assignments of each pair, int64; on a drawn table float64
    # draws / (N P_p0(vector)), so that its weight at p is its rows'
    # importance weight draws/N * P_p(vector)/P_p0(vector)
    multiplicity: np.ndarray
    # (pairs,) int64 draws of each pair of a drawn table; empty on a class table
    draws: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        for array in (*vars(self).values(), *vars(self.levels).values()):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique over rows, comparing each row as one block of bytes (much faster than axis=0)."""
    a = np.ascontiguousarray(a)
    keys = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return a[first], first, inverse.reshape(-1)


def _distinct_rows(idx: np.ndarray, m: int, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of base-m state indices and how often each occurs, or their summed `weights`.

    A row's digits (of any integer dtype; Monte Carlo states are int8) are
    packed into as many words as its length needs, the last word the most
    significant: one matrix product of the rows, as floats, with the digits'
    place values m^j per word gives every word at once. Each word is an
    integer below the float's exact range, 2^24 for a row that fits one
    float32 word, 2^53 for float64 words, so the product is exact in any
    order the BLAS sums it. A float64 word holds
    floor(min(53, 63 - bits(n)) / log2 m) digits, so that a word shifted
    left by bits(n) still fits in int64. Several words are folded into one
    int64 key per row: key = rank(rank(key) * n + rank(word)), last word
    first, with dense ranks below n, so that ascending keys order the rows
    as a lexsort of their words would. The row's position fills the low
    bits below the shifted key: one sort of these unique values brings
    equal rows together, so the order of the distinct rows depends only on
    the set of rows, ascending in their digits read last column first. With
    `weights`, one number per row (a chunk's counts, when the distinct rows
    of several chunks are merged), each distinct row gets the sum of its
    rows' weights instead of their number.
    """
    n, S = idx.shape
    bits = n.bit_length()
    if m**S <= 1 << 24:
        dtype, digits = np.float32, S
    else:
        dtype, digits = np.float64, math.floor(min(53, 63 - bits) / math.log2(m))
    column = np.arange(S)
    place = np.zeros((S, -(-S // digits)), dtype=dtype)
    place[column, column // digits] = float(m) ** (column % digits)
    words = np.empty((place.shape[1], n), dtype=np.int64)
    for lo in range(0, n, _ROW_BLOCK):
        words[:, lo : lo + _ROW_BLOCK] = (idx[lo : lo + _ROW_BLOCK].astype(dtype) @ place).T
    *words, key = words
    if words:
        # a key of several words is ranked after every fold, so that it stays
        # below n and its shift fits in int64 at any n
        def rank(a):
            return np.unique(a, return_inverse=True)[1].astype(np.int64)

        key = rank(key)
        for word in reversed(words):
            key = rank(key * n + rank(word))
    packed = np.sort((key << bits) | np.arange(n))
    order = packed & ((1 << bits) - 1)
    key = packed >> bits
    first = np.ones(n, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    rows = idx.take(order[starts], axis=0)
    if weights is None:
        return rows, np.diff(starts, append=n)
    return rows, np.add.reduceat(weights.take(order), starts)


def _class_fold(cluster: ClusterSpec) -> tuple[np.ndarray, np.ndarray]:
    """The disorder classes of a cluster, folded in one slot at a time: (multiplicity, representative).

    While slots are being assigned, a row also carries the cells of the slots
    still to come, so that the next slot's state moves each row to a new row
    without knowing its configuration. After every slot, classes that became
    equal are merged and their multiplicities added. One assignment of each
    class, (classes, slots) int8 state indices, is kept as its
    representative.
    """
    m = support_size(cluster.layers)
    cells = 2 * cluster.layers
    width = m * cells
    count_type, total = np.min_scalar_type(cluster.slot_count), cluster.config_count
    blocks = [slot_cells(cluster, lo, min(lo + CONFIG_BLOCK, total)) for lo in range(0, total, CONFIG_BLOCK)]
    pending, _, row_of_config = _unique_rows(np.concatenate(blocks).astype(count_type))
    hist = np.zeros((len(pending), width), dtype=count_type)
    classes = np.sort(row_of_config.astype(np.int32)[None, :], axis=1)
    multiplicity = np.ones(1, dtype=np.int64)
    representative = np.zeros((1, 0), dtype=np.int8)
    for _ in range(cluster.slot_count):
        rows = len(hist)
        moved = np.repeat(hist[None], m, axis=0)
        column = np.arange(m)[:, None] * cells + pending[None, :, 0]
        moved[np.arange(m)[:, None], np.arange(rows)[None, :], column] += 1
        nxt = np.concatenate(
            [moved.reshape(m * rows, width), np.tile(pending[:, 1:], (m, 1))], axis=1
        )
        uniq, _, step = _unique_rows(nxt)
        hist, pending = uniq[:, :width], uniq[:, width:]
        step = step.astype(np.int32).reshape(m, rows)

        n = len(classes)
        grown = np.sort(step[:, classes], axis=2).reshape(m * n, -1)
        classes, first, inverse = _unique_rows(grown)
        merged = np.zeros(len(classes), dtype=np.int64)
        np.add.at(merged, inverse, np.tile(multiplicity, m))
        multiplicity = merged
        representative = np.concatenate(
            [representative[first % n], (first // n).astype(np.int8)[:, None]], axis=1
        )
    return multiplicity, representative


def _compiled_levels(cluster: ClusterSpec, rows: np.ndarray) -> Levels:
    """The `count_levels` of a table's rows, counted min(_ROW_BLOCK, `_chunk_size`) rows at a time."""
    return count_levels(cluster, rows, min(_ROW_BLOCK, _chunk_size(cluster)))


def _count_vectors(rows: np.ndarray, m: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The `ClassTable` count vectors, clean and error counts of the rows' slot counts per disorder state, and each row's vector."""
    # one compare-and-add per slot, over all rows and states at once
    states = np.arange(m, dtype=rows.dtype)[:, None]
    tally = np.zeros((m, len(rows)), dtype=np.min_scalar_type(rows.shape[1]))
    for column in np.ascontiguousarray(rows.T):
        tally += column == states
    state_counts = tally.T
    # one integer per vector, the first state's count most significant: ascending keys order the
    # vectors as `_unique_rows` would, byte by byte, while every count stays below 256
    place = (rows.shape[1] + 1) ** np.arange(m - 1, -1, -1)
    _, first, vector = np.unique(state_counts @ place, return_index=True, return_inverse=True)
    vectors = state_counts[first]
    clean, errors = vectors[:, 0].astype(np.float64), vectors[:, 1:-1].sum(axis=1).astype(np.float64)
    return (vectors.astype(np.intp), clean, errors), vector.astype(np.intp)


def _compile(cluster: ClusterSpec, rows: np.ndarray, weight: np.ndarray) -> ClassTable:
    """The table of rows of disorder states of whole-number weights: the rows merged into columns.

    A column is keyed by a row's level histograms, the multisets of
    `ClassTable`, compared as one block of bytes, so columns ascend in the
    bytes of their keys; the first row of a column represents it. A pair's
    multiplicity is the summed weight of the column's rows with its
    state-count vector.
    """
    levels = _compiled_levels(cluster, rows)
    key = np.concatenate([levels.top[:, None], levels.n0[:, None], levels.H.T, levels.D.T, levels.A.T], axis=1)
    _, first, column = _unique_rows(key)
    vectors, vector = _count_vectors(rows, support_size(cluster.layers))
    pairs, pair = np.unique(column * len(vectors[0]) + vector, return_inverse=True)
    column_index, count_index = (a.astype(np.intp) for a in np.divmod(pairs, len(vectors[0])))
    multiplicity = np.bincount(pair, weights=weight).astype(np.int64)
    return ClassTable(cluster, rows[first], levels.take(first), *vectors, column_index, count_index, multiplicity)


@lru_cache(maxsize=16)
def class_table(cluster: ClusterSpec) -> ClassTable:
    """Compile the class table of a cluster: its classes (`_class_fold`) and their multiplicities, merged into columns."""
    multiplicity, representative = _class_fold(cluster)
    return _compile(cluster, representative, multiplicity)


def _score(p, clean, errors):
    """d ln(probability)/dp of rows with `clean` slots in the support's first state and `errors` strictly between it and the lost one."""
    return errors / p - clean / (1.0 - p)


def _vector_weights(probs: np.ndarray, count_vectors: np.ndarray, slots: int) -> np.ndarray:
    """(points, vectors) probability of one assignment with each vector's slot counts, at (points, states) probabilities.

    It takes p**k for every state and slot count k once, so that each
    weight is a product of table entries rather than of fresh powers; a
    state of probability 0 that a vector does not hold enters as 0**0 = 1.
    """
    points = len(probs)
    powers = (probs[:, :, None] ** np.arange(slots + 1)).reshape(points, -1)
    entries = np.arange(probs.shape[1])[:, None] * (slots + 1) + count_vectors.T
    return np.prod(powers.take(entries, axis=1), axis=1)


def _exact_gaps(p: np.ndarray, K: np.ndarray, probs: np.ndarray, cluster: ClusterSpec, table: ClassTable):
    """Delta, its standard error and dDelta/dp at each point read off one table, from its p, couplings and (points, states) probabilities.

    Every assignment, or draw, of a column has the column's primal and dual
    sums, so the table's level histograms go through the kernel's values
    step, `log_factor_batch`, once for all the points and columns, whose
    temporaries are (points, levels) and (points, columns) arrays, and each
    column counts its weight W times: the sum over its pairs of
    multiplicity * probability, with the probabilities multiplied out once
    per distinct state-count vector. A column of positive weight whose dual
    sum is not positive raises NonPositiveDual. On a class table, each
    column's rounding bound, weighed the same way, bounds the rounding of
    Delta; past ROUNDING_SHARE * GAP_FLOOR the point raises UnsignedDual,
    naming the representative of the column that weighs most in it. On a
    drawn table, each column of positive weight is checked on its own, as a
    lone row is (`_require_positive_dual`): UnsignedDual past
    ROUNDING_LIMIT. A point's bits do not depend on which other points share
    its call: its weights add up in pair order, and each column's values do
    not depend on the columns beside it. A class table's Delta is one `fsum`
    over the columns of positive weight, which rounds the exact sum once, so
    leaving out the zero terms keeps its bits; a drawn table's is a numpy
    sum per point, whose rounding lies far below its standard error.

    On the Nishimori line the gauge identity E[d ln x_0/dK] = E[d ln x_0*/dK]
    (Nishimori 1981) makes dDelta/dK vanish at fixed probabilities, so the
    slope is sum_columns dW/dp * (ln x_0 - ln x_0*), with dW/dp weighing
    each vector by the `ClassTable` factor errors/p - clean/(1-p). It is a
    plain sum per point, in column order, over a row that is zero where W
    is. On a drawn table it is the score-function (likelihood-ratio)
    estimate of the slope (Glynn 1990): the sum of W d(delta)/dK dK/dp that
    it leaves out is 0 in expectation, not on the draw, so it misses the
    derivative of the table's own Delta by sampling noise.

    A class table's Delta is exact, and its standard error 0. A drawn
    table's W is draws/N times each pair's likelihood ratio w = P_p/P_p0,
    and its standard error that of the importance-weighted mean,
    sigma^2 = sum draws (w delta - Delta)^2 / (N (N - 1)) over the pairs,
    the sample one at p0: every row of a pair has the pair's column, so
    its delta, and the pair's count vector, so its w, and the sum over the
    pairs is the sum over the rows. Returns the Delta of each point (a list on a class table) and the
    arrays of standard errors and slopes.
    """
    points, columns = len(K), len(table.representative)
    logp, logd, sign, rounding = log_factor_batch(cluster, table.levels, K)
    vector_weight = _vector_weights(probs, table.count_vectors, cluster.slot_count)
    pair_weight = table.multiplicity * vector_weight.take(table.count_index, axis=1)
    pair_slope = pair_weight * _score(p[:, None], table.clean, table.errors).take(table.count_index, axis=1)
    # each point's bins are its own, so bincount adds each column's pairs in order
    bins = (np.arange(points)[:, None] * columns + table.column_index).ravel()
    W, dW = (np.bincount(bins, v.ravel(), points * columns).reshape(points, columns) for v in (pair_weight, pair_slope))
    # columns of zero probability (q = 0, or p on the support boundary) never
    # enter the average, whatever the sign or rounding of their dual sum
    positive = W > 0.0
    rounding = np.where(positive, rounding, 0.0)
    bad = (sign <= 0) & positive
    drawn = len(table.draws) > 0
    flagged = bad | (rounding > ROUNDING_LIMIT) if drawn else bad
    if flagged.any():
        i = int(np.argmax(flagged.any(axis=1)))
        _require_positive_dual(cluster, bad[i], table.representative, K[i], rounding[i] if drawn else None)
    if not drawn:
        error = W * rounding
        bound = error.sum(axis=1)
        limit = ROUNDING_SHARE * GAP_FLOOR
        if np.any(bound > limit):
            i = int(np.argmax(bound > limit))
            signs = _row_signs(cluster.layers, table.representative[np.argmax(error[i])])
            raise UnsignedDual(
                f"dual sums of cluster {cluster.name!r} may round the gap by {bound[i]:.3g} at "
                f"K={K[i]}, past {limit:.3g}; the largest share is the column of signs {signs}"
            )
    delta = logp - np.where(sign > 0, logd, logp)
    terms = W * delta
    slope = (dW * delta).sum(axis=1)
    if not drawn:
        return [math.fsum(v[w].tolist()) for v, w in zip(terms, positive)], np.zeros(points), slope
    mean = terms.sum(axis=1)
    samples = int(table.draws.sum())
    spread = pair_weight * (samples / table.draws) * delta.take(table.column_index, axis=1) - mean[:, None]
    return mean, np.sqrt((table.draws * spread**2).sum(axis=1) / (samples * (samples - 1.0))), slope


def check_seed(seed: int) -> int:
    """A Monte Carlo seed as an int; ValueError for one that is not an integer in [0, 2**128), the Philox keys."""
    key = _integer("seed", seed)
    if not 0 <= key < 2**128:
        raise ValueError(f"seed={seed} must lie in [0, 2**128)")
    return key


def _chunk_uniforms(seed: int, cluster: ClusterSpec, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, S) uniforms of chunk [lo, hi) of a draw.

    They come from the Philox stream keyed by seed, advanced by lo*S counter
    steps, so they depend on the chunk partition only, never on p, q or the
    worker count.
    """
    S = cluster.slot_count
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(lo * S)
    return np.random.Generator(bitgen).random((hi - lo, S))


def _sampled_rows(u: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One chunk's uniforms decoded at one point of (states,) probabilities: its distinct rows and their counts.

    The uniforms are those of `_chunk_uniforms`, drawn once per chunk and
    call of `point_tables` by the chunk's item, which decodes them at every
    point of the call and frees them when it returns. A row's state is the
    number of cumulative probabilities at or below its uniform, summed as
    int8 from the comparisons' bytes; `_distinct_rows` gives the chunk's
    distinct rows, in key order, and how often each was drawn.
    """
    cum = np.cumsum(probs)
    # u < 1, and the last cumulative probability is 1 up to rounding, so it is never compared
    states = (u >= cum[0]).view(np.int8)
    for c in cum[1:-1]:
        states += (u >= c).view(np.int8)
    return _distinct_rows(states, len(cum))


def _merge_rows(chunks: tuple, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a point's whole draw, in key order, and their counts, from its chunks' (rows, count)."""
    if len(chunks) == 1:
        return chunks[0]
    rows, count = zip(*chunks)
    return _distinct_rows(np.concatenate(rows), m, np.concatenate(count))


def _drawn_table(cluster: ClusterSpec, probs: np.ndarray, rows: np.ndarray, count: np.ndarray) -> ClassTable:
    """The table of a draw at one point of (states,) probabilities: its distinct rows and their counts, merged into columns.

    A pair's `draws` are the summed counts of its rows, and its
    multiplicity draws / (N P_p0(vector)), with P_p0 the product of
    `_vector_weights` that a read at p0 multiplies it by, so that its weight
    there is draws/N within a few ulp and a state of probability 0 drops
    out. The counts step runs once per table, on its distinct rows.
    """
    table = _compile(cluster, rows, count)
    draws = table.multiplicity
    p0 = _vector_weights(probs[None], table.count_vectors, cluster.slot_count)[0]
    return replace(table, multiplicity=draws / (int(draws.sum()) * p0[table.count_index]), draws=draws)


def _sample_count(mc_samples: int | None) -> int:
    """DEFAULT_MC_SAMPLES for None, else `mc_samples` as an int of at least MIN_MC_SAMPLES (ValueError)."""
    if mc_samples is None:
        return DEFAULT_MC_SAMPLES
    samples = _integer("mc_samples", mc_samples)
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    return samples


def point_tables(
    kind: str,
    p,
    q,
    cluster: ClusterSpec,
    policy: str = EXACT,
    *,
    mc_samples: int | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> list[ClassTable]:
    """The table each point (p[i], q[i]) of a channel kind reads: the class table, or one drawn at the point.

    policy "exact" gives the cluster's `class_table` for every point, and
    raises TooManyTerms, before compiling anything, when `exact_work`
    exceeds TERM_BUDGET. "monte-carlo" draws `mc_samples` rows per point
    from the Philox stream of `seed`, in two passes over
    `worker_count(workers)` threads (`_run_chunks`). The chunk pass has one
    item per `_chunk_bounds` chunk: it draws the chunk's uniforms once and
    turns them, at every point, into the chunk's distinct rows and their
    counts (`_sampled_rows`). The uniforms are freed when the item returns,
    so a call draws each chunk once, whatever its number of points, and
    holds at most `worker_count(workers)` draws at a time. The table pass
    has one item per point: it merges the point's chunks into the distinct
    rows of its whole draw, in key order with summed counts (`_merge_rows`),
    and builds its `_drawn_table`. A `workers` that is not an integer of at
    least 1 is refused first, on either policy, then the policy, the points
    (`model.check_points`) and a sampled `mc_samples` or `seed` that is not
    an integer; THRESHOLD_WORKERS is read only where points are drawn. A
    table does not depend on the worker count or on the other points of the
    call.
    """
    nworkers = workers if workers is None else worker_count(workers)
    check_policy(policy)
    _, probs = _round_points(kind, p, q)
    _check_layers(kind, cluster)
    if policy == EXACT:
        work = exact_work(cluster)
        if work > TERM_BUDGET:
            raise TooManyTerms(
                f"exact enumeration needs {work} terms (assignments x internal configurations), "
                f"past the budget of {TERM_BUDGET}; sample the gap instead: the monte-carlo "
                f"policy, or --mc-samples on the command line"
            )
        return [class_table(cluster)] * len(probs)
    samples = _sample_count(mc_samples)
    seed = check_seed(seed)
    if not len(probs):
        return []
    nworkers = nworkers or worker_count()

    def decode(lo, hi):
        u = _chunk_uniforms(seed, cluster, lo, hi)
        return [_sampled_rows(u, row) for row in probs]

    def table(row, chunks):
        return _drawn_table(cluster, row, *_merge_rows(chunks, len(row)))

    chunks = _run_chunks(decode, _chunk_bounds(samples, cluster), nworkers)
    return _run_chunks(table, list(zip(probs, zip(*chunks))), nworkers)


def table_gaps(
    kind: str, p, q, cluster: ClusterSpec, tables: list[ClassTable]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delta(p, q), its standard error and its slope dDelta/dp at every point (p[i], q[i]), read from tables[i].

    Returns three float arrays in the order of the points (see
    `_exact_gaps`); the standard error is 0.0 on class-table points. The
    points are checked once, by `model.check_points` (see `_round_points`),
    and no object is built per point. Each run of consecutive points that
    read one table is read on the calling thread, in `_exact_gaps` calls of
    at most READ_SLICE // pairs points. Raises ValueError unless there is
    one table per point, ShapeMismatch for a table compiled for another
    cluster, and NonFinite for a Delta that is not finite. Each point's
    values are bit-identical to reading it alone.
    """
    K, probs = _round_points(kind, p, q)
    p = np.asarray(p, dtype=np.float64)
    _check_layers(kind, cluster)
    if len(tables) != len(p):
        raise ValueError(f"need one table per point, got {len(tables)} tables for {len(p)} points")
    cuts = [i for i in range(len(tables)) if not i or tables[i] is not tables[i - 1]] + [len(tables)]
    for own in (tables[lo].cluster for lo in cuts[:-1]):
        if own != cluster:
            raise ShapeMismatch(
                f"a table of cluster {own.name!r} ({own.slot_count} slots, {own.config_count} configurations) "
                f"cannot be read on cluster {cluster.name!r} ({cluster.slot_count} slots, "
                f"{cluster.config_count} configurations) of another geometry"
            )
    values = []
    for lo, hi in zip(cuts, cuts[1:]):
        step = max(1, READ_SLICE // len(tables[lo].multiplicity))
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            values.append(np.array(_exact_gaps(p[a:b], K[a:b], probs[a:b], cluster, tables[lo]), dtype=np.float64))
    delta, std_error, slope = np.concatenate([np.zeros((3, 0)), *values], axis=1)
    if not np.isfinite(delta).all():
        i = int(np.argmin(np.isfinite(delta)))
        raise NonFinite(f"gap on cluster {cluster.name!r} is not finite at p={p[i]}, q={q[i]}")
    return delta, std_error, slope


def gap_batch(
    kind: str,
    p,
    q,
    cluster: ClusterSpec,
    policy: str = EXACT,
    *,
    mc_samples: int | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delta(p, q), its standard error and its slope dDelta/dp at every point (p[i], q[i]) of a channel kind.

    Each point reads its `point_tables` table through `table_gaps`: the
    class table, exactly, or a table drawn at the point itself, whose
    weights are then 1 up to rounding, so its Delta is the sample mean and
    its slope the score-function estimate from the same rows. Returns three
    float arrays in the order of the points; the standard error is 0.0 on
    exact points. Each point's values are bit-identical to evaluating it
    alone, with any worker count.
    """
    tables = point_tables(kind, p, q, cluster, policy, mc_samples=mc_samples, seed=seed, workers=workers)
    return table_gaps(kind, p, q, cluster, tables)


def gap(
    channel: model.ChannelSpec,
    cluster: ClusterSpec,
    policy: str = EXACT,
    *,
    mc_samples: int | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> GapEvaluation:
    """Evaluate Delta(p, q) for the channel on the cluster: `gap_batch` at one point.

    `terms` is the sample count of a sampled gap, and the number of joint
    disorder assignments (3^S or 5^S) of an exact one. A sampled gap needs
    at least MIN_MC_SAMPLES samples and a seed in [0, 2**128); see
    `point_tables` for its draws.
    """
    delta, std_error, _ = gap_batch(
        channel.kind, [channel.p], [channel.q], cluster, policy,
        mc_samples=mc_samples, seed=seed, workers=workers,
    )
    if policy == MONTE_CARLO:
        terms = _sample_count(mc_samples)
    else:
        terms = support_size(cluster.layers) ** cluster.slot_count
    return GapEvaluation(float(delta[0]), policy, float(std_error[0]), terms)


def gap_closed_form_single(kind: str, p: float, q: float) -> float:
    """Hand-reduced Delta for the one-unit clusters; an independent oracle.

    For a single edge the three disorder states give
    Delta = (1-q)(1-2p)K - ln(2)/2 - (1-q) ln cosh K. Its root is equivalent
    to H2(p) = 1 - 1/(2(1-q)) with H2 the binary entropy in bits. For the
    single two-layer crossing,
    Delta = (1-q)(3-4p)K - q ln 2 - (1-q) ln((e^{3K} + 3 e^{-K})/2).
    """
    model.check_kind(kind)
    if kind == model.UNCORRELATED:
        K = 0.5 * math.log((1.0 - p) / p)
        return (
            (1.0 - q) * (1.0 - 2.0 * p) * K
            - 0.5 * math.log(2.0)
            - (1.0 - q) * math.log(math.cosh(K))
        )
    K = 0.25 * math.log(3.0 * (1.0 - p) / p)
    return (
        (1.0 - q) * (3.0 - 4.0 * p) * K
        - q * math.log(2.0)
        - (1.0 - q) * math.log(0.5 * (math.exp(3.0 * K) + 3.0 * math.exp(-K)))
    )
