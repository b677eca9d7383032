"""Quenched-average gap between primal and dual cluster factors.

The threshold condition equates the disorder averages of the log cluster
factors. The quantity evaluated here is

    Delta(p, q) = E[ln x_0] - E[ln x_0*]

with the expectation over independent per-slot disorder. Its root in p, at
fixed loss rate q, is the optimal error threshold.

Exact evaluation covers every joint disorder assignment (3^S single-layer,
5^S two-layer, including zero-probability states so the term count is
parameter-independent), but never visits them one by one. What an assignment
contributes depends only on how many slots sit in each (disorder state,
parity cell) for every internal-spin configuration, so assignments whose
per-configuration histograms agree up to a permutation of configurations
form one class, and every assignment of a class has the same primal and
dual sums. Classes whose counts (`duality.count_rows`) give the same
multisets of configuration energies and of signed dual terms have the
same sums too, and share one column. The class table of a cluster is
compiled once and cached, with all of an evaluation's work that does not
depend on the point: the kernel's counts of one representative assignment
per column, and the column and distinct state-count vector of each
(column, vector) pair of classes. A point then takes the kernel's values
step (`duality.log_factor_batch`) on those counts and weighs each column
by its pairs' multiplicities and disorder probabilities, whose products it
forms once per count vector. Monte Carlo sampling covers clusters whose
exact work exceeds TERM_BUDGET. A counter-based generator makes the
uniforms of every chunk of samples reproducible and identical across p,
which keeps the estimated gap continuous during root finding, so one call
draws each chunk once, in groups of `worker_count` chunks, for all its
points. Sampled rows
repeat often (near the root of B only 2-27 % of them are distinct), so a
chunk counts and weighs only its distinct rows.

`gap_batch` evaluates many (p, q) points on one cluster in one call, as a
root finder's round does: it takes the channel kind and sequences of p and
q, and returns arrays of Delta and of its standard error. It checks the
round's points once (`model.check_points`) and builds their couplings and
disorder probabilities as arrays, with no object per point: each K from
the scalar `model.coupling`, the probabilities element-wise from
`model.disorder_probs`, so a point has the same bits in any round. `gap`
is its one-point case, from a `ChannelSpec` to a `GapEvaluation`, for
either policy. Exact points share array operations in slices on the
calling thread, sampled points share the draws of each chunk and a pool of
chunk sums, and no point's value depends on its neighbours in the call.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import model
from .cluster import CONFIG_BLOCK, ClusterSpec, NonFinite, ShapeMismatch, slot_cells
from .duality import UnsignedDual, _require_positive_dual, _row_signs, count_block, count_rows, log_factor_batch

EXACT = "exact"
MONTE_CARLO = "monte-carlo"
POLICIES = (EXACT, MONTE_CARLO)

# bound on exact_work, checked before anything is compiled
TERM_BUDGET = 10**8
# |Delta| up to this at a bracket end is rounding, not a sign: a geometry whose
# primal and dual sums coincide has Delta = 0 at every p, and its computed
# value scatters around zero in the last bits.
GAP_FLOOR = 1e-12
# an exact gap whose dual sums may round it by more than this share of
# GAP_FLOOR is refused; on the registered clusters the bound stays below
# 5.7e-14, 4.4 times under the 2.5e-13 this allows
ROUNDING_SHARE = 0.25
DEFAULT_MC_SAMPLES = 100_000
MIN_MC_SAMPLES = 1000

# an exact slice holds at most this many (points x columns x configurations)
# elements: 24 points of a round on E (340 columns x 4 configurations) share
# one kernel call
EXACT_SLICE = 2 * CONFIG_BLOCK

# Monte Carlo samples are processed in fixed-size chunks. The partition
# depends only on the cluster and the sample count, never on the worker count,
# so parallel runs are bit-identical: per-chunk sums are combined in chunk
# order with fsum. The draws themselves depend on the partition (a chunk's
# stream starts at its first sample times the slot count). A chunk holds
# _CHUNK_TARGET (row, configuration) pairs of one count table (`count_block`).
_CHUNK_TARGET = 1 << 20
_CHUNK_MAX = 1 << 16


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


def _chunk_bounds(total: int, cluster: ClusterSpec) -> list[tuple[int, int]]:
    size = min(_CHUNK_MAX, _CHUNK_TARGET // count_block(cluster))
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _run_chunks(fn, items, workers: int) -> list:
    """[fn(*item) for item in items], over up to `workers` threads.

    It draws and sums Monte Carlo chunks.
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
    0. Classes that share both multisets have the same sums up to the order
    of their configurations, so they share one column (E: 3 150 classes in
    340 columns, B: 13 881 in 1 561). A column keeps one representative
    class's counts, which the kernel's values step takes as they are, and
    its signs, which errors name. Its classes may differ in probability, so
    the table lists (column, state-count vector, multiplicity) pairs, the
    assignments of the column with each distinct count of slots per
    disorder state: `count_vectors[count_index]` holds each pair's counts,
    and a point computes only the weights of the distinct vectors (330 on
    E) before adding them up per column.
    """

    representative: np.ndarray  # (columns, slots) int8 state indices of one assignment per column
    counts: np.ndarray  # (3, configurations, columns) int8 (int16 past 32 slots) counts of representative
    count_vectors: np.ndarray  # (vectors, states) intp distinct slot counts per disorder state
    column_index: np.ndarray  # (pairs,) intp column of each pair, ascending
    count_index: np.ndarray  # (pairs,) intp row of count_vectors holding each pair's slot counts
    multiplicity: np.ndarray  # (pairs,) int64 assignments of each pair


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique over rows, comparing each row as one block of bytes (much faster than axis=0)."""
    a = np.ascontiguousarray(a)
    keys = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return a[first], first, inverse.reshape(-1)


def _distinct_rows(idx: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of base-m state indices and how often each occurs.

    A row's digits (of any integer dtype; Monte Carlo states are int8) are
    packed by Horner's rule over the columns into as many int64 words as
    its length needs, the last word the most significant, and the words are
    folded into one int64 key per row: key = rank(key) * n + rank(word),
    last word first, with dense ranks below n, so that ascending keys order
    the rows as a lexsort of their words would. A word holds
    floor((63 - bits(n)) / log2 m) digits, so that a key shifted left by
    bits(n) still fits in int64 for n up to _CHUNK_MAX, and the row's
    position fills the low bits: one sort of these unique values brings
    equal rows together, so the order of the distinct rows depends only on
    `idx`.
    """
    n, S = idx.shape
    bits = n.bit_length()
    digits = math.floor((63 - bits) / math.log2(m))
    columns = np.ascontiguousarray(idx.T)
    words = []
    for lo in range(0, S, digits):
        top, *rest = columns[lo : lo + digits][::-1]
        word = top.astype(np.int64)
        for column in rest:
            word *= m
            word += column
        words.append(word)
    key = words[-1]
    for word in reversed(words[:-1]):
        key_rank, word_rank = (np.unique(a, return_inverse=True)[1] for a in (key, word))
        key = key_rank * n + word_rank
    packed = np.sort((key << bits) | np.arange(n))
    order = packed & ((1 << bits) - 1)
    key = packed >> bits
    first = np.ones(n, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    return idx.take(order[starts], axis=0), np.diff(starts, append=n)


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


@lru_cache(maxsize=16)
def class_table(cluster: ClusterSpec) -> ClassTable:
    """Compile the class table of a cluster: its classes (`_class_fold`) merged into columns.

    A column is keyed by the sorted energies and the sorted dual codes of a
    class's configurations, the multisets of `ClassTable`; the first class
    of a column represents it.
    """
    multiplicity, representative = _class_fold(cluster)
    S = cluster.slot_count
    # energies lie in [-S, 3S], and the kernel subtracts each row's largest
    dtype = np.min_scalar_type(-4 * S)
    counts = np.concatenate([block.astype(dtype) for block in count_rows(cluster, representative)], axis=1)
    energy, cell0, sign = counts
    # a configuration's dual code: its cell-0 count, moved past S where its
    # dual sign is -1, and -1 where its term is 0
    dual = np.where(sign == 0, -1, cell0 + (sign < 0) * (S + 1)).astype(dtype)
    _, first, column = _unique_rows(np.concatenate([np.sort(energy, axis=0), np.sort(dual, axis=0)]).T)
    m, n = support_size(cluster.layers), len(multiplicity)
    state_counts = np.bincount((np.arange(n)[:, None] * m + representative).ravel(), minlength=n * m)
    count_vectors, _, vector = _unique_rows(state_counts.reshape(n, m))
    pairs, pair = np.unique(column * len(count_vectors) + vector, return_inverse=True)
    table = ClassTable(
        representative[first],
        np.ascontiguousarray(counts[:, :, first]),
        count_vectors.astype(np.intp),
        (pairs // len(count_vectors)).astype(np.intp),
        (pairs % len(count_vectors)).astype(np.intp),
        np.bincount(pair, weights=multiplicity).astype(np.int64),
    )
    for array in vars(table).values():
        array.flags.writeable = False
    return table


def _exact_gaps(K: np.ndarray, probs: np.ndarray, cluster: ClusterSpec, table: ClassTable) -> list[float]:
    """Delta at each point of a slice, from its couplings and (points, states) probabilities.

    Every assignment of a column has the column's primal and dual sums, so
    the table's compiled counts of the column representatives go through
    the kernel's values step, `log_factor_batch`, and each column counts
    its weight W times: the sum over its pairs of multiplicity *
    probability, with the probabilities multiplied out once per distinct
    state-count vector. A column of positive weight whose dual sum is not
    positive raises NonPositiveDual. Each column's rounding bound, weighed
    the same way, bounds the rounding of Delta; past ROUNDING_SHARE *
    GAP_FLOOR the point raises UnsignedDual, naming the representative of
    the column that weighs most in it. A point's bits do not depend on
    which other points share its slice: its weights add up in pair order.
    Only columns of positive weight enter a point's `fsum`, which rounds
    the exact sum once, so leaving out the zero terms keeps its bits.
    """
    logp, logd, sign, rounding = log_factor_batch(cluster, (table.counts,), K)
    # p**k for every state and slot count k, so each weight is a product of
    # table entries rather than of fresh powers
    powers = probs[:, :, None] ** np.arange(cluster.slot_count + 1)
    states = np.arange(probs.shape[1])[:, None]
    weight = np.prod(powers[:, states, table.count_vectors.T], axis=1)[:, table.count_index]
    # each point's bins are its own, so bincount adds each column's pairs in order
    points, columns = logp.shape
    bins = (np.arange(points)[:, None] * columns + table.column_index).ravel()
    W = np.bincount(bins, (table.multiplicity * weight).ravel(), points * columns).reshape(points, columns)
    # columns of zero probability (q = 0, or p on the support boundary) never
    # enter the average, whatever the sign or rounding of their dual sum
    positive = W > 0.0
    bad = (sign <= 0) & positive
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        _require_positive_dual(cluster, bad[i], table.representative, K[i])
    error = W * np.where(positive, rounding, 0.0)
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
    return [math.fsum(v[w].tolist()) for v, w in zip(terms, positive)]


def check_seed(seed: int) -> int:
    """A Monte Carlo seed as an int; ValueError for one that is not an integer in [0, 2**128), the Philox keys."""
    key = _integer("seed", seed)
    if not 0 <= key < 2**128:
        raise ValueError(f"seed={seed} must lie in [0, 2**128)")
    return key


def _chunk_uniforms(seed: int, cluster: ClusterSpec, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, S) uniforms of chunk [lo, hi) of a sampled gap.

    They come from the Philox stream keyed by seed, advanced by lo*S counter
    steps, so they depend on the chunk partition only, never on p, q or the
    worker count.
    """
    S = cluster.slot_count
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(lo * S)
    return np.random.Generator(bitgen).random((hi - lo, S))


def _sampled_chunks(K: float, probs: np.ndarray, cluster: ClusterSpec):
    """The function that sums one chunk of a sampled gap at one point from its uniforms.

    The uniforms are those of `_chunk_uniforms`, drawn once per chunk and
    call of `gap_batch` and shared by all the call's points. A row's state
    is the number of cumulative probabilities at or below its uniform,
    summed as int8 from the comparisons' bytes. Only the chunk's distinct
    rows go through the kernel, both steps, and every one is checked for a
    positive dual sum larger than its rounding (NonPositiveDual and
    UnsignedDual), so every sampled one is. It returns
    the count-weighted sum of Delta and of its squared deviations about the
    chunk mean.
    """
    cum = np.cumsum(probs)
    cum[-1] = 1.0

    def chunk_stats(u: np.ndarray) -> tuple[float, float]:
        # u < 1 = cum[-1], so the last cumulative probability never counts
        states = (u >= cum[0]).view(np.int8)
        for c in cum[1:-1]:
            states += (u >= c).view(np.int8)
        rows, count = _distinct_rows(states, len(cum))
        logp, logd, sign, rounding = (
            a[0] for a in log_factor_batch(cluster, count_rows(cluster, rows), [K])
        )
        _require_positive_dual(cluster, sign <= 0, rows, K, rounding)
        delta = logp - logd
        total = float((count * delta).sum())
        return total, float((count * (delta - total / len(u)) ** 2).sum())

    return chunk_stats


def _combine_chunks(cluster: ClusterSpec, bounds, partials, samples: int) -> tuple[float, float]:
    """Mean and standard error of a sampled gap from its chunk sums, combined in chunk order."""
    mean = math.fsum(total for total, _ in partials) / samples
    # each chunk's squared deviations about its own mean, moved to the overall mean
    variance = math.fsum(
        m2 + (hi - lo) * (total / (hi - lo) - mean) ** 2
        for (lo, hi), (total, m2) in zip(bounds, partials)
    ) / (samples - 1)
    std_error = math.sqrt(variance / samples)
    if not math.isfinite(mean):
        raise NonFinite(f"sampled gap on cluster {cluster.name!r} is not finite")
    return mean, std_error


def _sample_count(mc_samples: int | None) -> int:
    """DEFAULT_MC_SAMPLES for None, else `mc_samples` as an int of at least MIN_MC_SAMPLES (ValueError)."""
    if mc_samples is None:
        return DEFAULT_MC_SAMPLES
    samples = _integer("mc_samples", mc_samples)
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    return samples


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
) -> tuple[np.ndarray, np.ndarray]:
    """Delta(p, q) and its standard error at every point (p[i], q[i]) of a channel kind.

    Returns two float arrays in the order of the points; the standard
    error is 0.0 on exact points. The points are checked once, by
    `model.check_points` (see `_round_points`), and no object is built per
    point.

    policy "exact" sums every assignment through the cluster's class table
    and raises TooManyTerms, before compiling anything, when `exact_work`
    exceeds TERM_BUDGET; "monte-carlo" samples. Exact points are cut into
    slices of at most EXACT_SLICE (points x columns x configurations)
    elements, one point at least, which run one after another on the
    calling thread. Sampled points share their `_chunk_bounds` chunks: the
    chunks are taken in groups of `worker_count(workers)`, each group's
    uniforms are drawn once over that many threads, and then every (point,
    chunk) item of the group is summed over them, reading the shared draws.
    So a call draws each chunk once, whatever its number of points, and
    holds at most `worker_count(workers)` draws at a time. An explicit
    `workers` below 1 is refused on either path, and so is a sampled
    `mc_samples` or `seed` that is not an integer. Each point's value is
    bit-identical to evaluating it alone, with any worker count; sampled
    chunks are combined per point in chunk order.
    """
    if workers is not None:
        worker_count(workers)
    check_policy(policy)
    K, probs = _round_points(kind, p, q)
    _check_layers(kind, cluster)
    if policy == MONTE_CARLO:
        samples = _sample_count(mc_samples)
        seed = check_seed(seed)
        if not len(K):
            return np.zeros(0), np.zeros(0)
        bounds = _chunk_bounds(samples, cluster)
        stats = [_sampled_chunks(k, row, cluster) for k, row in zip(K.tolist(), probs)]
        nworkers = worker_count(workers)
        partials = [[] for _ in stats]
        for start in range(0, len(bounds), nworkers):
            group = bounds[start : start + nworkers]
            draws = _run_chunks(_chunk_uniforms, [(seed, cluster, lo, hi) for lo, hi in group], nworkers)
            sums = _run_chunks(lambda fn, u: fn(u), [(fn, u) for fn in stats for u in draws], nworkers)
            # freed before the next group is drawn: at most nworkers draws at a time
            del draws
            for i, point in enumerate(partials):
                point.extend(sums[i * len(group) : (i + 1) * len(group)])
        delta, std_error = np.array(
            [_combine_chunks(cluster, bounds, point, samples) for point in partials]
        ).T
        return delta, std_error
    work = exact_work(cluster)
    if work > TERM_BUDGET:
        raise TooManyTerms(
            f"exact enumeration needs {work} terms (assignments x internal configurations), "
            f"past the budget of {TERM_BUDGET}; sample the gap instead: the monte-carlo "
            f"policy, or --mc-samples on the command line"
        )
    table = class_table(cluster)
    step = max(1, EXACT_SLICE // (len(table.representative) * cluster.config_count))
    values = []
    for lo in range(0, len(K), step):
        values += _exact_gaps(K[lo : lo + step], probs[lo : lo + step], cluster, table)
    delta = np.array(values, dtype=np.float64)
    finite = np.isfinite(delta)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFinite(f"gap on cluster {cluster.name!r} is not finite at p={p[i]}, q={q[i]}")
    return delta, np.zeros_like(delta)


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
    `_sampled_chunks` for its draws.
    """
    delta, std_error = gap_batch(
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
