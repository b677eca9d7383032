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
form one class. The class table of a cluster is compiled once and cached;
an evaluation weighs each class's log-sum-exp by its multiplicity and its
disorder probability. Monte Carlo sampling covers clusters whose exact work
exceeds TERM_BUDGET; it uses a counter-based generator so that the
uniforms of every chunk of samples are reproducible and identical across
different p, which keeps the estimated gap continuous during root finding.
Since they do not depend on the point, one call draws each chunk once, in
groups of `worker_count` chunks, and all its points read that draw.
Sampled rows repeat often (near the root of B only 2-27 % of them are
distinct), so each chunk sums its distinct rows once, weighted by their
counts: the cost is per distinct row of a chunk.

Both paths read the same per-(disorder state, parity cell) log-weight
tables, built in `duality` from the edge factors and their Hadamard duals:
exact evaluation multiplies them into the class table's histograms, and
Monte Carlo passes the sampled state indices to `duality.log_factor_batch`.

`gap_batch` evaluates many (p, q) points on one cluster in one call, as a
root finder's round does: it takes the channel kind and sequences of p and
q, and returns arrays of Delta and of its standard error. It checks the
round's points once, with the error texts of `model.ChannelSpec` and
`model.nishimori_coupling`, and builds the points' couplings and disorder
probabilities as arrays, without a model object per point: each K from the
scalar `model.coupling`, the probabilities element-wise from
`model.disorder_probs`, so both have the bits of the per-point model API.
`gap` and `gap_monte_carlo` are its one-point case, from a `ChannelSpec` to a
`GapEvaluation`. Exact points share array operations in slices on the
calling thread, sampled points share the draws of each chunk and a pool of
chunk sums, and no point's value depends on its neighbours in the call.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import model
from .cluster import (
    CONFIG_BLOCK,
    ClusterSpec,
    NonFinite,
    ShapeMismatch,
    SignedLogSum,
    _iter_parity_blocks,
)
from .duality import (
    _dual_terms,
    _log_weight_tables,
    _require_positive_dual,
    _slot_cells,
    log_factor_batch,
)

EXACT = "exact"
MONTE_CARLO = "monte-carlo"
POLICIES = (EXACT, MONTE_CARLO)

# bound on exact_work, checked before anything is compiled
TERM_BUDGET = 10**8
DEFAULT_MC_SAMPLES = 100_000
MIN_MC_SAMPLES = 1000

# Monte Carlo samples are processed in fixed-size chunks. The partition
# depends only on the cluster and the sample count, never on the worker count,
# so parallel runs are bit-identical: per-chunk sums are combined in chunk
# order with fsum. The draws themselves depend on the partition (a chunk's
# stream starts at its first sample times the slot count).
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


def worker_count(workers: int | None = None) -> int:
    """Resolve a worker count: explicit argument, THRESHOLD_WORKERS, or all cores.

    Raises ValueError when `workers` is below 1, or when THRESHOLD_WORKERS is
    set but is not an integer of at least 1.
    """
    if workers is not None:
        if int(workers) < 1:
            raise ValueError(f"workers={workers!r} must be at least 1")
        return int(workers)
    env = os.environ.get("THRESHOLD_WORKERS", "").strip()
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"THRESHOLD_WORKERS={env!r} must be an integer of at least 1")
    return int(env)


def support_size(layers: int) -> int:
    """Disorder states per slot: +1, -1, lost on one layer; four sign pairs and lost on two."""
    return 3 if layers == 1 else 5


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
    size = max(1, min(_CHUNK_MAX, _CHUNK_TARGET // cluster.config_count))
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

    The first point out of range raises the DomainError that
    `model.ChannelSpec` raises for it; if every point passes those checks,
    the first one outside the coupling's domain raises that of
    `model.nishimori_coupling`. K comes point by point from the scalar
    `model.coupling` (numpy's log does not round as `math.log` does), and
    the probabilities from `model.disorder_probs` element-wise, so every
    entry has the bits of `nishimori_coupling` and `disorder_distribution`
    at its point.
    """
    model.check_kind(kind)
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError(f"p and q must be sequences of one length, got {p.shape} and {q.shape}")
    in_spec = (p >= 0.0) & (p <= 1.0) & (q >= 0.0) & (q <= 1.0)
    in_domain = (p >= model.MIN_ERROR_RATE) & (p <= model.MAX_ERROR_RATE[kind])
    for ok in (in_spec, in_domain):
        if not ok.all():
            i = int(np.argmin(ok))
            model.nishimori_coupling(model.ChannelSpec(kind, float(p[i]), float(q[i])))
    coupling = model.coupling
    K = np.array([coupling(kind, x) for x in p.tolist()], dtype=np.float64)
    return K, np.stack(model.disorder_probs(kind, p, q), axis=1)


@dataclass(frozen=True)
class ClassTable:
    """Disorder classes of a cluster, with the rows they are built from.

    A row is one internal-spin configuration seen through an assignment: the
    number of slots in each (disorder state, parity cell), flattened as
    state * cells + cell. Cells are the parities of a slot's edges, (primal)
    on one layer and (primal, dual) on two, in the component order of
    `edge_factor_single` / `edge_factor_twolayer`. A class is the sorted
    vector of the rows of all 2^internal configurations; every assignment in
    it has the same primal and dual sums and the same probability.
    """

    histograms: np.ndarray  # (rows, states * cells) slot counts per row
    classes: np.ndarray  # (classes, 2^internal) row ids, sorted within a class
    state_counts: np.ndarray  # (classes, states) slots in each disorder state
    multiplicity: np.ndarray  # (classes,) assignments in each class
    representative: np.ndarray  # (classes, slots) state indices of one assignment


def _parity_cells(cluster: ClusterSpec, dtype) -> np.ndarray:
    """Cell of every slot in every configuration (`_slot_cells`), shape (2^internal, slots)."""
    return np.concatenate([_slot_cells(P, D).astype(dtype) for P, D in _iter_parity_blocks(cluster)])


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique over rows, comparing each row as one block of bytes (much faster than axis=0)."""
    a = np.ascontiguousarray(a)
    keys = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return a[first], first, inverse.reshape(-1)


def _distinct_rows(idx: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of base-m state indices and how often each occurs.

    A row's digits are packed into as many int64 words as its length needs,
    the last word the most significant, and the words are folded into one
    int64 key per row: key = rank(key) * n + rank(word), last word first,
    with dense ranks below n, so that ascending keys order the rows as a
    lexsort of their words would. One argsort of the keys brings equal rows
    together, so the order of the distinct rows depends only on `idx`.
    """
    n, S = idx.shape
    digits = math.floor(63 / math.log2(m))
    place = m ** np.arange(digits, dtype=np.int64)
    words = [idx[:, lo : lo + digits] @ place[: S - lo] for lo in range(0, S, digits)]
    key = words[-1]
    for word in reversed(words[:-1]):
        key_rank, word_rank = (np.unique(a, return_inverse=True)[1] for a in (key, word))
        key = key_rank * n + word_rank
    order = np.argsort(key)
    key = key[order]
    first = np.ones(n, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    return idx[order[starts]], np.diff(starts, append=n)


@lru_cache(maxsize=16)
def class_table(cluster: ClusterSpec) -> ClassTable:
    """Compile the disorder classes of a cluster by folding in one slot at a time.

    While slots are being assigned, a row also carries the cells of the slots
    still to come, so that the next slot's state moves each row to a new row
    without knowing its configuration. After every slot, classes that became
    equal are merged and their multiplicities added. One assignment of each
    class is kept as its representative, so errors can name concrete signs.
    """
    m = support_size(cluster.layers)
    cells = 2 * cluster.layers
    width = m * cells
    count_type = np.min_scalar_type(cluster.slot_count)
    pending, _, row_of_config = _unique_rows(_parity_cells(cluster, count_type))
    hist = np.zeros((len(pending), width), dtype=count_type)
    classes = np.sort(row_of_config.astype(np.int32)[None, :], axis=1)
    multiplicity = np.ones(1, dtype=np.int64)
    representative = np.zeros((1, 0), dtype=np.int64)
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
            [representative[first % n], (first // n)[:, None]], axis=1
        )
    state_counts = hist[classes[:, 0]].reshape(-1, m, cells).sum(axis=2)
    table = ClassTable(hist, classes, state_counts, multiplicity, representative)
    for array in (hist, classes, state_counts, multiplicity, representative):
        array.flags.writeable = False
    return table


def _exact_gaps(
    K: np.ndarray, probs: np.ndarray, support, cluster: ClusterSpec, table: ClassTable
) -> list[float]:
    """Delta at each point of a slice, from its couplings and (points, states) probabilities.

    The log-weight tables of all points are built at once, and each point's
    rows come from its own product with the histograms, so a point's bits do
    not depend on which other points share its slice. The class log-sum-exp
    and weighting run over the slice as arrays laid out configuration-major
    (or state-major), so that their reductions over a class's few
    configurations (or states) are element-wise passes over whole arrays.
    """
    n = len(K)
    # (points, states * cells, 4): a point's four terms per (state, cell), one column each
    tables = np.ascontiguousarray(_log_weight_tables(cluster.layers, support, K).reshape(4, -1, n).T)
    H = table.histograms.astype(np.float64)
    log_p, log_d, zeros, negatives = np.stack([(H @ t).T for t in tables], axis=1)
    log_d, sign_d = _dual_terms(log_d, zeros, negatives)

    configs = np.ascontiguousarray(table.classes.T)
    primal_sum, dual_sum = SignedLogSum((n, configs.shape[1])), SignedLogSum((n, configs.shape[1]))
    primal_sum.add(log_p[:, configs].transpose(0, 2, 1))
    dual_sum.add(log_d[:, configs].transpose(0, 2, 1), sign_d[:, configs].transpose(0, 2, 1))
    logp, _ = primal_sum.result()
    logd, sign = dual_sum.result()

    # p**k for every state and slot count k, so each class weight is a
    # product of table entries rather than of fresh powers
    powers = probs[:, :, None] ** np.arange(cluster.slot_count + 1)
    states = np.arange(len(support))[:, None]
    weight = np.prod(powers[:, states, table.state_counts.T], axis=1)
    # classes of zero probability (q = 0, or p on the support boundary) never
    # enter the average, whatever the sign of their dual sum
    bad = (sign <= 0) & (weight > 0.0)
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        _require_positive_dual(cluster, bad[i], table.representative, support, K[i])
    delta = logp - np.where(sign > 0, logd, logp)
    return [math.fsum(v.tolist()) for v in table.multiplicity * weight * delta]


def check_seed(seed: int) -> None:
    """Refuse a Monte Carlo seed that cannot key the Philox stream."""
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed={seed} must lie in [0, 2**128)")


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


def _sampled_chunks(K: float, probs: np.ndarray, support, cluster: ClusterSpec):
    """The function that sums one chunk of a sampled gap at one point from its uniforms.

    The uniforms are those of `_chunk_uniforms`, drawn once per chunk and
    call of `gap_batch` and shared by all the call's points. A row's state
    is the number of cumulative probabilities at or below its uniform. Only
    the chunk's distinct rows go through `log_factor_batch`, and every one
    is checked for a positive dual sum, so every sampled one is. It returns
    the count-weighted sum of Delta and of its squared deviations about the
    chunk mean.
    """
    cum = np.cumsum(probs)
    cum[-1] = 1.0

    def chunk_stats(u: np.ndarray) -> tuple[float, float]:
        # u < 1 = cum[-1], so the last cumulative probability never counts
        rows, count = _distinct_rows(sum(u >= c for c in cum[:-1]), len(cum))
        logp, logd, sign = log_factor_batch(cluster, support, rows, K)
        _require_positive_dual(cluster, sign <= 0, rows, support, K)
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
    return int(DEFAULT_MC_SAMPLES if mc_samples is None else mc_samples)


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
    error is 0.0 on exact points. The points are checked once, with the
    DomainError texts of `model.ChannelSpec` and `model.nishimori_coupling`
    (see `_round_points`), and no per-point model object is built.

    policy "exact" sums every assignment through the cluster's class table
    and raises TooManyTerms, before compiling anything, when `exact_work`
    exceeds TERM_BUDGET; "monte-carlo" samples. Exact points are cut into
    slices of at most CONFIG_BLOCK (points x classes x configurations)
    elements, one point at least, which run one after another on the
    calling thread. Sampled points share their `_chunk_bounds` chunks: the
    chunks are taken in groups of `worker_count(workers)`, each group's
    uniforms are drawn once over that many threads, and then every (point,
    chunk) item of the group is summed over them, reading the shared draws.
    So a call draws each chunk once, whatever its number of points, and
    holds at most `worker_count(workers)` draws at a time. An explicit
    `workers` below 1 is refused on either path. Each point's value is
    bit-identical to evaluating it alone, with any worker count; sampled
    chunks are combined per point in chunk order.
    """
    if workers is not None:
        worker_count(workers)
    check_policy(policy)
    K, probs = _round_points(kind, p, q)
    _check_layers(kind, cluster)
    support = model.SUPPORT[kind]
    if policy == MONTE_CARLO:
        samples = _sample_count(mc_samples)
        if samples < MIN_MC_SAMPLES:
            raise ValueError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
        check_seed(seed)
        if not len(K):
            return np.zeros(0), np.zeros(0)
        bounds = _chunk_bounds(samples, cluster)
        stats = [_sampled_chunks(k, row, support, cluster) for k, row in zip(K.tolist(), probs)]
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
    step = max(1, CONFIG_BLOCK // table.classes.size)
    values = []
    for lo in range(0, len(K), step):
        values += _exact_gaps(K[lo : lo + step], probs[lo : lo + step], support, cluster, table)
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
    disorder assignments (3^S or 5^S) of an exact one.
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


def gap_monte_carlo(
    channel: model.ChannelSpec,
    cluster: ClusterSpec,
    samples: int,
    seed: int = 0,
    *,
    workers: int | None = None,
) -> GapEvaluation:
    """Unbiased sampled estimate of Delta(p, q) with its standard error.

    `gap_batch` at one point with the monte-carlo policy; see
    `_sampled_chunks` for the draws. Raises ValueError for fewer than
    MIN_MC_SAMPLES samples or a seed outside [0, 2**128).
    """
    return gap(channel, cluster, MONTE_CARLO, mc_samples=samples, seed=seed, workers=workers)


def gap_closed_form_single(kind: str, p: float, q: float) -> float:
    """Hand-reduced Delta for the one-unit clusters; an independent oracle.

    For a single edge the three disorder states give
    Delta = (1-q)(1-2p)K - ln(2)/2 - (1-q) ln cosh K. Its root is equivalent
    to H2(p) = 1 - 1/(2(1-q)) with H2 the binary entropy in bits. For the
    single two-layer crossing,
    Delta = (1-q)(3-4p)K - q ln 2 - (1-q) ln((e^{3K} + 3 e^{-K})/2).
    """
    if kind == model.UNCORRELATED:
        K = 0.5 * math.log((1.0 - p) / p)
        return (
            (1.0 - q) * (1.0 - 2.0 * p) * K
            - 0.5 * math.log(2.0)
            - (1.0 - q) * math.log(math.cosh(K))
        )
    if kind == model.DEPOLARIZING:
        K = 0.25 * math.log(3.0 * (1.0 - p) / p)
        return (
            (1.0 - q) * (3.0 - 4.0 * p) * K
            - q * math.log(2.0)
            - (1.0 - q) * math.log(0.5 * (math.exp(3.0 * K) + 3.0 * math.exp(-K)))
        )
    raise model.DomainError(f"unknown channel kind {kind!r}")
