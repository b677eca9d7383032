"""Disorder-averaged gap: exact enumeration, sampling, and the closed forms."""

from __future__ import annotations

import itertools
import json
import math
import re
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from lossthreshold import cluster, duality, model, replica, solver
from lossthreshold.cluster import (
    ClusterSpec,
    NonFinite,
    ShapeMismatch,
    Slot,
    Vertex,
    builtin_cluster,
    builtin_names,
    cluster_partition,
    log_partition_batch,
    slot_cells,
)
from lossthreshold.duality import (
    NonPositiveDual,
    UnsignedDual,
    count_levels,
    count_rows,
    dual_cluster_partition,
    dual_edge_factor,
    edge_factor,
    log_factor_batch,
)
from lossthreshold.model import ChannelSpec, DomainError, EdgeDisorder
from lossthreshold.replica import (
    EXACT,
    MIN_MC_SAMPLES,
    MONTE_CARLO,
    TERM_BUDGET,
    TooManyTerms,
    class_table,
    gap,
    gap_batch,
    gap_closed_form_single,
    worker_count,
)
from lossthreshold.solver import BRACKET_LO, BRACKET_MARGIN, NoSignChange, solve_threshold, sweep

CHANNEL_OF = {
    "single": "uncorrelated",
    "A": "uncorrelated",
    "B": "uncorrelated",
    "C": "depolarizing",
    "D": "depolarizing",
    "E": "depolarizing",
}


def _row_kernel(spec: ClusterSpec, support, idx: np.ndarray, K) -> tuple[np.ndarray, ...]:
    """The row kernel's four (points, rows) outputs for rows of indices into `support`: both steps.

    The kernel reads indices into the support of the cluster's layer count,
    so `support` must be that one.
    """
    assert support == model.LAYER_SUPPORT[spec.layers]
    return log_factor_batch(spec, count_levels(spec, idx), K)


def _one_point(spec: ClusterSpec, support, idx: np.ndarray, K: float) -> tuple[np.ndarray, ...]:
    """The row kernel's four (rows,) outputs at one coupling K."""
    return tuple(a[0] for a in _row_kernel(spec, support, idx, [K]))


def _brute_force_row(spec: ClusterSpec, assignment, K: float) -> tuple[float, float]:
    """(x_0, x_0*) of one assignment by a plain loop over internal spins.

    The dual weights are the hand-reduced closed forms: sqrt2 cosh K and
    tau sqrt2 sinh K on one layer, A and signed S on two, and sqrt2 (resp. 2)
    at even parity only for a diluted slot.
    """
    index = {v.id: i for i, v in enumerate(spec.vertices)}
    internal = [index[i] for i in spec.internal_ids]
    a_const = 0.5 * (math.exp(3.0 * K) + 3.0 * math.exp(-K))
    s_const = 0.5 * (math.exp(3.0 * K) - math.exp(-K))
    z = zd = 0.0
    for bits in itertools.product((1, -1), repeat=len(internal)):
        spin = [1] * len(spec.vertices)
        for value, pos in zip(bits, internal):
            spin[pos] = value
        energy = 0.0
        dual_term = 1.0
        for slot, d in zip(spec.slots, assignment):
            pp = spin[index[slot.primal_edge[0]]] * spin[index[slot.primal_edge[1]]]
            if spec.layers == 1:
                if d.diluted:
                    dual_term *= math.sqrt(2.0) * (pp > 0)
                else:
                    energy += K * d.sign * pp
                    dual_term *= math.sqrt(2.0) * (
                        math.cosh(K) if pp > 0 else d.sign * math.sinh(K)
                    )
            else:
                dd = spin[index[slot.dual_edge[0]]] * spin[index[slot.dual_edge[1]]]
                if d.diluted:
                    dual_term *= 2.0 * (pp > 0) * (dd > 0)
                else:
                    energy += K * (d.sign * pp + d.dual_sign * dd + d.sign * d.dual_sign * pp * dd)
                    if pp > 0 and dd > 0:
                        dual_term *= a_const
                    elif pp > 0:
                        dual_term *= d.dual_sign * s_const
                    elif dd > 0:
                        dual_term *= d.sign * s_const
                    else:
                        dual_term *= d.sign * d.dual_sign * s_const
        z += math.exp(energy)
        zd += dual_term
    return z, zd


def _brute_force_gap(kind: str, name: str, p: float, q: float) -> float:
    """Plain nested-loop quenched average, independent of the array pipeline."""
    spec = builtin_cluster(name)
    support, probs = model.SUPPORT[kind], model.disorder_probs(kind, p, q)
    K = model.coupling(kind, p)
    terms = []
    for states in itertools.product(range(len(support)), repeat=spec.slot_count):
        weight = math.prod(probs[s] for s in states)
        if weight == 0.0:
            continue
        z, zd = _brute_force_row(spec, [support[s] for s in states], K)
        terms.append(weight * (math.log(z) - math.log(zd)))
    return math.fsum(terms)


@pytest.mark.parametrize("p", [0.05, 0.11, 0.2, 0.35, 0.5])
@pytest.mark.parametrize("q", [0.0, 0.1, 0.45])
def test_gap_matches_closed_form_uncorrelated(p, q):
    value = gap(ChannelSpec("uncorrelated", p, q), builtin_cluster("single"))
    assert value.method == EXACT
    assert value.terms == 3
    assert abs(value.delta - gap_closed_form_single("uncorrelated", p, q)) <= 1e-12


@pytest.mark.parametrize("p", [0.05, 0.19, 0.4, 0.6])
@pytest.mark.parametrize("q", [0.0, 0.2, 0.45])
def test_gap_matches_closed_form_depolarizing(p, q):
    value = gap(ChannelSpec("depolarizing", p, q), builtin_cluster("C"))
    assert value.terms == 5
    assert abs(value.delta - gap_closed_form_single("depolarizing", p, q)) <= 1e-12


@pytest.mark.parametrize("q", [0.0, 0.3])
def test_gap_at_maximal_error_rate(q):
    # K = 0 makes the primal factor 1 and every dual factor sqrt(2)
    value = gap(ChannelSpec("uncorrelated", 0.5, q), builtin_cluster("single"))
    assert value.delta == pytest.approx(-0.5 * math.log(2.0), rel=1e-14)


def test_closed_form_rejects_unknown_kind():
    with pytest.raises(DomainError):
        gap_closed_form_single("amplitude-damping", 0.1, 0.0)


@pytest.mark.parametrize(
    "kind,name,p,q",
    [
        ("uncorrelated", "A", 0.09, 0.1),
        ("uncorrelated", "A", 0.02, 0.4),
        ("depolarizing", "D", 0.05, 0.2),
        ("depolarizing", "C", 0.19, 0.0),
    ],
)
def test_gap_matches_brute_force(kind, name, p, q):
    fast = gap(ChannelSpec(kind, p, q), builtin_cluster(name)).delta
    slow = _brute_force_gap(kind, name, p, q)
    assert abs(fast - slow) <= 1e-9


def test_gap_term_counts():
    assert gap(ChannelSpec("uncorrelated", 0.1, 0.1), builtin_cluster("A")).terms == 81
    assert gap(ChannelSpec("depolarizing", 0.1, 0.1), builtin_cluster("D")).terms == 625


def test_gap_delta_decreases_in_p():
    grid = [0.02, 0.05, 0.09, 0.13, 0.2, 0.3, 0.45]
    deltas = [gap(ChannelSpec("uncorrelated", p, 0.1), builtin_cluster("A")).delta for p in grid]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_gap_layer_mismatch():
    with pytest.raises(ShapeMismatch):
        gap(ChannelSpec("uncorrelated", 0.1, 0.0), builtin_cluster("C"))
    with pytest.raises(ShapeMismatch):
        gap(ChannelSpec("depolarizing", 0.1, 0.0), builtin_cluster("A"))


def test_table_gaps_needs_one_table_per_point():
    # three points on two tables returned two values
    spec = builtin_cluster("A")
    with pytest.raises(ValueError, match="one table per point"):
        replica.table_gaps("uncorrelated", [0.1, 0.2, 0.3], [0.1] * 3, spec, [class_table(spec)] * 2)


def _two_spin_path() -> ClusterSpec:
    """Four slots, as on A, but two internal spins: four configurations where A has two."""
    vertices = (Vertex("i0", "internal"), Vertex("i1", "internal"), Vertex("b0", "boundary"), Vertex("b1", "boundary"))
    edges = (("b0", "i0"), ("i0", "i1"), ("i1", "b1"), ("b0", "i1"))
    return ClusterSpec("path2", 1, vertices, tuple(Slot(e) for e in edges))


def _one_spin_tail() -> ClusterSpec:
    """Four slots and one internal spin, as on A, but one slot ties two boundary spins instead of the centre."""
    vertices = (Vertex("c", "internal"),) + tuple(Vertex(f"b{k}", "boundary") for k in range(1, 5))
    edges = (("c", "b1"), ("c", "b2"), ("c", "b3"), ("b1", "b4"))
    return ClusterSpec("tail", 1, vertices, tuple(Slot(e) for e in edges))


@pytest.mark.parametrize(
    "cluster_of", [lambda: builtin_cluster("B"), _two_spin_path, _one_spin_tail],
    ids=["slots", "configurations", "geometry"],
)
def test_table_gaps_refuses_a_table_of_another_cluster(cluster_of):
    # A's class table read on B gave Delta -2.817 at (0.1, 0.1), where A's
    # own is -0.0447 and B's -0.1046; a table whose rows have the cluster's
    # slots but not its configurations is refused too, and so is one whose
    # slots and configurations both match: read on the tail cluster, A's
    # table gave A's -0.0447 where the tail's own is -0.0391
    table, spec = class_table(builtin_cluster("A")), cluster_of()
    assert table.cluster == builtin_cluster("A")
    with pytest.raises(ShapeMismatch, match="configurations"):
        replica.table_gaps("uncorrelated", [0.1], [0.1], spec, [table])
    own = replica.table_gaps("uncorrelated", [0.1], [0.1], spec, [class_table(spec)])[0]
    assert own.shape == (1,)
    if spec.name == "tail":
        assert (spec.slot_count, spec.config_count) == (4, 2)
        assert own[0] == pytest.approx(-0.0391, abs=5e-5)


def test_gap_policy_validation():
    with pytest.raises(ValueError):
        gap(ChannelSpec("uncorrelated", 0.1, 0.0), builtin_cluster("single"), "guess")


def test_term_budget_bounds_exact_work_only(monkeypatch):
    channel = ChannelSpec("uncorrelated", 0.1, 0.1)
    spec = builtin_cluster("B")
    exact = gap(channel, spec)
    assert exact.method == EXACT
    assert exact.terms == 3**12
    monkeypatch.setattr(replica, "TERM_BUDGET", 1000)
    with pytest.raises(TooManyTerms):
        gap(channel, spec)
    # the budget bounds exact work; sampling ignores it
    sampled = gap(channel, spec, MONTE_CARLO, mc_samples=2000, seed=3)
    assert sampled.method == MONTE_CARLO
    assert sampled.terms == 2000


def test_monte_carlo_minimum_samples():
    channel = ChannelSpec("uncorrelated", 0.09, 0.1)
    with pytest.raises(ValueError):
        gap(channel, builtin_cluster("A"), MONTE_CARLO, mc_samples=MIN_MC_SAMPLES - 1)


def test_monte_carlo_reproducible_and_seed_sensitive():
    channel = ChannelSpec("uncorrelated", 0.09, 0.1)
    star = builtin_cluster("A")
    first = gap(channel, star, MONTE_CARLO, mc_samples=20_000, seed=5)
    second = gap(channel, star, MONTE_CARLO, mc_samples=20_000, seed=5)
    other = gap(channel, star, MONTE_CARLO, mc_samples=20_000, seed=6)
    assert first.delta == second.delta
    assert first.std_error == second.std_error
    assert first.delta != other.delta
    assert first.method == MONTE_CARLO
    assert first.std_error > 0.0


def test_monte_carlo_worker_independence(monkeypatch):
    # small chunks, so that the draw spans 8 of them with a partial last one
    # and the merge of the chunks' distinct rows is exercised
    monkeypatch.setattr(replica, "_CHUNK_MAX", 4096)
    channel = ChannelSpec("depolarizing", 0.17, 0.05)
    spec = builtin_cluster("D")
    bounds = replica._chunk_bounds(30_000, spec)
    assert len(bounds) == 8 and bounds[-1][1] - bounds[-1][0] < 4096
    serial = gap(channel, spec, MONTE_CARLO, mc_samples=30_000, seed=9, workers=1)
    pooled = gap(channel, spec, MONTE_CARLO, mc_samples=30_000, seed=9, workers=4)
    assert serial.delta == pooled.delta
    assert serial.std_error == pooled.std_error


def _per_sample_monte_carlo(channel: ChannelSpec, spec: ClusterSpec, samples: int, seed: int):
    """Mean and standard error of Delta over every sampled row, one row each.

    Each chunk's uniforms are drawn again from the Philox stream, mapped to
    states by searchsorted on the cumulative probabilities, and every row,
    repeated or not, goes through the row kernel. The moments are exact
    fsum sums over all rows, the variance about the mean of all of them.
    """
    K = model.coupling(channel.kind, channel.p)
    support = model.SUPPORT[channel.kind]
    cum = np.cumsum(model.disorder_probs(channel.kind, channel.p, channel.q))
    cum[-1] = 1.0
    S = spec.slot_count
    deltas = []
    for lo, hi in replica._chunk_bounds(samples, spec):
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(lo * S)
        u = np.random.Generator(bitgen).random((hi - lo, S))
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        logp, logd, sign, _ = _one_point(spec, support, idx, K)
        assert np.all(sign > 0)
        deltas.extend((logp - logd).tolist())
    assert len(deltas) == samples
    mean = math.fsum(deltas) / samples
    variance = math.fsum((d - mean) ** 2 for d in deltas) / (samples - 1)
    rms = math.sqrt(math.fsum(d * d for d in deltas) / samples)
    return mean, math.sqrt(variance / samples), rms


def _wide_cluster(layers: int, slot_count: int) -> ClusterSpec:
    """One internal spin per layer on many slots, so that a row of states needs two int64 words."""
    layer_names = ("primal", "dual")[:layers]
    vertices = [Vertex(f"{layer[0]}0", "internal", layer) for layer in layer_names]
    vertices += [Vertex(f"{layer[0]}b{k}", "boundary", layer) for layer in layer_names for k in range(2)]
    pairs = [("{0}0", "{0}b0"), ("{0}0", "{0}b1"), ("{0}b0", "{0}b1")]
    slots = tuple(
        Slot(tuple(v.format("p") for v in pairs[k % 3]),
             tuple(v.format("d") for v in pairs[(k + 1) % 3]) if layers == 2 else None)
        for k in range(slot_count)
    )
    return ClusterSpec(f"wide{layers}", layers, tuple(vertices), slots)


@pytest.mark.parametrize(
    "spec",
    [builtin_cluster(name) for name in "ABDE"] + [_wide_cluster(1, 41), _wide_cluster(2, 30)],
    ids=lambda s: s.name,
)
def test_monte_carlo_matches_per_sample_sum(monkeypatch, spec):
    # the sampled gap reads a table drawn at its own p, whose columns merge
    # the distinct rows of its three chunks by level histograms, each row
    # weighted by its count times a likelihood ratio of 1 up to rounding,
    # and finds states by comparison; it must give the per-sample mean and
    # standard error at both bracket ends and near p_c. Where the mean
    # cancels to near zero (near p_c on a wide cluster) or the rows differ
    # by little more than their own rounding (at the upper end), agreement
    # is asked to within what one ulp of rounding in every row's delta would
    # move the mean and the standard error.
    monkeypatch.setattr(replica, "_CHUNK_MAX", 8192)
    real_count = duality.count_rows
    sliced = []

    def count_spy(*args):
        sliced.append(1)
        return real_count(*args)

    monkeypatch.setattr(duality, "count_rows", count_spy)
    kind = "uncorrelated" if spec.layers == 1 else "depolarizing"
    upper = (0.5 if spec.layers == 1 else 0.75) - BRACKET_MARGIN
    samples = 20_000
    assert len(replica._chunk_bounds(samples, spec)) == 3
    slices = []
    for q in (0.0, 0.2, 0.4):
        near = solve_threshold(kind, "single" if spec.layers == 1 else "C", q).p_c
        for p in (BRACKET_LO, near, upper):
            channel = ChannelSpec(kind, p, q)
            sliced.clear()
            got = gap(channel, spec, MONTE_CARLO, mc_samples=samples, seed=4)
            slices.append(len(sliced))
            mean, std_error, rms = _per_sample_monte_carlo(channel, spec, samples, seed=4)
            ulp = np.finfo(float).eps * rms
            assert got.delta == pytest.approx(mean, rel=1e-12, abs=ulp)
            assert got.std_error == pytest.approx(std_error, rel=1e-12, abs=ulp / math.sqrt(samples))
    # a cluster with more possible rows than one slice holds has tables whose
    # distinct rows span several slices of the counts step, joined before
    # any point reads them
    size = min(replica._ROW_BLOCK, replica._chunk_size(spec))
    assert (max(slices) > 1) == (replica.support_size(spec.layers) ** spec.slot_count > size)


def _ring_cluster(spins: int) -> ClusterSpec:
    """A single-layer ring of internal spins, tied to two boundary spins on opposite sides."""
    vertices = tuple(Vertex(f"i{k}", "internal") for k in range(spins)) + (
        Vertex("b0", "boundary"),
        Vertex("b1", "boundary"),
    )
    edges = [(f"i{k}", f"i{(k + 1) % spins}") for k in range(spins)]
    edges += [("b0", "i0"), ("b1", f"i{spins // 2}")]
    return ClusterSpec(f"ring{spins}", 1, vertices, tuple(Slot(e) for e in edges))


def test_monte_carlo_chunks_hold_one_count_table_of_rows():
    # a chunk holds _CHUNK_TARGET // count_block rows: a registered cluster's
    # table covers all its configurations, so its partition is the one by
    # configurations, while a 12-spin ring's 4 096 configurations take three
    # tables of at most 1 820, and its chunks 576 rows rather than 256
    for name in builtin_names():
        spec = builtin_cluster(name)
        assert duality.count_block(spec) == spec.config_count
    spec = _ring_cluster(12)
    assert duality.count_block(spec) == duality.CONFIG_BLOCK // 9 == 1820
    samples = MIN_MC_SAMPLES
    assert replica._chunk_bounds(samples, spec) == [(0, 576), (576, samples)]
    for p in (0.02, 0.08, 0.3):
        channel = ChannelSpec("uncorrelated", p, 0.1)
        got = gap(channel, spec, MONTE_CARLO, mc_samples=samples, seed=3)
        mean, std_error, rms = _per_sample_monte_carlo(channel, spec, samples, seed=3)
        ulp = np.finfo(float).eps * rms
        assert got.delta == pytest.approx(mean, rel=1e-12, abs=ulp)
        assert got.std_error == pytest.approx(std_error, rel=1e-12, abs=ulp / math.sqrt(samples))


def _same_levels(a: duality.Levels, b: duality.Levels) -> bool:
    """Whether two level histograms hold the same arrays, dtypes included."""
    return all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(vars(a).values(), vars(b).values()))


def test_drawn_tables_past_one_chunk_of_pairs_keep_only_their_levels(monkeypatch):
    # a 12-spin ring's 1 000 samples hold more (row, configuration) pairs
    # than _CHUNK_TARGET; its table counts each distinct row's level
    # histograms, at most 2S + 1 primal and S + 1 dual levels whatever its
    # 4 096 configurations, in slices of min(_ROW_BLOCK, _chunk_size) = 576
    # rows, and keeps those of its columns, fewer than its rows, with the
    # levels of all rows at once; a read counts no row again. Its
    # configurations come in several blocks, so each slice goes through
    # count_rows twice, for its rows' top and then for their levels. Each
    # point has the bits it has alone. So does a B table's.
    spec = _ring_cluster(12)
    kind, p, q = "uncorrelated", [0.07, 0.08, 0.09], [0.1] * 3
    real_count = duality.count_rows
    sliced = []

    def count_spy(cluster, rows):
        sliced.append(len(rows))
        return real_count(cluster, rows)

    monkeypatch.setattr(duality, "count_rows", count_spy)
    (table,) = replica.point_tables(kind, [0.08], [0.1], spec, MONTE_CARLO, mc_samples=MIN_MC_SAMPLES, seed=3)
    rows = len(_whole_draw(kind, 0.08, 0.1, spec, MIN_MC_SAMPLES, seed=3))
    columns, levels = len(table.representative), table.levels
    assert rows * spec.config_count > replica._CHUNK_TARGET
    assert spec.config_count > duality.count_block(spec)
    assert sliced == [size for size in [576] * (rows // 576) + [rows % 576] for _ in range(2)]
    assert columns < rows and table.draws.sum() == MIN_MC_SAMPLES
    assert levels.H.shape == (len(levels.r), columns) and len(levels.r) <= 2 * spec.slot_count + 1
    assert levels.D.shape == levels.A.shape == (len(levels.k), columns) and len(levels.k) <= spec.slot_count + 1
    monkeypatch.setattr(duality, "count_rows", real_count)
    assert _same_levels(levels, duality.count_levels(spec, table.representative))
    for spec, samples in ((spec, MIN_MC_SAMPLES), (builtin_cluster("B"), 20_000)):
        (table,) = replica.point_tables(kind, [0.08], [0.1], spec, MONTE_CARLO, mc_samples=samples, seed=3)
        monkeypatch.setattr(duality, "count_rows", None)
        together = replica.table_gaps(kind, p, q, spec, [table] * 3)
        for i in range(3):
            alone = replica.table_gaps(kind, p[i : i + 1], q[:1], spec, [table])
            assert all(np.array_equal(a, b[i : i + 1]) for a, b in zip(alone, together))
        monkeypatch.setattr(duality, "count_rows", real_count)


def test_sampled_gap_memory_does_not_grow_with_configurations():
    # keeping the counts of the 8 685 distinct rows of a 12-spin ring's draw
    # (10 000 samples) would take 3 x 4 096 bytes a row, 102 MiB; their level
    # histograms, counted a chunk of rows at a time, take 84 bytes a row (15
    # primal and 13 dual levels), and the gap's numpy and Python allocations
    # peak near 37 MiB
    spec = _ring_cluster(12)
    channel = ChannelSpec("uncorrelated", 0.1, 0.3)
    rows = len(_whole_draw("uncorrelated", 0.1, 0.3, spec, 10_000, seed=1))
    assert 3 * spec.config_count * rows > 100 * 2**20
    tracemalloc.start()
    try:
        gap(channel, spec, MONTE_CARLO, mc_samples=10_000, seed=1, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("m, S", [(3, 5), (3, 39), (3, 80), (5, 27), (5, 30)])
def test_distinct_rows_counts_every_row(m, S):
    # 80 slots of three states span three words; rows that agree in every
    # word but the last must still be told apart
    rng = np.random.default_rng(S)
    base = rng.integers(0, m, size=(6, S))
    idx = base[rng.integers(0, 6, size=3000)]
    idx[:, -1] = rng.integers(0, 2, size=3000)
    idx[:, 0] = rng.integers(0, 2, size=3000)
    rows, count = replica._distinct_rows(idx, m)
    expected = {}
    for row in map(tuple, idx):
        expected[row] = expected.get(row, 0) + 1
    assert dict(zip(map(tuple, rows), count.tolist())) == expected
    assert len(rows) == len(expected) and count.sum() == len(idx)
    shuffled, _ = replica._distinct_rows(idx[rng.permutation(len(idx))], m)
    assert np.array_equal(shuffled, rows)
    last_only = np.tile(base[0], (50, 1))
    last_only[:, -1] = np.arange(50) % m
    rows, count = replica._distinct_rows(last_only, m)
    assert len(rows) == m and np.all(count >= 50 // m)


def _lexsort_distinct(idx: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in the order a stable lexsort of their packed int64 words gives, last word primary."""
    n, S = idx.shape
    digits = math.floor(63 / math.log2(m))
    place = m ** np.arange(digits, dtype=np.int64)
    words = np.stack([idx[:, lo : lo + digits] @ place[: S - lo] for lo in range(0, S, digits)])
    order = np.lexsort(words)
    words = words[:, order]
    first = np.ones(n, dtype=bool)
    first[1:] = np.any(words[:, 1:] != words[:, :-1], axis=0)
    starts = np.flatnonzero(first)
    return idx[order[starts]], np.diff(starts, append=n)


def _word_count(m: int, S: int, n: int) -> int:
    """Int64 words `_distinct_rows` packs a row of S base-m digits into, in a batch of n rows."""
    return -(-S // math.floor((63 - n.bit_length()) / math.log2(m)))


@pytest.mark.parametrize("m, S, words", [(3, 12, 1), (3, 60, 2), (3, 80, 3), (5, 30, 2)])
def test_distinct_rows_come_in_lexsort_order(m, S, words):
    # a sampled point weighs its merged distinct rows in this order, so the
    # bits of its sums rest on it. Rows are drawn from a few bases with a few
    # digits changed, so that many repeat and many agree in every word but one.
    assert _word_count(m, S, 20_000) == words
    rng = np.random.default_rng(100 * m + S)
    base = rng.integers(0, m, size=(4, S))
    idx = base[rng.integers(0, 4, size=5000)]
    for _ in range(2):
        idx[np.arange(5000), rng.integers(0, S, size=5000)] = rng.integers(0, m, size=5000)
    idx = idx[rng.integers(0, 5000, size=20_000)]
    rows, count = replica._distinct_rows(idx, m)
    expected_rows, expected_count = _lexsort_distinct(idx, m)
    assert len(expected_rows) > 100
    assert np.array_equal(rows, expected_rows)
    assert np.array_equal(count, expected_count)


@pytest.mark.parametrize("m, S, words", [(3, 12, 1), (3, 60, 2), (3, 80, 3), (5, 30, 2)])
def test_int8_states_give_the_int64_distinct_rows(m, S, words):
    # Monte Carlo states are int8; their distinct rows, counts and order must
    # be those of the same states as int64
    assert _word_count(m, S, 4000) == words
    rng = np.random.default_rng(7 * m + S)
    base = rng.integers(0, m, size=(5, S))
    idx = base[rng.integers(0, 5, size=4000)]
    idx[np.arange(4000), rng.integers(0, S, size=4000)] = rng.integers(0, m, size=4000)
    rows, count = replica._distinct_rows(idx, m)
    narrow_rows, narrow_count = replica._distinct_rows(idx.astype(np.int8), m)
    assert narrow_rows.dtype == np.int8
    assert np.array_equal(narrow_rows, rows)
    assert np.array_equal(narrow_count, count)


@pytest.mark.parametrize("m, S, words", [(3, 36, 2), (3, 60, 3), (5, 27, 2), (5, 45, 3)])
def test_distinct_rows_of_a_full_chunk_match_numpy_unique(m, S, words):
    # at n = _CHUNK_MAX the row's position takes 17 low bits of each packed
    # key, so a word holds fewer digits than 63 bits would (36 base-3 or 27
    # base-5 digits fit one word of 63 bits but overflow it once shifted);
    # the rows, counts and order must still be np.unique's over the columns
    # taken last first
    n = replica._CHUNK_MAX
    assert _word_count(m, S, n) == words
    rng = np.random.default_rng(31 * m + S)
    base = rng.integers(0, m, size=(8, S), dtype=np.int8)
    idx = base[rng.integers(0, 8, size=n)]
    for column in (0, S // 2, S - 1):
        idx[:, column] = rng.integers(0, m, size=n)
    idx[rng.integers(0, n, size=n // 4), rng.integers(0, S, size=n // 4)] = 0
    rows, count = replica._distinct_rows(idx, m)
    expected_rows, expected_count = np.unique(idx[:, ::-1], axis=0, return_counts=True)
    assert 1000 < len(rows) < n
    assert np.array_equal(rows, expected_rows[:, ::-1])
    assert np.array_equal(count, expected_count)


def _count_draws(monkeypatch):
    """Wrap `replica._chunk_uniforms`; return a dict of its calls and of the draws alive, now and at most.

    A draw is alive from its return until its array is freed.
    """
    real = replica._chunk_uniforms
    lock = threading.Lock()
    seen = {"draws": 0, "alive": 0, "most_alive": 0}

    def released():
        with lock:
            seen["alive"] -= 1

    def counted(*args):
        u = real(*args)
        with lock:
            seen["draws"] += 1
            seen["alive"] += 1
            seen["most_alive"] = max(seen["most_alive"], seen["alive"])
        weakref.finalize(u, released)
        return u

    monkeypatch.setattr(replica, "_chunk_uniforms", counted)
    return seen


def _batch(kind: str, points: list[ChannelSpec], spec, *args, **kwargs) -> list[tuple]:
    """gap_batch at the p and q of `points`: each point's (delta, std_error)."""
    delta, std_error, _ = gap_batch(
        kind, [c.p for c in points], [c.q for c in points], spec, *args, **kwargs
    )
    return list(zip(delta.tolist(), std_error.tolist()))


def _eight_chunk_case(monkeypatch):
    monkeypatch.setattr(replica, "_CHUNK_MAX", 4096)
    spec = builtin_cluster("D")
    assert len(replica._chunk_bounds(30_000, spec)) == 8
    points = [ChannelSpec("depolarizing", p, q) for p, q in ((0.12, 0.0), (0.17, 0.05), (0.3, 0.3))]
    return spec, points


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_one_draw_per_chunk_per_call(monkeypatch, workers):
    # the uniforms of a chunk do not depend on the point, so a call draws
    # each of its 8 chunks once for all 3 points, in one pass of one item
    # per chunk, whatever the worker count
    spec, points = _eight_chunk_case(monkeypatch)
    alone = [gap(point, spec, MONTE_CARLO, mc_samples=30_000, seed=9, workers=1)
             for point in points]
    seen = _count_draws(monkeypatch)
    options = {"mc_samples": 30_000, "seed": 9, "workers": workers}
    batched = _batch("depolarizing", points, spec, MONTE_CARLO, **options)
    assert seen["draws"] == 8
    assert batched == [(a.delta, a.std_error) for a in alone]
    assert _batch("depolarizing", [], spec, MONTE_CARLO, **options) == []
    assert seen["draws"] == 8


@pytest.mark.parametrize("workers", [1, 2])
def test_shared_draws_stay_within_the_worker_count(monkeypatch, workers):
    # the chunk pass draws each chunk's uniforms in its own item and frees
    # them when the item returns, so no more draws are alive at once than
    # items run, one per worker
    spec, points = _eight_chunk_case(monkeypatch)
    seen = _count_draws(monkeypatch)
    _batch("depolarizing", points, spec, MONTE_CARLO, mc_samples=30_000, seed=9, workers=workers)
    assert seen["draws"] == 8
    assert 1 <= seen["most_alive"] <= workers
    assert seen["alive"] == 0


def _whole_draw(kind: str, p: float, q: float, spec: ClusterSpec, samples: int, seed: int) -> Counter:
    """How often each row of states occurs in a point's whole draw, every chunk's uniforms mapped by searchsorted."""
    cum = np.cumsum(model.disorder_probs(kind, p, q))
    cum[-1] = 1.0
    drawn = Counter()
    for lo, hi in replica._chunk_bounds(samples, spec):
        u = replica._chunk_uniforms(seed, spec, lo, hi)
        drawn.update(map(tuple, np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1).tolist()))
    return drawn


def _eight_chunk_b(monkeypatch):
    monkeypatch.setattr(replica, "_CHUNK_MAX", 4096)
    spec = builtin_cluster("B")
    assert replica._chunk_size(spec) == 4096 and len(replica._chunk_bounds(30_000, spec)) == 8
    return spec


def _drawn_pairs(spec: ClusterSpec, drawn: Counter) -> tuple[Counter, dict]:
    """The draws of each (level key, state counts) of a whole draw, and each level key's rows, from each row's own levels."""
    rows = np.array(list(drawn), dtype=np.int8)
    levels = duality.count_levels(spec, rows)
    pairs, rows_of = Counter(), {}
    for u, (row, counts) in enumerate(zip(rows, _state_counts(rows, replica.support_size(spec.layers)))):
        key = _level_key(levels, u)
        pairs[key, tuple(counts.tolist())] += drawn[tuple(row.tolist())]
        rows_of.setdefault(key, set()).add(tuple(row.tolist()))
    return pairs, rows_of


def _table_pairs(table: replica.ClassTable) -> dict:
    """The draws of each (level key, state counts) pair of a drawn table."""
    return {
        (_level_key(table.levels, u), tuple(table.count_vectors[v].tolist())): draws
        for u, v, draws in zip(table.column_index.tolist(), table.count_index.tolist(), table.draws.tolist())
    }


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_each_distinct_row_of_a_whole_draw_is_weighed_once(monkeypatch, workers):
    # the chunks of a draw only decode their rows; a table merges the
    # chunks' distinct rows, with their counts over all chunks, and counts
    # each row of its whole draw once, in slices of at most a chunk's rows.
    # Rows of equal level histograms share a column, represented by one of
    # them, and a pair's draws are the counts of its column's rows of one
    # state-count vector. Reading the table at other points counts no row
    # again.
    spec = _eight_chunk_b(monkeypatch)
    size = min(replica._ROW_BLOCK, replica._chunk_size(spec))
    real_count, real_merge = duality.count_rows, replica._merge_rows
    counted, merged = [], []

    def count_rows_spy(cluster, rows):
        counted.append(rows.copy())
        return real_count(cluster, rows)

    def merge_spy(chunks, m):
        rows, count = real_merge(chunks, m)
        merged.append(dict(zip(map(tuple, rows.tolist()), count.tolist())))
        return rows, count

    monkeypatch.setattr(duality, "count_rows", count_rows_spy)
    monkeypatch.setattr(replica, "_merge_rows", merge_spy)
    for p, q in ((0.1, 0.0), (0.08, 0.2), (0.05, 0.3)):
        for seen in (counted, merged):
            seen.clear()
        (table,) = replica.point_tables(
            "uncorrelated", [p], [q], spec, MONTE_CARLO, mc_samples=30_000, seed=5, workers=workers
        )
        drawn = _whole_draw("uncorrelated", p, q, spec, 30_000, seed=5)
        rows = Counter(map(tuple, np.concatenate(counted).tolist()))
        assert set(rows) == set(drawn) and set(rows.values()) == {1}
        assert all(len(block) <= size for block in counted)
        assert merged == [dict(drawn)]
        if q > 0.0:
            # past one slice of distinct rows, so a table joins several
            assert len(drawn) > size and len(counted) >= 2
        slices = len(counted)
        replica.table_gaps("uncorrelated", [p, 0.9 * p, 1.1 * p], [q] * 3, spec, [table] * 3)
        assert len(counted) == slices
        pairs, rows_of = _drawn_pairs(spec, drawn)
        assert _table_pairs(table) == pairs and table.draws.sum() == 30_000
        keys = [_level_key(table.levels, u) for u in range(len(table.representative))]
        assert sorted(keys) == sorted(rows_of) and len(keys) < len(drawn)
        assert all(tuple(row) in rows_of[key] for row, key in zip(table.representative.tolist(), keys))


def test_drawn_rows_merge_into_columns_of_equal_levels():
    # a drawn B table (100 000 samples at its q's closed-form root) keeps a
    # column per level histograms, not per distinct row: every row of a
    # column has its levels, and the pairs' draws add up to N. Every row of a
    # pair has its column's delta and its vector's likelihood ratio, so the
    # table reads, at p0 and 10 % to either side, the Delta, standard error
    # and slope of the importance-weighted mean over the distinct rows, each
    # read through its own levels and summed with fsum
    kind, q, samples, spec = "uncorrelated", 0.2, 100_000, builtin_cluster("B")
    p0 = solver._closed_form_root(kind, q)
    (table,) = replica.point_tables(kind, [p0], [q], spec, MONTE_CARLO, mc_samples=samples, seed=3)
    drawn = _whole_draw(kind, p0, q, spec, samples, seed=3)
    rows = np.array(list(drawn), dtype=np.int8)
    count = np.array(list(drawn.values()))
    assert len(table.representative) < len(rows) and table.draws.sum() == samples
    pairs, rows_of = _drawn_pairs(spec, drawn)
    assert _table_pairs(table) == pairs
    assert len(rows_of) == len(table.representative)
    p = [p0, 0.9 * p0, 1.1 * p0]
    K, probs = replica._round_points(kind, p, [q] * 3)
    logp, logd, sign, _ = log_factor_batch(spec, count_levels(spec, rows), K)
    assert np.all(sign > 0)
    m = replica.support_size(spec.layers)
    clean = np.count_nonzero(rows == 0, axis=1)
    errors = np.count_nonzero(rows < m - 1, axis=1) - clean
    got = replica.table_gaps(kind, p, [q] * 3, spec, [table] * 3)
    for i in range(3):
        ratio = np.prod(probs[i][rows] / probs[0][rows], axis=1)
        delta = logp[i] - logd[i]
        terms = (count * ratio * delta).tolist()
        mean = math.fsum(terms) / samples
        spread = math.fsum((c * (w * d - mean) ** 2 for c, w, d in zip(count.tolist(), ratio.tolist(), delta.tolist())))
        slope = math.fsum(t * s for t, s in zip(terms, replica._score(p[i], clean, errors).tolist())) / samples
        expected = (mean, math.sqrt(spread / (samples * (samples - 1.0))), slope)
        for value, reference in zip((a[i] for a in got), expected):
            assert value == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_merged_draws_are_worker_independent(monkeypatch):
    # a call of several points, each merging eight chunks, gives the same
    # arrays whatever the number of workers
    spec = _eight_chunk_b(monkeypatch)
    p, q = [0.1, 0.09, 0.07, 0.05, 0.03], [0.0, 0.1, 0.2, 0.3, 0.4]
    runs = [
        gap_batch("uncorrelated", p, q, spec, MONTE_CARLO, mc_samples=30_000, seed=5, workers=workers)
        for workers in (1, 2, 4)
    ]
    for run in runs[1:]:
        for got, expected in zip(run, runs[0]):
            assert np.array_equal(got, expected)


def test_one_point_slices_are_pooled_and_worker_independent(monkeypatch):
    # a single sampled point draws and decodes its eight chunks in one pass
    # over the pool, one item per chunk, then builds its table in a pass of
    # one item; its values keep their bits at any worker count
    spec = _eight_chunk_b(monkeypatch)
    real_run = replica._run_chunks
    passes = []

    def recorded(fn, items, workers):
        passes.append((list(items), workers))
        return real_run(fn, items, workers)

    monkeypatch.setattr(replica, "_run_chunks", recorded)
    runs = []
    for workers in (1, 2, 4):
        passes.clear()
        runs.append(gap_batch("uncorrelated", [0.05], [0.3], spec, MONTE_CARLO,
                              mc_samples=30_000, seed=5, workers=workers))
        (chunks, chunk_workers), (tables, table_workers) = passes
        assert chunks == replica._chunk_bounds(30_000, spec) and chunk_workers == workers
        assert len(tables) == 1 and table_workers == workers
    for run in runs[1:]:
        for got, expected in zip(run, runs[0]):
            assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "kind, spec",
    [("uncorrelated", builtin_cluster("B")), ("depolarizing", builtin_cluster("E")),
     ("uncorrelated", _ring_cluster(12)), ("depolarizing", _wide_cluster(2, 30))],
    ids=["B", "E", "ring12", "wide2"],
)
def test_clean_and_error_slots_come_from_configuration_zero(kind, spec):
    # every slot sits in cell 0 in configuration 0, where a clean slot has
    # energy 1 (one layer) or 3 (two), every error state -1 and a lost slot
    # 0, so E_0 and n_0 count each row's clean and error slots; a drawn
    # table's clean and error counts, of the count vector that holds each
    # row's slots per state (count_nonzero), must be those, and its scores
    # must have the bits of the slots counted one by one
    rng = np.random.default_rng(spec.slot_count)
    m = replica.support_size(spec.layers)
    rows, count = replica._distinct_rows(rng.integers(0, m, size=(400, spec.slot_count)).astype(np.int8), m)
    assert np.any(rows == m - 1)
    clean = np.count_nonzero(rows == 0, axis=1)
    errors = np.count_nonzero(rows < m - 1, axis=1) - clean
    energy, kept = next(count_rows(spec, rows))[:2, 0]
    assert np.array_equal(energy, {1: 1, 2: 3}[spec.layers] * clean - errors)
    assert np.array_equal(kept, clean + errors)
    p = 0.1
    _, probs = replica._round_points(kind, [p], [0.2])
    table = replica._drawn_table(spec, probs[0], rows, count)
    vector_of = {tuple(v): i for i, v in enumerate(table.count_vectors.tolist())}
    vector = [vector_of[tuple(v)] for v in _state_counts(rows, m).tolist()]
    assert sorted(set(vector)) == np.unique(table.count_index).tolist() == list(range(len(vector_of)))
    assert np.array_equal(table.clean[vector], clean)
    assert np.array_equal(table.errors[vector], errors)
    score = replica._score(p, table.clean, table.errors)[vector]
    assert np.array_equal(score, replica._score(p, clean, errors))


def test_monte_carlo_shares_randomness_across_p():
    # common random numbers: estimates at nearby p differ smoothly, far less
    # than the statistical error of either
    star = builtin_cluster("A")
    options = {"mc_samples": 20_000, "seed": 2}
    low = gap(ChannelSpec("uncorrelated", 0.0900, 0.1), star, MONTE_CARLO, **options)
    high = gap(ChannelSpec("uncorrelated", 0.0901, 0.1), star, MONTE_CARLO, **options)
    assert abs(low.delta - high.delta) < 0.2 * low.std_error


def test_exact_worker_independence():
    channel = ChannelSpec("uncorrelated", 0.09, 0.2)
    spec = builtin_cluster("B")
    assert gap(channel, spec, workers=1).delta == gap(channel, spec, workers=3).delta


def test_worker_count_resolution(monkeypatch):
    assert worker_count(5) == 5
    assert type(worker_count(np.int64(2))) is int and worker_count(np.int64(2)) == 2
    monkeypatch.setenv("THRESHOLD_WORKERS", "2")
    assert worker_count() == 2
    monkeypatch.delenv("THRESHOLD_WORKERS")
    assert worker_count() >= 1


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
def test_worker_count_rejects_bad_environment(monkeypatch, value):
    # "abc" failed with int()'s message only; "0" and "-2" were taken as 1
    monkeypatch.setenv("THRESHOLD_WORKERS", value)
    with pytest.raises(ValueError, match="THRESHOLD_WORKERS"):
        worker_count()


@pytest.mark.parametrize(
    "workers", [0, -3, pytest.param(2.7, id="float"), pytest.param("2", id="str"), pytest.param(True, id="bool")]
)
def test_explicit_worker_count_below_one_is_rejected(workers):
    # 0 and -3 used to run on one worker, 2.7 and "2" on two and True on one
    with pytest.raises(ValueError, match="workers"):
        worker_count(workers)
    with pytest.raises(ValueError, match="workers"):
        sweep("uncorrelated", "single", [0.1], workers=workers)
    # the exact path never pools, and took any value: gap returned Delta
    # -0.0447 at workers=0 and solve_threshold p_c 0.09196 at workers=-5
    with pytest.raises(ValueError, match="workers"):
        gap(ChannelSpec("uncorrelated", 0.1, 0.1), builtin_cluster("A"), workers=workers)
    with pytest.raises(ValueError, match="workers"):
        solve_threshold("uncorrelated", "A", 0.1, workers=workers)


def test_default_worker_count_still_runs_the_exact_path():
    channel = ChannelSpec("uncorrelated", 0.1, 0.1)
    spec = builtin_cluster("A")
    assert gap(channel, spec, workers=None).delta == gap(channel, spec, workers=1).delta
    default = solve_threshold("uncorrelated", "A", 0.1, workers=None)
    assert default.ok
    assert default == solve_threshold("uncorrelated", "A", 0.1, workers=2)


def _random_cluster(rng: np.random.Generator, layers: int, index: int) -> ClusterSpec:
    """A small cluster with random edges; a vertex may end up unused or on several slots.

    It has one or two internal spins in all. Near the lower bracket end K is
    large, and an assignment that puts an unsatisfied edge at each of k
    independent internal spins has a dual sum of relative size about
    e^{-2kK}: at k = 3 that is below double precision, for the per-row
    kernels as much as for the class tables, and the dual sum's sign is
    rounding noise.
    """
    layer_names = ("primal", "dual")[:layers]
    internal = [Vertex(f"i{k}", "internal", str(rng.choice(layer_names)))
                for k in range(int(rng.integers(1, 3)))]
    pools = {}
    for layer in layer_names:
        boundary = [Vertex(f"{layer[0]}b{k}", "boundary", layer)
                    for k in range(int(rng.integers(2, 4)))]
        pools[layer] = [v for v in internal if v.layer == layer] + boundary

    def edge(layer: str) -> tuple[str, str]:
        a, b = rng.choice(len(pools[layer]), size=2, replace=False)
        return (pools[layer][a].id, pools[layer][b].id)

    slot_count = int(rng.integers(3, 7) if layers == 1 else rng.integers(2, 5))
    slots = tuple(
        Slot(edge("primal"), edge("dual") if layers == 2 else None) for _ in range(slot_count)
    )
    vertices = tuple(dict.fromkeys(v for layer in layer_names for v in pools[layer]))
    return ClusterSpec(f"random{layers}-{index}", layers, vertices, slots)


def _per_row_gaps(spec: ClusterSpec, kind: str, p: float, qs) -> list[float]:
    """Delta at each q by a direct sum over every assignment, one row per assignment.

    Rows go through both steps of the row kernel, as the Monte Carlo path
    sends them; q only changes the weights.
    """
    support, K = model.SUPPORT[kind], model.coupling(kind, p)
    m, S = len(support), spec.slot_count
    deltas, counts = [], []
    for codes in np.array_split(np.arange(m**S), max(1, m**S // 2**15)):
        idx = (codes[:, None] // m ** np.arange(S)[None, :]) % m
        logp, logd, sign, _ = _one_point(spec, support, idx, K)
        assert np.all(sign > 0)
        deltas.append(logp - logd)
        counts.append(np.stack([(idx == s).sum(axis=1) for s in range(m)], axis=1))
    delta, count = np.concatenate(deltas), np.concatenate(counts)
    out = []
    for q in qs:
        probs = np.array(model.disorder_probs(kind, p, q))
        out.append(math.fsum((np.prod(probs ** count, axis=1) * delta).tolist()))
    return out


_RNG = np.random.default_rng(20261018)
_COMPILED_CASES = [builtin_cluster(name) for name in builtin_names()] + [
    _random_cluster(_RNG, layers, k) for layers in (1, 2) for k in range(3)
]


@pytest.mark.parametrize("spec", _COMPILED_CASES, ids=lambda s: s.name)
def test_compiled_gap_matches_per_row_sum(spec):
    kind = "uncorrelated" if spec.layers == 1 else "depolarizing"
    table = class_table(spec)
    m = replica.support_size(spec.layers)
    assert int(table.multiplicity.sum()) == m**spec.slot_count
    assert np.all(table.count_vectors.sum(axis=1) == spec.slot_count)

    qs = (0.0, 0.2, 0.45)
    upper = (0.5 if spec.layers == 1 else 0.75) - BRACKET_MARGIN
    points = [(p, qs) for p in (BRACKET_LO, upper)]
    for q in qs:
        try:
            near = solve_threshold(kind, spec, q, tol=1e-4).p_c
        except NoSignChange:
            near = 0.1
        points.append((near, (q,)))
    if m**spec.slot_count > 10**5:
        # B's 3^12 rows take seconds per p through the per-row kernels (q only
        # reweights them); keep the strongest coupling and p_c at q = 0.2
        points = [points[0], (points[3][0], qs)]
    worst = 0.0
    for p, q_values in points:
        direct = _per_row_gaps(spec, kind, p, q_values)
        for q, want in zip(q_values, direct):
            got = gap(ChannelSpec(kind, p, q), spec)
            assert got.terms == m**spec.slot_count
            worst = max(worst, abs(got.delta - want))
    assert worst <= 1e-12, f"{spec.name}: compiled gap differs from the per-row sum by {worst:.2e}"


_RANDOM_CASES = [spec for spec in _COMPILED_CASES if spec.name.startswith("random")]


def _channel_kind(spec: ClusterSpec) -> str:
    return "uncorrelated" if spec.layers == 1 else "depolarizing"


def _all_rows(m: int, S: int) -> np.ndarray:
    codes = np.arange(m**S)
    return (codes[:, None] // m ** np.arange(S)[None, :]) % m


@pytest.mark.parametrize("spec", _COMPILED_CASES, ids=lambda s: s.name)
def test_slot_cells_match_an_independent_loop(spec):
    # every configuration, and an interior range from the middle; the random
    # two-layer clusters have internal dual vertices
    total = spec.config_count
    for start, stop in ((0, total), (total // 2, total // 2 + (total + 3) // 4)):
        cells = slot_cells(spec, start, stop)
        assert cells.dtype == np.int8 and cells.shape == (stop - start, spec.slot_count)
        assert np.array_equal(cells, _configuration_cells(spec, start, stop))


@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize(
    "spec", [builtin_cluster(n) for n in ("B", "D", "E")] + _RANDOM_CASES, ids=lambda s: s.name
)
def test_log_partition_batch_streams_over_configuration_blocks(monkeypatch, spec, step):
    # cluster.CONFIG_BLOCK = step carries the running log-sum-exp across
    # blocks of `step` configurations; it must meet the one-block value and
    # the plain loop's ln x_0
    kind = _channel_kind(spec)
    support = model.SUPPORT[kind]
    idx = np.random.default_rng(13).integers(0, len(support), size=(40, spec.slot_count))
    tau = np.array([d.sign for d in support], dtype=np.float64)[idx]
    tau_star = np.array([d.dual_sign or 0 for d in support], dtype=np.float64)[idx] if spec.layers == 2 else None
    for p in (0.01, 0.1, 0.3):
        K = model.coupling(kind, p)
        one = log_partition_batch(spec, tau, tau_star, K)
        with monkeypatch.context() as patch:
            patch.setattr(cluster, "CONFIG_BLOCK", step)
            blocked = log_partition_batch(spec, tau, tau_star, K)
            with pytest.raises(NonFinite):
                cluster_partition(spec, (support[0],) * spec.slot_count, math.inf)
        assert np.max(np.abs(blocked - one)) <= 1e-12
        for row, got in zip(idx, blocked):
            z, _ = _brute_force_row(spec, [support[s] for s in row], K)
            assert abs(got - math.log(z)) <= 1e-12, f"p={p}, row {row.tolist()}"


@pytest.mark.parametrize(
    "spec", [builtin_cluster("A"), builtin_cluster("D")] + _RANDOM_CASES, ids=lambda s: s.name
)
def test_row_kernel_matches_independent_references(spec):
    # every assignment: the primal column against the direct-energy sum, the
    # dual against the plain loop with closed-form dual weights
    kind = _channel_kind(spec)
    support = model.SUPPORT[kind]
    idx = _all_rows(len(support), spec.slot_count)
    signs = np.array([d.sign for d in support], dtype=np.float64)
    duals = np.array([d.dual_sign or 0 for d in support], dtype=np.float64)
    upper = (0.5 if spec.layers == 1 else 0.75) - BRACKET_MARGIN
    for p in (0.01, 0.1, upper):
        K = model.coupling(kind, p)
        logp, logd, sign, _ = _one_point(spec, support, idx, K)
        direct = log_partition_batch(spec, signs[idx], duals[idx] if spec.layers == 2 else None, K)
        assert np.max(np.abs(logp - direct)) <= 1e-11
        for row, got_log, got_sign in zip(idx, logd, sign):
            _, zd = _brute_force_row(spec, [support[s] for s in row], K)
            assert got_sign == np.sign(zd), f"p={p}, row {row.tolist()}"
            if zd != 0.0:
                assert abs(got_log - math.log(abs(zd))) <= 1e-11, f"p={p}, row {row.tolist()}"


@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("name", ["B", "D", "E"])
def test_row_kernel_across_configuration_blocks(monkeypatch, name, step):
    # CONFIG_BLOCK = 3m * step gives count tables of `step` configurations
    # (B has 16, D 2 and E 4): the counts step builds and multiplies one per
    # block, and the values step streams every sum through them, the primal
    # through its rescale; the blocked kernel must meet the direct-energy
    # primal and the plain-loop dual, and the one-block kernel
    spec = builtin_cluster(name)
    kind = _channel_kind(spec)
    support = model.SUPPORT[kind]
    m = len(support)
    idx = np.random.default_rng(12).integers(0, m, size=(300, spec.slot_count))
    signs = np.array([d.sign for d in support], dtype=np.float64)
    duals = np.array([d.dual_sign or 0 for d in support], dtype=np.float64)
    upper = (0.5 if spec.layers == 1 else 0.75) - BRACKET_MARGIN
    for p in (0.01, 0.1, upper):
        K = model.coupling(kind, p)
        one = _one_point(spec, support, idx, K)
        with monkeypatch.context() as patch:
            patch.setattr(duality, "CONFIG_BLOCK", 3 * m * step)
            assert max(block.shape[1] for block in count_rows(spec, idx)) == min(step, spec.config_count)
            logp, logd, sign, rounding = _one_point(spec, support, idx, K)
        assert np.max(np.abs(logp - one[0])) <= 1e-12
        assert np.max(np.abs(logd - one[1])) <= 1e-12
        assert np.array_equal(sign, one[2])
        np.testing.assert_allclose(rounding, one[3], rtol=1e-6, atol=0.0)
        direct = log_partition_batch(spec, signs[idx], duals[idx] if spec.layers == 2 else None, K)
        assert np.max(np.abs(logp - direct)) <= 1e-11
        for row, got_log, got_sign in zip(idx, logd, sign):
            _, zd = _brute_force_row(spec, [support[s] for s in row], K)
            assert got_sign == np.sign(zd), f"p={p}, row {row.tolist()}"
            assert abs(got_log - math.log(abs(zd))) <= 1e-11, f"p={p}, row {row.tolist()}"


@pytest.mark.parametrize("name", ["B", "E"])
def test_row_bits_depend_on_neither_dtype_nor_batch(name):
    # Monte Carlo sends int8 distinct rows, the per-sample reference int64
    # rows in other batches; a row's four outputs must have the same bits
    # either way, in a batch of one, in a batch shorter than a BLAS block or
    # in a batch of hundreds
    spec = builtin_cluster(name)
    kind = _channel_kind(spec)
    support = model.SUPPORT[kind]
    idx = np.random.default_rng(13).integers(0, len(support), size=(300, spec.slot_count))
    K = model.coupling(kind, 0.02)
    whole = _one_point(spec, support, idx, K)
    narrow = _one_point(spec, support, idx.astype(np.int8), K)
    for a, b in zip(whole, narrow):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for lo, size in ((0, 1), (5, 2), (9, 7), (20, 15), (40, 16), (60, 17), (100, 123)):
        part = _one_point(spec, support, idx[lo : lo + size].astype(np.int8), K)
        for a, b in zip(whole, part):
            assert np.array_equal(a[lo : lo + size], b), f"rows {lo}..{lo + size}"


@pytest.mark.parametrize("name", ["B", "D"])
def test_a_lone_row_has_the_bits_it_has_in_a_batch(name):
    # numpy sums a lone row's configurations pairwise (B has 16, D 2), but
    # a batch's one after another; the kernel must sum a row alone, as
    # dual_cluster_partition and a chunk with one distinct row send it, in
    # configuration order too
    spec = builtin_cluster(name)
    kind = _channel_kind(spec)
    support = model.SUPPORT[kind]
    idx = np.random.default_rng(15).integers(0, len(support), size=(60, spec.slot_count))
    for p in (0.02, 0.1, 0.3):
        K = model.coupling(kind, p)
        whole = _one_point(spec, support, idx, K)
        for i in range(len(idx)):
            for a, b in zip(whole, _one_point(spec, support, idx[i : i + 1], K)):
                assert np.array_equal(a[i : i + 1], b), f"p={p}, row {i}"


@pytest.mark.parametrize("name", ["B", "E"])
def test_points_of_one_call_have_the_bits_of_points_alone(name):
    # exact slices send several couplings through one call; each point's
    # four outputs must have the bits of a call with its coupling alone
    spec = builtin_cluster(name)
    kind = _channel_kind(spec)
    support = model.SUPPORT[kind]
    idx = np.random.default_rng(14).integers(0, len(support), size=(150, spec.slot_count))
    K = [model.coupling(kind, p) for p in (BRACKET_LO, 0.02, 0.1, 0.3)]
    together = _row_kernel(spec, support, idx, K)
    for i, k in enumerate(K):
        for a, b in zip(together, _one_point(spec, support, idx, k)):
            assert np.array_equal(a[i], b), f"point {i}"
    with pytest.raises(ValueError, match="1-D"):
        _row_kernel(spec, support, idx, K[0])


def _relabeled(spec: ClusterSpec, rng: np.random.Generator, what: str):
    """The same cluster with its slots reordered, or its vertices renamed,
    reordered and each edge's ends swapped at random; also the slot order."""
    order = rng.permutation(spec.slot_count) if what == "slots" else np.arange(spec.slot_count)
    vertices, name = spec.vertices, {v.id: v.id for v in spec.vertices}
    if what == "vertices":
        vertices = tuple(Vertex(f"v{k}", v.role, v.layer) for k, v in enumerate(spec.vertices))
        name = {old.id: new.id for old, new in zip(spec.vertices, vertices)}
        vertices = tuple(vertices[k] for k in rng.permutation(len(vertices)))

    def edge(e):
        if e is None:
            return None
        ends = (name[e[0]], name[e[1]])
        return ends[::-1] if what == "vertices" and rng.random() < 0.5 else ends

    slots = tuple(Slot(edge(spec.slots[k].primal_edge), edge(spec.slots[k].dual_edge)) for k in order)
    return ClusterSpec(f"{spec.name}-{what}", spec.layers, vertices, slots), order


@pytest.mark.parametrize("what", ["slots", "vertices"])
@pytest.mark.parametrize("spec", _RANDOM_CASES, ids=lambda s: s.name)
def test_relabeling_invariance(spec, what):
    rng = np.random.default_rng(5)
    other, order = _relabeled(spec, rng, what)
    kind = _channel_kind(spec)
    support = model.SUPPORT[kind]
    idx = rng.integers(0, len(support), size=(500, spec.slot_count))
    for p in (0.01, 0.1):
        K = model.coupling(kind, p)
        base = _one_point(spec, support, idx, K)
        moved = _one_point(other, support, idx[:, order], K)
        for a, b in zip(base, moved):
            np.testing.assert_allclose(b, a, rtol=0.0, atol=1e-12)
        for q in (0.0, 0.2):
            channel = ChannelSpec(kind, p, q)
            assert abs(gap(channel, other).delta - gap(channel, spec).delta) <= 1e-12


_ONE_LAYER = model.SUPPORT["uncorrelated"]
_SIGN_FLIP = np.array([_ONE_LAYER.index(EdgeDisorder(-d.sign)) for d in _ONE_LAYER])


@pytest.mark.parametrize(
    "spec", [builtin_cluster("A"), builtin_cluster("B")] + [s for s in _RANDOM_CASES if s.layers == 1],
    ids=lambda s: s.name,
)
def test_gauge_flip_invariance_of_primal_rows(spec):
    """Flipping an internal spin with the signs of its non-diluted edges keeps ln x_0 of every row.

    ln x_0* is not asserted: the dual sum runs over the same internal spins
    with parity-indexed dual weights, so a flip multiplies each of its terms
    by -1 per odd non-diluted edge at the spin. On a three-edge star at
    K = 0.7 the rows (+,+,+) and (-,-,-) give ln x_0* = 1.921 and 1.472.
    Flips along cycles and boundary-to-boundary paths keep it (below).
    """
    m, S = len(_ONE_LAYER), spec.slot_count
    idx = _all_rows(m, S) if m**S <= 10**4 else np.random.default_rng(6).integers(0, m, (2000, S))
    for p in (0.01, 0.1, 0.3):
        K = model.coupling("uncorrelated", p)
        base, _, _, _ = _one_point(spec, _ONE_LAYER, idx, K)
        for vid in spec.internal_ids:
            incident = np.array([vid in slot.primal_edge for slot in spec.slots])
            flipped = np.where(incident, _SIGN_FLIP[idx], idx)
            logp, _, _, _ = _one_point(spec, _ONE_LAYER, flipped, K)
            assert np.max(np.abs(logp - base)) <= 1e-12, f"{vid} at p={p}"


def _dual_shift(spec: ClusterSpec, flipped: np.ndarray) -> float:
    """Largest |change| of ln x_0* over random rows when the `flipped` slots change sign.

    The rows are drawn from the one-layer support, lost slots included, and
    lost slots keep their state. The sign of x_0* must not change either.
    """
    idx = np.random.default_rng(24).integers(0, len(_ONE_LAYER), (200, spec.slot_count))
    assert (idx == _ONE_LAYER.index(EdgeDisorder(0))).any()
    moved = np.where(flipped, _SIGN_FLIP[idx], idx)
    worst = 0.0
    for K in (0.2, 0.7, 1.5):
        _, base, base_sign, _ = _one_point(spec, _ONE_LAYER, idx, K)
        _, logd, sign, _ = _one_point(spec, _ONE_LAYER, moved, K)
        np.testing.assert_array_equal(sign, base_sign)
        worst = max(worst, float(np.max(np.abs(logd - base))))
    return worst


def _slots_on(spec: ClusterSpec, path: tuple[str, ...]) -> np.ndarray:
    edges = {frozenset(edge) for edge in zip(path, path[1:])}
    on = np.array([frozenset(slot.primal_edge) in edges for slot in spec.slots])
    assert on.sum() == len(edges)
    return on


@pytest.mark.parametrize(
    "name, path",
    [
        ("B", ("i1", "i2", "i3", "i4", "i1")),
        ("B", ("b1", "i1", "i2", "b3")),
        ("A", ("b1", "c", "b2")),
    ],
    ids=["B-cycle", "B-path", "A-path"],
)
def test_gauge_flip_along_a_cycle_or_path_keeps_the_dual(name, path):
    """Flipping the slots of a cycle, or of a path between boundary spins, keeps every row's ln x_0*.

    Such a set meets every internal spin an even number of times, so an even
    number of its slots are antiparallel in each configuration, and the
    factor -1 that a flip puts on an antiparallel slot's dual weight cancels.
    """
    spec = builtin_cluster(name)
    assert _dual_shift(spec, _slots_on(spec, path)) <= 1e-12


def test_gauge_flip_of_even_slot_sets_keeps_the_dual_of_random_clusters():
    # every nonempty set of slots with even degree at each internal spin; at
    # least two clusters have one through an internal spin, not only slots
    # between boundary spins
    through_internal = set()
    for spec in (s for s in _RANDOM_CASES if s.layers == 1):
        for flipped in itertools.product((False, True), repeat=spec.slot_count):
            on = [slot.primal_edge for f, slot in zip(flipped, spec.slots) if f]
            ends = Counter(v for edge in on for v in edge)
            if not any(flipped) or any(ends[v] % 2 for v in spec.internal_ids):
                continue
            assert _dual_shift(spec, np.array(flipped)) <= 1e-12, f"{spec.name}: {flipped}"
            if any(ends[v] for v in spec.internal_ids):
                through_internal.add(spec.name)
    assert len(through_internal) >= 2


def test_gauge_flip_of_one_spin_moves_the_dual():
    # the negative control: the four slots at i1 meet i2 and i4 once each
    spec = builtin_cluster("B")
    at_i1 = np.array(["i1" in slot.primal_edge for slot in spec.slots])
    assert _dual_shift(spec, at_i1) > 0.5


def _configuration_cells(spec: ClusterSpec, start: int = 0, stop: int | None = None) -> np.ndarray:
    """(configurations, slots) parity cell of every slot in configurations [start, stop), by a plain loop.

    Configuration c gives internal vertex b the spin 1 - 2 ((c >> b) & 1),
    and every boundary vertex +1. The cell is 1 for an antiparallel primal
    edge and 0 for a parallel one; on two layers it is twice that plus 1
    for an antiparallel dual edge.
    """
    rows = []
    for config in range(start, spec.config_count if stop is None else stop):
        spin = {v.id: 1 for v in spec.vertices}
        spin |= {vid: 1 - 2 * ((config >> b) & 1) for b, vid in enumerate(spec.internal_ids)}
        row = []
        for slot in spec.slots:
            a, b = slot.primal_edge
            cell = int(spin[a] * spin[b] < 0)
            if spec.layers == 2:
                c, d = slot.dual_edge
                cell = 2 * cell + int(spin[c] * spin[d] < 0)
            row.append(cell)
        rows.append(row)
    return np.array(rows)


def _state_counts(representative: np.ndarray, m: int) -> np.ndarray:
    """(classes, states) slots of each representative in each of the m disorder states."""
    return (representative[:, :, None] == np.arange(m)).sum(1)


_SMALL_CASES = [builtin_cluster("A"), builtin_cluster("D")] + [
    spec for spec in _RANDOM_CASES if replica.support_size(spec.layers) ** spec.slot_count <= 10**4
]


@pytest.mark.parametrize("spec", _SMALL_CASES, ids=lambda s: s.name)
def test_class_table_matches_brute_force_grouping(spec):
    # every assignment, keyed by the sorted tuple of its per-configuration
    # (state, cell) histograms: the groups must be the classes of the table's
    # fold, with its multiplicities and state counts, one representative in
    # each
    m, S = replica.support_size(spec.layers), spec.slot_count
    cells = _configuration_cells(spec)
    width = m * 2 * spec.layers
    configs = np.arange(len(cells))[:, None]

    def key(assignment) -> tuple:
        hist = np.zeros((len(cells), width), dtype=np.int64)
        np.add.at(hist, (configs, np.asarray(assignment) * 2 * spec.layers + cells), 1)
        return tuple(sorted(map(tuple, hist.tolist())))

    groups = {}
    for assignment in itertools.product(range(m), repeat=S):
        groups.setdefault(key(assignment), []).append(assignment)
    multiplicities, representatives = replica._class_fold(spec)
    assert len(multiplicities) == len(groups)
    seen = set()
    state_counts = _state_counts(representatives, m)
    for rep, multiplicity, counts in zip(representatives, multiplicities, state_counts):
        group = key(rep)
        assert group not in seen, f"two classes share the group of {rep.tolist()}"
        seen.add(group)
        assert multiplicity == len(groups[group])
        for member in groups[group]:
            assert np.array_equal(np.bincount(member, minlength=m), counts)


@pytest.mark.parametrize("name", builtin_names())
def test_table_carries_the_representatives_encoding_and_count_index(name):
    # the compiled levels are the int8 histograms of a fresh count_levels of
    # the column representatives, on the levels that occur in the table, and
    # record the cluster; they cannot be written, and give the values step
    # the same bits. The pairs ascend by (column, count vector), each pair
    # once, every column has one, and one of a column's count vectors is its
    # representative's
    spec = builtin_cluster(name)
    kind = _channel_kind(spec)
    support = model.SUPPORT[kind]
    table = class_table(spec)
    assert support == model.LAYER_SUPPORT[spec.layers] and table.cluster is spec
    fresh = duality.count_levels(spec, table.representative)
    assert _same_levels(table.levels, fresh)
    columns, levels = len(table.representative), table.levels
    assert levels.H.dtype == levels.D.dtype == levels.A.dtype == levels.top.dtype == np.int8
    assert levels.H.shape == (len(levels.r), columns) and levels.D.shape == (len(levels.k), columns)
    assert np.all(levels.H.any(axis=1)) and np.all(levels.A.any(axis=1))
    arrays = [a for a in (*vars(table).values(), *vars(levels).values()) if isinstance(a, np.ndarray)]
    assert len(arrays) == 15 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        levels.H[0, 0] = 1
    K = [model.coupling(kind, p) for p in (BRACKET_LO, 0.05, 0.2)]
    for a, b in zip(log_factor_batch(spec, table.levels, K), log_factor_batch(spec, fresh, K)):
        assert np.array_equal(a, b)
    assert table.count_vectors.dtype == table.count_index.dtype == table.column_index.dtype == np.intp
    assert len(np.unique(table.count_vectors, axis=0)) == len(table.count_vectors)
    assert np.all(np.diff(table.column_index * len(table.count_vectors) + table.count_index) > 0)
    assert np.array_equal(np.unique(table.column_index), np.arange(len(table.representative)))
    for u, counts in enumerate(_state_counts(table.representative, len(support))):
        own = table.count_vectors[table.count_index[table.column_index == u]]
        assert (own == counts).all(axis=1).any()


@pytest.mark.parametrize("spec", _COMPILED_CASES, ids=lambda s: s.name)
def test_compiled_counts_match_a_brute_force_recount(spec):
    # each class's energy, cell-0 count and dual sign per configuration,
    # recounted from its representative's signs and the cells of the plain
    # loop `_configuration_cells`: the energy from the coupling formula, the
    # sign as the product of the slots' Hadamard dual signs at K = 0.5, with
    # no encoding, count table or matrix product
    kind = _channel_kind(spec)
    support = model.SUPPORT[kind]
    table = class_table(spec)
    rep = table.representative.astype(np.intp)
    cells = _configuration_cells(spec)
    P, D = 1 - 2 * (cells >> (spec.layers - 1)), 1 - 2 * (cells & 1)
    tau = np.array([d.sign for d in support])[rep][:, None, :]
    energy = tau * P[None]
    cell = (P < 0).astype(np.intp)
    if spec.layers == 2:
        tau_star = np.array([d.dual_sign for d in support])[rep][:, None, :]
        energy = energy + tau_star * D[None] + tau * tau_star * (P * D)[None]
        cell = 2 * cell + (D < 0)
    lost = np.array([d.diluted for d in support])[rep][:, None, :]
    slot_sign = np.sign([dual_edge_factor(edge_factor(d, 0.5)) for d in support])
    sign = slot_sign[rep[:, None, :], cell[None]].prod(axis=2)
    cell0 = ((cell[None] == 0) & ~lost).sum(axis=2)
    levels = table.levels
    for u, (e, n, s) in enumerate(zip(energy.sum(axis=2).tolist(), cell0.tolist(), sign.tolist())):
        # configuration 0 (every spin +1) puts every slot in cell 0
        top, n0 = max(e), n[0]
        assert (levels.top[u], levels.n0[u]) == (top, n0) == (top, spec.slot_count - lost[u].sum())
        assert _level_key(levels, u) == _sum_key(np.array([e, n, s]))


# from b = 0 to p = 1e-6 on the uncorrelated Nishimori line
_LEVEL_COUPLINGS = [0.0, 0.2, 0.7, 1.5, 6.9]


def _fsum_reference(spec: ClusterSpec, rows: np.ndarray, K: float) -> list[tuple]:
    """(ln x_0, ln |x_0*| or None where the sum is 0, sign of x_0*) of each row at K, one `math.fsum` over configurations.

    With a, b and c a clean slot's dual in cells 0 and 1 and a lost slot's
    in cell 0, configuration c's dual term is sign_c a^n_c b^(n_0 - n_c)
    c^ℓ: summed relative to a^n_0 c^ℓ, as exp(-(n_0 - n_c)(ln a - ln b)),
    and as 1 where n_c = n_0 (b is 0 at K = 0).
    """
    support = model.LAYER_SUPPORT[spec.layers]
    a, b = (float(x) for x in dual_edge_factor(edge_factor(support[0], K))[:2])
    c = float(dual_edge_factor(edge_factor(next(d for d in support if d.diluted), K))[0])
    gap = math.log(a) - math.log(b) if b > 0.0 else math.inf
    counts = np.concatenate(list(count_rows(spec, rows)), axis=1).transpose(2, 0, 1).tolist()
    out = []
    for row, (energy, cell0, sign) in zip(rows.tolist(), counts):
        top, n0, lost = max(energy), cell0[0], sum(support[s].diluted for s in row)
        logp = K * top + math.log(math.fsum(math.exp(K * (e - top)) for e in energy))
        total = math.fsum(t * (1.0 if n == n0 else math.exp(-(n0 - n) * gap)) for n, t in zip(cell0, sign) if t)
        logd = n0 * math.log(a) + lost * math.log(c) + math.log(abs(total)) if total else None
        out.append((logp, logd, (total > 0) - (total < 0)))
    return out


@pytest.mark.parametrize("spec", _COMPILED_CASES, ids=lambda s: s.name)
def test_level_values_match_an_fsum_over_configurations(spec):
    # the values step reads the level histograms alone, one exp per (point,
    # level); the same sums taken term by term over each configuration's
    # counts, with one fsum, agree with it to 1e-14 relative and in sign on
    # every column of the class table, lost slots included. Where the signed
    # dual sum cancels, ln |x_0*| may move by its rounding bound as well
    # (B at K = 6.9: 5e-8 relative, under a bound of 1.7e-3)
    rows = class_table(spec).representative
    assert any(model.LAYER_SUPPORT[spec.layers][s].diluted for s in rows.ravel().tolist())
    logp, logd, sign, rounding = log_factor_batch(spec, count_levels(spec, rows), _LEVEL_COUPLINGS)
    for i, K in enumerate(_LEVEL_COUPLINGS):
        for u, (primal, dual, s) in enumerate(_fsum_reference(spec, rows, K)):
            assert sign[i, u] == s, (K, u)
            assert abs(logp[i, u] - primal) <= 1e-14 * abs(primal), (K, u)
            if dual is not None:
                assert abs(logd[i, u] - dual) <= 1e-14 * abs(dual) + 1.02 * rounding[i, u], (K, u)


@pytest.mark.parametrize("spec", _COMPILED_CASES, ids=lambda s: s.name)
def test_level_histograms_hold_every_configuration_once(spec):
    # a column's primal levels hold its configurations, level 0 its top one
    # at least; at each dual level the signed count is at most the nonzero
    # one and of its parity, and the nonzero ones add up to at most the
    # configurations
    levels = class_table(spec).levels
    H, D, A = (a.astype(np.int64) for a in (levels.H, levels.D, levels.A))
    assert np.array_equal(H.sum(axis=0), np.full(H.shape[1], spec.config_count))
    assert levels.r[0] == 0 and np.all(H[0] > 0)
    assert np.all(np.abs(D) <= A) and np.all((A - D) % 2 == 0)
    assert np.all(A.sum(axis=0) <= spec.config_count)


def test_two_layer_levels_reach_four_times_the_slots():
    # on two layers a clean slot has energy 3 in cell 0 and -1 elsewhere, so
    # a row of clean slots has a configuration at primal level 4S: 128 at 32
    # slots, past int8. Every configuration still sits on one level, and
    # the values agree with the fsum over configurations
    spec = _wide_cluster(2, 32)
    rows = np.random.default_rng(3).integers(0, replica.support_size(2), size=(6, 32), dtype=np.int8)
    rows[0] = 0
    levels = count_levels(spec, rows)
    assert levels.r[-1] == 4 * 32 and levels.H[-1, 0] > 0
    assert np.array_equal(levels.H.astype(np.int64).sum(axis=0), np.full(len(rows), spec.config_count))
    logp, logd, sign, _ = log_factor_batch(spec, levels, _LEVEL_COUPLINGS)
    for i, K in enumerate(_LEVEL_COUPLINGS):
        for u, (primal, dual, s) in enumerate(_fsum_reference(spec, rows, K)):
            assert sign[i, u] == s and abs(logp[i, u] - primal) <= 1e-14 * abs(primal), (K, u)
            if dual is not None:
                assert abs(logd[i, u] - dual) <= 1e-14 * abs(dual), (K, u)


@pytest.mark.parametrize("spec", _COMPILED_CASES, ids=lambda s: s.name)
def test_level_values_do_not_depend_on_their_neighbours(spec):
    # a point's values are element-wise in the point, and a column's sums
    # run over the levels in ascending order, a level it lacks adding 0; so
    # each point has the bits it has alone, and each column the bits it has
    # in a slice of the columns, on the table's levels or on the fewer
    # levels of the slice counted again
    table = class_table(spec)
    K = np.array(_LEVEL_COUPLINGS)
    together = log_factor_batch(spec, table.levels, K)
    for i in range(len(K)):
        alone = log_factor_batch(spec, table.levels, K[i : i + 1])
        assert all(np.array_equal(a[0], b[i]) for a, b in zip(alone, together))
    columns = np.arange(len(table.representative))[1::3]
    for levels in (table.levels.take(columns), count_levels(spec, table.representative[columns])):
        sliced = log_factor_batch(spec, levels, K)
        assert all(np.array_equal(a, b[:, columns]) for a, b in zip(sliced, together))


@pytest.mark.parametrize(
    "spec", [builtin_cluster("B"), builtin_cluster("E"), _wide_cluster(1, 40)], ids=lambda s: s.name
)
def test_count_vectors_match_count_nonzero(spec):
    # the slot counts per disorder state, one compare-and-add per slot, are
    # count_nonzero's, on class-table rows and on drawn rows of 40 slots
    m = replica.support_size(spec.layers)
    rows = np.random.default_rng(7).integers(0, m, size=(5000, spec.slot_count), dtype=np.int8)
    if spec.name in ("B", "E"):
        rows = np.concatenate([class_table(spec).representative, rows])
    (vectors, clean, errors), vector = replica._count_vectors(rows, m)
    counts = np.stack([np.count_nonzero(rows == state, axis=1) for state in range(m)], axis=1)
    assert vectors.dtype == vector.dtype == np.intp
    assert np.array_equal(vectors[vector], counts)
    assert np.array_equal(vectors, np.unique(counts, axis=0))
    assert np.array_equal(clean, vectors[:, 0]) and np.array_equal(errors, vectors[:, 1:-1].sum(axis=1))


def _column_weights(table: replica.ClassTable, probs: np.ndarray) -> np.ndarray:
    """Each column's weight at one point's state probabilities: multiplicity * probability, added in pair order."""
    weight = np.prod(probs ** table.count_vectors, axis=1)
    columns = [0.0] * len(table.representative)
    pairs = zip(table.column_index.tolist(), table.count_index.tolist(), table.multiplicity.tolist())
    for u, v, multiplicity in pairs:
        columns[u] += multiplicity * weight[v]
    return np.array(columns)


def _sum_key(counts: np.ndarray) -> tuple:
    """What a class's sums depend on, from its (3, configurations) counts.

    Its largest energy top and n_0, the histogram of top - E_c, and the
    histograms of n_0 - n_c over the configurations of dual sign +1 and of
    dual sign -1; a term of dual sign 0 is 0.
    """
    energy, cell0, sign = (row.tolist() for row in counts)
    top, n0 = max(energy), cell0[0]
    dual = [(s, n0 - n) for n, s in zip(cell0, sign) if s != 0]
    return top, n0, tuple(sorted(Counter(top - e for e in energy).items())), tuple(sorted(Counter(dual).items()))


def _level_key(levels: duality.Levels, u: int) -> tuple:
    """`_sum_key` of column u, read from its level histograms: D and A give the terms of each sign."""
    H, D, A = (a[:, u].tolist() for a in (levels.H, levels.D, levels.A))
    dual = {(1, k): (a + d) // 2 for k, d, a in zip(levels.k.tolist(), D, A)}
    dual.update({(-1, k): (a - d) // 2 for k, d, a in zip(levels.k.tolist(), D, A)})
    return (
        int(levels.top[u]),
        int(levels.n0[u]),
        tuple((r, h) for r, h in zip(levels.r.tolist(), H) if h),
        tuple(sorted((key, count) for key, count in dual.items() if count)),
    )


@pytest.mark.parametrize("spec", _COMPILED_CASES, ids=lambda s: s.name)
def test_columns_merge_classes_without_loss(spec):
    # the table's columns are the classes of the fold grouped by `_sum_key`,
    # one column per key, and the pairs hold the classes' multiplicities per
    # (column, state-count vector). Each class, through its own levels, has
    # its column's values to the bit: the level histograms are the multisets
    # that key a column, and the values step reads nothing else
    m = replica.support_size(spec.layers)
    table = class_table(spec)
    multiplicities, representatives = replica._class_fold(spec)
    counts = np.concatenate(list(count_rows(spec, representatives)), axis=1)
    column_of = {_level_key(table.levels, u): u for u in range(len(table.representative))}
    assert len(column_of) == len(table.representative)
    column = np.array([column_of[_sum_key(counts[:, :, k])] for k in range(len(multiplicities))])
    pairs = Counter()
    for u, state_counts, multiplicity in zip(column, _state_counts(representatives, m), multiplicities):
        pairs[int(u), tuple(state_counts.tolist())] += int(multiplicity)
    table_pairs = zip(table.column_index.tolist(), table.count_index.tolist(), table.multiplicity.tolist())
    assert pairs == {(u, tuple(table.count_vectors[v].tolist())): multiplicity for u, v, multiplicity in table_pairs}
    assert sum(pairs.values()) == m**spec.slot_count

    kind = _channel_kind(spec)
    upper = (0.5 if spec.layers == 1 else 0.75) - BRACKET_MARGIN
    K = [model.coupling(kind, p) for p in (BRACKET_LO, 0.05, upper)]
    classes = log_factor_batch(spec, duality.count_levels(spec, representatives), K)
    merged = [a[:, column] for a in log_factor_batch(spec, table.levels, K)]
    assert classes[3].max() <= duality.ROUNDING_LIMIT
    for own, shared in zip(classes, merged):
        assert np.array_equal(own, shared)


@pytest.mark.parametrize(
    "name, columns, pairs",
    [("single", 3, 3), ("A", 9, 15), ("B", 1561, 6096), ("C", 3, 5), ("D", 28, 70), ("E", 340, 1599)],
)
def test_registered_column_counts(name, columns, pairs):
    # B's 13 881 classes share 1 561 columns and E's 3 150 share 340: a key
    # that merged fewer classes, or more, changes these counts
    table = class_table(builtin_cluster(name))
    assert (len(table.representative), len(table.multiplicity)) == (columns, pairs)


@pytest.mark.parametrize("name", ["B", "E"])
def test_zero_weight_classes_leave_the_exact_sum_without_moving_its_bits(name):
    # at q = 0 every class with a lost slot weighs 0, and so does every
    # column of such classes; the exact gap sums only the other columns, and
    # fsum rounds the exact sum once, so the gap must equal the fsum over
    # every column, with each column's weight added up in pair order
    spec = builtin_cluster(name)
    kind = _channel_kind(spec)
    table = class_table(spec)
    for p in (BRACKET_LO, 0.02, 0.1):
        K, probs = replica._round_points(kind, [p], [0.0])
        logp, logd, sign, _ = log_factor_batch(spec, table.levels, K)
        assert np.all(sign > 0)
        weight = _column_weights(table, probs[0])
        assert 0 < np.count_nonzero(weight) < len(weight)
        every_column = math.fsum((weight * (logp[0] - logd[0])).tolist())
        assert gap_batch(kind, [p], [0.0], spec)[0][0] == every_column


_ORACLE_POINTS = list(itertools.product((0.2, 0.1, 0.05, 0.02), (0.0, 0.15, 0.3, 0.45)))


@pytest.mark.parametrize("spec", _COMPILED_CASES, ids=lambda s: s.name)
def test_exact_slope_is_a_central_difference_of_the_gap(spec):
    # the slope is sum dW/dp * delta alone: dDelta/dK vanishes on the
    # Nishimori line. The central difference (f(p+h) - f(p-h)) / 2h misses
    # f' by h^2 f'''/6 to leading order, with f''' from the stencil
    # (f(p+2h) - 2f(p+h) + 2f(p-h) - f(p-2h)) / 2h^3 on the same points;
    # twice that covers the next order, h^2 smaller. Each gap rounds by at
    # most GAP_FLOOR, which the two stencils turn into at most
    # (1/h + 1/(2h)) GAP_FLOOR.
    kind = _channel_kind(spec)
    for p, q in _ORACLE_POINTS:
        h = 1e-3 * p
        delta, _, slope = gap_batch(kind, p + h * np.arange(-2, 3), [q] * 5, spec)
        central = (delta[3] - delta[1]) / (2 * h)
        third = (delta[4] - 2 * delta[3] + 2 * delta[1] - delta[0]) / (2 * h**3)
        bound = 2 * h**2 * abs(third) / 6 + 1.5 * replica.GAP_FLOOR / h
        assert abs(slope[2] - central) <= bound, f"{spec.name} at p={p}, q={q}: {slope[2]} vs {central}"


def _stencil(g: list[float], h: float) -> float:
    """The 5-point derivative (g(-2h) - 8 g(-h) + 8 g(h) - g(2h)) / 12h from g at -2h, -h, h, 2h."""
    return (g[0] - 8 * g[1] + 8 * g[2] - g[3]) / (12 * h)


@pytest.mark.parametrize("spec", _COMPILED_CASES, ids=lambda s: s.name)
def test_nishimori_energy_identity_holds_for_both_sums(spec):
    # on the Nishimori line, at fixed disorder probabilities, gauge flips give
    # E[d ln x_0/dK] = (1-q) S (1-2p) on one layer and (1-q) S (3-4p) on two
    # (Nishimori 1981), and E[d ln x_0*/dK] is the same. Both sums go
    # through the 5-point stencil in K, weighed by W. Its truncation error,
    # h^4 g^(5)/30 to leading order, is 1/16 of the stencil's at 2h, so it is
    # |D(2h) - D(h)| / 15; twice that covers the next order. Each weighted
    # sum g rounds by at most e = sum W (rounding bound + 8 eps (1 + |ln x|)),
    # which D(h), D(2h) and the estimate turn into at most 2.4 e / h.
    kind = _channel_kind(spec)
    table = class_table(spec)
    eps = np.finfo(np.float64).eps
    h = 1e-3
    for p, q in _ORACLE_POINTS:
        expected = (1.0 - q) * spec.slot_count * ((1.0 - 2.0 * p) if spec.layers == 1 else (3.0 - 4.0 * p))
        K, probs = replica._round_points(kind, [p], [q])
        weight = _column_weights(table, probs[0])
        keep = weight > 0.0
        weight = weight[keep]
        logp, logd, sign, rounding = log_factor_batch(
            spec, table.levels, K[0] + h * np.array([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0])
        )
        assert np.all(sign[:, keep] > 0)
        for name, values, bounds in (("primal", logp, np.zeros_like(logp)), ("dual", logd, rounding)):
            g = [math.fsum((weight * v[keep]).tolist()) for v in values]
            fine, coarse = _stencil(g[1:5], h), _stencil([g[0], g[1], g[4], g[5]], 2 * h)
            error = max(
                math.fsum((weight * (b[keep] + 8 * eps * (1.0 + np.abs(v[keep])))).tolist())
                for v, b in zip(values, bounds)
            )
            bound = 2 * abs(coarse - fine) / 15 + 2.4 * error / h
            assert abs(fine - expected) <= bound, f"{spec.name} {name} at p={p}, q={q}: {fine} vs {expected}"


def test_exact_gap_refuses_dual_rounding_past_its_share_of_the_gap_floor(monkeypatch):
    # B at p = 1e-6 rounds its exact gap by up to 5.7e-14, a quarter of the
    # limit; a share below that must refuse the point, naming the
    # representative of the column whose weighted bound is largest
    spec = builtin_cluster("B")
    channel = ChannelSpec("uncorrelated", 1e-6, 0.0)
    gap(channel, spec)
    monkeypatch.setattr(replica, "ROUNDING_SHARE", 0.04)
    with pytest.raises(UnsignedDual) as info:
        gap(channel, spec)
    text = str(info.value)
    match = re.search(r"round the gap by (\S+) at K=.*past 4e-14; .*signs (\[[^]]*\])", text)
    assert match, text
    assert 4e-14 < float(match.group(1)) < 1e-13
    signs = json.loads(match.group(2))
    table = class_table(spec)
    K, probs = replica._round_points(channel.kind, [channel.p], [channel.q])
    rounding = log_factor_batch(spec, table.levels, K)[3][0]
    heaviest = table.representative[np.argmax(_column_weights(table, probs[0]) * rounding)]
    assert signs == [model.SUPPORT[channel.kind][s].sign for s in heaviest]
    assert isinstance(info.value, NonPositiveDual)


def test_two_layer_rounding_refusal_names_sign_pairs(monkeypatch):
    # on two layers the named column must be (sign, dual_sign) pairs: the
    # signs alone name (1, 1) and (1, -1) both as 1
    spec = builtin_cluster("E")
    channel = ChannelSpec("depolarizing", 1e-6, 0.1)
    monkeypatch.setattr(replica, "ROUNDING_SHARE", 1e-6)
    with pytest.raises(UnsignedDual) as info:
        gap(channel, spec)
    pairs = json.loads(re.search(r"column of signs (\[.*\])$", str(info.value)).group(1))
    table = class_table(spec)
    K, probs = replica._round_points(channel.kind, [channel.p], [channel.q])
    rounding = log_factor_batch(spec, table.levels, K)[3][0]
    heaviest = table.representative[np.argmax(_column_weights(table, probs[0]) * rounding)]
    support = model.SUPPORT[channel.kind]
    assert pairs == [[support[s].sign, support[s].dual_sign] for s in heaviest]
    assert [EdgeDisorder(*pair) for pair in pairs] == [support[s] for s in heaviest]


@pytest.mark.parametrize("name", builtin_names())
def test_registered_class_sums_have_rounding_headroom(name):
    # every class of a registered cluster has a positive dual sum well above
    # its rounding at the strongest coupling, at p = 1e-3 and at the weakest
    spec = builtin_cluster(name)
    kind = _channel_kind(spec)
    upper = (0.5 if spec.layers == 1 else 0.75) - BRACKET_MARGIN
    K = [model.coupling(kind, p) for p in (BRACKET_LO, 1e-3, upper)]
    _, _, sign, rounding = _row_kernel(spec, model.SUPPORT[kind], replica._class_fold(spec)[1], K)
    assert np.all(sign == 1)
    assert rounding.max() < duality.ROUNDING_LIMIT


def test_non_positive_dual_names_an_assignment(monkeypatch):
    # K of about 34.5 cancels the frustrated star's dual sum to zero in
    # floating point; the error must name signs that really fail
    monkeypatch.setattr(model, "MIN_ERROR_RATE", 1e-31)
    star = builtin_cluster("A")
    with pytest.raises(NonPositiveDual) as info:
        gap(ChannelSpec("uncorrelated", 1e-30, 0.1), star)
    signs = json.loads(re.search(r"signs (\[[^]]*\])", str(info.value)).group(1))
    K = 0.5 * math.log((1.0 - 1e-30) / 1e-30)
    with pytest.raises(NonPositiveDual):
        dual_cluster_partition(star, tuple(EdgeDisorder(s) for s in signs), K)


def test_too_many_terms_before_compiling(monkeypatch):
    # 3^6 assignments x 2^18 configurations is past the default budget;
    # nothing may be compiled or allocated on the way to the error
    internal = [Vertex(f"i{k}", "internal") for k in range(18)]
    boundary = [Vertex("b", "boundary")]
    slots = tuple(Slot((f"i{k}", f"i{k + 1}" if k < 5 else "b")) for k in range(6))
    spec = ClusterSpec("wide", 1, tuple(internal + boundary), slots)
    assert replica.exact_work(spec) == 3**6 * 2**18 > TERM_BUDGET

    def forbidden(*args, **kwargs):
        raise AssertionError("compiled a cluster past the term budget")

    monkeypatch.setattr(replica, "class_table", forbidden)
    monkeypatch.setattr(replica, "slot_cells", forbidden)
    with pytest.raises(TooManyTerms):
        gap(ChannelSpec("uncorrelated", 0.1, 0.1), spec)


@pytest.mark.parametrize("samples", [0, -1, MIN_MC_SAMPLES - 1])
def test_monte_carlo_policy_rejects_small_sample_counts(samples):
    with pytest.raises(ValueError):
        gap(ChannelSpec("uncorrelated", 0.09, 0.1), builtin_cluster("A"), MONTE_CARLO,
            mc_samples=samples)


def _mixed_points(kind: str, count: int, seed: int) -> list[ChannelSpec]:
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.02, 0.3, size=count)
    q = np.where(np.arange(count) % 3 == 0, 0.0, rng.uniform(0.0, 0.49, size=count))
    return [ChannelSpec(kind, float(a), float(b)) for a, b in zip(p, q)]


@pytest.mark.parametrize("name", list(CHANNEL_OF))
def test_batched_points_equal_points_alone(name):
    # a point's bits must not depend on the points that share its call or
    # its slice; the last batch crosses the READ_SLICE slice budget
    spec = builtin_cluster(name)
    step = max(1, replica.READ_SLICE // len(class_table(spec).multiplicity))
    for size in (1, 2, 7, step + 2):
        points = _mixed_points(CHANNEL_OF[name], size, seed=size)
        batched = _batch(CHANNEL_OF[name], points, spec, workers=2)
        assert all(std_error == 0.0 for _, std_error in batched)
        # thousands of points cross the budget on single and C: check both
        # sides of the slice boundary and every 50th point
        checked = set(range(0, size, 50)) | {step - 1, step, size - 1}
        slope = gap_batch(CHANNEL_OF[name], [c.p for c in points], [c.q for c in points], spec)[2]
        for k in sorted(k for k in checked if k < size):
            assert batched[k][0] == gap(points[k], spec).delta, f"point {k} of {size}"
            alone = gap_batch(CHANNEL_OF[name], [points[k].p], [points[k].q], spec)[2]
            assert slope[k] == alone[0], f"slope of point {k} of {size}"


def test_monte_carlo_batch_matches_points_alone():
    spec = builtin_cluster("D")
    points = _mixed_points("depolarizing", 3, seed=5)
    batched = _batch("depolarizing", points, spec, MONTE_CARLO, mc_samples=20_000, seed=2,
                     workers=2)
    alone = [gap(point, spec, MONTE_CARLO, mc_samples=20_000, seed=2, workers=1)
             for point in points]
    assert batched == [(a.delta, a.std_error) for a in alone]


@pytest.mark.parametrize("name", ["A", "D", "B"])
def test_sampled_slope_matches_the_exact_slope(name):
    # the score-function slope is an unbiased estimate of dDelta/dp: its
    # mean over 20 seeds lies within 4 standard errors of the exact slope at
    # each exact p_c
    kind, spec = CHANNEL_OF[name], builtin_cluster(name)
    qs = [0.0, 0.2, 0.4]
    ps = [solve_threshold(kind, spec, q).p_c for q in qs]
    exact = gap_batch(kind, ps, qs, spec)[2]
    sampled = np.array(
        [gap_batch(kind, ps, qs, spec, MONTE_CARLO, mc_samples=20_000, seed=s)[2] for s in range(20)]
    )
    z = (sampled.mean(axis=0) - exact) / (sampled.std(axis=0, ddof=1) / math.sqrt(len(sampled)))
    assert np.all(np.abs(z) <= 4.0), f"{name}: z = {z}"


@pytest.mark.parametrize("workers", [1, 2])
def test_sampled_values_are_the_same_alone_and_in_a_batch(monkeypatch, workers):
    # the slope's sums run over a point's own rows in their order, as the
    # gap's do, so each of a sampled point's three values keeps its bits
    # alone, beside other points and over any number of workers
    spec, points = _eight_chunk_case(monkeypatch)
    options = {"mc_samples": 30_000, "seed": 9}
    batched = np.array(gap_batch(
        "depolarizing", [c.p for c in points], [c.q for c in points], spec, MONTE_CARLO,
        workers=workers, **options,
    ))
    assert np.all(batched[2] < 0.0)
    for k, point in enumerate(points):
        for alone_workers in (1, 2):
            alone = gap_batch("depolarizing", [point.p], [point.q], spec, MONTE_CARLO,
                              workers=alone_workers, **options)
            assert [values[0] for values in alone] == batched[:, k].tolist()


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seed_outside_philox_range_is_rejected(seed):
    # -1 once got through the closed-form search and failed in the first chunk
    # with numpy's message about the Philox key
    channel = ChannelSpec("uncorrelated", 0.1, 0.1)
    spec = builtin_cluster("B")
    with pytest.raises(ValueError, match="seed"):
        gap(channel, spec, MONTE_CARLO, mc_samples=2000, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        solve_threshold("uncorrelated", spec, 0.1, policy=MONTE_CARLO, mc_samples=2000, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        sweep("uncorrelated", spec, [0.0, 0.1], policy=MONTE_CARLO, mc_samples=2000, seed=seed)
    assert gap(channel, spec, MONTE_CARLO, mc_samples=2000, seed=2**128 - 1).method == MONTE_CARLO


@pytest.mark.parametrize(
    "argument, value",
    [("mc_samples", 1500.9), ("mc_samples", "2000"), ("seed", 1.5), ("seed", True), ("seed", "3")],
)
def test_monte_carlo_samples_and_seed_must_be_integers(argument, value):
    # 1500.9 samples drew 1 500 rows and "2000" was taken; seeds 1.5 and True
    # keyed the stream as 1, and "3" failed with a raw TypeError
    spec = builtin_cluster("A")
    options = {"mc_samples": 2000, "seed": 0, argument: value}
    with pytest.raises(ValueError, match=argument):
        gap_batch("uncorrelated", [0.1], [0.1], spec, MONTE_CARLO, **options)
    with pytest.raises(ValueError, match=argument):
        solve_threshold("uncorrelated", spec, 0.1, policy=MONTE_CARLO, **options)


def test_numpy_integer_samples_and_seed_are_taken_as_ints():
    spec = builtin_cluster("A")
    numpy = gap_batch("uncorrelated", [0.1], [0.1], spec, MONTE_CARLO, mc_samples=np.int64(2000), seed=np.int64(3))
    plain = gap_batch("uncorrelated", [0.1], [0.1], spec, MONTE_CARLO, mc_samples=2000, seed=3)
    assert _bits(np.concatenate(numpy)) == _bits(np.concatenate(plain))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("kind", list(model.CHANNEL_KINDS))
def test_round_arrays_are_the_model_values_bit_for_bit(kind):
    # a round's K and probability rows are the scalar coupling and
    # disorder_probs at each point alone, and must not move a single bit
    top = model.MAX_ERROR_RATE[kind]
    grid = [model.MIN_ERROR_RATE, BRACKET_LO, 0.01, 0.1, 0.1712, 0.3, top - BRACKET_MARGIN, top]
    rng = np.random.default_rng(7)
    points = [(p, q) for p in grid for q in (0.0, 0.45, 1.0)]
    # numpy's log differs from math.log in the last bit on a few arguments in
    # 10 000, so thousands of random points show a K taken from np.log
    random_p, random_q = rng.uniform(1e-9, top, 20_000), rng.uniform(0.0, 1.0, 20_000)
    points += list(zip(random_p.tolist(), random_q.tolist()))
    p, q = zip(*points)
    K, probs = replica._round_points(kind, p, q)
    assert _bits(K) == _bits([model.coupling(kind, a) for a, _ in points])
    assert _bits(probs) == _bits([model.disorder_probs(kind, a, b) for a, b in points])


ROUND_ERRORS = [
    ("uncorrelated", math.nan, 0.1, "error rate p=nan outside [0, 1]"),
    ("uncorrelated", 0.1, math.nan, "loss rate q=nan outside [0, 1]"),
    ("uncorrelated", -0.1, 0.1, "error rate p=-0.1 outside [0, 1]"),
    ("uncorrelated", 0.1, -0.1, "loss rate q=-0.1 outside [0, 1]"),
    ("depolarizing", 1.1, 0.1, "error rate p=1.1 outside [0, 1]"),
    ("depolarizing", 0.1, 1.1, "loss rate q=1.1 outside [0, 1]"),
    ("uncorrelated", 0.6, 0.1, "uncorrelated channel needs 1e-09 <= p <= 0.5, got 0.6"),
    ("depolarizing", 0.8, 0.1, "depolarizing channel needs 1e-09 <= p <= 0.75, got 0.8"),
    ("uncorrelated", model.MIN_ERROR_RATE / 2, 0.1,
     "uncorrelated channel needs 1e-09 <= p <= 0.5, got 5e-10"),
    ("depolarizing", 0.0, 0.1, "depolarizing channel needs 1e-09 <= p <= 0.75, got 0.0"),
]


@pytest.mark.parametrize(
    "kind, p, q, text", ROUND_ERRORS, ids=[f"{kind}-{p}-{q}" for kind, p, q, _ in ROUND_ERRORS]
)
def test_round_rejects_a_point_with_the_model_text(kind, p, q, text):
    # a range error is the one ChannelSpec raises for the point
    if "outside" in text:
        with pytest.raises(DomainError) as spec_error:
            ChannelSpec(kind, p, q)
        assert str(spec_error.value) == text
    spec = builtin_cluster("single" if kind == "uncorrelated" else "C")
    for policy in (EXACT, MONTE_CARLO):
        with pytest.raises(DomainError) as got:
            gap_batch(kind, [0.1, p, 0.2], [0.1, q, 0.2], spec, policy, mc_samples=1000)
        assert str(got.value) == text


def test_round_reports_range_errors_before_coupling_errors():
    # as when every point's ChannelSpec was built before any coupling
    with pytest.raises(DomainError, match=r"loss rate q=1.5 outside \[0, 1\]"):
        gap_batch("uncorrelated", [0.7, 0.1], [0.1, 1.5], builtin_cluster("single"))
