"""Hadamard duals of edge factors and the dual cluster sum."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from lossthreshold import model, replica
from lossthreshold.cluster import (
    ClusterSpec,
    NonFinite,
    ShapeMismatch,
    Slot,
    Vertex,
    builtin_cluster,
    cluster_partition,
)
from lossthreshold.duality import (
    ROUNDING_LIMIT,
    NonPositiveDual,
    UnsignedDual,
    _dual_magnitudes,
    _dual_signs,
    _flag_base,
    _require_positive_dual,
    _state_columns,
    count_rows,
    dual_cluster_partition,
    dual_edge_factor,
    edge_factor,
    log_factor_batch,
    pure_self_dual_point,
)
from lossthreshold.model import EdgeDisorder

SQRT2 = math.sqrt(2.0)


def _hadamard_single(x):
    """The one-layer dual written out: ((x0 + x1)/sqrt2, (x0 - x1)/sqrt2)."""
    x0, x1 = x
    return ((x0 + x1) / SQRT2, (x0 - x1) / SQRT2)


def _hadamard_twolayer(x):
    """The two-layer dual written out: half the signed sums of (x_00, x_01, x_10, x_11)."""
    a, b, c, d = x
    return (
        0.5 * (a + b + c + d),
        0.5 * (a - b + c - d),
        0.5 * (a + b - c - d),
        0.5 * (a - b - c + d),
    )


_WRITTEN_OUT = {2: _hadamard_single, 4: _hadamard_twolayer}


@pytest.mark.parametrize("size", [2, 4])
def test_hadamard_has_the_bits_of_the_written_out_formulas(size):
    # the same sums in the same order: any other order (a butterfly, a
    # matrix product) would round differently and move p_c
    rng = np.random.default_rng(6)
    for _ in range(2000):
        x = tuple(rng.uniform(-10.0, 10.0, size=size) * 10.0 ** rng.integers(-8, 9, size=size))
        assert dual_edge_factor(x) == _WRITTEN_OUT[size](x)
    arrays = tuple(rng.uniform(0.0, 5.0, size=(size, 37)) ** 3)
    for got, want in zip(dual_edge_factor(arrays), _WRITTEN_OUT[size](arrays)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("size", [0, 1, 3, 5, 8])
def test_hadamard_refuses_other_lengths(size):
    with pytest.raises(ValueError, match="2 or 4 components"):
        dual_edge_factor((1.0,) * size)


@pytest.mark.parametrize("size", [2, 4])
def test_hadamard_involution(size):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        x = tuple(rng.uniform(0.1, 10.0, size=size))
        y = dual_edge_factor(dual_edge_factor(x))
        worst = max(worst, max(abs(a - b) / abs(a) for a, b in zip(x, y)))
    assert worst <= 1e-14


@pytest.mark.parametrize("size", [2, 4])
def test_hadamard_preserves_norm(size):
    rng = np.random.default_rng(8)
    x = tuple(rng.uniform(0.1, 10.0, size=size))
    assert sum(v * v for v in dual_edge_factor(x)) == pytest.approx(sum(v * v for v in x), rel=1e-14)


def test_single_layer_dual_components():
    K = 0.52
    plus = dual_edge_factor(edge_factor(EdgeDisorder(1), K))
    assert plus[0] == pytest.approx(SQRT2 * math.cosh(K), rel=1e-15)
    assert plus[1] == pytest.approx(SQRT2 * math.sinh(K), rel=1e-15)
    minus = dual_edge_factor(edge_factor(EdgeDisorder(-1), K))
    assert minus[1] == pytest.approx(-SQRT2 * math.sinh(K), rel=1e-15)
    diluted = dual_edge_factor(edge_factor(EdgeDisorder(0), K))
    assert diluted == pytest.approx((SQRT2, 0.0), abs=1e-15)


def test_two_layer_dual_components():
    K = 0.52
    a = 0.5 * (math.exp(3.0 * K) + 3.0 * math.exp(-K))
    s = 0.5 * (math.exp(3.0 * K) - math.exp(-K))
    plus = dual_edge_factor(edge_factor(EdgeDisorder(1, 1), K))
    assert plus == pytest.approx((a, s, s, s), rel=1e-14)
    mixed = dual_edge_factor(edge_factor(EdgeDisorder(1, -1), K))
    assert mixed == pytest.approx((a, -s, s, -s), rel=1e-14)
    diluted = dual_edge_factor(edge_factor(EdgeDisorder(0, 0), K))
    assert diluted == pytest.approx((2.0, 0.0, 0.0, 0.0), abs=1e-14)


_CLEAN_AND_LOST = {1: (EdgeDisorder(1), EdgeDisorder(0)), 2: (EdgeDisorder(1, 1), EdgeDisorder(0, 0))}


@pytest.mark.parametrize("layers", [1, 2])
def test_dual_magnitudes_have_the_bits_of_the_per_state_hadamard_construction(layers):
    # a, b and c over an array of couplings must have, entry by entry, the
    # bits of the Hadamard dual of the clean and the lost edge factor at
    # that coupling alone, whatever SIMD lane or tail the entry lands in
    clean, lost = _CLEAN_AND_LOST[layers]
    rng = np.random.default_rng(9)
    for length in range(1, 18):
        for K in (np.geomspace(1e-3, 12.0, length), 10.0 ** rng.uniform(-3.0, math.log10(12.0), length)):
            a, b, c = _dual_magnitudes(layers, K)
            got = np.array([a, b, np.full(length, c)])
            want = np.array(
                [
                    [*dual_edge_factor(edge_factor(clean, k))[:2], dual_edge_factor(edge_factor(lost, k))[0]]
                    for k in K
                ]
            ).T
            assert got.shape == want.shape == (3, length)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), f"K={K.tolist()}"


@pytest.mark.parametrize("kind", ["uncorrelated", "depolarizing"])
def test_every_state_has_the_three_dual_magnitudes_with_the_recorded_signs(kind):
    # a state that is not lost has |dual| = (a, b) or (a, b, b, b) in cell
    # order, with the negative cells the table's flag column records; the
    # lost state has (c, 0, ...), zeros flagged at the base
    support = model.SUPPORT[kind]
    layers = model.channel_layers(kind)
    base = _flag_base(7)
    energy, cell0, flag = _state_columns(layers, 7)
    assert np.array_equal(cell0[:, 0], [not d.diluted for d in support])
    assert not cell0[:, 1:].any()
    for K in np.geomspace(1e-3, 12.0, 41):
        a, b, c = (float(np.squeeze(x)) for x in _dual_magnitudes(layers, np.array([K])))
        assert 0.0 < b <= a
        for d, row in zip(support, flag):
            components = np.array(dual_edge_factor(edge_factor(d, K)))
            if d.diluted:
                assert components[0] == c and not components[1:].any()
                assert row.tolist() == [0] + [base] * (len(row) - 1)
                continue
            np.testing.assert_allclose(np.abs(components), [a] + [b] * (len(row) - 1), rtol=1e-12, atol=0.0)
            assert np.array_equal(components < 0, row == 1) and np.all(row <= 1)
    for d, row in zip(support, energy):
        assert row.tolist() == [round(math.log(x)) for x in edge_factor(d, 1.0)]


def test_single_edge_dual_anchor():
    K = 0.8
    got = dual_cluster_partition(builtin_cluster("single"), (EdgeDisorder(1),), K)
    assert got == pytest.approx(math.log(SQRT2 * math.cosh(K)), rel=1e-14)


def test_star_dual_anchor():
    # the four-edge star sums to 4(prod cosh + prod sinh) before dilution
    K = 0.67
    got = dual_cluster_partition(builtin_cluster("A"), (EdgeDisorder(1),) * 4, K)
    expected = math.log(4.0 * (math.cosh(K) ** 4 + math.sinh(K) ** 4))
    assert got == pytest.approx(expected, rel=1e-14)


def test_crossing_dual_anchor():
    K = 0.59
    got = dual_cluster_partition(builtin_cluster("C"), (EdgeDisorder(1, 1),), K)
    expected = math.log(0.5 * (math.exp(3.0 * K) + 3.0 * math.exp(-K)))
    assert got == pytest.approx(expected, rel=1e-14)


def test_dual_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dual_cluster_partition(builtin_cluster("A"), (EdgeDisorder(1),) * 3, 0.5)
    with pytest.raises(ShapeMismatch):
        dual_cluster_partition(builtin_cluster("A"), (EdgeDisorder(1, 1),) * 4, 0.5)


def test_self_dual_point_value():
    kc = pure_self_dual_point()
    assert abs(kc - 0.5 * math.log(1.0 + SQRT2)) <= 1e-11
    assert abs(math.exp(-2.0 * kc) - math.tanh(kc)) <= 1e-12


def test_self_duality_of_clean_edge():
    # at K_c the primal and dual factors of a clean edge coincide
    kc = pure_self_dual_point()
    primal = cluster_partition(builtin_cluster("single"), (EdgeDisorder(1),), kc)
    dual = dual_cluster_partition(builtin_cluster("single"), (EdgeDisorder(1),), kc)
    assert primal == pytest.approx(dual, abs=1e-11)


def test_non_positive_dual_from_cancellation():
    # a frustrated star at extreme coupling cancels to zero in floating point
    frustrated = tuple(EdgeDisorder(s) for s in (-1, 1, 1, 1))
    dual_cluster_partition(builtin_cluster("A"), frustrated, 12.0)
    with pytest.raises(NonPositiveDual):
        dual_cluster_partition(builtin_cluster("A"), frustrated, 30.0)


def test_non_positive_dual_two_layer():
    disorder = tuple(EdgeDisorder(s, 1) for s in (1, -1, 1, 1, -1, 1, 1))
    dual_cluster_partition(builtin_cluster("E"), disorder, 0.9)
    with pytest.raises(NonPositiveDual):
        dual_cluster_partition(builtin_cluster("E"), disorder, 12.0)


def test_two_layer_refusal_names_sign_pairs():
    # on two layers a state is a (sign, dual_sign) pair, so (1, 1) and
    # (1, -1) must not both be named 1; one layer keeps its flat list
    support = model.LAYER_SUPPORT[2]
    states = np.array([[3, 0, 1, 4, 2, 1, 0], [0] * 7])
    with pytest.raises(NonPositiveDual, match="is not positive") as info:
        _require_positive_dual(builtin_cluster("E"), np.array([True, False]), states, 12.0)
    pairs = json.loads(re.search(r"signs (\[.*\]) at K", str(info.value)).group(1))
    assert pairs == [[support[s].sign, support[s].dual_sign] for s in states[0]]
    assert [EdgeDisorder(*pair) for pair in pairs] == [support[s] for s in states[0]]
    with pytest.raises(UnsignedDual, match=r"for signs \[1, -1, 0, 1\] at K"):
        _require_positive_dual(builtin_cluster("A"), np.array([False]), np.array([[0, 1, 2, 0]]), 12.0, np.ones(1))


def test_non_finite_coupling():
    with pytest.raises(NonFinite):
        cluster_partition(builtin_cluster("single"), (EdgeDisorder(1),), math.inf)
    with pytest.raises(NonFinite):
        dual_cluster_partition(builtin_cluster("single"), (EdgeDisorder(1),), math.inf)
    # with every sign +1, some configuration of B has energy 0, and K * 0
    # would warn of an invalid value (an error in this suite) before the
    # sum's own check could raise
    for K in (math.inf, math.nan):
        with pytest.raises(NonFinite):
            cluster_partition(builtin_cluster("B"), (EdgeDisorder(1),) * 12, K)


def test_negative_coupling_is_refused():
    # the table's dual signs are those of K > 0; at K < 0 every b changes
    # sign, so the kernel refuses the coupling rather than mis-sign the sum
    with pytest.raises(ValueError, match="at least 0"):
        dual_cluster_partition(builtin_cluster("A"), (EdgeDisorder(1),) * 4, -0.5)
    assert dual_cluster_partition(builtin_cluster("A"), (EdgeDisorder(1),) * 4, 0.0) == pytest.approx(
        math.log(4.0), rel=1e-15
    )


@pytest.mark.parametrize(
    "name,states",
    [
        ("A", [(1, 1, 1, 1), (-1, 1, 0, 1), (0, 0, 0, 0), (-1, -1, -1, -1)]),
        ("D", [((1, 1),) * 4, ((1, -1), (0, 0), (-1, 1), (1, 1)), ((-1, -1),) * 4]),
    ],
)
def test_batch_matches_scalar_dual(name, states):
    spec = builtin_cluster(name)
    K = 0.71
    rows = []
    for assignment in states:
        if spec.layers == 1:
            rows.append(tuple(EdgeDisorder(s) for s in assignment))
        else:
            rows.append(tuple(EdgeDisorder(*pair) for pair in assignment))
    support = model.SUPPORT["uncorrelated" if spec.layers == 1 else "depolarizing"]
    idx = np.array([[support.index(d) for d in row] for row in rows])
    _, (logmag,), (sign,), _ = log_factor_batch(spec, count_rows(spec, idx), [K])
    for i, row in enumerate(rows):
        scalar = dual_cluster_partition(spec, row, K)
        assert sign[i] == 1
        assert logmag[i] == pytest.approx(scalar, rel=1e-14)


def test_dual_term_sign_is_the_parity_of_negative_slots():
    # a cast that saturates, or one through a narrower float, gets some of
    # these counts wrong; only the parity of the count may decide the sign,
    # and a flag at or past the base (a zero slot) gives 0 whatever its parity
    base = 1 << 21
    negatives = np.array([0, 1, 127, 128, 255, 256, 257, 2**20 + 1], dtype=np.float64)
    zeros = np.zeros_like(negatives)
    zeros[3] = 2.0
    zeros[6] = 1.0
    sign = _dual_signs(negatives + base * zeros, base)
    assert sign.tolist() == [1.0, -1.0, -1.0, 0.0, -1.0, 1.0, 0.0, -1.0]


def _cancelling_cluster() -> ClusterSpec:
    """Three internal spins on six slots whose all -1 row cancels below double precision at p = 1e-6."""
    vertices = tuple(Vertex(f"pi{k}", "internal") for k in range(3)) + tuple(
        Vertex(f"pb{k}", "boundary") for k in range(3)
    )
    edges = ("pb0-pi1", "pb1-pb0", "pb1-pi2", "pb0-pb2", "pi2-pi0", "pb1-pb2")
    return ClusterSpec("cancelling", 1, vertices, tuple(Slot(tuple(e.split("-"))) for e in edges))


def test_dual_sum_that_rounding_cannot_sign_is_refused():
    # every term is about e^39 and the true ln x_0* is 3 ln(1 + e^(-2K)) =
    # 3.0e-6; the signed sum keeps no digit of it (the kernel logs 3.7), and
    # its rounding bound says so: past 1, rounding decides the sign. Both
    # stay finite (the kernel's bound on this row is 42.7), so a sum that
    # cancels to exactly 0 fails here
    spec = _cancelling_cluster()
    K = model.coupling("uncorrelated", 1e-6)
    disorder = (EdgeDisorder(-1),) * 6
    idx = np.ones((1, 6), dtype=np.int8)  # EdgeDisorder(-1) in the uncorrelated support
    _, logmag, sign, rounding = log_factor_batch(spec, count_rows(spec, idx), [K])
    assert math.isfinite(logmag[0, 0])
    assert abs(logmag[0, 0] - 3.0 * math.log1p(math.exp(-2.0 * K))) > 1.0
    assert 20.0 < rounding[0, 0] < 90.0
    with pytest.raises(UnsignedDual, match=r"cancels below double precision for signs \[-1, -1, -1, -1, -1, -1\]"):
        dual_cluster_partition(spec, disorder, K)
    assert issubclass(UnsignedDual, NonPositiveDual)


def test_rounding_bound_accepts_a_frustrated_star_at_strong_coupling():
    # the frustrated star of test_non_positive_dual_from_cancellation keeps
    # about 11 digits at K = 12, far inside the limit
    frustrated = tuple(EdgeDisorder(s) for s in (-1, 1, 1, 1))
    support = model.SUPPORT["uncorrelated"]
    idx = np.array([[support.index(d) for d in frustrated]])
    *_, rounding = log_factor_batch(builtin_cluster("A"), count_rows(builtin_cluster("A"), idx), [12.0])
    assert 1e-6 < rounding[0, 0] < 1e-5 < ROUNDING_LIMIT


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize("bad", [-1, 3])
def test_state_indices_outside_the_support_are_refused(dtype, bad):
    # an index one past either end at an inner slot would read a
    # neighbouring slot's column of a flat one-hot, or drop out of it
    idx = np.zeros((4, 4), dtype=dtype)
    idx[2, 2] = bad
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        count_rows(builtin_cluster("A"), idx)
    idx[2, 2] = 2
    log_factor_batch(builtin_cluster("A"), count_rows(builtin_cluster("A"), idx), [0.7])


def test_sampled_rows_that_rounding_cannot_sign_are_refused(monkeypatch):
    # a sampled gap checks every distinct row of its whole draw, so it
    # refuses the cancelling row instead of averaging its noise, even when
    # the row is drawn once, in one of several chunks
    spec = _cancelling_cluster()
    monkeypatch.setattr(replica, "_CHUNK_MAX", 1000)
    bounds = replica._chunk_bounds(3000, spec)
    assert len(bounds) == 3
    host = {"lo": None}

    def uniforms(seed, cluster, lo, hi):
        u = np.full((hi - lo, cluster.slot_count), 0.5)
        if lo == host["lo"]:
            # between the first two cumulative probabilities: state 1, sign -1, on every slot
            u[7] = 1.0 - 0.5e-6
        return u

    monkeypatch.setattr(replica, "_chunk_uniforms", uniforms)
    args = ("uncorrelated", [1e-6, 2e-6], [0.0, 0.0], spec, replica.MONTE_CARLO)
    for workers in (1, 2):
        for lo, _ in bounds:
            host["lo"] = lo
            with pytest.raises(UnsignedDual, match=r"signs \[-1, -1, -1, -1, -1, -1\]"):
                replica.gap_batch(*args, mc_samples=3000, workers=workers)
        host["lo"] = None
        delta, *_ = replica.gap_batch(*args, mc_samples=3000, workers=workers)
        assert all(math.isfinite(d) for d in delta)
