"""Threshold root finding, loss sweeps, and the embedded comparison values."""

from __future__ import annotations

import math

import pytest

from lossthreshold.cluster import ClusterSpec, Slot, Vertex
from lossthreshold.model import DomainError
from lossthreshold.replica import gap_closed_form_single
from lossthreshold.solver import (
    MIN_TOL,
    NoSignChange,
    ThresholdResult,
    reference_p_c0,
    reference_thresholds,
    solve_threshold,
    sweep,
)


def _binary_entropy_root(q: float) -> float:
    """Solve H2(p) = 1 - 1/(2(1-q)) by bisection; independent single-edge oracle."""
    target = 1.0 - 1.0 / (2.0 * (1.0 - q))
    lo, hi = 1e-15, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h = -mid * math.log2(mid) - (1.0 - mid) * math.log2(1.0 - mid)
        if h < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _closed_form_root(kind: str, q: float) -> float:
    lo, hi = 1e-9, (0.5 if kind == "uncorrelated" else 0.75) - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap_closed_form_single(kind, mid, q) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# two slots sharing internal spins on both layers; its primal and dual sums
# coincide, so its gap is zero up to rounding over the whole bracket,
# exercising the no-sign-change path
BROKEN_BOWTIE = ClusterSpec(
    "broken",
    2,
    (
        Vertex("a", "boundary"),
        Vertex("b", "internal"),
        Vertex("c", "boundary"),
        Vertex("d1", "boundary", "dual"),
        Vertex("d2", "internal", "dual"),
        Vertex("d3", "boundary", "dual"),
    ),
    (Slot(("a", "b"), ("d1", "d2")), Slot(("b", "c"), ("d2", "d3"))),
)


@pytest.mark.parametrize("q", [0.0, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49])
def test_single_edge_threshold_matches_entropy_oracle(q):
    result = solve_threshold("uncorrelated", "single", q, tol=1e-10)
    assert result.ok
    assert result.method == "exact"
    assert abs(result.p_c - _binary_entropy_root(q)) <= 1e-9
    assert result.residual <= 1e-9
    assert result.bracket[0] <= result.p_c <= result.bracket[1]
    assert 1 <= result.iterations <= 200


@pytest.mark.parametrize("q", [0.0, 0.2, 0.45])
def test_single_crossing_threshold_matches_closed_form_root(q):
    result = solve_threshold("depolarizing", "C", q, tol=1e-10)
    assert abs(result.p_c - _closed_form_root("depolarizing", q)) <= 1e-9


@pytest.mark.parametrize("name,kind", [("single", "uncorrelated"), ("C", "depolarizing")])
@pytest.mark.parametrize("q", [0.5, 0.75, 1.0])
def test_one_unit_loses_threshold_at_half(name, kind, q):
    result = solve_threshold(kind, name, q)
    assert result.status == "no-threshold"
    assert not result.ok
    assert result.p_c == 0.0


def test_no_sign_change_above_percolation():
    with pytest.raises(NoSignChange):
        solve_threshold("uncorrelated", "A", 0.6)


def test_no_sign_change_broken_geometry():
    with pytest.raises(NoSignChange):
        solve_threshold("depolarizing", BROKEN_BOWTIE, 0.1)


def test_sweep_converts_failures_to_rows():
    rows = sweep("depolarizing", BROKEN_BOWTIE, [0.0, 0.1])
    assert [r.status for r in rows] == ["no-sign-change", "no-sign-change"]
    assert all(r.p_c == 0.0 and not r.ok for r in rows)


def test_threshold_decreases_with_loss():
    values = [solve_threshold("depolarizing", "D", q).p_c for q in (0.0, 0.15, 0.3)]
    assert values[0] > values[1] > values[2]


def test_validation_errors():
    with pytest.raises(DomainError):
        solve_threshold("erasure", "single", 0.0)
    with pytest.raises(DomainError):
        solve_threshold("uncorrelated", "single", -0.1)
    with pytest.raises(ValueError):
        solve_threshold("uncorrelated", "single", 0.0, tol=MIN_TOL / 10)
    with pytest.raises(ValueError):
        solve_threshold("uncorrelated", "single", 0.0, policy="fastest")


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_non_finite_tol_is_rejected(tol):
    # a NaN tol once stopped the search at once and reported p_c = 0.2222 as ok
    with pytest.raises(ValueError, match="finite"):
        solve_threshold("uncorrelated", "single", 0.1, tol=tol)
    with pytest.raises(ValueError, match="finite"):
        sweep("uncorrelated", "single", [0.1], tol=tol)
    with pytest.raises(ValueError, match="finite"):
        sweep("uncorrelated", "single", [], tol=tol)


@pytest.mark.parametrize("samples", [0, -5])
def test_monte_carlo_solve_rejects_sample_counts_below_floor(samples):
    with pytest.raises(ValueError):
        solve_threshold("uncorrelated", "single", 0.1, policy="monte-carlo", mc_samples=samples)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep("uncorrelated", "single", [0.2, 0.1])
    with pytest.raises(ValueError):
        sweep("uncorrelated", "single", [0.0, 0.5])


def test_monte_carlo_solve():
    result = solve_threshold(
        "uncorrelated", "single", 0.0, tol=1e-4, policy="monte-carlo", mc_samples=20_000, seed=4
    )
    assert result.method == "monte-carlo"
    assert result.std_error > 0.0
    assert abs(result.p_c - 0.11003) < 5e-3
    again = solve_threshold(
        "uncorrelated", "single", 0.0, tol=1e-4, policy="monte-carlo", mc_samples=20_000, seed=4
    )
    assert again.p_c == result.p_c
    assert again.residual == result.residual


def test_auto_policy_falls_back_to_sampling():
    result = solve_threshold(
        "uncorrelated", "A", 0.1, tol=1e-3, policy="auto", term_budget=10, mc_samples=5000, seed=1
    )
    assert result.method == "monte-carlo"
    exact = solve_threshold("uncorrelated", "A", 0.1, policy="auto")
    assert exact.method == "exact"


def test_sweep_worker_count_invariance():
    qs = (0.0, 0.2, 0.4)
    serial = sweep("uncorrelated", "A", qs, workers=1)
    pooled = sweep("uncorrelated", "A", qs, workers=2)
    assert [r.q for r in serial] == list(qs)
    assert [r.p_c for r in serial] == [r.p_c for r in pooled]
    assert [r.residual for r in serial] == [r.residual for r in pooled]


def test_reference_threshold_lookup():
    table = reference_thresholds()
    assert table["q"] == (0.0, 0.1, 0.2, 0.3, 0.4, 0.45)
    assert table["matching_p_c0"][0] == 0.10486
    assert table["matching_improved_q0"] == 0.1065
    assert table["depolarizing_q0"] == 0.164
    assert reference_p_c0("uncorrelated", 0.4) == 0.02561
    assert reference_p_c0("uncorrelated", 0.15) is None
    assert reference_p_c0("depolarizing", 0.0) == 0.164
    assert reference_p_c0("depolarizing", 0.3) is None


def test_result_ok_property():
    row = ThresholdResult("uncorrelated", "single", 0.0, 0.1, 0.0, (0.0, 0.5), 3, "exact")
    assert row.ok
    failed = ThresholdResult(
        "uncorrelated", "single", 0.6, 0.0, 0.0, (0.0, 0.0), 0, "exact", "no-threshold"
    )
    assert not failed.ok
