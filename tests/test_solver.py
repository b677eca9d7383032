"""Threshold root finding, loss sweeps, and the embedded comparison values."""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest

from lossthreshold import cli, replica, solver
from lossthreshold.cluster import ClusterSpec, Slot, Vertex, builtin_cluster
from lossthreshold.model import ChannelSpec, DomainError
from lossthreshold.reference import (
    REFERENCE_Q,
    binary_entropy_root,
    reference_p_c0,
    reference_thresholds,
)
from lossthreshold.replica import gap_closed_form_single
from lossthreshold.solver import (
    MIN_TOL,
    STATUS_NOT_CONVERGED,
    NoSignChange,
    ThresholdResult,
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


@pytest.mark.parametrize(
    "qs", [[0.1, math.nan, 0.3], [math.nan], [0.1, 0.2, math.inf], [-math.inf, 0.1], [0.1, 0.5]]
)
def test_sweep_checks_every_q_before_any_search(monkeypatch, qs):
    # a NaN inside the list passed the ascending and end checks, and was
    # refused only by the first gap round
    def fail(*args, **kwargs):
        raise AssertionError("a gap was evaluated")

    monkeypatch.setattr(replica, "gap_batch", fail)
    monkeypatch.setattr(replica, "gap_closed_form_single", fail)
    with pytest.raises(ValueError, match=r"\[0, 0.5\)"):
        sweep("uncorrelated", "A", qs)


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


def _count_gap_calls(monkeypatch) -> list[float]:
    """p of every point the solver evaluates; its rounds all go through gap_batch."""
    real_batch = replica.gap_batch
    calls = []

    def counted(kind, p, *args, **kwargs):
        calls.extend(p)
        return real_batch(kind, p, *args, **kwargs)

    monkeypatch.setattr(replica, "gap_batch", counted)
    return calls


CHANNEL_OF = {
    "single": "uncorrelated",
    "A": "uncorrelated",
    "B": "uncorrelated",
    "C": "depolarizing",
    "D": "depolarizing",
    "E": "depolarizing",
}


@pytest.mark.parametrize("name", list(CHANNEL_OF))
def test_gap_evaluations_per_threshold(monkeypatch, name):
    # bisection with secant steps spent about 21 evaluations per threshold,
    # Brent on the full bracket 8.3-8.7
    calls = _count_gap_calls(monkeypatch)
    kind, spec = CHANNEL_OF[name], builtin_cluster(name)
    for q in REFERENCE_Q:
        calls.clear()
        result = solve_threshold(kind, spec, q, tol=1e-7)
        assert result.ok
        assert len(calls) <= 7, f"{name} at q={q}: {len(calls)} gap evaluations"
        assert result.evaluations == len(calls) == result.iterations + 2
        assert result.bracket[0] <= result.p_c <= result.bracket[1]
        assert result.bracket[1] - result.bracket[0] <= 1e-7
        # the residual is the best iterate's own gap, not a fresh evaluation
        assert result.p_c in calls
        assert result.residual == abs(replica.gap(ChannelSpec(kind, result.p_c, q), spec).delta)


@pytest.mark.parametrize("seed", range(4))
def test_monte_carlo_gap_evaluations_per_threshold(monkeypatch, seed):
    calls = _count_gap_calls(monkeypatch)
    for q in (0.0, 0.2, 0.4):
        calls.clear()
        result = solve_threshold(
            "uncorrelated", "B", q, policy="monte-carlo", mc_samples=100_000, seed=seed
        )
        assert result.ok
        assert len(calls) <= 6, f"seed {seed} at q={q}: {len(calls)} gap evaluations"
        assert result.evaluations == len(calls) == result.iterations + 2


@pytest.mark.parametrize("name", ["A", "D"])
def test_misplaced_seed_falls_back_to_full_bracket(monkeypatch, name):
    kind, spec = CHANNEL_OF[name], builtin_cluster(name)
    unpatched = [solve_threshold(kind, spec, q) for q in REFERENCE_Q]
    real = replica.gap_closed_form_single

    def shifted(kind, p, q):
        # the closed-form root moves up by 0.05, so the seeded bracket misses p_c
        return real(kind, max(p - 0.05, 1e-9), q)

    monkeypatch.setattr(replica, "gap_closed_form_single", shifted)
    calls = _count_gap_calls(monkeypatch)
    for q, expected in zip(REFERENCE_Q, unpatched):
        calls.clear()
        result = solve_threshold(kind, spec, q)
        assert result.ok
        assert abs(result.p_c - expected.p_c) <= 1e-7
        assert result.evaluations == len(calls) == result.iterations + 4


def test_iteration_cap_reports_no_convergence(monkeypatch, capsys):
    # a capped search once reported ok, e.g. D at q = 0.1 gave p_c = 0.1451 (true 0.1598);
    # the sampled search below closes its seeded bracket in one iteration, so
    # only a cap of 0 holds it whatever bracket it starts from
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)
    exact = solve_threshold("depolarizing", "D", 0.1)
    sampled = solve_threshold(
        "uncorrelated", "single", 0.0, tol=1e-4, policy="monte-carlo", mc_samples=20_000, seed=4
    )
    for result in (exact, sampled):
        assert result.status == STATUS_NOT_CONVERGED
        assert not result.ok
        assert result.iterations == 0
    code = cli.main(
        ["threshold", "--channel", "depolarizing", "--cluster", "D", "--loss", "0.1",
         "--format", "csv"]
    )
    assert code == cli.EXIT_NO_THRESHOLD
    assert ",no-convergence," in capsys.readouterr().out
    code = cli.main(
        ["sweep", "--channel", "uncorrelated", "--cluster", "single", "--q-to", "0.1",
         "--q-step", "0.1", "--mc-samples", "20000", "--seed", "4", "--format", "csv"]
    )
    assert code == cli.EXIT_NO_THRESHOLD
    assert capsys.readouterr().out.count(",no-convergence,") == 2


def test_monte_carlo_error_is_in_units_of_p():
    # std_error was in gap units: 1000 samples on B gave 4e-2 beside a bracket of 0.031
    few, many = (
        solve_threshold("uncorrelated", "B", 0.1, policy="monte-carlo", mc_samples=n, seed=2)
        for n in (1000, 100_000)
    )
    for result in (few, many):
        assert result.ok
        assert result.bracket[1] - result.bracket[0] <= max(1e-7, 2.0 * result.std_error)
        assert result.bracket[0] <= result.p_c <= result.bracket[1]
    assert 0.0 < many.std_error < few.std_error
    # the delta-method error matches the scatter of p_c over seeds
    runs = [
        solve_threshold("uncorrelated", "B", 0.1, policy="monte-carlo", mc_samples=1000, seed=s)
        for s in range(30)
    ]
    ratio = statistics.stdev(r.p_c for r in runs) / statistics.mean(r.std_error for r in runs)
    assert 0.5 < ratio < 2.0


def test_auto_policy_is_refused():
    # only "exact" and "monte-carlo" exist; the q = 0.6 threshold of the one
    # edge evaluates no gap, so the solver must check the policy itself
    channel = ChannelSpec("uncorrelated", 0.1, 0.1)
    calls = [
        lambda: replica.gap(channel, builtin_cluster("A"), "auto"),
        lambda: solve_threshold("uncorrelated", "A", 0.1, policy="auto"),
        lambda: solve_threshold("uncorrelated", "single", 0.6, policy="auto"),
        lambda: sweep("uncorrelated", "A", [0.0, 0.1], policy="auto"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="policy"):
            call()


def test_sweep_worker_count_invariance():
    qs = (0.0, 0.2, 0.4)
    serial = sweep("uncorrelated", "A", qs, workers=1)
    pooled = sweep("uncorrelated", "A", qs, workers=2)
    assert [r.q for r in serial] == list(qs)
    assert [r.p_c for r in serial] == [r.p_c for r in pooled]
    assert [r.residual for r in serial] == [r.residual for r in pooled]


@pytest.mark.parametrize(
    "kind,name,options,splits",
    [
        ("depolarizing", "E", {}, False),
        ("uncorrelated", "B", {}, False),
        ("uncorrelated", "B", {"policy": "monte-carlo", "mc_samples": 20_000, "seed": 3}, True),
    ],
    ids=["E", "B", "B-monte-carlo"],
)
def test_sweep_rounds_split_over_workers_without_changing_rows(
    monkeypatch, kind, name, options, splits
):
    # sampled chunks go to the pool; exact points, even B's past one
    # CONFIG_BLOCK, stay on the calling thread
    real_run = replica._run_chunks
    pooled_items = []

    def recorded(fn, items, workers):
        if workers > 1:
            pooled_items.append(len(items))
        return real_run(fn, items, workers)

    monkeypatch.setattr(replica, "_run_chunks", recorded)
    qs = (0.0, 0.2, 0.4)
    serial = sweep(kind, name, qs, workers=1, **options)
    assert pooled_items == []
    pooled = sweep(kind, name, qs, workers=2, **options)
    assert (max(pooled_items, default=0) > 1) == splits
    assert serial == pooled
    assert all(r.ok for r in serial)


def test_exact_sweep_never_builds_a_pool(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an exact sweep built a thread pool")

    monkeypatch.setattr(replica, "ThreadPoolExecutor", forbidden)
    rows = sweep("uncorrelated", "B", REFERENCE_Q, workers=2)
    assert all(r.ok and r.method == "exact" for r in rows)


def test_closed_form_roots_are_the_entropy_roots():
    roots = solver._closed_form_roots("uncorrelated", REFERENCE_Q)
    for q, root in zip(REFERENCE_Q, roots):
        assert abs(root - binary_entropy_root(q)) <= 1e-9
    # past q = 1/2 the closed form is negative on the whole bracket
    for kind in ("uncorrelated", "depolarizing"):
        assert solver._closed_form_roots(kind, [0.5, 0.6]) == [None, None]


def test_lockstep_fallback_for_one_q_leaves_the_others(monkeypatch):
    real = replica.gap_closed_form_single

    def shifted(kind, p, q):
        # at q = 0.2 the closed-form root moves up by 0.05, so the seeded
        # bracket misses p_c there and only there
        return real(kind, max(p - 0.05, 1e-9), q) if q == 0.2 else real(kind, p, q)

    monkeypatch.setattr(replica, "gap_closed_form_single", shifted)
    rows = sweep("uncorrelated", "A", REFERENCE_Q)
    for row in rows:
        assert row == solve_threshold("uncorrelated", "A", row.q)
        assert row.ok
        assert row.evaluations == row.iterations + (4 if row.q == 0.2 else 2)


def test_lockstep_no_sign_change_at_one_q_leaves_the_others(monkeypatch):
    expected = sweep("depolarizing", "D", REFERENCE_Q)
    real_batch = replica.gap_batch

    def positive_at_03(kind, p, q, *args, **kwargs):
        delta, std_error = real_batch(kind, p, q, *args, **kwargs)
        return np.where(np.asarray(q) == 0.3, 1.0, delta), std_error

    monkeypatch.setattr(replica, "gap_batch", positive_at_03)
    rows = sweep("depolarizing", "D", REFERENCE_Q)
    with pytest.raises(NoSignChange):
        solve_threshold("depolarizing", "D", 0.3)
    for row, before in zip(rows, expected):
        if row.q == 0.3:
            assert row.status == "no-sign-change" and row.p_c == 0.0
        else:
            assert row == before


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
