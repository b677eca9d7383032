"""Threshold root finding, loss sweeps, and the embedded comparison values."""

from __future__ import annotations

import itertools
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
@pytest.mark.parametrize("q", [0.5, 0.6, 0.75, 1.0])
def test_one_unit_loses_threshold_at_half(monkeypatch, name, kind, q):
    # the no-threshold row builds no search, so its closed-form seed is never needed
    def fail(*args, **kwargs):
        raise AssertionError("the closed form was evaluated")

    monkeypatch.setattr(solver, "_closed_form_root", fail)
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

    monkeypatch.setattr(replica, "table_gaps", fail)
    monkeypatch.setattr(solver, "_closed_form_root", fail)
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
    """p of every point the solver evaluates; its rounds all go through table_gaps."""
    real_batch = replica.table_gaps
    calls = []

    def counted(kind, p, *args, **kwargs):
        calls.extend(p)
        return real_batch(kind, p, *args, **kwargs)

    monkeypatch.setattr(replica, "table_gaps", counted)
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
    # Brent's method (since removed) on the full bracket 8.3-8.7 and on a
    # +-4e-3 bracket about the closed-form root 5.0-5.7; Newton spends the
    # seed, one iterate per step and the certificate's two outer points
    calls = _count_gap_calls(monkeypatch)
    kind, spec = CHANNEL_OF[name], builtin_cluster(name)
    for q in REFERENCE_Q:
        calls.clear()
        result = solve_threshold(kind, spec, q, tol=1e-7)
        assert result.ok
        assert len(calls) <= 7, f"{name} at q={q}: {len(calls)} gap evaluations"
        assert result.evaluations == len(calls) == result.iterations + 3
        assert result.bracket[0] <= result.p_c <= result.bracket[1]
        assert result.bracket[1] - result.bracket[0] <= 1e-7
        # the residual is the best iterate's own gap, not a fresh evaluation
        assert result.p_c in calls
        assert result.residual == abs(replica.gap(ChannelSpec(kind, result.p_c, q), spec).delta)


@pytest.mark.parametrize("seed", range(4))
def test_monte_carlo_gap_evaluations_per_threshold(monkeypatch, seed):
    # a sampled search is an exact search on the table drawn at its seed:
    # the seed, one Newton step and the certificate (p - tol/2, p, p + tol/2),
    # whose middle point is p_c
    calls = _count_gap_calls(monkeypatch)
    for q in (0.0, 0.2, 0.4):
        calls.clear()
        result = solve_threshold(
            "uncorrelated", "B", q, policy="monte-carlo", mc_samples=100_000, seed=seed
        )
        assert result.ok
        assert len(calls) <= 6, f"seed {seed} at q={q}: {len(calls)} gap evaluations"
        assert result.evaluations == len(calls) == result.iterations + 3
        assert len(calls) == 5, f"seed {seed} at q={q}: {len(calls)} gap evaluations"
        assert result.p_c == calls[-2]
        assert result.bracket in ((calls[-3], calls[-2]), (calls[-2], calls[-1]))
        # the residual is p_c's own |Delta| on the table drawn at the seed
        spec = builtin_cluster("B")
        table = replica.point_tables(
            "uncorrelated", [calls[0]], [q], spec, "monte-carlo", mc_samples=100_000, seed=seed
        )
        assert result.residual == abs(replica.table_gaps("uncorrelated", [result.p_c], [q], spec, table)[0][0])


def test_monte_carlo_sweep_takes_three_rounds(monkeypatch):
    # every search spends its seed in the first round, one Newton step in the
    # second and its certificate in the third, all in lockstep, as an exact
    # search on B does
    real_batch = replica.table_gaps
    rounds = []

    def counted(kind, p, *args, **kwargs):
        rounds.append(len(p))
        return real_batch(kind, p, *args, **kwargs)

    monkeypatch.setattr(replica, "table_gaps", counted)
    qs = (0.0, 0.1, 0.2, 0.3, 0.4)
    rows = sweep("uncorrelated", "B", qs, policy="monte-carlo", mc_samples=100_000, seed=1)
    assert all(row.ok and row.evaluations == row.iterations + 3 == 5 for row in rows)
    assert rounds == [len(qs), len(qs), 3 * len(qs)]


def test_searches_ask_for_tables_by_point(monkeypatch):
    # a sampled sweep draws every q's table at its closed-form root in one
    # point_tables call; a search that gives up on Newton asks for one more
    # table, at the full bracket's middle; a sweep in which no search runs
    # still has its seed checked
    real_tables = replica.point_tables
    drawn = []

    def recorded(kind, p, *args, **kwargs):
        drawn.append(list(p))
        return real_tables(kind, p, *args, **kwargs)

    monkeypatch.setattr(replica, "point_tables", recorded)
    kind, options = "uncorrelated", {"policy": "monte-carlo", "mc_samples": 100_000, "seed": 3}
    qs = (0.0, 0.1, 0.2, 0.3, 0.4)
    assert all(row.ok for row in sweep(kind, "B", qs, **options))
    assert drawn == [[solver._closed_form_root(kind, q) for q in qs]]
    real_batch = replica.table_gaps

    def unusable(*args, **kwargs):
        delta, std_error, slope = real_batch(*args, **kwargs)
        return delta, std_error, math.nan * slope

    monkeypatch.setattr(replica, "table_gaps", unusable)
    drawn.clear()
    assert solve_threshold(kind, "B", 0.4, **options).ok
    assert drawn == [[solver._closed_form_root(kind, 0.4)], [0.5 * (solver.BRACKET_LO + solver._upper_bracket(kind))]]
    drawn.clear()
    with pytest.raises(ValueError, match="seed"):
        sweep(kind, "B", [], policy="monte-carlo", seed=-1)
    assert drawn == [[]]


CALIBRATION_Q = (0.0, 0.1, 0.2, 0.3, 0.4)


def _ess_fraction(kind: str, spec: ClusterSpec, table: replica.ClassTable, p: float, q: float) -> float:
    """Kong's effective sample size over N of a drawn table read at (p, q): (sum c w)^2 / (N sum c w^2), w = P_p/P_p0."""
    _, probs = replica._round_points(kind, [p], [q])
    vector_weight = replica._vector_weights(probs, table.count_vectors, spec.slot_count)[0]
    samples = table.draws.sum()
    ratio = table.multiplicity * vector_weight[table.count_index] * samples / table.draws
    return float((table.draws * ratio).sum() ** 2 / (table.draws * ratio**2).sum() / samples)


@pytest.mark.parametrize("name", ["B", "E"])
def test_sampled_thresholds_are_calibrated(monkeypatch, name):
    # a sampled p_c is the root of the table drawn at its seed: over 30
    # seeds, the RMS of its pull (p_c - exact) / std_error lies in 0.8-1.2
    # at 20 000 samples, and every table keeps an effective sample size of
    # at least 0.98 N at the p_c it returns (Kong 1992), so the reweighting
    # from the seed costs next to nothing
    kind, spec = CHANNEL_OF[name], builtin_cluster(name)
    exact = [row.p_c for row in sweep(kind, spec, CALIBRATION_Q, tol=1e-10)]
    real_tables = replica.point_tables
    drawn = []

    def recorded(*args, **kwargs):
        drawn.append(real_tables(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(replica, "point_tables", recorded)
    pulls, ess = [], []
    for seed in range(30):
        rows = sweep(kind, spec, CALIBRATION_Q, policy="monte-carlo", mc_samples=20_000, seed=seed)
        for row, reference, table in zip(rows, exact, drawn[-1]):
            assert row.ok
            pulls.append((row.p_c - reference) / row.std_error)
            ess.append(_ess_fraction(kind, spec, table, row.p_c, row.q))
    rms = math.sqrt(math.fsum(x * x for x in pulls) / len(pulls))
    assert 0.8 <= rms <= 1.2, f"{name}: RMS pull {rms:.3f}"
    assert min(ess) >= 0.98, f"{name}: effective sample size {min(ess):.4f} N"


def test_sampled_searches_on_b_never_bisect(monkeypatch):
    # at 1 000 samples a table's slope misses its own derivative by about
    # 1.4 % (median), so certificates fail often; Newton goes on from them
    # and no search of 30 seeds falls back to the full bracket
    calls = _count_gap_calls(monkeypatch)
    for seed in range(30):
        rows = sweep("uncorrelated", "B", CALIBRATION_Q, policy="monte-carlo", mc_samples=1000, seed=seed)
        assert all(row.ok and row.evaluations <= 11 for row in rows)
    assert solver.BRACKET_LO not in calls


def _top_seed(kind: str, q: float) -> float:
    """A seed 1e-3 under the top of the full bracket, where the gap is nearly flat: Newton's first step leaves the bracket."""
    return solver._upper_bracket(kind) - 1e-3


@pytest.mark.parametrize("name", ["A", "D"])
def test_misplaced_seed_falls_back_to_full_bracket(monkeypatch, name):
    kind, spec = CHANNEL_OF[name], builtin_cluster(name)
    unpatched = [solve_threshold(kind, spec, q) for q in REFERENCE_Q]
    monkeypatch.setattr(solver, "_closed_form_root", _top_seed)
    calls = _count_gap_calls(monkeypatch)
    for q, expected in zip(REFERENCE_Q, unpatched):
        calls.clear()
        result = solve_threshold(kind, spec, q)
        assert result.ok
        assert abs(result.p_c - expected.p_c) <= 1e-7
        assert calls[1:3] == [solver.BRACKET_LO, solver._upper_bracket(kind)]
        # the seed, the full bracket's ends and the bisection midpoints
        assert result.evaluations == len(calls) == result.iterations + 3


@pytest.mark.parametrize("name", ["A", "D"])
def test_newton_steps_recover_a_distant_seed(monkeypatch, name):
    # a seed at half the closed-form root takes more Newton steps, not the
    # full bracket: the gap is convex, so they approach p_c from below
    kind, spec = CHANNEL_OF[name], builtin_cluster(name)
    unpatched = [solve_threshold(kind, spec, q) for q in REFERENCE_Q]
    real = solver._closed_form_root
    monkeypatch.setattr(solver, "_closed_form_root", lambda kind, q: 0.5 * real(kind, q))
    calls = _count_gap_calls(monkeypatch)
    for q, expected in zip(REFERENCE_Q, unpatched):
        calls.clear()
        result = solve_threshold(kind, spec, q)
        assert result.ok
        assert abs(result.p_c - expected.p_c) <= 1e-7
        assert solver.BRACKET_LO not in calls and result.iterations > 2
        assert result.evaluations == len(calls) == result.iterations + 3


@pytest.mark.parametrize("slope", [math.nan, 1.0], ids=["nan", "positive"])
def test_unusable_slope_falls_back_to_full_bracket(monkeypatch, slope):
    # Newton needs a finite negative slope; without one the search falls
    # back to bisection of the full bracket, and the evaluation it spent counts
    kind, spec = "depolarizing", builtin_cluster("D")
    reference = [solve_threshold(kind, spec, q, tol=1e-10) for q in REFERENCE_Q]
    real_batch = replica.table_gaps

    def unusable(*args, **kwargs):
        delta, std_error, _ = real_batch(*args, **kwargs)
        return delta, std_error, np.full_like(delta, slope)

    monkeypatch.setattr(replica, "table_gaps", unusable)
    calls = _count_gap_calls(monkeypatch)
    for q, expected in zip(REFERENCE_Q, reference):
        calls.clear()
        result = solve_threshold(kind, spec, q)
        assert result.ok
        assert abs(result.p_c - expected.p_c) <= 1e-7
        assert calls[0] == solver._closed_form_root(kind, q)
        assert calls[1:3] == [solver.BRACKET_LO, solver._upper_bracket(kind)]
        assert result.evaluations == len(calls) == result.iterations + 3
        assert result.bracket[1] - result.bracket[0] <= 1e-7


def test_failed_certificate_continues_newton(monkeypatch):
    # twice the true slope halves every Newton step, so the steps shrink
    # while the error stays about as large as them: the predicted error
    # passes tol/8 long before the iterate is within tol/2, and its
    # certificate does not straddle zero. Newton goes on from the
    # certificate's middle point, each step half the last, and certifies a
    # p_c within tol without the full bracket
    kind, spec = "depolarizing", builtin_cluster("D")
    reference = [solve_threshold(kind, spec, q, tol=1e-10) for q in REFERENCE_Q]
    real_batch = replica.table_gaps

    def doubled(*args, **kwargs):
        delta, std_error, slope = real_batch(*args, **kwargs)
        return delta, std_error, 2.0 * slope

    monkeypatch.setattr(replica, "table_gaps", doubled)
    calls = _count_gap_calls(monkeypatch)
    for q, expected in zip(REFERENCE_Q, reference):
        calls.clear()
        result = solve_threshold(kind, spec, q)
        assert result.ok
        assert abs(result.p_c - expected.p_c) <= 1e-7
        assert solver.BRACKET_LO not in calls
        assert result.p_c == calls[-2]
        # each failed certificate spends three evaluations in one round
        assert result.evaluations == len(calls) > result.iterations + 3


@pytest.mark.parametrize("name", ["A", "D"])
def test_one_failed_certificate_continues_newton_within_tol(monkeypatch, name):
    # the first certificate of every search is made to fail, its outer
    # points both read as positive; Newton goes on from its middle point,
    # and the next certificate gives a p_c within tol of the unforced one
    kind, spec = CHANNEL_OF[name], builtin_cluster(name)
    unforced = [solve_threshold(kind, spec, q) for q in REFERENCE_Q]
    real_batch = replica.table_gaps
    failed = []

    def first_certificate_fails(kind, p, *args, **kwargs):
        delta, std_error, slope = real_batch(kind, p, *args, **kwargs)
        if len(p) == 3 and not failed:
            failed.append(p[1])
            delta = np.array([1.0, delta[1], 1.0])
        return delta, std_error, slope

    monkeypatch.setattr(replica, "table_gaps", first_certificate_fails)
    calls = _count_gap_calls(monkeypatch)
    for q, expected in zip(REFERENCE_Q, unforced):
        calls.clear()
        failed.clear()
        result = solve_threshold(kind, spec, q)
        assert result.ok and failed
        assert abs(result.p_c - expected.p_c) <= 1e-7
        assert solver.BRACKET_LO not in calls
        assert result.evaluations == len(calls) == result.iterations + 3 + 2
        assert result.bracket[0] <= result.p_c <= result.bracket[1]


@pytest.mark.parametrize("scale", [math.nan, -1.0, 0.5], ids=["nan", "positive", "halved"])
def test_unusable_sampled_slope_falls_back_to_full_bracket(monkeypatch, scale):
    # a NaN or positive sampled slope stops Newton after the seed; half the
    # slope doubles the step, so the iterates step back and forth about the
    # root, and Newton gives up at the seed's second step, which is not
    # under half the first. Bisection of the full bracket then reads a table
    # drawn at the bracket's middle, which signs both ends even at q = 0.4,
    # where the seed's table (p = 0.025) cannot sign the top end past twice
    # its standard error; it stops at tol, and every point counts. Its
    # std_error takes the secant of the final bracket, finite where the
    # table's slope is not, and its p_c agrees with the unforced search's.
    kind, spec = "uncorrelated", builtin_cluster("B")
    options = {"policy": "monte-carlo", "mc_samples": 100_000, "seed": 3}
    unforced = [solve_threshold(kind, spec, q, **options) for q in (0.0, 0.1, 0.4)]
    real_batch = replica.table_gaps

    def scaled(*args, **kwargs):
        delta, std_error, slope = real_batch(*args, **kwargs)
        return delta, std_error, scale * slope

    monkeypatch.setattr(replica, "table_gaps", scaled)
    calls = _count_gap_calls(monkeypatch)
    for q, expected in zip((0.0, 0.1, 0.4), unforced):
        calls.clear()
        result = solve_threshold(kind, spec, q, **options)
        assert result.ok
        start = calls.index(solver.BRACKET_LO)
        assert start == (3 if scale == 0.5 else 1)
        assert calls[start + 1] == solver._upper_bracket(kind)
        assert result.evaluations == len(calls) == start + 2 + result.iterations
        assert result.bracket[0] <= result.p_c <= result.bracket[1]
        assert result.bracket[1] - result.bracket[0] <= 1e-7
        assert 0.0 < result.std_error < math.inf
        assert abs(result.p_c - expected.p_c) <= 3.0 * math.hypot(result.std_error, expected.std_error)


def _bisection_steps(kind: str, tol: float) -> int:
    """Halvings that take the full bracket to within tol."""
    return math.ceil(math.log2((solver._upper_bracket(kind) - solver.BRACKET_LO) / tol))


def test_iteration_cap_falls_back_to_bisection(monkeypatch, capsys):
    # a cap of 0 stops Newton before its first round, so both searches
    # bisect the full bracket; bisection has no cap of its own, since
    # tol >= MIN_TOL bounds its halvings
    unpatched = solve_threshold("depolarizing", "D", 0.1)
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)
    exact = solve_threshold("depolarizing", "D", 0.1)
    sampled = solve_threshold(
        "uncorrelated", "single", 0.0, tol=1e-4, policy="monte-carlo", mc_samples=20_000, seed=4
    )
    for result, tol in ((exact, 1e-7), (sampled, 1e-4)):
        assert result.ok
        assert 0 < result.iterations <= _bisection_steps(result.channel, tol)
        assert result.evaluations == result.iterations + 2
        assert result.bracket[0] <= result.p_c <= result.bracket[1]
        assert result.bracket[1] - result.bracket[0] <= max(tol, 2.0 * result.std_error)
    assert abs(exact.p_c - unpatched.p_c) <= 1e-7
    assert sampled.std_error > 0.0
    code = cli.main(
        ["threshold", "--channel", "depolarizing", "--cluster", "D", "--loss", "0.1",
         "--format", "csv"]
    )
    assert code == cli.EXIT_OK
    assert "no-convergence" not in capsys.readouterr().out
    code = cli.main(
        ["sweep", "--channel", "uncorrelated", "--cluster", "single", "--q-to", "0.1",
         "--q-step", "0.1", "--mc-samples", "20000", "--seed", "4", "--format", "csv"]
    )
    assert code == cli.EXIT_OK
    assert "no-convergence" not in capsys.readouterr().out


def test_bisection_at_min_tol_takes_at_most_33_steps(monkeypatch):
    # the two-layer bracket is the wider one
    assert _bisection_steps("depolarizing", MIN_TOL) == 33
    unpatched = solve_threshold("depolarizing", "D", 0.1, tol=MIN_TOL)
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)
    result = solve_threshold("depolarizing", "D", 0.1, tol=MIN_TOL)
    assert result.ok
    assert result.iterations <= 33
    assert result.evaluations == result.iterations + 2
    assert result.bracket[1] - result.bracket[0] <= MIN_TOL
    assert abs(result.p_c - unpatched.p_c) <= MIN_TOL


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
    roots = [solver._closed_form_root("uncorrelated", q) for q in REFERENCE_Q]
    for q, root in zip(REFERENCE_Q, roots):
        assert abs(root - binary_entropy_root(q)) <= 1e-9
    # past q = 1/2 the closed form is negative on the whole bracket
    for kind in ("uncorrelated", "depolarizing"):
        assert [solver._closed_form_root(kind, q) for q in (0.5, 0.6)] == [None, None]


def test_lockstep_fallback_for_one_q_leaves_the_others(monkeypatch):
    expected = sweep("uncorrelated", "A", REFERENCE_Q)
    real = solver._closed_form_root

    def misplaced(kind, q):
        # at q = 0.2 the seed moves to the top of the bracket, so that search
        # alone falls back to the full bracket
        return _top_seed(kind, q) if q == 0.2 else real(kind, q)

    monkeypatch.setattr(solver, "_closed_form_root", misplaced)
    rows = sweep("uncorrelated", "A", REFERENCE_Q)
    for row, before in zip(rows, expected):
        assert row == solve_threshold("uncorrelated", "A", row.q)
        assert row.ok
        assert row.evaluations == row.iterations + 3
        if row.q == 0.2:
            assert abs(row.p_c - before.p_c) <= 1e-7
            assert row.evaluations > before.evaluations
        else:
            assert row == before


def test_lockstep_no_sign_change_at_one_q_leaves_the_others(monkeypatch):
    expected = sweep("depolarizing", "D", REFERENCE_Q)
    real_batch = replica.table_gaps

    def positive_at_03(kind, p, q, *args, **kwargs):
        delta, std_error, slope = real_batch(kind, p, q, *args, **kwargs)
        return np.where(np.asarray(q) == 0.3, 1.0, delta), std_error, slope

    monkeypatch.setattr(replica, "table_gaps", positive_at_03)
    rows = sweep("depolarizing", "D", REFERENCE_Q)
    with pytest.raises(NoSignChange):
        solve_threshold("depolarizing", "D", 0.3)
    for row, before in zip(rows, expected):
        if row.q == 0.3:
            assert row.status == "no-sign-change" and row.p_c == 0.0
        else:
            assert row == before


GRID_91 = [round(0.005 * i, 10) for i in range(91)]


@pytest.mark.parametrize("name", list(CHANNEL_OF))
def test_lockstep_rounds_on_the_91_q_grid(monkeypatch, name):
    # Newton from the closed-form root: two steps and a certificate where the
    # seed is off by up to 8.5e-4, one step where it is the one unit's root
    real_batch = replica.table_gaps
    rounds = []

    def counted(*args, **kwargs):
        rounds.append(len(args[1]))
        return real_batch(*args, **kwargs)

    monkeypatch.setattr(replica, "table_gaps", counted)
    kind = CHANNEL_OF[name]
    rows = sweep(kind, name, GRID_91, tol=1e-7)
    assert len(rounds) == (2 if name in ("single", "C") else 3)
    assert sum(rounds) == sum(row.evaluations for row in rows)
    fine = sweep(kind, name, GRID_91, tol=1e-10)
    for row, exact in zip(rows, fine):
        assert row.ok and row.evaluations <= 5, f"{name} at q={row.q}: {row.evaluations} evaluations"
        assert row.bracket[0] <= row.p_c <= row.bracket[1]
        assert row.bracket[1] - row.bracket[0] <= 1e-7
        assert abs(row.p_c - exact.p_c) <= 1e-7


def test_entropy_form_is_the_closed_form():
    # the seed's Newton steps run on the entropy form, whose slope is exact
    for kind in ("uncorrelated", "depolarizing"):
        for p, q in itertools.product((0.001, 0.02, 0.1, 0.2, 0.4), (0.0, 0.15, 0.3, 0.45, 0.6)):
            delta, slope = solver._closed_form(kind, p, q)
            assert abs(delta - gap_closed_form_single(kind, p, q)) <= 1e-14
            h = 1e-6 * p
            central = (solver._closed_form(kind, p + h, q)[0] - solver._closed_form(kind, p - h, q)[0]) / (2 * h)
            assert abs(slope - central) <= 1e-6 * abs(slope)


def test_closed_form_root_evaluates_nothing_past_half(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the closed form was evaluated")

    monkeypatch.setattr(solver, "_closed_form", fail)
    for kind in ("uncorrelated", "depolarizing"):
        assert [solver._closed_form_root(kind, q) for q in (0.5, 0.6, 1.0)] == [None, None, None]


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
