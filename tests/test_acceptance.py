"""Acceptance gate: the eight cross-checks the build must answer for.

Each test prints one PASS/FAIL line (run with -s to see them as they go).
The published threshold columns and comparison values live in `reference` as
static data; everything here recomputes thresholds from scratch and compares.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from lossthreshold import cli, replica, solver
from lossthreshold.cluster import (
    builtin_cluster,
    calibration_status,
    gauge_orbit_check,
)
from lossthreshold.duality import (
    dual_edge_factor_single,
    dual_edge_factor_twolayer,
    pure_self_dual_point,
)
from lossthreshold.model import SUPPORT, ChannelSpec, disorder_probs
from lossthreshold.reference import (
    COLUMN_TOLERANCE,
    REFERENCE_COLUMNS,
    REFERENCE_MATCHING,
    REFERENCE_Q,
)

Q_GRID = REFERENCE_Q


def _report(number, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@lru_cache(maxsize=None)
def _column(kind: str, name: str) -> tuple[float, ...]:
    results = solver.sweep(kind, name, Q_GRID)
    assert all(r.ok for r in results), f"{kind}/{name} sweep failed"
    return tuple(r.p_c for r in results)


def _timed_column_deviation(kind: str, name: str) -> tuple[float, float]:
    targets = REFERENCE_COLUMNS[(kind, name)]
    start = time.perf_counter()
    results = solver.sweep(kind, name, Q_GRID)
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in results)
    return max(abs(r.p_c - t) for r, t in zip(results, targets)), elapsed


def _entropy_root(q: float) -> float:
    target = 1.0 - 1.0 / (2.0 * (1.0 - q))
    lo, hi = 1e-15, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if -mid * math.log2(mid) - (1.0 - mid) * math.log2(1.0 - mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_single_edge_column():
    dev, elapsed = _timed_column_deviation("uncorrelated", "single")
    ok = dev <= 1e-4 and elapsed < 1.0
    _report(1, ok, f"single-edge column max deviation {dev:.2e} (tol 1e-4) in {elapsed:.2f}s")


def test_criterion_2_entropy_oracle():
    worst = 0.0
    for q in Q_GRID + (0.05, 0.15, 0.25, 0.35):
        got = solver.solve_threshold("uncorrelated", "single", q, tol=1e-10).p_c
        worst = max(worst, abs(got - _entropy_root(q)))
    root_q0 = solver.solve_threshold("uncorrelated", "single", 0.0, tol=1e-10).p_c
    ok = worst <= 1e-9 and f"{root_q0:.4f}" == "0.1100"
    _report(
        2,
        ok,
        f"max |p_c - entropy-condition root| = {worst:.2e}, q=0 root {root_q0:.6f} -> 0.1100",
    )


def test_criterion_3_single_crossing_column():
    dev, elapsed = _timed_column_deviation("depolarizing", "C")
    ok = dev <= 1e-4 and elapsed < 1.0
    _report(3, ok, f"crossing column max deviation {dev:.2e} (tol 1e-4) in {elapsed:.2f}s")


def test_criterion_4_star_column():
    evaluation = replica.gap(ChannelSpec("uncorrelated", 0.09, 0.1), builtin_cluster("A"))
    dev, elapsed = _timed_column_deviation("uncorrelated", "A")
    ok = (
        dev <= 2e-4
        and elapsed < 5.0
        and evaluation.method == "exact"
        and evaluation.terms == 81
    )
    _report(
        4,
        ok,
        f"star column max deviation {dev:.2e} (tol 2e-4) in {elapsed:.2f}s, "
        f"{evaluation.terms}-term exact enumeration",
    )


def test_criterion_5_calibrated_geometries():
    details = []
    ok = True
    for kind, name in (("uncorrelated", "B"), ("depolarizing", "D"), ("depolarizing", "E")):
        # every column is checked; a geometry not marked verified fails
        status = calibration_status(name)
        targets = REFERENCE_COLUMNS[(kind, name)]
        dev = max(abs(p - t) for p, t in zip(_column(kind, name), targets))
        ok = ok and status == "verified" and dev <= 5e-4
        details.append(f"{name} {status}, max deviation {dev:.2e}")
    _report(5, ok, "; ".join(details) + " (tol 5e-4)")


def test_criterion_6_hadamard_involution():
    rng = np.random.default_rng(17)
    worst = 0.0
    for transform, size in ((dual_edge_factor_single, 2), (dual_edge_factor_twolayer, 4)):
        for _ in range(50):
            x = tuple(rng.uniform(0.1, 10.0, size=size))
            y = transform(transform(x))
            worst = max(worst, max(abs(a - b) / abs(a) for a, b in zip(x, y)))
    _report("6 (involution)", worst <= 1e-14, f"max relative deviation {worst:.2e}")


def test_criterion_6_gauge_invariance():
    rng = np.random.default_rng(23)
    ok = True
    for name in ("A", "B"):
        spec = builtin_cluster(name)
        support = SUPPORT["uncorrelated"]
        for _ in range(12):
            disorder = tuple(support[i] for i in rng.integers(0, 3, size=spec.slot_count))
            ok = ok and gauge_orbit_check(spec, disorder, 0.7, tol=1e-12)
    _report("6 (gauge)", ok, "ln x_0 invariant under internal-spin flips at 1e-12")


def test_criterion_6_normalization():
    worst = 0.0
    for kind in ("uncorrelated", "depolarizing"):
        for p in (0.0, 0.1, 0.5):
            for q in (0.0, 0.3, 1.0):
                probs = disorder_probs(kind, p, q)
                worst = max(worst, abs(math.fsum(probs) - 1.0))
    _report("6 (normalization)", worst <= 1e-15, f"max |sum - 1| = {worst:.2e}")


def test_criterion_6_self_dual_point():
    kc = pure_self_dual_point()
    dev = abs(kc - 0.440687)
    _report("6 (self-dual point)", dev <= 1e-6, f"K_c = {kc:.9f}, |K_c - 0.440687| = {dev:.2e}")


def test_criterion_6_gap_decreasing_in_p():
    grid = [0.02, 0.05, 0.09, 0.13, 0.2, 0.3, 0.45]
    ok = True
    for kind, name in (("uncorrelated", "A"), ("depolarizing", "D")):
        deltas = [
            replica.gap(ChannelSpec(kind, p, 0.1), builtin_cluster(name)).delta for p in grid
        ]
        ok = ok and all(a > b for a, b in zip(deltas, deltas[1:]))
    _report("6 (monotone in p)", ok, "gap strictly decreasing on the p grid for A and D")


def test_criterion_6_threshold_decreasing_in_q():
    ok = True
    for kind, name in (
        ("uncorrelated", "single"),
        ("uncorrelated", "A"),
        ("depolarizing", "C"),
        ("depolarizing", "D"),
    ):
        column = _column(kind, name)
        ok = ok and all(a > b for a, b in zip(column, column[1:]))
    _report("6 (monotone in q)", ok, "p_c strictly decreasing in q for single, A, C, D")


def test_criterion_6_dominance_over_reference():
    # The true optimal threshold obeys p_c >= p_c^0: optimal inference can only
    # do better than minimum-weight matching. What the package computes is a
    # finite-cluster duality estimate of p_c, not a bound on it. Where the
    # paper's own best estimate lies below the matching value, the estimate's
    # error exceeds the gap between optimal and matching, and the ordering is
    # not promised at that q. The set of such q is derived from the tables and
    # then pinned to q = 0.4, so a matching value raised above the published
    # best at any other q fails here instead of widening the set. At an exempt
    # q the computed best must stay within the column tolerance of the
    # published best; for B at q = 0.4 that repeats criterion 5.
    names = ("single", "A", "B")
    computed = [max(cols) for cols in zip(*(_column("uncorrelated", n) for n in names))]
    published = [
        max(zip(cols, names))
        for cols in zip(*(REFERENCE_COLUMNS[("uncorrelated", n)] for n in names))
    ]
    exempt_qs = [q for q, (pub, _), ref in zip(Q_GRID, published, REFERENCE_MATCHING) if pub < ref]
    failures = []
    if exempt_qs != [0.4]:
        failures.append(f"published best below matching at q={exempt_qs}, expected only q=[0.4]")
    exempt = []
    for q, best, (pub, pub_name), ref in zip(Q_GRID, computed, published, REFERENCE_MATCHING):
        if q in exempt_qs:
            exempt.append(
                f"q={q}: best computed {best:.6f}, published best {pub:.6f}, "
                f"entropy root {_entropy_root(q):.6f}, matching {ref:.6f}"
            )
            tol = COLUMN_TOLERANCE[pub_name]
            if best < pub - tol:
                failures.append(
                    f"q={q}: best computed {best:.6f} < published best {pub:.6f} - {tol:.0e} "
                    f"({pub_name} column tolerance)"
                )
        elif best < ref:
            failures.append(f"q={q}: best computed {best:.6f} < matching p_c^0 {ref:.6f}")
    detail = "; ".join(failures) or "p_c >= matching p_c^0 at every non-exempt tabulated q"
    detail += "; exempt (published best below matching): "
    detail += "; ".join(exempt) or "none"
    _report("6 (dominance)", not failures, detail)


def test_criterion_6_depolarizing_exceeds_uncorrelated():
    ok = all(
        c > s for c, s in zip(_column("depolarizing", "C"), _column("uncorrelated", "single"))
    ) and all(d > a for d, a in zip(_column("depolarizing", "D"), _column("uncorrelated", "A")))
    _report("6 (channel ordering)", ok, "depolarizing p_c > uncorrelated p_c at every q")


def test_criterion_7_monte_carlo_consistency():
    channel = ChannelSpec("uncorrelated", 0.09, 0.1)
    star = builtin_cluster("A")
    exact = replica.gap(channel, star).delta
    sampled = replica.gap(channel, star, replica.MONTE_CARLO, mc_samples=100_000, seed=11)
    again = replica.gap(channel, star, replica.MONTE_CARLO, mc_samples=100_000, seed=11)
    pull = abs(sampled.delta - exact) / sampled.std_error
    ok = pull <= 3.0 and sampled.delta == again.delta and sampled.std_error == again.std_error
    _report(
        7,
        ok,
        f"sampled gap {pull:.2f} standard errors from the 81-term value; "
        "same seed reproduces bit-identically",
    )


def test_criterion_8_parallel_determinism():
    qs = Q_GRID
    runs = []
    outputs = []
    for workers in (1, 2, replica.worker_count(None)):
        results = solver.sweep("depolarizing", "D", qs, workers=workers)
        runs.append([r.p_c for r in results])
        outputs.append(cli.render_csv([cli._record(r, True) for r in results]))
    spread = max(abs(a - b) for run in runs[1:] for a, b in zip(run, runs[0]))
    ok = spread <= 1e-12 and len(set(outputs)) == 1
    _report(
        8,
        ok,
        f"worker counts 1/2/max: numeric spread {spread:.1e}, formatted output byte-identical",
    )
