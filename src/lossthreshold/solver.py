"""Root finding for the threshold p_c(q) and sweeps over the loss rate.

Delta(p, q) is strictly decreasing in p, positive below threshold and negative
above. The search starts from the one-unit closed form: the root r of
replica.gap_closed_form_single for the same channel and q (the entropy
condition H2(p) = 1 - 1/(2(1-q)) on one layer) lies within about 1e-3 of
every registered cluster's p_c. So the real gap is first bracketed on
[r - SEED_HALF_WIDTH, r + SEED_HALF_WIDTH]. If its ends do not have opposite
signs, the search falls back to the full bracket [1e-6, 1/2 - 1e-6] (single
layer) or [1e-6, 3/4 - 1e-6] (two layers), which alone decides that there is
no sign change. Either bracket is refined by Brent's method (inverse
quadratic interpolation and secant steps, safeguarded by bisection), and the
same loop finds r. Exact and Monte Carlo gaps share the loop: a sampled gap
is a fixed function of p for one seed, because every evaluation reads the
same random stream, and its refinement stops once the bracket is within
twice the standard error of p_c.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import model, replica
from .cluster import ClusterSpec, builtin_cluster

BRACKET_LO = 1e-6
BRACKET_MARGIN = 1e-6
# half-width of the bracket around the closed-form root; every registered
# cluster's p_c lies within 8.5e-4 of that root
SEED_HALF_WIDTH = 4e-3
MIN_TOL = 1e-10
MAX_ITERATIONS = 200
# |Delta| up to this at a bracket end is rounding, not a sign: a geometry whose
# primal and dual sums coincide has Delta = 0 at every p, and its computed
# value scatters around zero in the last bits.
GAP_FLOOR = 1e-12

STATUS_OK = "ok"
STATUS_NO_THRESHOLD = "no-threshold"
STATUS_NO_SIGN_CHANGE = "no-sign-change"
STATUS_NOT_CONVERGED = "no-convergence"


class NoSignChange(RuntimeError):
    """The gap has one sign over the whole bracket; no threshold to find."""


@dataclass(frozen=True)
class ThresholdResult:
    """p_c is the best iterate, an end of `bracket`, and residual |Delta(p_c)|.

    std_error is the Monte Carlo standard error of p_c in units of p:
    sigma_Delta / |dDelta/dp| by the delta method, with the final bracket's
    secant as the slope. It is 0.0 for exact runs. evaluations counts the
    gap evaluations the search spent, every bracket end included; it is 0
    where no search ran.
    """

    channel: str
    cluster: str
    q: float
    p_c: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    method: str
    status: str = STATUS_OK
    std_error: float = 0.0
    evaluations: int = 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def _resolve_cluster(cluster: ClusterSpec | str) -> ClusterSpec:
    return builtin_cluster(cluster) if isinstance(cluster, str) else cluster


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol):
        raise ValueError(f"tol={tol} must be finite")
    if tol < MIN_TOL:
        raise ValueError(f"tol={tol} below the supported minimum {MIN_TOL}")


def _upper_bracket(kind: str) -> float:
    return (0.5 if kind == model.UNCORRELATED else 0.75) - BRACKET_MARGIN


def solve_threshold(
    channel_kind: str,
    cluster: ClusterSpec | str,
    q: float,
    tol: float = 1e-7,
    *,
    policy: str = replica.EXACT,
    mc_samples: int | None = None,
    seed: int = 0,
    term_budget: int = replica.DEFAULT_TERM_BUDGET,
    workers: int | None = None,
) -> ThresholdResult:
    """Find p_c for one (channel, cluster, q) combination.

    The gap is first bracketed on SEED_HALF_WIDTH either side of the root of
    the one-unit closed form for (channel_kind, q), clipped to the full
    bracket. When that bracket has no sign change (or the closed form has no
    root), the search starts again on the full bracket; its two ends count
    in `evaluations` too.

    Returns a no-threshold result (p_c = 0) for the one-unit clusters when
    q >= 1/2, where the closed form shows the gap is negative for every p.
    Raises NoSignChange when the gap fails to change sign over the full
    bracket (an end within GAP_FLOOR of zero has no sign), which signals the
    q >= 1/2 regime of a larger cluster or a broken geometry. Raises
    ValueError for a tol that is not finite or is below MIN_TOL, and for an
    explicit `workers` below 1. A search that takes MAX_ITERATIONS steps
    without closing the bracket keeps its best iterate with status
    "no-convergence".
    """
    if channel_kind not in model.CHANNEL_KINDS:
        raise model.DomainError(f"unknown channel kind {channel_kind!r}")
    if not 0.0 <= q <= 1.0:
        raise model.DomainError(f"loss rate q={q} outside [0, 1]")
    _check_tol(tol)
    if workers is not None:
        replica.worker_count(workers)
    spec = _resolve_cluster(cluster)
    method = replica.resolve_policy(spec, policy, term_budget)

    # One-unit clusters reduce to the closed form, whose root degenerates to
    # p = 0 exactly when q reaches 1/2 (binary entropy target <= 0).
    if spec.slot_count == 1 and not spec.internal_ids and q >= 0.5:
        return ThresholdResult(
            channel_kind, spec.name, q, 0.0, 0.0, (0.0, 0.0), 0, method, STATUS_NO_THRESHOLD
        )

    evaluations = 0

    def evaluate(p: float) -> replica.GapEvaluation:
        nonlocal evaluations
        evaluations += 1
        return replica.gap(
            model.ChannelSpec(channel_kind, p, q),
            spec,
            method,
            mc_samples=mc_samples,
            seed=seed,
            term_budget=term_budget,
            workers=workers,
        )

    upper = _upper_bracket(channel_kind)
    brackets = [(BRACKET_LO, upper)]
    root = _closed_form_root(channel_kind, q)
    if root is not None:
        seeded = (max(BRACKET_LO, root - SEED_HALF_WIDTH), min(upper, root + SEED_HALF_WIDTH))
        brackets.insert(0, seeded)
    for a, b in brackets:
        fa, fb = evaluate(a).delta, evaluate(b).delta
        if fa > GAP_FLOOR and fb < -GAP_FLOOR:
            result = _refine(channel_kind, spec.name, q, method, a, b, fa, fb, tol, evaluate)
            return replace(result, evaluations=evaluations)
    raise NoSignChange(
        f"gap does not change sign on [{a}, {b}] for {channel_kind}/{spec.name} at q={q}: "
        f"Delta({a})={fa:.6g}, Delta({b})={fb:.6g}"
    )


def _closed_form_root(kind: str, q: float) -> float | None:
    """Root in p of the one-unit closed form on the full bracket, or None.

    Found by the same Brent loop as the threshold itself, to MIN_TOL whatever
    the caller's tol, so the root depends on (kind, q) alone. The closed form
    has no root once q >= 1/2; the caller then searches the full bracket.
    """

    def evaluate(p: float) -> replica.GapEvaluation:
        return replica.GapEvaluation(
            replica.gap_closed_form_single(kind, p, q), replica.EXACT, 0.0, 1
        )

    upper = _upper_bracket(kind)
    fa, fb = evaluate(BRACKET_LO).delta, evaluate(upper).delta
    if not fa > 0.0 > fb:
        return None
    result = _refine(
        kind, "closed-form", q, replica.EXACT, BRACKET_LO, upper, fa, fb, MIN_TOL, evaluate
    )
    return result.p_c


def _refine(kind, name, q, method, a, b, fa, fb, tol, evaluate) -> ThresholdResult:
    """Brent's zeroin on [a, b] with Delta(a) > 0 > Delta(b).

    b is the best iterate, c the end of the bracket with the other sign, a
    the previous b. Steps are interpolations kept well inside the bracket,
    else midpoints, and at least half the stopping width long. It stops at
    |c - b| <= max(tol, 2 sigma_p), with sigma_p the latest interior gap's
    standard error over the secant slope of [b, c], so a sampled gap is not
    refined below its own noise.
    """
    c, fc = a, fa
    d = e = b - a
    sigma = 0.0
    iterations = 0
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        sigma_p = sigma * abs((c - b) / (fc - fb))
        half = 0.5 * max(tol, 2.0 * sigma_p)
        mid = 0.5 * (c - b)
        converged = abs(mid) <= half or fb == 0.0
        if converged or iterations == MAX_ITERATIONS:
            break
        if abs(e) >= half and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                num, den = 2.0 * mid * s, 1.0 - s
            else:
                r, t = fa / fc, fb / fc
                num = s * (2.0 * mid * r * (r - t) - (b - a) * (t - 1.0))
                den = (r - 1.0) * (t - 1.0) * (s - 1.0)
            if num > 0.0:
                den = -den
            num = abs(num)
            if 2.0 * num < min(3.0 * mid * den - abs(half * den), abs(e * den)):
                e, d = d, num / den
            else:
                d = e = mid
        else:
            d = e = mid
        a, fa = b, fb
        b += d if abs(d) > half else math.copysign(half, mid)
        ev = evaluate(b)
        fb, sigma = ev.delta, ev.std_error
        iterations += 1
    status = STATUS_OK if converged else STATUS_NOT_CONVERGED
    bracket = (min(b, c), max(b, c))
    return ThresholdResult(kind, name, q, b, abs(fb), bracket, iterations, method, status, sigma_p)


def sweep(
    channel_kind: str,
    cluster: ClusterSpec | str,
    q_values,
    tol: float = 1e-7,
    *,
    policy: str = replica.EXACT,
    mc_samples: int | None = None,
    seed: int = 0,
    term_budget: int = replica.DEFAULT_TERM_BUDGET,
    workers: int | None = None,
) -> list[ThresholdResult]:
    """Thresholds for an ascending list of loss rates, one result per q.

    Per-q failures (no sign change) become rows with status and p_c = 0
    instead of aborting the sweep. Runs q values in parallel when more than
    one worker is available; output order and values are independent of the
    worker count.
    """
    qs = [float(x) for x in q_values]
    if any(hi <= lo for lo, hi in zip(qs, qs[1:])):
        raise ValueError("q values must be strictly ascending")
    if qs and not (0.0 <= qs[0] and qs[-1] < 0.5):
        raise ValueError("q values must lie in [0, 0.5)")
    _check_tol(tol)
    spec = _resolve_cluster(cluster)
    nworkers = replica.worker_count(workers)

    def run(q: float) -> ThresholdResult:
        try:
            return solve_threshold(
                channel_kind,
                spec,
                q,
                tol,
                policy=policy,
                mc_samples=mc_samples,
                seed=seed,
                term_budget=term_budget,
                workers=1,
            )
        except NoSignChange:
            method = replica.resolve_policy(spec, policy, term_budget)
            return ThresholdResult(
                channel_kind, spec.name, q, 0.0, 0.0, (0.0, 0.0), 0, method, STATUS_NO_SIGN_CHANGE
            )

    if nworkers <= 1 or len(qs) <= 1:
        return [run(q) for q in qs]
    with ThreadPoolExecutor(max_workers=min(nworkers, len(qs))) as pool:
        return list(pool.map(run, qs))

