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

Each search is a generator that asks for the gap at the points it needs
next. A sweep advances the searches of all its q values in lockstep: round 1
holds every q's two bracket ends, later rounds each unfinished search's
next request, and every round is one `replica.gap_batch` call on the
round's p and q lists. Searches are sent back plain (Delta, standard error)
floats, and the closed-form seed rounds send the same pairs, so no
per-point channel or result object passes between solver and replica. A
point's gap does not depend on the points that share its round, so each
q's search, and its row, is the same as alone; `solve_threshold` is the
sweep of one q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

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
    return model.MAX_ERROR_RATE[kind] - BRACKET_MARGIN


def solve_threshold(
    channel_kind: str,
    cluster: ClusterSpec | str,
    q: float,
    tol: float = 1e-7,
    *,
    policy: str = replica.EXACT,
    mc_samples: int | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> ThresholdResult:
    """Find p_c for one (channel, cluster, q) combination: a sweep of one q.

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
    ValueError for a tol that is not finite or is below MIN_TOL, for a
    `workers` below 1, and for a Monte Carlo seed outside [0, 2**128). A
    search that takes MAX_ITERATIONS steps without closing the bracket keeps
    its best iterate with status "no-convergence".
    """
    if not 0.0 <= q <= 1.0:
        raise model.DomainError(f"loss rate q={q} outside [0, 1]")
    spec = _resolve_cluster(cluster)
    (outcome,) = _thresholds(channel_kind, spec, [q], tol, policy, mc_samples, seed, workers)
    if isinstance(outcome, NoSignChange):
        raise outcome
    return outcome


def _thresholds(kind, spec, qs, tol, policy, mc_samples, seed, workers) -> list:
    """A ThresholdResult or a NoSignChange for every q, all searched in lockstep.

    Every search's rounds go to one `replica.gap_batch` call each (see
    `_lockstep`), whose values do not depend on which points share the call
    or on the worker count; so each outcome depends on its own q alone.
    """
    if kind not in model.CHANNEL_KINDS:
        raise model.DomainError(f"unknown channel kind {kind!r}")
    _check_tol(tol)
    nworkers = replica.worker_count(workers)
    replica.check_policy(policy)
    if policy == replica.MONTE_CARLO:
        replica.check_seed(seed)

    def evaluate(ps, round_qs):
        delta, std_error = replica.gap_batch(
            kind, ps, round_qs, spec, policy, mc_samples=mc_samples, seed=seed, workers=nworkers
        )
        return delta.tolist(), std_error.tolist()

    outcomes = {}
    searches = {}
    for i, (q, root) in enumerate(zip(qs, _closed_form_roots(kind, qs))):
        # One-unit clusters reduce to the closed form, whose root degenerates
        # to p = 0 exactly when q reaches 1/2 (binary entropy target <= 0).
        if spec.slot_count == 1 and not spec.internal_ids and q >= 0.5:
            outcomes[i] = ThresholdResult(
                kind, spec.name, q, 0.0, 0.0, (0.0, 0.0), 0, policy, STATUS_NO_THRESHOLD
            )
        else:
            searches[i] = _search(kind, spec.name, q, policy, tol, root)
    outcomes.update(_lockstep(searches, qs, evaluate))
    return [outcomes[i] for i in range(len(qs))]


def _lockstep(searches: dict, qs, evaluate) -> dict:
    """Run generator searches in rounds until each returns or raises NoSignChange.

    A search yields the tuple of p values it needs next and is sent back a
    list of their (delta, std_error) pairs. Each round gathers the requests
    of every unfinished search, in search order, into one `evaluate(ps, qs)`
    call, which returns the round's deltas and standard errors as two
    sequences of floats. Returns each search's result, or its NoSignChange,
    by key.
    """
    outcomes, replies = {}, dict.fromkeys(searches)
    while True:
        requests = {}
        for i, reply in replies.items():
            try:
                requests[i] = searches[i].send(reply)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except NoSignChange as exc:
                outcomes[i] = exc
        if not requests:
            return outcomes
        ps = [p for request in requests.values() for p in request]
        round_qs = [qs[i] for i, request in requests.items() for _ in request]
        values = zip(*evaluate(ps, round_qs))
        replies = {i: [next(values) for _ in request] for i, request in requests.items()}


def _search(kind, name, q, method, tol, root):
    """The threshold search at one q, as a generator driven by `_lockstep`.

    It asks first for the ends of the seeded bracket (of the full bracket
    when the closed form has no root), then for the full bracket's ends if
    those do not straddle zero, then for Brent's iterates. Returns the
    ThresholdResult with every requested point counted in `evaluations`;
    raises NoSignChange when the full bracket's ends do not straddle zero.
    """
    upper = _upper_bracket(kind)
    brackets = [(BRACKET_LO, upper)]
    if root is not None:
        seeded = (max(BRACKET_LO, root - SEED_HALF_WIDTH), min(upper, root + SEED_HALF_WIDTH))
        brackets.insert(0, seeded)
    for tried, (a, b) in enumerate(brackets, 1):
        (fa, _), (fb, _) = yield (a, b)
        if fa > GAP_FLOOR and fb < -GAP_FLOOR:
            return (yield from _refine(kind, name, q, method, a, b, fa, fb, tol, 2 * tried))
    raise NoSignChange(
        f"gap does not change sign on [{a}, {b}] for {kind}/{name} at q={q}: "
        f"Delta({a})={fa:.6g}, Delta({b})={fb:.6g}"
    )


def _closed_form_roots(kind: str, qs) -> list[float | None]:
    """Root in p of the one-unit closed form on the full bracket at each q, or None.

    Found by the same search as the threshold itself, to MIN_TOL whatever
    the caller's tol, so a root depends on (kind, q) alone. The closed form
    has no root once q >= 1/2 (its search raises NoSignChange); the
    threshold search then starts on the full bracket.
    """

    def evaluate(ps, round_qs):
        closed_form = replica.gap_closed_form_single
        return [closed_form(kind, p, q) for p, q in zip(ps, round_qs)], repeat(0.0)

    searches = {
        i: _search(kind, "closed-form", q, replica.EXACT, MIN_TOL, None) for i, q in enumerate(qs)
    }
    roots = _lockstep(searches, qs, evaluate)
    return [
        roots[i].p_c if isinstance(roots[i], ThresholdResult) else None for i in range(len(qs))
    ]


def _refine(kind, name, q, method, a, b, fa, fb, tol, spent):
    """Brent's zeroin on [a, b] with Delta(a) > 0 > Delta(b), as a generator.

    It yields each iterate p as a one-point request, (p,), and is sent back
    [(Delta(p), its standard error)]; it returns the ThresholdResult, whose
    `evaluations` adds its iterations to the `spent` bracket ends. b is the
    best iterate, c the end of the bracket with the other sign, a the
    previous b.
    Steps are interpolations kept well inside the bracket, else midpoints,
    and at least half the stopping width long. It stops at
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
        ((fb, sigma),) = yield (b,)
        iterations += 1
    status = STATUS_OK if converged else STATUS_NOT_CONVERGED
    bracket = (min(b, c), max(b, c))
    return ThresholdResult(
        kind, name, q, b, abs(fb), bracket, iterations, method, status, sigma_p, spent + iterations
    )


def sweep(
    channel_kind: str,
    cluster: ClusterSpec | str,
    q_values,
    tol: float = 1e-7,
    *,
    policy: str = replica.EXACT,
    mc_samples: int | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> list[ThresholdResult]:
    """Thresholds for an ascending list of loss rates in [0, 1/2), one result per q.

    The searches of all q values advance in lockstep, one round of gap
    evaluations at a time, and each round is one `replica.gap_batch` call,
    which spreads Monte Carlo chunks over the workers; exact rounds run on
    the calling thread. Every row equals `solve_threshold` at its q, bit for
    bit, whatever the worker count. Per-q failures (no sign change) become
    rows with status and p_c = 0 instead of aborting the sweep. Raises
    ValueError, before any search, for a q that is not finite or not in
    [0, 1/2), and for q values that are not strictly ascending.
    """
    qs = [float(x) for x in q_values]
    # every q, before any search: a NaN passes the order checks below
    for q in qs:
        if not 0.0 <= q < 0.5:
            raise ValueError(f"q values must lie in [0, 0.5), got {q}")
    if any(hi <= lo for lo, hi in zip(qs, qs[1:])):
        raise ValueError("q values must be strictly ascending")
    spec = _resolve_cluster(cluster)
    outcomes = _thresholds(channel_kind, spec, qs, tol, policy, mc_samples, seed, workers)
    return [
        outcome
        if isinstance(outcome, ThresholdResult)
        else ThresholdResult(
            channel_kind, spec.name, q, 0.0, 0.0, (0.0, 0.0), 0, policy, STATUS_NO_SIGN_CHANGE
        )
        for q, outcome in zip(qs, outcomes)
    ]
