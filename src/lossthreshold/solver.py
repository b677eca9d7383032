"""Root finding for the threshold p_c(q) and sweeps over the loss rate.

Delta(p, q) is strictly decreasing in p, positive below threshold and negative
above. Each q's search reads one table (`replica.point_tables`): the
cluster's class table, exact, or on a Monte Carlo run a table drawn once at
the search's seed, whose Delta at any p is the importance-weighted mean of
that one draw, a fixed function of p. So a sampled search is an exact search
on its table, and both take the same steps. The search starts from the
one-unit closed form: its root r for the same channel and q (the entropy
condition H2(p) = 1 - 1/(2(1-q)) on one layer, the hashing bound with loss
on two) lies within about 1e-3 of every registered cluster's p_c, and
Newton's method on the closed form's entropy form finds it to MIN_TOL, one q
at a time outside the rounds below. Where the closed form has no root (q >=
1/2), a table is drawn at the middle of the full bracket instead. The
search then takes safeguarded Newton steps from r on the slope that
`replica.table_gaps` returns (as `rtsafe` does, Press et al., Numerical
Recipes, section 9.4): the exact slope, or on a drawn table the
score-function estimate from its rows. It ends with the certificate round
(p - tol/2, p, p + tol/2), whose outer points must straddle zero; a
certificate that fails lets Newton go on from its middle point. Where
Newton gives up (a slope that is not finite and negative, steps that do not
shrink, an iterate outside the full bracket or MAX_ITERATIONS rounds), the
search falls back to bisection of the full bracket [1e-6, 1/2 - 1e-6]
(single layer) or [1e-6, 3/4 - 1e-6] (two layers), which alone decides that
there is no sign change, until the bracket is within tol. As tol >= MIN_TOL,
that takes at most 33 halvings. The bisection reads a table drawn at the
full bracket's middle: the seed's table may weigh an end far from the seed
on too few rows to sign it.

Each search is a generator that asks for a table, or for the gap at the
points it needs next. A sweep advances its searches in lockstep: each round
draws the tables its searches ask for in one `replica.point_tables` call,
the first round every q's, and reads every unfinished search's next points
in one `replica.table_gaps` call on the round's p, q and table lists.
Searches are sent back plain (Delta, standard error, slope) floats, so no
per-point channel or result object passes between solver and replica. A
point's gap does not depend on the points that share its round, so each q's
search, and its row, is the same as alone; `solve_threshold` is the sweep of
one q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import model, replica
from .cluster import ClusterSpec, builtin_cluster

BRACKET_LO = 1e-6
BRACKET_MARGIN = 1e-6
MIN_TOL = 1e-10
MAX_ITERATIONS = 200

STATUS_OK = "ok"
STATUS_NO_THRESHOLD = "no-threshold"
STATUS_NO_SIGN_CHANGE = "no-sign-change"


class NoSignChange(RuntimeError):
    """The gap has one sign over the whole bracket; no threshold to find."""


class _Table(float):
    """A search's request for a table drawn at this p, from which it reads its next points."""


@dataclass(frozen=True)
class ThresholdResult:
    """p_c is the certified iterate or a bisection end, and residual |Delta(p_c)|.

    For a certified search, on either policy, p_c is the last Newton
    iterate, `bracket` the half of its certificate (p_c - tol/2, p_c + tol/2)
    whose ends have opposite signs, and `iterations` its rounds before the
    certificate that passed: Newton steps, and certificates that failed. Its
    evaluations are iterations + 3 (the seed and the certificate's outer
    points) and two more per failed certificate. For a bisection search,
    `bracket` is the final bracket, at most tol wide, p_c its end of smaller
    |Delta|, and `iterations` its halvings. On a Monte Carlo run, Delta is
    the search's drawn table's and std_error is the standard error of p_c in
    units of p: sigma_Delta / |dDelta/dp| at p_c by the delta method, both
    from the table, the slope the final bracket's secant after a bisection.
    It is 0.0 for exact runs. evaluations counts the gap evaluations the
    search spent, every bracket end and every Newton point before a
    fallback included; it is 0 where no search ran.
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

    The search takes Newton steps from the root of the one-unit closed form
    for (channel_kind, q), on the class table or, with policy "monte-carlo",
    on a table drawn at that root, and certifies the last iterate (see
    `_newton`). Where Newton gives up or the closed form has no root, the
    search bisects the full bracket instead, on a table drawn at its middle;
    every point spent before counts in `evaluations` too.

    Returns a no-threshold result (p_c = 0) for the one-unit clusters when
    q >= 1/2, where the closed form shows the gap is negative for every p.
    Raises NoSignChange when the gap fails to change sign over the full
    bracket (an end within replica.GAP_FLOOR, or within twice its standard
    error, of zero has no sign), which signals the q >= 1/2 regime of a
    larger cluster or a broken geometry. Raises ValueError for a tol that is not finite or is below MIN_TOL, for a
    `workers` that is not an integer of at least 1, and for a Monte Carlo
    seed that is not an integer in [0, 2**128).
    """
    model.check_rate("loss rate q", q)
    spec = _resolve_cluster(cluster)
    (outcome,) = _thresholds(channel_kind, spec, [q], tol, policy, mc_samples, seed, workers)
    if isinstance(outcome, NoSignChange):
        raise outcome
    return outcome


def _thresholds(kind, spec, qs, tol, policy, mc_samples, seed, workers) -> list:
    """A ThresholdResult or a NoSignChange for every q, all searched in lockstep.

    A search yields the tuple of p values it needs next and is sent back a
    list of their (delta, std_error, slope) triples, or yields a `_Table`
    point, the p at which to draw the table it reads from then on, and is
    sent back None (`replica.point_tables`: the class table on the exact
    policy). Each round draws the tables its searches ask for in one call,
    so a sweep draws all its first tables in one call, takes those searches'
    next requests, and gathers the points of every unfinished search, in q
    order, into one `replica.table_gaps` call, whose values do not depend on
    which points share the call or on the worker count; so each outcome
    depends on its own q alone.
    """
    model.check_kind(kind)
    _check_tol(tol)
    nworkers = replica.worker_count(workers)
    outcomes, searches, tables = {}, {}, {}
    for i, q in enumerate(qs):
        # One-unit clusters reduce to the closed form, whose root degenerates
        # to p = 0 exactly when q reaches 1/2 (binary entropy target <= 0).
        if spec.slot_count == 1 and not spec.internal_ids and q >= 0.5:
            outcomes[i] = ThresholdResult(
                kind, spec.name, q, 0.0, 0.0, (0.0, 0.0), 0, policy, STATUS_NO_THRESHOLD
            )
        else:
            searches[i] = _search(kind, spec.name, q, policy, tol, _closed_form_root(kind, q))

    def advance(replies):
        requests = {}
        for i, reply in replies.items():
            try:
                requests[i] = searches[i].send(reply)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except NoSignChange as exc:
                outcomes[i] = exc
        return requests

    def draw(ps, round_qs):
        return replica.point_tables(
            kind, ps, round_qs, spec, policy, mc_samples=mc_samples, seed=seed, workers=nworkers
        )

    draw([], [])  # checks the policy and its arguments, even where no search runs
    replies = dict.fromkeys(searches)
    while True:
        requests = advance(replies)
        while redraws := {i: p for i, p in requests.items() if isinstance(p, _Table)}:
            tables.update(zip(redraws, draw(list(redraws.values()), [qs[i] for i in redraws])))
            rest = {i: request for i, request in requests.items() if i not in redraws}
            requests = dict(sorted({**rest, **advance(dict.fromkeys(redraws))}.items()))
        if not requests:
            return [outcomes[i] for i in range(len(qs))]
        ps = [p for request in requests.values() for p in request]
        round_qs = [qs[i] for i, request in requests.items() for _ in request]
        round_tables = [tables[i] for i, request in requests.items() for _ in request]
        delta, std_error, slope = replica.table_gaps(kind, ps, round_qs, spec, round_tables)
        values = zip(delta.tolist(), std_error.tolist(), slope.tolist())
        replies = {i: [next(values) for _ in request] for i, request in requests.items()}


def _result(kind, name, q, method, bracket, end, iterations, evaluations):
    """The result at the end (p, Delta, sigma_Delta, slope): p_c = p, residual |Delta| and std_error sigma_Delta / |slope|."""
    p, f, sigma, slope = end
    std_error = sigma / abs(slope) if sigma else 0.0
    return ThresholdResult(kind, name, q, p, abs(f), bracket, iterations, method, STATUS_OK, std_error, evaluations)


def _search(kind, name, q, method, tol, root):
    """The threshold search at one q from the closed-form root `root`, as a generator.

    It asks for a table at the root and takes Newton steps on it from
    there (`_newton`), and returns their result if they certify one.
    Otherwise, or with no root, it asks for a table at the middle of the
    full bracket, on which a table drawn at the seed may weigh an end too
    far from it on too few rows to sign it, and for the bracket's ends, then
    bisects: each step asks for the midpoint, (p,), and keeps the half
    whose ends straddle zero, until the bracket is no wider than tol. The
    result is the end of smaller |Delta| (the lower on a tie), with every
    requested point counted in `evaluations`; its std_error takes the slope
    of the final bracket's secant, as the table's slope may be the one
    Newton gave up on. Raises NoSignChange when the full bracket's ends do
    not straddle zero: an end is signed only past GAP_FLOOR and past twice
    its standard error, so a sampled end that one draw could flip decides
    nothing.
    """
    a, b = BRACKET_LO, _upper_bracket(kind)
    spent = 0
    if root is not None:
        yield _Table(root)
        outcome = yield from _newton(kind, name, q, method, tol, root, b)
        if isinstance(outcome, ThresholdResult):
            return outcome
        spent = outcome
    yield _Table(0.5 * (a + b))
    (fa, sigma_a, _), (fb, sigma_b, _) = yield (a, b)
    spent += 2
    if not (fa > max(replica.GAP_FLOOR, 2.0 * sigma_a) and fb < -max(replica.GAP_FLOOR, 2.0 * sigma_b)):
        raise NoSignChange(
            f"gap does not change sign on [{a}, {b}] for {kind}/{name} at q={q}: "
            f"Delta({a})={fa:.6g}, Delta({b})={fb:.6g}"
        )
    ends = [(a, fa, sigma_a), (b, fb, sigma_b)]
    iterations = 0
    while ends[1][0] - ends[0][0] > tol:
        mid = 0.5 * (ends[0][0] + ends[1][0])
        ((f, sigma, _),) = yield (mid,)
        iterations += 1
        # the midpoint replaces the end of its own sign
        ends[f <= 0.0] = (mid, f, sigma)
    (lo, f_lo, _), (hi, f_hi, _) = ends
    best = min(ends, key=lambda end: abs(end[1]))
    secant = (f_hi - f_lo) / (hi - lo)
    return _result(kind, name, q, method, (lo, hi), (*best, secant), iterations, spent + iterations)


def _newton(kind, name, q, method, tol, p, upper):
    """Safeguarded Newton steps on the gap from the seed p, as a generator.

    Each round asks for one iterate, (p,), and is sent back [(Delta,
    standard error, slope)]; p moves by -Delta/slope. The error of the next
    iterate is predicted as |f''/(2 f')| step^2, with f'' the difference
    quotient of the last two slopes; before a second slope, f''/f' is the
    closed form's at p, whose f'' = (1-q)/(p(1-p)) on one and two layers.
    Once the predicted error is below tol/8, the next round is the
    certificate (p - tol/2, p, p + tol/2), clipped to the full bracket. If
    its outer points straddle zero beyond GAP_FLOOR, the search returns p,
    its own |Delta| as residual and the half of the certificate that holds
    the sign change as bracket (see `_result`). Otherwise Newton goes on
    from the certificate's middle point: a sampled table's slope misses the
    table's own derivative by sampling noise, so the predicted error can
    pass tol/8 early. It gives up, returning the evaluations it spent, when
    a slope is not finite and negative, a failed certificate's iterate does
    not move, a step is not under half the step before the last, an iterate
    leaves (BRACKET_LO, upper) or the rounds reach MAX_ITERATIONS.
    """
    spent, prior, certify, half = 0, None, False, 0.5 * tol
    older = last = math.inf
    for rounds in range(MAX_ITERATIONS):
        points = (max(BRACKET_LO, p - half), p, min(upper, p + half)) if certify else (p,)
        reply = yield points
        spent += len(points)
        f, sigma, slope = reply[len(points) // 2]
        if certify and reply[0][0] > replica.GAP_FLOOR and reply[2][0] < -replica.GAP_FLOOR:
            bracket = (p, points[2]) if f > 0.0 else (points[0], p)
            return _result(kind, name, q, method, bracket, (p, f, sigma, slope), rounds, spent)
        if not -math.inf < slope < 0.0:
            return spent
        step = f / slope
        if prior is None:
            ratio = (1.0 - q) / (p * (1.0 - p)) / _closed_form(kind, p, q)[1]
        elif p == prior[0] or abs(step) >= 0.5 * abs(older):
            # stalled at a failed certificate, or not converging: as in
            # `rtsafe`, a step must be under half the step before the last
            return spent
        else:
            ratio = (slope - prior[1]) / (p - prior[0]) / slope
        prior, p, older, last = (p, slope), p - step, last, step
        if not BRACKET_LO < p < upper:
            return spent
        certify = p == prior[0] or 0.5 * abs(ratio) * step * step < 0.25 * half
    return spent


def _closed_form(kind: str, p: float, q: float) -> tuple[float, float]:
    """The one-unit closed-form gap in entropy form and its slope in p.

    With H the binary entropy in nats, one layer gives
    (1-q)(ln 2 - H(p)) - ln(2)/2 and two layers
    (1-q)(ln 2 - H(p) - p ln 3) - q ln 2, equal to
    `replica.gap_closed_form_single`; the slopes are -(1-q) ln(m(1-p)/p)
    with m = 1 and 3, and both are convex in p.
    """
    m, lost = (1.0, 0.5) if kind == model.UNCORRELATED else (3.0, q)
    entropy = -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)
    ln2 = math.log(2.0)
    delta = (1.0 - q) * (ln2 - entropy - p * math.log(m)) - lost * ln2
    return delta, -(1.0 - q) * math.log(m * (1.0 - p) / p)


def _closed_form_root(kind: str, q: float) -> float | None:
    """Root in p of the one-unit closed form on the full bracket at q, or None for q >= 1/2.

    Newton's method from p = 0.1 on `_closed_form`, kept inside the sign
    bracket it has seen (a step that leaves it bisects instead), to MIN_TOL
    whatever the caller's tol, so the root depends on (kind, q) alone. At q
    >= 1/2 the closed form is negative at every p, so nothing is evaluated.
    """
    if q >= 0.5:
        return None
    lo, hi, p = BRACKET_LO, _upper_bracket(kind), 0.1
    while True:
        f, slope = _closed_form(kind, p, q)
        if f > 0.0:
            lo = p
        else:
            hi = p
        nxt = p - f / slope
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - p) <= MIN_TOL:
            return nxt
        p = nxt


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

    A Monte Carlo sweep draws one table per q in one call, which spreads
    its chunks over the workers. The searches of all q values advance in
    lockstep, one round of gap evaluations at a time, and each round is one
    `replica.table_gaps` call, which reads the round's tables on the calling
    thread. Every row equals `solve_threshold` at its q, bit for bit,
    whatever the worker count. Per-q failures (no sign change) become
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
