"""Independent checks of threshold output.

Everything here is a copy kept apart from the package on purpose: the
published threshold columns, their tolerances and two closed-form oracles.
The package may move or rewrite its own copies without changing what the
benchmark checks against. Nothing in this module imports the package.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

TABULATED_Q = (0.0, 0.1, 0.2, 0.3, 0.4, 0.45)

# Published threshold columns on TABULATED_Q, with the per-cluster tolerance.
COLUMNS = {
    ("uncorrelated", "single"): (0.11003, 0.09240, 0.07245, 0.04984, 0.02462, 0.01155),
    ("uncorrelated", "A"): (0.10928, 0.09196, 0.07235, 0.05004, 0.02492, 0.01174),
    ("uncorrelated", "B"): (0.10918, 0.09189, 0.07233, 0.05009, 0.02500, 0.01179),
    ("depolarizing", "C"): (0.18929, 0.16025, 0.12690, 0.08844, 0.04454, 0.02121),
    ("depolarizing", "D"): (0.18886, 0.15985, 0.12656, 0.08819, 0.04440, 0.02114),
    ("depolarizing", "E"): (0.18852, 0.15960, 0.12641, 0.08815, 0.04443, 0.02117),
}
COLUMN_TOLERANCE = {"single": 1e-4, "A": 2e-4, "B": 5e-4, "C": 1e-4, "D": 5e-4, "E": 5e-4}

# Comparison column printed by `--with-reference`: minimum-weight matching on
# the uncorrelated channel, and the recovery-procedure value for the
# depolarizing channel at q = 0.
MATCHING = (0.10486, 0.08816, 0.06997, 0.04836, 0.02561, 0.00757)
DEPOLARIZING_Q0 = 0.164

# Clusters whose threshold must not increase with the loss rate.
MONOTONE = {"A", "D"}

CSV_HEADER = ["channel", "cluster", "q", "p_c", "residual", "method", "reference_p_c0"]
OK_METHODS = {"exact", "monte-carlo"}


def _bisect(f, lo: float, hi: float, width: float = 1e-13) -> float:
    """Root of f, positive at lo and negative at hi."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def entropy_root(q: float) -> float:
    """p with H2(p) = 1 - 1/(2(1-q)); the one-edge threshold (H2 in bits)."""
    target = 1.0 - 1.0 / (2.0 * (1.0 - q))

    def f(p: float) -> float:
        return target + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)

    return _bisect(f, 1e-15, 0.5)


def crossing_root(q: float) -> float:
    """Root in p of the closed-form gap of the single two-layer crossing.

    Delta = (1-q)(3-4p)K - q ln 2 - (1-q) ln((e^{3K} + 3e^{-K})/2) with
    K = ln(3(1-p)/p)/4, which decreases in p.
    """

    def f(p: float) -> float:
        k = 0.25 * math.log(3.0 * (1.0 - p) / p)
        return (
            (1.0 - q) * (3.0 - 4.0 * p) * k
            - q * math.log(2.0)
            - (1.0 - q) * math.log(0.5 * (math.exp(3.0 * k) + 3.0 * math.exp(-k)))
        )

    return _bisect(f, 1e-9, 0.75 - 1e-9)


CLOSED_FORM = {("uncorrelated", "single"): entropy_root, ("depolarizing", "C"): crossing_root}


def tabulated_index(q: float) -> int | None:
    for i, qq in enumerate(TABULATED_Q):
        if abs(q - qq) <= 1e-9:
            return i
    return None


def expected_reference(channel: str, q: float) -> float | None:
    i = tabulated_index(q)
    if channel == "uncorrelated":
        return None if i is None else MATCHING[i]
    return DEPOLARIZING_Q0 if i == 0 else None


@dataclass
class Check:
    """Outcome of checking one invocation's output."""

    thresholds: int
    failures: list[str] = field(default_factory=list)
    # largest |p_c - oracle| over rows with an exact oracle or a column entry
    max_abs_err: float = 0.0
    # largest |p_c - column| over Monte Carlo rows; reported, never gated
    mc_abs_err: float = 0.0


def check_output(
    text: str,
    exit_code: int,
    channel: str,
    cluster: str,
    qs: list[float],
    tol: float,
    with_reference: bool,
) -> Check:
    """Check the CSV printed by one `threshold` or `sweep` invocation.

    Every row must carry an ok method, and rows are held to the oracles that
    apply: the closed-form root for the one-unit clusters (within tol), the
    published column at tabulated q for exact rows (within the column
    tolerance), and a non-increasing p_c for the monotone clusters. A bad exit
    code or unreadable output fails every threshold of the invocation.
    """
    out = Check(len(qs))
    if exit_code != 0:
        out.failures = [f"exit code {exit_code}"] * len(qs)
        return out
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER or len(rows) != len(qs) + 1:
        out.failures = [f"expected a header and {len(qs)} rows"] * len(qs)
        return out
    column = COLUMNS.get((channel, cluster))
    oracle = CLOSED_FORM.get((channel, cluster))
    prev = None
    for q, row in zip(qs, rows[1:]):
        name = f"{channel}/{cluster} q={q}"
        try:
            if len(row) != len(CSV_HEADER):
                raise ValueError
            p_c, row_q = float(row[3]), float(row[2])
            ref = float(row[6]) if row[6] else None
        except ValueError:
            out.failures.append(f"{name}: unreadable row {row}")
            continue
        method = row[5]
        bad = []
        if (row[0], row[1]) != (channel, cluster) or abs(row_q - q) > 1e-12:
            bad.append(f"row is for {row[0]}/{row[1]} q={row[2]}")
        if method not in OK_METHODS:
            bad.append(f"status {method}")
        if ref != (expected_reference(channel, q) if with_reference else None):
            bad.append(f"reference column {row[6]!r}")
        if oracle is not None:
            err = abs(p_c - oracle(q))
            out.max_abs_err = max(out.max_abs_err, err)
            if err > tol:
                bad.append(f"|p_c - closed form| = {err:.3e} > {tol:g}")
        i = tabulated_index(q)
        if column is not None and i is not None:
            err = abs(p_c - column[i])
            if method == "monte-carlo":
                out.mc_abs_err = max(out.mc_abs_err, err)
            else:
                out.max_abs_err = max(out.max_abs_err, err)
                if err > COLUMN_TOLERANCE[cluster]:
                    bad.append(f"|p_c - column| = {err:.3e} > {COLUMN_TOLERANCE[cluster]:g}")
        if cluster in MONOTONE and prev is not None and p_c > prev + tol:
            bad.append(f"p_c {p_c!r} rose above {prev!r} at the previous q")
        prev = p_c
        if bad:
            out.failures.append(f"{name}: " + "; ".join(bad))
    return out
