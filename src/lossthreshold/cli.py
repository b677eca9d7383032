"""Command-line interface: thresholds, sweeps, cluster inspection, verification.

Exit codes: 0 success, 1 usage error, 2 no threshold found, 3 bad cluster
name or file, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import cluster as clusters
from . import model, reference, replica, solver
from .duality import NonPositiveDual, dual_edge_factor, pure_self_dual_point

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_THRESHOLD = 2
EXIT_BAD_CLUSTER = 3
EXIT_VERIFY_FAILED = 4

CSV_HEADER = ("channel", "cluster", "q", "p_c", "residual", "method", "reference_p_c0")

@dataclass(frozen=True)
class OutputRecord:
    channel: str
    cluster: str
    q: float
    p_c: float
    residual: float
    method: str
    reference_p_c0: float | None


def _record(result: solver.ThresholdResult, with_reference: bool) -> OutputRecord:
    ref = reference.reference_p_c0(result.channel, result.q) if with_reference else None
    # failed rows carry their status in the method column
    method = result.method if result.ok else result.status
    return OutputRecord(
        result.channel, result.cluster, result.q, result.p_c, result.residual, method, ref
    )


def _aligned(rows: list) -> str:
    """Rows of cells as lines of left-aligned columns two spaces apart, with no trailing blanks."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def render_table(records: list[OutputRecord]) -> str:
    """Aligned text table; p_c shown to 5 decimals, rounded half to even."""
    rows = [list(CSV_HEADER)]
    for r in records:
        rows.append(
            [
                r.channel,
                r.cluster,
                f"{r.q:g}",
                f"{r.p_c:.5f}",
                f"{r.residual:.3e}",
                r.method,
                "" if r.reference_p_c0 is None else f"{r.reference_p_c0:.5f}",
            ]
        )
    return _aligned(rows)


def render_csv(records: list[OutputRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow(
            [
                r.channel,
                r.cluster,
                repr(r.q),
                repr(r.p_c),
                repr(r.residual),
                r.method,
                "" if r.reference_p_c0 is None else repr(r.reference_p_c0),
            ]
        )
    return buf.getvalue().rstrip("\n")


def render_json(records: list[OutputRecord]) -> str:
    return json.dumps([asdict(r) for r in records], indent=2)


def render_records(records: list[OutputRecord], fmt: str) -> str:
    if fmt == "table":
        return render_table(records)
    if fmt == "csv":
        return render_csv(records)
    return render_json(records)


def resolve_cluster(text: str) -> clusters.ClusterSpec:
    """A registered name, or file:<path> pointing at a cluster description."""
    if text.startswith("file:"):
        return clusters.load_cluster_file(text[len("file:"):])
    return clusters.builtin_cluster(text)


def _policy(args) -> str:
    # --mc-samples 0 or below must reach the sample-count check, not mean "exact"
    return replica.EXACT if args.mc_samples is None else replica.MONTE_CARLO


def _solver_kwargs(args) -> dict:
    return {
        "policy": _policy(args),
        "mc_samples": args.mc_samples,
        "seed": args.seed,
    }


def cmd_threshold(args) -> int:
    spec = resolve_cluster(args.cluster)
    try:
        result = solver.solve_threshold(
            args.channel, spec, args.loss, args.tol, **_solver_kwargs(args)
        )
    except solver.NoSignChange:
        result = solver.ThresholdResult(
            args.channel, spec.name, args.loss, 0.0, 0.0, (0.0, 0.0), 0,
            _policy(args),
            solver.STATUS_NO_SIGN_CHANGE,
        )
    print(render_records([_record(result, with_reference=False)], args.format))
    return EXIT_OK if result.ok else EXIT_NO_THRESHOLD


# grid values are rounded to this many decimals, so a step must be at least 10**-Q_DIGITS
Q_DIGITS = 10
MAX_Q_VALUES = 100_000


def _q_grid(q_from: float, q_to: float, q_step: float) -> list[float]:
    """q_from, q_from + q_step, ... up to q_to, each rounded to Q_DIGITS decimals.

    Raises ValueError naming the flag for a value that is not finite, a step
    below the rounding grain (whose rounded values would repeat), q_to below
    q_from, or a grid of more than MAX_Q_VALUES values, which is refused
    before any of them is built.
    """
    for flag, value in (("--q-from", q_from), ("--q-to", q_to), ("--q-step", q_step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if q_step < 10.0**-Q_DIGITS:
        raise ValueError(f"--q-step must be at least {10.0**-Q_DIGITS:g}, got {q_step}")
    if q_to < q_from:
        raise ValueError("--q-to must not be below --q-from")
    # the quotient may overflow to inf, which no int holds
    steps = (q_to - q_from) / q_step + 1e-9
    if steps >= MAX_Q_VALUES:
        raise ValueError(
            f"--q-step {q_step} gives more than {MAX_Q_VALUES} values from {q_from} to {q_to}"
        )
    return [round(q_from + i * q_step, Q_DIGITS) for i in range(int(steps) + 1)]


def cmd_sweep(args) -> int:
    spec = resolve_cluster(args.cluster)
    qs = _q_grid(args.q_from, args.q_to, args.q_step)
    results = solver.sweep(args.channel, spec, qs, args.tol, **_solver_kwargs(args))
    records = [_record(r, with_reference=args.with_reference) for r in results]
    print(render_records(records, args.format))
    return EXIT_OK if all(r.ok for r in results) else EXIT_NO_THRESHOLD


def cmd_clusters(args) -> int:
    if args.action == "list":
        rows = [("name", "layers", "slots", "internal", "status")]
        for name in clusters.builtin_names():
            spec = clusters.builtin_cluster(name)
            rows.append(
                (
                    name,
                    str(spec.layers),
                    str(spec.slot_count),
                    str(len(spec.internal_ids)),
                    clusters.calibration_status(name),
                )
            )
        print(_aligned(rows))
        return EXIT_OK
    spec = clusters.builtin_cluster(args.name)
    print(json.dumps(clusters.cluster_to_dict(spec), indent=2))
    return EXIT_OK


def _check_involution(size: int) -> tuple[bool, str]:
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        x = tuple(rng.uniform(0.1, 10.0, size=size))
        y = dual_edge_factor(dual_edge_factor(x))
        worst = max(worst, max(abs(a - b) / abs(a) for a, b in zip(x, y)))
    return worst <= 1e-14, f"max relative deviation {worst:.2e} over 50 random factors"


def _check_self_dual() -> tuple[bool, str]:
    kc = pure_self_dual_point()
    eq = abs(math.exp(-2.0 * kc) - math.tanh(kc))
    ok = abs(kc - 0.440687) <= 1e-6 and eq <= 1e-10
    return ok, f"K_c = {kc:.9f}, defining equation residual {eq:.2e}"


def _check_single_oracle() -> tuple[bool, str]:
    worst = 0.0
    for i in range(10):
        q = 0.05 * i
        got = solver.solve_threshold("uncorrelated", "single", q, 1e-10).p_c
        worst = max(worst, abs(got - reference.binary_entropy_root(q)))
    return worst <= 1e-9, f"max |p_c - entropy-condition root| = {worst:.2e}"


def _check_column(kind: str, name: str) -> tuple[bool, str]:
    targets = reference.REFERENCE_COLUMNS[(kind, name)]
    tol = reference.COLUMN_TOLERANCE[name]
    results = solver.sweep(kind, name, reference.REFERENCE_Q)
    if not all(r.ok for r in results):
        return False, "sweep failed to find a threshold"
    worst = max(abs(r.p_c - t) for r, t in zip(results, targets))
    return worst <= tol, f"max |p_c - reference| = {worst:.2e} (allowed {tol:.0e})"


def _check_slope() -> tuple[bool, str]:
    """The exact slope against a central difference of the gap at every registered column's p_c.

    The difference (f(p+h) - f(p-h)) / 2h misses f' by h^2 f'''/6 to leading
    order, f''' taken from (f(p+2h) - 2f(p+h) + 2f(p-h) - f(p-2h)) / 2h^3
    on the same points, and twice that covers the next order; each gap's
    rounding, at most GAP_FLOOR, adds at most 1.5 GAP_FLOOR / h.
    """
    worst, points = 0.0, 0
    for (kind, name), column in reference.REFERENCE_COLUMNS.items():
        spec = clusters.builtin_cluster(name)
        for q, p in zip(reference.REFERENCE_Q, column):
            h = 1e-3 * p
            delta, _, slope = replica.gap_batch(kind, [p + k * h for k in range(-2, 3)], [q] * 5, spec)
            central = (delta[3] - delta[1]) / (2.0 * h)
            third = (delta[4] - 2.0 * delta[3] + 2.0 * delta[1] - delta[0]) / (2.0 * h**3)
            bound = h**2 * abs(third) / 3.0 + 1.5 * replica.GAP_FLOOR / h
            worst = max(worst, float(abs(slope[2] - central) / bound))
            points += 1
    return worst <= 1.0, f"max |slope - central difference| / bound = {worst:.2f} over {points} points"


def _check_parallel_determinism() -> tuple[bool, str]:
    qs = (0.0, 0.2, 0.4)
    outputs = []
    values = []
    for w in (1, 2, replica.worker_count(None)):
        results = solver.sweep("uncorrelated", "A", qs, workers=w)
        values.append([(r.p_c, r.residual) for r in results])
        outputs.append(render_csv([_record(r, True) for r in results]))
    spread = max(
        abs(a - b)
        for run in values[1:]
        for (a, _), (b, _) in zip(run, values[0])
    )
    channel = model.ChannelSpec("uncorrelated", 0.09, 0.1)
    star = clusters.builtin_cluster("A")
    mc = [
        replica.gap(channel, star, replica.MONTE_CARLO, mc_samples=100_000, seed=7, workers=w)
        for w in (1, 2)
    ]
    # every round's reads run on the calling thread; only B's sampled
    # chunks, and the merges and counts of its tables, are spread over the
    # workers. 100 000 samples are two B chunks, so each table merges the
    # distinct rows of both.
    identical = len(set(outputs)) == 1
    for kind, name, options in (
        ("depolarizing", "E", {}),
        ("uncorrelated", "B", {"policy": replica.MONTE_CARLO, "mc_samples": 100_000}),
    ):
        runs = {
            render_csv([_record(r, False) for r in rows])
            for rows in (solver.sweep(kind, name, qs, workers=w, **options) for w in (1, 2))
        }
        identical = identical and len(runs) == 1
    ok = spread <= 1e-12 and identical and mc[0].delta == mc[1].delta
    return ok, f"sweep spread {spread:.1e}, formatted outputs identical: {identical}"


def cmd_verify(args) -> int:
    checks = [
        ("hadamard-involution-single", lambda: _check_involution(2)),
        ("hadamard-involution-twolayer", lambda: _check_involution(4)),
        ("pure-self-dual-point", _check_self_dual),
        ("single-edge-oracle", _check_single_oracle),
        ("column-uncorrelated-single", lambda: _check_column("uncorrelated", "single")),
        ("column-depolarizing-C", lambda: _check_column("depolarizing", "C")),
    ]
    if args.suite == "full":
        for kind, name in (
            ("uncorrelated", "A"),
            ("uncorrelated", "B"),
            ("depolarizing", "D"),
            ("depolarizing", "E"),
        ):
            checks.append((f"column-{kind}-{name}", lambda k=kind, n=name: _check_column(k, n)))
        checks.append(("slope", _check_slope))
        checks.append(("parallel-determinism", _check_parallel_determinism))

    failed = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} check(s) failed")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossthreshold",
        description="Optimal error thresholds of surface codes with qubit loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--channel", required=True, choices=list(model.CHANNEL_KINDS))
        p.add_argument("--cluster", required=True, help="registered name or file:<path>")
        p.add_argument("--tol", type=float, default=1e-7, help="bracket width tolerance")
        p.add_argument("--mc-samples", type=int, default=None,
                       help="sample the gap instead of exact enumeration")
        p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
        p.add_argument("--format", choices=["table", "csv", "json"], default="table")

    p_thr = sub.add_parser("threshold", help="threshold for one loss rate")
    common(p_thr)
    p_thr.add_argument("--loss", type=float, required=True, help="qubit loss rate q")
    p_thr.set_defaults(func=cmd_threshold)

    p_sweep = sub.add_parser("sweep", help="thresholds over a grid of loss rates")
    common(p_sweep)
    p_sweep.add_argument("--q-from", type=float, default=0.0)
    p_sweep.add_argument("--q-to", type=float, default=0.45)
    p_sweep.add_argument("--q-step", type=float, default=0.05)
    p_sweep.add_argument("--with-reference", action="store_true",
                         help="attach the published comparison threshold column")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run the self-verification suite")
    p_ver.add_argument("--suite", choices=["basic", "full"], default="basic")
    p_ver.set_defaults(func=cmd_verify)

    p_cl = sub.add_parser("clusters", help="inspect registered cluster geometries")
    cl_sub = p_cl.add_subparsers(dest="action", required=True)
    cl_list = cl_sub.add_parser("list", help="names, sizes and calibration status")
    cl_list.set_defaults(func=cmd_clusters)
    cl_show = cl_sub.add_parser("show", help="full geometry in the cluster file schema")
    cl_show.add_argument("name")
    cl_show.set_defaults(func=cmd_clusters)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (clusters.UnknownCluster, clusters.ClusterFileError, NonPositiveDual) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CLUSTER
    except (model.DomainError, replica.TooManyTerms, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
