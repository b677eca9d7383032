"""One fresh benchmark process: set-up, timed passes, or traced passes.

run.py starts this script with the thread settings already in the
environment (they must be set before numpy is imported) and reads one JSON
object from its standard output. The CLI's own output is captured in memory
and never reaches that stream.

    python3 perfbench/child.py --mode setup|measure|trace \
        --workload NAME --seed N --seconds S
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import oracle
import spans
import workloads

WARM_P = {"uncorrelated": 0.1, "depolarizing": 0.15}
WARM_Q = 0.1


def set_up(wl: workloads.Workload, seed: int) -> tuple[float, object]:
    """Import, cluster resolution and one warm gap per (channel, cluster)."""
    t0 = time.perf_counter()
    from lossthreshold import cli, model, replica

    expected = os.path.join(os.environ["PERFBENCH_SRC"], "lossthreshold")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        raise ImportError(f"imported {cli.__file__}, expected the package under {expected}")
    policy = replica.MONTE_CARLO if wl.mc_samples else replica.EXACT
    for channel, name in wl.warm:
        spec = cli.resolve_cluster(name)
        replica.gap(model.ChannelSpec(channel, WARM_P[channel], WARM_Q), spec, policy,
                    mc_samples=wl.mc_samples, seed=seed)
    return time.perf_counter() - t0, cli


def run_invocation(cli, inv: workloads.Invocation) -> dict:
    """Call cli.main as a user would and check what it printed."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(inv.argv))
    except Exception as exc:  # counted as failed thresholds, never fatal
        code, error = -1, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    text = out.getvalue()
    check = oracle.check_output(text.rstrip("\n"), code, inv.channel, inv.cluster,
                                list(inv.qs), workloads.TOL, inv.with_reference)
    failures = check.failures + ([f"{inv.cluster}: {error}"] if error else [])
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "thresholds": check.thresholds,
        "failed": min(check.thresholds, len(failures)),
        "failures": failures[:5],
        "max_abs_err": check.max_abs_err,
        "mc_abs_err": check.mc_abs_err,
        "stderr": err.getvalue()[:500],
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def reference(kind: str) -> float:
    """Time of the workload's fixed reference loop, in seconds.

    Measured passes run it before every invocation, so a run knows how fast
    the shared machine was while it ran and can state its rate in units of
    this loop. Each workload names the loop, and the clock, that the
    machine's slow spells move as they move its own work (see workloads.py):
    "interpreter" is the wall time of Python driving small numpy calls plus
    whole-array log-sum-exp; "memory" is the CPU time of element-wise passes
    over two 16 MB arrays.
    """
    import numpy as np

    if kind == "memory":
        a, b = np.ones(2_000_000), np.ones(2_000_000)  # filled before timing
        c0 = time.process_time()
        for _ in range(6):
            np.multiply(a, 1.0000001, out=b)
            np.add(b, a, out=a)
        return time.process_time() - c0
    wide, narrow = np.linspace(0.01, 0.99, 4096), np.linspace(0.01, 0.99, 64)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(200):
        acc += float(np.logaddexp(np.log(wide), np.log1p(-wide)).sum())
        for j in range(40):
            acc += float(np.exp(narrow * 0.5).sum()) * 1e-9 + (j * 0.25) ** 0.5
    return time.perf_counter() - t0


def run_pass(cli, wl: workloads.Workload, reference_loop: bool = False) -> list[dict]:
    results = []
    for inv in wl.invocations:
        ref = reference(wl.reference) if reference_loop else None
        results.append({**run_invocation(cli, inv), "reference_s": ref})
    return results


def keep_going(elapsed: float, rounds: int, seconds: float, deadline: float) -> bool:
    """Start another round if it ends nearer the target than stopping now."""
    mean = elapsed / rounds
    return elapsed + mean / 2 <= seconds and time.monotonic() + mean < deadline


def facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MALLOC_ARENA_MAX",
                     "THRESHOLD_WORKERS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seed, seconds, deadline) -> dict:
    setup_s, cli = set_up(wl, seed)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, wl, reference_loop=True))
        if not keep_going(time.perf_counter() - start, len(passes), seconds, deadline):
            break
    return {"setup_s": setup_s, "passes": passes, "peak_rss_mb": peak_rss_mb(), **facts()}


def trace(wl, seed, seconds, deadline) -> dict:
    """Alternate traced and untraced passes; both run on one worker thread."""
    _, cli = set_up(wl, seed)
    tracer = spans.Tracer()
    traced, untraced = [], []
    start = time.perf_counter()
    while True:
        restore = tracer.install()
        try:
            traced.append(run_pass(cli, wl))
        finally:
            restore()
        untraced.append(run_pass(cli, wl))
        if not keep_going(time.perf_counter() - start, len(traced), seconds, deadline):
            break
    return {
        "passes": traced + untraced,
        "traced_passes": len(traced),
        "untraced_wall_s": sum(r["wall_s"] for p in untraced for r in p),
        "totals": spans.layer_totals(tracer.spans),
        "peak_rss_mb": peak_rss_mb(),
        **facts(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--budget", type=float, default=150.0, help="hard wall-time limit")
    args = ap.parse_args()
    deadline = time.monotonic() + args.budget
    wl = workloads.build(args.workload, args.seed)
    if args.mode == "setup":
        result = {"setup_s": set_up(wl, args.seed)[0]}
    elif args.mode == "measure":
        result = measure(wl, args.seed, args.seconds, deadline)
    else:
        result = trace(wl, args.seed, args.seconds, deadline)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
