"""Benchmark of time-to-threshold for the lossthreshold command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from src/ beside this directory, in the same
checkout. Each run starts fresh processes with one BLAS thread and
THRESHOLD_WORKERS = min(2, cores). With --trace 0 it times passes of the
workload and prints the end-to-end metrics; with --trace 1 it alternates
traced and untraced single-worker passes and prints the per-layer metrics.
Every printed threshold is checked against the oracles in oracle.py.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a report with the
machine facts, per-pass timings, digests and any failures. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed in this many fresh processes, half of them before the
# measuring process and half after it, so that the median spans the run.
SETUP_SAMPLES = 9
BUDGET_S = 170.0  # every run ends well inside the 180 s limit


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(workers: int) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        # one malloc arena: per-thread arenas made peak RSS vary by 10 %
        MALLOC_ARENA_MAX="1",
        THRESHOLD_WORKERS=str(workers),
        PYTHONPATH=str(ROOT / "src"),
        PERFBENCH_SRC=str(ROOT / "src"),
        PYTHONHASHSEED="0",
    )
    return env


def run_child(mode: str, args, workers: int, deadline: float) -> dict:
    budget = deadline - time.monotonic()
    if budget <= 5.0:
        raise BenchError("out of time before starting a benchmark process")
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--budget", str(budget - 5.0)]
    try:
        proc = subprocess.run(cmd, env=child_env(workers), cwd=ROOT, capture_output=True,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded {budget:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_fingerprint() -> str:
    """sha256 over the package and benchmark sources: one code version."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def pass_digest(passes: list[list[dict]]) -> tuple[str, bool]:
    """Digest of one pass's stdout; False if any pass printed something else."""
    digests = {hashlib.sha256("".join(r["sha256"] for r in p).encode()).hexdigest()
               for p in passes}
    return min(digests), len(digests) == 1


def remember_digest(key: str, digest: str) -> bool:
    """Record the digest for this code version, workload and seed.

    Returns False if an earlier run of the same key, with any worker count or
    tracing, printed something else. The record lives in the checkout.
    """
    path = ROOT / ".bench_state" / "digests.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def tally(passes: list[list[dict]]) -> dict:
    runs = [r for p in passes for r in p]
    return {
        "attempted": sum(r["thresholds"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:10],
        "stderr": sorted({r["stderr"] for r in runs if r["stderr"]})[:3],
        "max_abs_err": max(r["max_abs_err"] for r in runs),
        "mc_abs_err_max": max(r["mc_abs_err"] for r in runs),
        "invocation_wall_s": sorted(r["wall_s"] for r in runs),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_samples: list[float], measured: dict, t: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and the rate in plain seconds for the report.

    The rate is stated in units of the workload's reference loop, timed
    before every invocation. The shared machine's speed drifts by a quarter
    over minutes: in some spells every thread runs slower, in others the
    process waits for a core. The loop meets the same spells, so a rate in
    its units holds still while one in seconds moves. CPU time stays in
    seconds: scaled by the loop's CPU time it spread further between runs on
    one workload and no less on the others. Rates are totals over all timed
    passes; the drift is slow, so a median of a run's few passes would only
    throw samples away.
    """
    runs = [r for p in measured["passes"] for r in p]
    attempted = sum(r["thresholds"] for r in runs)
    ok = attempted - sum(r["failed"] for r in runs)
    per_s = ok / sum(r["wall_s"] for r in runs)
    reference_s = sum(r["reference_s"] for r in runs) / len(runs)
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "thresholds_per_ref": metric(per_s * reference_s, "1/ref"),
        "cpu_s_per_threshold": metric(sum(r["cpu_s"] for r in runs) / attempted, "s"),
        "peak_rss_mb": metric(measured["peak_rss_mb"], "MB"),
        "ok_frac": metric((t["attempted"] - t["failed"]) / t["attempted"], "fraction"),
    }
    return metrics, {"thresholds_per_s": per_s, "reference_s": reference_s}


def per_layer(traced: dict, t: dict) -> dict:
    totals, n = traced["totals"], traced["traced_passes"]
    layers, counts, wall = totals["layers"], totals["counts"], totals["wall_s"]
    thresholds = layers["solver"]["calls"]
    evals = layers["replica"]["calls"]
    m = {}
    for name in spans.LAYERS:
        if name != "cli":
            m[f"{name}.calls"] = metric(layers[name]["calls"] / n, "count")
        m[f"{name}.self_s"] = metric(layers[name]["self_s"] / n, "s")
        m[f"{name}.share"] = metric(layers[name]["self_s"] / wall, "fraction")
    m["solver.gap_evals_per_threshold"] = metric(evals / max(thresholds, 1), "evals/threshold")
    m["solver.iterations_per_threshold"] = metric(
        counts["iterations"] / max(thresholds, 1), "iters/threshold")
    m["solver.mc_bracket_width_max"] = metric(counts["bracket_width_max"], "p")
    m["replica.rows_per_eval"] = metric(counts["rows"] / max(evals, 1), "rows/eval")
    m["replica.rows_per_s"] = metric(
        counts["rows"] / max(layers["replica"]["inclusive_s"], 1e-12), "rows/s")
    m["cluster.row_configs"] = metric(counts["row_configs"] / n, "count")
    untraced = traced["untraced_wall_s"]
    m["trace.wall_s"] = metric(wall / n, "s")
    m["trace.untraced_wall_s"] = metric(untraced / n, "s")
    m["trace.overhead_frac"] = metric(wall / untraced - 1.0, "fraction")
    m["check.max_abs_err"] = metric(t["max_abs_err"], "p")
    m["check.mc_abs_err_max"] = metric(t["mc_abs_err_max"], "p")
    return m


def unaccounted(traced: dict) -> float:
    """Traced wall minus the layers' self times: zero up to rounding."""
    totals = traced["totals"]
    return totals["wall_s"] - sum(layer["self_s"] for layer in totals["layers"].values())


def run(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "lossthreshold" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'lossthreshold'}; "
                         "run from the root of a lossthreshold checkout")
    deadline = time.monotonic() + BUDGET_S
    wl = workloads.build(args.workload, args.seed)
    if args.trace:
        result = run_child("trace", args, 1, deadline)
        passes = result["passes"]
    else:
        workers = min(2, cores())
        setup = [run_child("setup", args, workers, deadline)["setup_s"]
                 for _ in range(SETUP_SAMPLES // 2)]
        result = run_child("measure", args, workers, deadline)
        setup.append(result["setup_s"])
        setup += [run_child("setup", args, workers, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES // 2)]
        passes = result["passes"]
    t = tally(passes)
    digest, same = pass_digest(passes)
    code = code_fingerprint()
    seed_part = args.seed if wl.mc_samples else "-"
    repeatable = remember_digest(f"{args.workload}|seed={seed_part}|code={code}", digest)
    if args.trace:
        metrics, plain = per_layer(result, t), None
    else:
        metrics, plain = end_to_end(setup, result, t)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "code_sha256": code,
        "nproc": cores(),
        "python": result["python"],
        "numpy": result["numpy"],
        "blas": result["blas"],
        "threads": result["threads"],
        "passes": len(passes),
        "thresholds_per_pass": wl.thresholds_per_pass,
        "invocations": len(t["invocation_wall_s"]),
        "invocation_wall_s_median": statistics.median(t["invocation_wall_s"]),
        "invocation_wall_s_max": t["invocation_wall_s"][-1],
        "pass_wall_s": [sum(r["wall_s"] for r in p) for p in passes],
        "seconds": plain,
        "setup_s_samples": None if args.trace else setup,
        "trace_unaccounted_s": unaccounted(result) if args.trace else None,
        "stdout_sha256": digest,
        "stdout_same_every_pass": same,
        "stdout_same_as_earlier_runs": repeatable,
        "max_abs_err": t["max_abs_err"],
        "mc_abs_err_max": t["mc_abs_err_max"],
        "failures": t["failures"],
        "stderr": t["stderr"],
    }
    summary = {
        "correct": t["failed"] == 0 and same and repeatable,
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": metrics,
    }
    return report, summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        report, summary = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
