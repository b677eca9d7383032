"""The benchmark's workloads: which CLI invocations make one pass, and set-up.

Each workload is a list of invocations of `lossthreshold.cli.main`, driven
the way a user drives the command line. One pass runs every invocation once.
Only sweep-mc uses the workload seed, as the Monte Carlo `--seed`; the exact
workloads are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TOL = 1e-7  # the CLI's default --tol; every invocation uses it
MC_SAMPLES = 100_000  # the package's default sample count


@dataclass(frozen=True)
class Invocation:
    channel: str
    cluster: str
    qs: tuple[float, ...]
    argv: tuple[str, ...]
    with_reference: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    # (channel, cluster) pairs warmed during set-up, with the workload's policy
    warm: tuple[tuple[str, str], ...]
    mc_samples: int | None = None
    # the reference loop whose time is the unit of thresholds_per_ref:
    # "interpreter" (its wall time) for work bound by the interpreter and
    # the hand-off of its lock, "memory" (its CPU time) for work bound by
    # whole-array kernels; see child.reference and README.md
    reference: str = "interpreter"

    @property
    def thresholds_per_pass(self) -> int:
        return sum(len(inv.qs) for inv in self.invocations)


def q_grid(q_from: float, q_to: float, q_step: float) -> tuple[float, ...]:
    """The q values `sweep` visits for these flags."""
    count = int(math.floor((q_to - q_from) / q_step + 1e-9)) + 1
    return tuple(round(q_from + i * q_step, 10) for i in range(count))


def _sweep(channel, cluster, q_from, q_to, q_step, extra=(), with_reference=False):
    argv = (
        "sweep", "--channel", channel, "--cluster", cluster,
        "--q-from", repr(q_from), "--q-to", repr(q_to), "--q-step", repr(q_step),
        "--format", "csv", *extra,
    )
    if with_reference:
        argv += ("--with-reference",)
    return Invocation(channel, cluster, q_grid(q_from, q_to, q_step), argv, with_reference)


def _threshold(channel, cluster, q):
    argv = ("threshold", "--channel", channel, "--cluster", cluster, "--loss", repr(q),
            "--format", "csv")
    return Invocation(channel, cluster, (q,), argv)


SMALL = (("uncorrelated", "single"), ("uncorrelated", "A"), ("depolarizing", "C"),
         ("depolarizing", "D"))
LARGE_QS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.45)


def build(name: str, seed: int) -> Workload:
    """The workload called `name`; `seed` only reaches sweep-mc."""
    if name == "sweep-small":
        # Gaps of 3 to 625 rows: time goes to root-finder iterations and
        # per-evaluation overhead, and to sweep's q-level pool on tiny tasks.
        invs = tuple(_sweep(ch, cl, 0.0, 0.45, 0.005, with_reference=True) for ch, cl in SMALL)
        return Workload(name, invs, SMALL)
    if name == "threshold-large":
        # 78 125 rows x 4 configurations per evaluation: enumeration and the
        # cluster/duality kernels, with the pool inside replica.gap.
        invs = tuple(_threshold("depolarizing", "E", q) for q in LARGE_QS)
        return Workload(name, invs, (("depolarizing", "E"),), reference="memory")
    if name == "sweep-mc":
        # Sampled rows through the same kernels and the Monte Carlo bisection;
        # bypasses exact enumeration.
        extra = ("--mc-samples", str(MC_SAMPLES), "--seed", str(seed))
        invs = (_sweep("uncorrelated", "B", 0.0, 0.4, 0.1, extra),)
        return Workload(name, invs, (("uncorrelated", "B"),), MC_SAMPLES, "memory")
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep-small", "threshold-large", "sweep-mc")
