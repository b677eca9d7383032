"""Self-tests of the benchmark: its oracle catches wrong thresholds, the rate
is stated in reference-loop units, and the traced layers' self times add up
to the traced wall time.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lossthreshold import cli  # noqa: E402

TOL = workloads.TOL


def cli_output(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().rstrip("\n")


def perturb(text: str, row: int, delta: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[3] = repr(float(cells[3]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def small_sweeps() -> dict:
    """Real CLI output of sweep-small's invocations on a coarse q grid."""
    out = {}
    for channel, cluster in workloads.SMALL:
        inv = workloads._sweep(channel, cluster, 0.0, 0.45, 0.05, with_reference=True)
        out[(channel, cluster)] = (inv, *cli_output(list(inv.argv)))
    return out


def check(inv, code, text):
    return oracle.check_output(text, code, inv.channel, inv.cluster, list(inv.qs), TOL,
                               inv.with_reference)


def test_oracle_passes_the_cli_output(small_sweeps):
    for inv, code, text in small_sweeps.values():
        result = check(inv, code, text)
        assert result.failures == [], result.failures
        assert 0.0 < result.max_abs_err <= max(oracle.COLUMN_TOLERANCE.values())


@pytest.mark.parametrize("cluster", ["single", "C"])
def test_oracle_flags_p_c_off_the_closed_form(small_sweeps, cluster):
    channel = "uncorrelated" if cluster == "single" else "depolarizing"
    inv, code, text = small_sweeps[(channel, cluster)]
    # q = 0.05 is not tabulated, so only the closed-form root can catch this
    result = check(inv, code, perturb(text, 2, 10 * TOL))
    assert len(result.failures) == 1
    assert "closed form" in result.failures[0]
    assert result.max_abs_err >= 10 * TOL


def test_oracle_flags_p_c_off_the_column(small_sweeps):
    inv, code, text = small_sweeps[("depolarizing", "D")]
    row = 1 + inv.qs.index(0.2)
    result = check(inv, code, perturb(text, row, 2 * oracle.COLUMN_TOLERANCE["D"]))
    assert len(result.failures) >= 1
    assert any("column" in f for f in result.failures)


def test_oracle_flags_p_c_rising_with_q(small_sweeps):
    inv, code, text = small_sweeps[("uncorrelated", "A")]
    row = 1 + inv.qs.index(0.25)  # not tabulated: only monotonicity applies
    lines = text.splitlines()
    step = float(lines[row - 1].split(",")[3]) - float(lines[row].split(",")[3])
    result = check(inv, code, perturb(text, row, step + 1e-5))
    assert len(result.failures) == 1
    assert "rose" in result.failures[0]


def test_oracle_fails_every_threshold_of_a_failed_invocation(small_sweeps):
    inv, _, text = small_sweeps[("uncorrelated", "single")]
    assert len(check(inv, 2, text).failures) == len(inv.qs)
    bad_status = text.replace(",exact,", ",no-sign-change,", 1)
    assert len(check(inv, 0, bad_status).failures) == 1
    truncated = "\n".join(text.splitlines()[:-1])
    assert len(check(inv, 0, truncated).failures) == len(inv.qs)


def test_monte_carlo_error_is_reported_not_gated():
    text = "\n".join([",".join(oracle.CSV_HEADER),
                      "uncorrelated,B,0.0,0.115,1e-3,monte-carlo,"])
    result = oracle.check_output(text, 0, "uncorrelated", "B", [0.0], TOL, False)
    assert result.failures == []
    assert result.mc_abs_err == pytest.approx(0.115 - oracle.COLUMNS[("uncorrelated", "B")][0])
    assert result.max_abs_err == 0.0


def test_rate_is_stated_in_reference_units():
    def invocation(failed, reference_s):
        return {"thresholds": 4, "failed": failed, "wall_s": 2.0, "cpu_s": 3.0,
                "reference_s": reference_s}

    measured = {"passes": [[invocation(0, 0.05)], [invocation(1, 0.07)]], "peak_rss_mb": 10.0}
    metrics, plain = run.end_to_end([0.2, 0.1, 0.3], measured, {"attempted": 8, "failed": 1})
    assert plain["thresholds_per_s"] == pytest.approx(7 / 4)
    assert plain["reference_s"] == pytest.approx(0.06)
    assert metrics["thresholds_per_ref"]["value"] == pytest.approx(7 / 4 * 0.06)
    assert metrics["cpu_s_per_threshold"]["value"] == pytest.approx(6 / 8)
    assert metrics["setup_s"]["value"] == 0.2
    assert metrics["ok_frac"]["value"] == pytest.approx(7 / 8)


def traced_main(argv: list[str]) -> tuple[dict, float]:
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        outer = time.perf_counter() - t0
    finally:
        restore()
    return spans.layer_totals(tracer.spans), outer


def test_self_times_partition_the_traced_wall(monkeypatch):
    monkeypatch.setenv("THRESHOLD_WORKERS", "1")
    argv = ["sweep", "--channel", "depolarizing", "--cluster", "D", "--q-step", "0.15",
            "--format", "csv"]
    totals, outer = traced_main(argv)
    layers = totals["layers"]
    self_sum = sum(layer["self_s"] for layer in layers.values())
    assert self_sum == pytest.approx(totals["wall_s"], rel=1e-9)
    assert 0.0 < totals["wall_s"] <= outer
    assert all(layers[name]["calls"] > 0 for name in spans.LAYERS)
    assert all(layer["self_s"] >= 0.0 for layer in layers.values())
    # four q values, each a bracketed root of at least three gap evaluations
    assert layers["solver"]["calls"] == 4
    assert layers["replica"]["calls"] >= 12
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")


def test_spans_from_worker_threads_are_refused(monkeypatch):
    monkeypatch.setenv("THRESHOLD_WORKERS", "2")
    argv = ["sweep", "--channel", "uncorrelated", "--cluster", "A", "--q-step", "0.15",
            "--format", "csv"]
    with pytest.raises(RuntimeError, match="threads"):
        traced_main(argv)
