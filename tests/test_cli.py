"""End-to-end command-line behavior: output formats, exit codes, verification."""

from __future__ import annotations

import json
import math

import pytest

from lossthreshold import cli, model, replica
from lossthreshold.cluster import ClusterSpec, Slot, Vertex, builtin_cluster, cluster_to_dict
from lossthreshold.solver import solve_threshold

BROKEN_BOWTIE = ClusterSpec(
    "broken",
    2,
    (
        Vertex("a", "boundary"),
        Vertex("b", "internal"),
        Vertex("c", "boundary"),
        Vertex("d1", "boundary", "dual"),
        Vertex("d2", "internal", "dual"),
        Vertex("d3", "boundary", "dual"),
    ),
    (Slot(("a", "b"), ("d1", "d2")), Slot(("b", "c"), ("d2", "d3"))),
)


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_threshold_table(capsys):
    code = cli.main(
        ["threshold", "--channel", "uncorrelated", "--cluster", "single", "--loss", "0.1"]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    header, row = out.strip().splitlines()
    assert header.split() == list(cli.CSV_HEADER)
    assert row.split()[:3] == ["uncorrelated", "single", "0.1"]
    assert "0.09240" in row
    assert "exact" in row


def test_threshold_without_threshold(capsys):
    code = cli.main(
        ["threshold", "--channel", "depolarizing", "--cluster", "C", "--loss", "0.5"]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_NO_THRESHOLD
    assert "no-threshold" in out


def test_threshold_no_sign_change_row(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cluster_to_dict(BROKEN_BOWTIE)))
    code = cli.main(
        ["threshold", "--channel", "depolarizing", "--cluster", f"file:{path}", "--loss", "0.1"]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_NO_THRESHOLD
    assert "no-sign-change" in out


def test_exact_work_past_the_budget_names_sampling(capsys, tmp_path, monkeypatch):
    # 18 internal spins and 6 slots: 3^6 x 2^18 terms, past the budget
    internal = [Vertex(f"i{k}", "internal") for k in range(18)]
    slots = tuple(Slot((f"i{k}", f"i{k + 1}" if k < 5 else "b")) for k in range(6))
    spec = ClusterSpec("wide", 1, (*internal, Vertex("b", "boundary")), slots)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cluster_to_dict(spec)))

    def forbidden(*args, **kwargs):
        raise AssertionError("compiled a cluster past the term budget")

    monkeypatch.setattr(replica, "class_table", forbidden)
    code = cli.main(
        ["threshold", "--channel", "uncorrelated", "--cluster", f"file:{path}", "--loss", "0.1"]
    )
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert "--mc-samples" in captured.err


def test_unknown_cluster(capsys):
    code = cli.main(["threshold", "--channel", "uncorrelated", "--cluster", "Z", "--loss", "0.1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_CLUSTER
    assert "error:" in err


def test_missing_cluster_file(capsys):
    code = cli.main(
        ["threshold", "--channel", "uncorrelated", "--cluster", "file:/no/such.json", "--loss", "0"]
    )
    assert code == cli.EXIT_BAD_CLUSTER
    capsys.readouterr()


def test_malformed_cluster_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(
        ["threshold", "--channel", "uncorrelated", "--cluster", f"file:{path}", "--loss", "0.1"]
    )
    assert code == cli.EXIT_BAD_CLUSTER
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000],
    ids=["not-utf8", "deeply-nested"],
)
def test_unreadable_cluster_file_is_a_bad_cluster(capsys, tmp_path, content):
    # a file that is not UTF-8, or whose JSON nests past the decoder's
    # recursion limit, is a bad cluster file, not a crash
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code = cli.main(["sweep", "--channel", "uncorrelated", "--cluster", f"file:{path}"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BAD_CLUSTER
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_cluster_file_with_a_null_vertex_id_is_refused(capsys, tmp_path):
    # read through str(), the centre of star A would be the vertex "None"
    data = cluster_to_dict(builtin_cluster("A"))
    data["vertices"] = [{**v, "id": None} if v["id"] == "c" else v for v in data["vertices"]]
    for slot in data["slots"]:
        slot["primal_edge"] = ["None" if end == "c" else end for end in slot["primal_edge"]]
    path = tmp_path / "null.json"
    path.write_text(json.dumps(data))
    code = cli.main(
        ["threshold", "--channel", "uncorrelated", "--cluster", f"file:{path}", "--loss", "0.1"]
    )
    assert code == cli.EXIT_BAD_CLUSTER
    assert "vertex id None must be a string" in capsys.readouterr().err


def test_file_cluster_matches_builtin(capsys, tmp_path):
    path = tmp_path / "star.json"
    path.write_text(json.dumps(cluster_to_dict(builtin_cluster("A"))))
    args = ["threshold", "--channel", "uncorrelated", "--loss", "0.2", "--format", "csv"]
    assert cli.main(args + ["--cluster", "A"]) == cli.EXIT_OK
    from_name = capsys.readouterr().out
    assert cli.main(args + ["--cluster", f"file:{path}"]) == cli.EXIT_OK
    from_file = capsys.readouterr().out
    assert from_file == from_name


def test_sweep_csv_header_and_values(capsys):
    code = cli.main(
        [
            "sweep", "--channel", "uncorrelated", "--cluster", "single",
            "--q-from", "0", "--q-to", "0.2", "--q-step", "0.1", "--format", "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "channel,cluster,q,p_c,residual,method,reference_p_c0"
    assert len(lines) == 4
    for line, q in zip(lines[1:], (0.0, 0.1, 0.2)):
        cells = line.split(",")
        assert float(cells[2]) == q
        # repr round trip: the CSV carries the exact solver value
        assert float(cells[3]) == solve_threshold("uncorrelated", "single", q).p_c


def test_sweep_json_agrees_with_csv(capsys):
    args = [
        "sweep", "--channel", "depolarizing", "--cluster", "C",
        "--q-from", "0", "--q-to", "0.1", "--q-step", "0.05",
    ]
    assert cli.main(args + ["--format", "csv"]) == cli.EXIT_OK
    csv_lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert cli.main(args + ["--format", "json"]) == cli.EXIT_OK
    records = json.loads(capsys.readouterr().out)
    assert [set(r) for r in records] == [set(cli.CSV_HEADER)] * 3
    for line, rec in zip(csv_lines, records):
        cells = line.split(",")
        assert float(cells[3]) == rec["p_c"]
        assert float(cells[4]) == rec["residual"]
        assert rec["reference_p_c0"] is None


def test_sweep_with_reference_column(capsys):
    code = cli.main(
        [
            "sweep", "--channel", "uncorrelated", "--cluster", "single",
            "--q-from", "0", "--q-to", "0.1", "--q-step", "0.1",
            "--with-reference", "--format", "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(r[6]) for r in rows] == [0.10486, 0.08816]


def test_sweep_failure_rows_in_method_column(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cluster_to_dict(BROKEN_BOWTIE)))
    code = cli.main(
        [
            "sweep", "--channel", "depolarizing", "--cluster", f"file:{path}",
            "--q-from", "0", "--q-to", "0.1", "--q-step", "0.1", "--format", "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_NO_THRESHOLD
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[5] == "no-sign-change"


def _csv_rows(capsys, argv) -> dict[str, str]:
    cli.main(argv + ["--format", "csv"])
    return {line.split(",")[2]: line for line in capsys.readouterr().out.splitlines()[1:]}


@pytest.mark.parametrize(
    "channel,cluster,q_to,q_step,qs,extra",
    [
        ("uncorrelated", "A", "0.45", "0.05", ("0.0", "0.2", "0.45"), []),
        ("depolarizing", "D", "0.45", "0.05", ("0.0", "0.2", "0.45"), []),
        ("uncorrelated", "B", "0.1", "0.1", ("0.1",), ["--mc-samples", "20000", "--seed", "3"]),
        ("depolarizing", "E", "0.45", "0.45", ("0.0", "0.45"), []),
    ],
    ids=["A", "D", "B-monte-carlo", "E"],
)
def test_threshold_row_matches_sweep_row(capsys, channel, cluster, q_to, q_step, qs, extra):
    # the search for one q must not depend on the other q values of a sweep
    common = ["--channel", channel, "--cluster", cluster, *extra]
    swept = _csv_rows(capsys, ["sweep", *common, "--q-to", q_to, "--q-step", q_step])
    for q in qs:
        single = _csv_rows(capsys, ["threshold", *common, "--loss", q])
        assert list(single) == [q]
        assert single[q] == swept[q]
        assert single[q].split(",")[5] in ("exact", "monte-carlo")


def test_sweep_bad_step(capsys):
    code = cli.main(
        ["sweep", "--channel", "uncorrelated", "--cluster", "single", "--q-step", "-0.1"]
    )
    assert code == cli.EXIT_USAGE
    capsys.readouterr()


def test_q_grid():
    grid = cli._q_grid(0.0, 0.45, 0.05)
    assert grid == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    assert cli._q_grid(0.2, 0.2, 0.1) == [0.2]
    with pytest.raises(ValueError):
        cli._q_grid(0.0, 0.4, 0.0)
    with pytest.raises(ValueError):
        cli._q_grid(0.3, 0.2, 0.1)


@pytest.mark.parametrize(
    "args,flag",
    [
        ((math.nan, 0.4, 0.1), "--q-from"),
        ((0.0, math.nan, 0.1), "--q-to"),
        ((0.0, math.inf, 0.1), "--q-to"),
        ((-math.inf, 0.4, 0.1), "--q-from"),
        ((0.0, 0.4, math.nan), "--q-step"),
        ((0.0, 0.4, math.inf), "--q-step"),
        ((0.0, 0.4, 1e-11), "--q-step"),
    ],
)
def test_q_grid_rejects_non_finite_flags_and_steps_below_the_grain(args, flag):
    # nan once failed with "cannot convert float NaN to integer", and a step
    # of 1e-11 gave a grid whose rounded values repeat
    with pytest.raises(ValueError, match=flag):
        cli._q_grid(*args)


def test_q_grid_refuses_too_many_values_before_building_them():
    # the cheap cases come first, so a broken guard fails here instead of
    # building the 4.5e9 values of the last one
    assert len(cli._q_grid(0.0, 0.99999, 1e-5)) == cli.MAX_Q_VALUES == 100_000
    with pytest.raises(ValueError, match="--q-step"):
        cli._q_grid(0.0, 1.0, 1e-5)
    with pytest.raises(ValueError, match="--q-step"):
        cli._q_grid(0.0, 0.45, 1e-10)


@pytest.mark.parametrize("flags", [["--q-step", "nan"], ["--q-from", "nan"], ["--q-step", "1e-11"]])
def test_bad_q_grid_flag_is_usage_error(capsys, flags):
    code = cli.main(["sweep", "--channel", "uncorrelated", "--cluster", "single", *flags])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert flags[0] in captured.err


def test_seed_outside_philox_range_is_usage_error(capsys):
    code = cli.main(
        ["threshold", "--channel", "uncorrelated", "--cluster", "B", "--loss", "0.1",
         "--mc-samples", "2000", "--seed", "-1"]
    )
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert "seed" in captured.err


def test_threshold_above_half_loss_is_no_threshold(capsys):
    # sweep refuses q >= 1/2, but a single threshold reports the closed form's verdict
    code = cli.main(
        ["threshold", "--channel", "uncorrelated", "--cluster", "single", "--loss", "0.6",
         "--format", "csv"]
    )
    assert code == cli.EXIT_NO_THRESHOLD
    assert ",no-threshold," in capsys.readouterr().out


@pytest.mark.parametrize("cluster, channel", [("A", "uncorrelated"), ("B", "uncorrelated"), ("D", "depolarizing")])
def test_sampled_threshold_at_half_loss_finds_no_sign_change(capsys, cluster, channel):
    # exact searches find no sign change at q = 1/2; a sampled one reported
    # p_c = 1e-6 on A and D (2.45e-4 on B), where a 0.5 sigma draw decided
    # the sign of Delta(1e-6). A bracket end is signed only past twice its
    # standard error.
    code = cli.main(
        ["threshold", "--channel", channel, "--cluster", cluster, "--loss", "0.5",
         "--mc-samples", "20000", "--seed", "0", "--format", "csv"]
    )
    assert code == cli.EXIT_NO_THRESHOLD
    assert ",no-sign-change," in capsys.readouterr().out


def test_threshold_monte_carlo_flag(capsys):
    code = cli.main(
        [
            "threshold", "--channel", "uncorrelated", "--cluster", "single",
            "--loss", "0.1", "--mc-samples", "5000", "--seed", "3", "--tol", "1e-4",
        ]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "monte-carlo" in out


def test_monte_carlo_sample_floor(capsys):
    code = cli.main(
        [
            "threshold", "--channel", "uncorrelated", "--cluster", "single",
            "--loss", "0.1", "--mc-samples", "500",
        ]
    )
    assert code == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("command", ["threshold", "sweep"])
def test_monte_carlo_zero_or_negative_samples_is_usage_error(capsys, command, samples):
    # 0 once fell through to an exact enumeration
    where = ["--loss", "0.1"] if command == "threshold" else ["--q-to", "0.1"]
    code = cli.main(
        [command, "--channel", "uncorrelated", "--cluster", "single", *where,
         "--mc-samples", samples]
    )
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert "samples" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("command", ["threshold", "sweep"])
def test_non_finite_tol_is_usage_error(capsys, command, tol):
    where = ["--loss", "0.1"] if command == "threshold" else ["--q-to", "0.1"]
    code = cli.main(
        [command, "--channel", "uncorrelated", "--cluster", "single", *where, "--tol", tol]
    )
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert "finite" in captured.err


def test_bad_worker_environment_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLD_WORKERS", "abc")
    code = cli.main(["sweep", "--channel", "uncorrelated", "--cluster", "single", "--q-to", "0.1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert "THRESHOLD_WORKERS" in captured.err


def test_render_table_synthetic():
    records = [
        cli.OutputRecord("uncorrelated", "single", 0.1, 0.0924038, 1.2e-10, "exact", None),
        cli.OutputRecord("uncorrelated", "single", 0.25, 0.06135, 3.0e-9, "exact", 0.10486),
    ]
    lines = cli.render_table(records).splitlines()
    assert lines[0].split() == list(cli.CSV_HEADER)
    assert "0.09240" in lines[1]
    assert "1.200e-10" in lines[1]
    assert lines[1] == lines[1].rstrip()
    assert lines[2].endswith("0.10486")


def test_render_csv_blank_reference():
    record = cli.OutputRecord("depolarizing", "C", 0.0, 0.189, 0.0, "exact", None)
    body = cli.render_csv([record]).splitlines()[1]
    assert body.endswith(",exact,")


def test_clusters_list(capsys):
    assert cli.main(["clusters", "list"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split() == ["name", "layers", "slots", "internal", "status"]
    names = [line.split()[0] for line in lines[1:]]
    assert names == ["single", "A", "B", "C", "D", "E"]
    assert all("verified" in line for line in lines[1:])


def test_clusters_show(capsys):
    assert cli.main(["clusters", "show", "A"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "A"
    assert payload["layers"] == 1
    assert len(payload["slots"]) == 4
    internal = [v for v in payload["vertices"] if v["role"] == "internal"]
    assert len(internal) == 1


def test_verify_basic_passes(capsys):
    assert cli.main(["verify"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_verify_full_passes(capsys):
    # every registered column is calibrated, so the full suite runs all of them
    assert cli.main(["verify", "--suite", "full"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines)
    assert any(line.startswith("PASS slope: ") for line in lines)


def test_verify_slope_check_catches_a_wrong_slope(monkeypatch):
    # half the slope is off by far more than the central difference's bound
    real_batch = replica.gap_batch

    def halved(*args, **kwargs):
        delta, std_error, slope = real_batch(*args, **kwargs)
        return delta, std_error, 0.5 * slope

    monkeypatch.setattr(replica, "gap_batch", halved)
    ok, detail = cli._check_slope()
    assert not ok, detail


def test_verify_catches_tampering(capsys, monkeypatch):
    # model.coupling is the one expression for K, behind every gap the
    # solver's rounds evaluate
    original = model.coupling

    def skewed(kind, p):
        return original(kind, p) * 1.001

    monkeypatch.setattr(model, "coupling", skewed)
    assert cli.main(["verify"]) == cli.EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "FAIL" in out
