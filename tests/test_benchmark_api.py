"""The package calls that perfbench makes, made the way perfbench makes them.

perfbench/child.py warms every workload up with `cli.resolve_cluster` and
one `replica.gap(model.ChannelSpec(kind, p, q), spec, policy,
mc_samples=..., seed=...)` per (channel, cluster), `policy` passed by
position, and then drives `cli.main` on csv sweeps; perfbench/spans.py reads
`.terms` off each gap. The benchmark's files are fixed, so a change to any
of these names or signatures fails every workload in set-up. This file
fails first.
"""

from __future__ import annotations

import pytest

from lossthreshold import cli, model, replica

# perfbench/child.py's warm-up point
WARM_P = {"uncorrelated": 0.1, "depolarizing": 0.15}
WARM_Q = 0.1


@pytest.mark.parametrize(
    "kind, name, mc_samples",
    [("uncorrelated", "A", None), ("depolarizing", "C", None), ("uncorrelated", "B", 2000)],
)
def test_warm_up_gap_as_perfbench_calls_it(kind, name, mc_samples):
    policy = replica.MONTE_CARLO if mc_samples else replica.EXACT
    spec = cli.resolve_cluster(name)
    result = replica.gap(model.ChannelSpec(kind, WARM_P[kind], WARM_Q), spec, policy,
                         mc_samples=mc_samples, seed=1)
    assert isinstance(result, replica.GapEvaluation)
    assert result.method == policy
    expected_terms = mc_samples or replica.support_size(spec.layers) ** spec.slot_count
    assert result.terms == expected_terms
    assert (result.std_error > 0.0) == (policy == replica.MONTE_CARLO)


def test_csv_sweep_through_main_as_perfbench_calls_it(capsys):
    argv = ["sweep", "--channel", "uncorrelated", "--cluster", "A",
            "--q-from", "0.0", "--q-to", "0.1", "--q-step", "0.05",
            "--format", "csv", "--with-reference"]
    assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(cli.CSV_HEADER)
    assert len(lines) == 4
