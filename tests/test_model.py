"""Channel definitions, couplings on the optimal-inference line, and disorder distributions."""

from __future__ import annotations

import math

import pytest

import numpy as np

from lossthreshold.model import (
    DEPOLARIZING,
    SUPPORT,
    UNCORRELATED,
    ChannelSpec,
    DomainError,
    EdgeDisorder,
    check_points,
    coupling,
    disorder_probs,
)


def test_channel_layers():
    assert ChannelSpec(UNCORRELATED, 0.1).layers == 1
    assert ChannelSpec(DEPOLARIZING, 0.1).layers == 2


@pytest.mark.parametrize(
    "kind,p,q",
    [
        ("white-noise", 0.1, 0.0),
        (UNCORRELATED, -0.1, 0.0),
        (UNCORRELATED, 1.1, 0.0),
        (UNCORRELATED, 0.1, -0.2),
        (UNCORRELATED, 0.1, 1.2),
    ],
)
def test_channel_validation(kind, p, q):
    with pytest.raises(DomainError):
        ChannelSpec(kind, p, q)


@pytest.mark.parametrize(
    "kind,p,expected",
    [
        (UNCORRELATED, 0.11, 0.5 * math.log(0.89 / 0.11)),
        (UNCORRELATED, 0.5, 0.0),
        (DEPOLARIZING, 0.1893, 0.25 * math.log(3.0 * 0.8107 / 0.1893)),
        (DEPOLARIZING, 0.75, 0.0),
    ],
)
def test_nishimori_coupling_values(kind, p, expected):
    K = coupling(kind, p)
    assert K == pytest.approx(expected, rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("kind,p", [(UNCORRELATED, 0.11), (DEPOLARIZING, 0.2)])
def test_nishimori_coupling_defining_relation(kind, p):
    K = coupling(kind, p)
    if kind == UNCORRELATED:
        assert math.exp(2.0 * K) == pytest.approx((1.0 - p) / p, rel=1e-14)
    else:
        assert math.exp(4.0 * K) == pytest.approx(3.0 * (1.0 - p) / p, rel=1e-14)


@pytest.mark.parametrize(
    "kind,p",
    [
        (UNCORRELATED, 0.0),
        (UNCORRELATED, 1e-10),
        (UNCORRELATED, 0.51),
        (DEPOLARIZING, 0.0),
        (DEPOLARIZING, 0.76),
    ],
)
def test_nishimori_coupling_domain(kind, p):
    with pytest.raises(DomainError):
        check_points(kind, np.array([p]), np.array([0.0]))


@pytest.mark.parametrize("sign", [1, -1, 0])
def test_single_layer_disorder_states(sign):
    d = EdgeDisorder(sign)
    assert d.layers == 1
    assert d.diluted == (sign == 0)


@pytest.mark.parametrize("pair", [(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)])
def test_two_layer_disorder_states(pair):
    d = EdgeDisorder(*pair)
    assert d.layers == 2
    assert d.diluted == (pair == (0, 0))


@pytest.mark.parametrize("args", [(2,), (0, 1), (1, 0), (-1, 0), (2, 2)])
def test_disorder_rejects_inadmissible_states(args):
    with pytest.raises(DomainError):
        EdgeDisorder(*args)


@pytest.mark.parametrize("kind", [UNCORRELATED, DEPOLARIZING])
@pytest.mark.parametrize("p", [0.01, 0.11, 0.3])
@pytest.mark.parametrize("q", [0.0, 0.1, 0.45])
def test_distribution_normalization(kind, p, q):
    probs = disorder_probs(kind, p, q)
    assert len(probs) == len(SUPPORT[kind])
    assert abs(math.fsum(probs) - 1.0) <= 1e-15


def test_uncorrelated_distribution_weights():
    assert [d.sign for d in SUPPORT[UNCORRELATED]] == [1, -1, 0]
    assert disorder_probs(UNCORRELATED, 0.1, 0.2) == (0.8 * 0.9, 0.8 * 0.1, 0.2)
    assert all(d.layers == 1 for d in SUPPORT[UNCORRELATED])


def test_depolarizing_distribution_weights():
    pairs = [(d.sign, d.dual_sign) for d in SUPPORT[DEPOLARIZING]]
    assert pairs == [(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)]
    third = 0.9 * 0.3 / 3.0
    assert disorder_probs(DEPOLARIZING, 0.3, 0.1) == (0.9 * 0.7, third, third, third, 0.1)
    assert all(d.layers == 2 for d in SUPPORT[DEPOLARIZING])


def test_distribution_keeps_diluted_state_at_zero_loss():
    # support shape is channel-fixed so enumeration never branches on q
    assert SUPPORT[UNCORRELATED][-1].diluted
    assert disorder_probs(UNCORRELATED, 0.1, 0.0)[-1] == 0.0
