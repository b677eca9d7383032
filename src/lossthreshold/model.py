"""Noise channels, Nishimori-line couplings, and quenched disorder distributions.

Two channels are supported. In the "uncorrelated" channel X and Z errors occur
independently at rate p, and the error chains map onto a random-sign Ising model
whose coupling strength on the optimal-inference line satisfies
exp(2K) = (1-p)/p. In the "depolarizing" channel the three Pauli errors each
occur at rate p/3, the image is a two-layer (eight-vertex) model, and the line
is exp(4K) = 3(1-p)/p.

Qubit loss at rate q dilutes the couplings: a lost qubit carries a weight-zero
edge, encoded by coupling sign 0. For the two-layer model a loss zeroes both
layers of the affected edge simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNCORRELATED = "uncorrelated"
DEPOLARIZING = "depolarizing"
CHANNEL_KINDS = (UNCORRELATED, DEPOLARIZING)

# K diverges logarithmically as p -> 0; clamp so all log-domain math stays finite.
MIN_ERROR_RATE = 1e-9
# the error rate of each kind at which K reaches 0; above it K would be negative
MAX_ERROR_RATE = {UNCORRELATED: 0.5, DEPOLARIZING: 0.75}


class DomainError(ValueError):
    """A physical rate is outside the range an operation supports."""


@dataclass(frozen=True)
class ChannelSpec:
    """A noise channel: which kind, its error rate p, and its loss rate q."""

    kind: str
    p: float
    q: float = 0.0

    def __post_init__(self):
        check_kind(self.kind)
        check_rate("error rate p", self.p)
        check_rate("loss rate q", self.q)

    @property
    def layers(self) -> int:
        """Number of coupled Ising layers in the statistical-mechanics image."""
        return channel_layers(self.kind)


def check_kind(kind: str) -> None:
    """Raise DomainError for a channel kind other than CHANNEL_KINDS."""
    if kind not in CHANNEL_KINDS:
        raise DomainError(f"unknown channel kind {kind!r}; expected one of {CHANNEL_KINDS}")


def check_rate(name: str, value: float) -> None:
    """Raise DomainError for a rate outside [0, 1]; `name` is "error rate p" or "loss rate q"."""
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name}={value} outside [0, 1]")


def check_points(kind: str, p: np.ndarray, q: np.ndarray) -> None:
    """Raise DomainError for the first point (p[i], q[i]) that a gap cannot take.

    Ranges come first: if any point has a rate outside [0, 1], the first
    such point raises the error `ChannelSpec` raises for it. Only then is p
    checked against the coupling's domain [MIN_ERROR_RATE,
    MAX_ERROR_RATE[kind]], where K is finite and nonnegative.
    """
    check_kind(kind)
    in_range = (p >= 0.0) & (p <= 1.0) & (q >= 0.0) & (q <= 1.0)
    if not in_range.all():
        i = int(np.argmin(in_range))
        check_rate("error rate p", float(p[i]))
        check_rate("loss rate q", float(q[i]))
    top = MAX_ERROR_RATE[kind]
    in_domain = (p >= MIN_ERROR_RATE) & (p <= top)
    if not in_domain.all():
        bad = float(p[np.argmin(in_domain)])
        raise DomainError(f"{kind} channel needs {MIN_ERROR_RATE} <= p <= {top}, got {bad}")


def channel_layers(kind: str) -> int:
    """Coupled Ising layers of a channel kind: 1 uncorrelated, 2 depolarizing."""
    return 1 if kind == UNCORRELATED else 2


@dataclass(frozen=True)
class EdgeDisorder:
    """Quenched coupling state of one edge.

    ``sign`` is the coupling sign on the primal layer, ``dual_sign`` the sign on
    the second layer for two-layer (depolarizing) disorder, or None for
    single-layer disorder. Sign 0 encodes a diluted edge (lost qubit); dilution
    always zeroes both layers at once, so mixed states like (0, +1) are invalid.
    """

    sign: int
    dual_sign: int | None = None

    def __post_init__(self):
        if self.dual_sign is None:
            if self.sign not in (1, -1, 0):
                raise DomainError(f"single-layer sign must be +1, -1 or 0, got {self.sign}")
        else:
            pair = (self.sign, self.dual_sign)
            if pair not in ((1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)):
                raise DomainError(f"two-layer sign pair {pair} is not admissible")

    @property
    def layers(self) -> int:
        return 1 if self.dual_sign is None else 2

    @property
    def diluted(self) -> bool:
        return self.sign == 0


def coupling(kind: str, p: float) -> float:
    """K on the Nishimori line for an error rate p that `check_points` accepts.

    Uncorrelated: K = ln((1-p)/p) / 2; depolarizing: K = ln(3(1-p)/p) / 4.
    `replica._round_points` takes each point's K from this one scalar
    expression, so a round's couplings have the bits of single calls.
    """
    if kind == UNCORRELATED:
        return 0.5 * math.log((1.0 - p) / p)
    return 0.25 * math.log(3.0 * (1.0 - p) / p)


# the disorder states of one edge under each kind, in `disorder_probs` order
SUPPORT = {
    UNCORRELATED: (EdgeDisorder(1), EdgeDisorder(-1), EdgeDisorder(0)),
    DEPOLARIZING: (
        EdgeDisorder(1, 1),
        EdgeDisorder(1, -1),
        EdgeDisorder(-1, 1),
        EdgeDisorder(-1, -1),
        EdgeDisorder(0, 0),
    ),
}
# the same supports by the number of coupled layers of the channel's image
LAYER_SUPPORT = {channel_layers(kind): states for kind, states in SUPPORT.items()}


def disorder_probs(kind: str, p, q) -> tuple:
    """Probability of each state of `SUPPORT[kind]`, for floats or arrays.

    Uncorrelated: +1 with (1-q)(1-p), -1 with (1-q)p, diluted with q.
    Depolarizing: (+1,+1) with (1-q)(1-p), each of the three flipped pairs
    with (1-q)p/3, and the doubly diluted pair with q. The diluted entry is
    there with weight zero when q = 0, so the support shape is
    channel-fixed. Element-wise products of p and q, so an array entry has
    the bits of the same expression on floats.
    """
    if kind == UNCORRELATED:
        return ((1.0 - q) * (1.0 - p), (1.0 - q) * p, q)
    third = (1.0 - q) * p / 3.0
    return ((1.0 - q) * (1.0 - p), third, third, third, q)
