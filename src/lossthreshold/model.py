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

UNCORRELATED = "uncorrelated"
DEPOLARIZING = "depolarizing"
CHANNEL_KINDS = (UNCORRELATED, DEPOLARIZING)

# K diverges logarithmically as p -> 0; clamp so all log-domain math stays finite.
MIN_ERROR_RATE = 1e-9


class DomainError(ValueError):
    """A physical rate is outside the range an operation supports."""


@dataclass(frozen=True)
class ChannelSpec:
    """A noise channel: which kind, its error rate p, and its loss rate q."""

    kind: str
    p: float
    q: float = 0.0

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise DomainError(f"unknown channel kind {self.kind!r}; expected one of {CHANNEL_KINDS}")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"error rate p={self.p} outside [0, 1]")
        if not 0.0 <= self.q <= 1.0:
            raise DomainError(f"loss rate q={self.q} outside [0, 1]")

    @property
    def layers(self) -> int:
        """Number of coupled Ising layers in the statistical-mechanics image."""
        return 1 if self.kind == UNCORRELATED else 2


@dataclass(frozen=True)
class NishimoriCoupling:
    """Dimensionless coupling K tied to the error rate by the optimal-inference condition."""

    K: float

    def __post_init__(self):
        if not math.isfinite(self.K) or self.K < 0.0:
            raise DomainError(f"coupling K={self.K} must be finite and nonnegative")


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


@dataclass(frozen=True)
class DisorderDistribution:
    """Discrete distribution over EdgeDisorder states for one edge."""

    support: tuple[EdgeDisorder, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise DomainError("support and probs must have the same length")
        if len(set(self.support)) != len(self.support):
            raise DomainError("support entries must be distinct")
        if any(w < 0.0 for w in self.probs):
            raise DomainError("probabilities must be nonnegative")
        if abs(math.fsum(self.probs) - 1.0) > 1e-15:
            raise DomainError(f"probabilities sum to {math.fsum(self.probs)!r}, not 1")

    @property
    def layers(self) -> int:
        return self.support[0].layers


def nishimori_coupling(channel: ChannelSpec) -> NishimoriCoupling:
    """Coupling strength on the optimal-inference (Nishimori) line.

    Uncorrelated: K = ln((1-p)/p) / 2; depolarizing: K = ln(3(1-p)/p) / 4.
    Raises DomainError when p is outside [MIN_ERROR_RATE, 1/2] (uncorrelated)
    or [MIN_ERROR_RATE, 3/4] (depolarizing), where K would diverge or go
    negative.
    """
    p = channel.p
    if channel.kind == UNCORRELATED:
        if not MIN_ERROR_RATE <= p <= 0.5:
            raise DomainError(f"uncorrelated channel needs {MIN_ERROR_RATE} <= p <= 0.5, got {p}")
        return NishimoriCoupling(0.5 * math.log((1.0 - p) / p))
    if not MIN_ERROR_RATE <= p <= 0.75:
        raise DomainError(f"depolarizing channel needs {MIN_ERROR_RATE} <= p <= 0.75, got {p}")
    return NishimoriCoupling(0.25 * math.log(3.0 * (1.0 - p) / p))


def disorder_distribution(channel: ChannelSpec) -> DisorderDistribution:
    """Per-edge coupling distribution, including the loss-induced diluted state.

    Uncorrelated: +1 with (1-q)(1-p), -1 with (1-q)p, diluted with q.
    Depolarizing: (+1,+1) with (1-q)(1-p), each of the three flipped pairs with
    (1-q)p/3, and the doubly diluted pair with q. The diluted entry is present
    with weight zero when q = 0, so the support shape is channel-fixed.
    """
    p, q = channel.p, channel.q
    if channel.kind == UNCORRELATED:
        support = (EdgeDisorder(1), EdgeDisorder(-1), EdgeDisorder(0))
        probs = ((1.0 - q) * (1.0 - p), (1.0 - q) * p, q)
    else:
        third = (1.0 - q) * p / 3.0
        support = (
            EdgeDisorder(1, 1),
            EdgeDisorder(1, -1),
            EdgeDisorder(-1, 1),
            EdgeDisorder(-1, -1),
            EdgeDisorder(0, 0),
        )
        probs = ((1.0 - q) * (1.0 - p), third, third, third, q)
    return DisorderDistribution(support, probs)
