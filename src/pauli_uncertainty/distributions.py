"""Probability distributions and the one-parameter entropy family.

All entropies are returned in nats. The order-1 member of each family is
the Shannon entropy, reached here by an explicit dispatch instead of a
numerical limit: the 1/(1 - alpha) prefactor loses all precision near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

#: |alpha - 1| at or below this is treated as exactly 1.
ORDER_ONE_TOL = 1e-9

#: Absolute tolerance on sum(probs) == 1.
NORMALIZATION_TOL = 1e-12


class OrderDomainError(ValueError):
    """An entropy order outside the range an operation admits."""


@dataclass(frozen=True)
class EntropyOrder:
    """Order parameter alpha > 0 of the Renyi/Tsallis entropy families."""

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not math.isfinite(a) or a <= 0.0:
            raise OrderDomainError(f"entropy order must be a positive real, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)

    @property
    def is_one(self) -> bool:
        """True when the order is the Shannon point within ORDER_ONE_TOL."""
        return abs(self.alpha - 1.0) <= ORDER_ONE_TOL


OrderLike = Union[EntropyOrder, float, int]


def as_order(a: OrderLike) -> EntropyOrder:
    """Coerce a bare number into an EntropyOrder; pass instances through."""
    if isinstance(a, EntropyOrder):
        return a
    return EntropyOrder(float(a))


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Nonnegative probabilities summing to one.

    Normalization is validated, never silently repaired: a vector that
    fails the 1e-12 budget signals an upstream bug and must not be masked.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        if len(probs) < 1:
            raise ValueError("distribution needs at least one outcome")
        for p in probs:
            if not math.isfinite(p) or p < 0.0:
                raise ValueError(f"probabilities must be finite and >= 0, got {p!r}")
        total = math.fsum(probs)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within {NORMALIZATION_TOL}")
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def __getitem__(self, i: int) -> float:
        return self.probs[i]


DistributionLike = Union[ProbabilityDistribution, Sequence[float], Iterable[float]]


def as_distribution(p: DistributionLike) -> ProbabilityDistribution:
    """Coerce a sequence of probabilities; pass instances through."""
    if isinstance(p, ProbabilityDistribution):
        return p
    return ProbabilityDistribution(tuple(p))


def phi_alpha(p: DistributionLike, a: OrderLike) -> float:
    """Power sum sum_j p_j**alpha, with the convention 0**alpha = 0.

    Compensated summation keeps the value accurate enough for the 1e-12
    tolerances used throughout the bound checks.
    """
    dist = as_distribution(p)
    alpha = as_order(a).alpha
    # alpha > 0, so 0.0**alpha is exactly 0.0 and fsum adds it exactly
    return math.fsum(x**alpha for x in dist.probs)


def shannon_entropy(p: DistributionLike) -> float:
    """-sum p_j ln p_j with 0 ln 0 = 0."""
    dist = as_distribution(p)
    return -math.fsum(x * math.log(x) for x in dist.probs if x > 0.0)


def renyi_entropy(p: DistributionLike, a: OrderLike) -> float:
    """Renyi entropy ln(phi_alpha) / (1 - alpha); Shannon at order one."""
    order = as_order(a)
    if order.is_one:
        return shannon_entropy(p)
    return math.log(phi_alpha(p, order)) / (1.0 - order.alpha)


def tsallis_entropy(p: DistributionLike, a: OrderLike) -> float:
    """Tsallis entropy (phi_alpha - 1) / (1 - alpha); Shannon at order one."""
    order = as_order(a)
    if order.is_one:
        return shannon_entropy(p)
    return (phi_alpha(p, order) - 1.0) / (1.0 - order.alpha)


def alpha_log(xi: float, a: OrderLike) -> float:
    """Deformed logarithm (xi**(1-alpha) - 1) / (1 - alpha); ln at order one."""
    if not (xi > 0.0):
        raise ValueError(f"alpha_log needs a positive argument, got {xi!r}")
    order = as_order(a)
    if order.is_one:
        return math.log(xi)
    return (xi ** (1.0 - order.alpha) - 1.0) / (1.0 - order.alpha)
