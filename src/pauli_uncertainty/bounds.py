"""Closed-form bound machinery for the three-Pauli entropic sum.

Everything here is order-restricted to alpha in (0, 1]: the lower bound
2 ln 2 and the pure-state upper bound 3 rho_hat(alpha) hold on exactly that
interval, and the sum's behaviour changes character above 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .distributions import (
    EntropyOrder,
    OrderDomainError,
    OrderLike,
    ProbabilityDistribution,
    as_order,
    alpha_log,
    phi_alpha,
    renyi_entropy,
    tsallis_entropy,
)
from .pauli_measure import PauliTriple, measure_pure
from .qubit import PureStateAngles

TWO_LN2 = 2.0 * math.log(2.0)
THREE_LN2 = 3.0 * math.log(2.0)

INV_SQRT3 = 1.0 / math.sqrt(3.0)
#: The balanced extremal outcome pair ((1 + 1/sqrt3)/2, (1 - 1/sqrt3)/2).
EXTREMAL_PAIR = ((1.0 + INV_SQRT3) / 2.0, (1.0 - INV_SQRT3) / 2.0)
_EXTREMAL_DIST = ProbabilityDistribution(EXTREMAL_PAIR)

#: Orders at or below this are rejected: the power sum degenerates
#: non-uniformly as alpha -> 0 and that endpoint is out of scope.
ALPHA_MIN = 1e-6

#: Default tolerance (nats) at which equality in a bound is certified.
SATURATION_TOL = 1e-8

#: A computed entropic sum may miss an exact bound by at most this much
#: (rounding) at orders where 1/(1 - alpha) does not amplify it.
VIOLATION_TOL = 1e-12

LOWER_SATURATED = "lower-saturated"
UPPER_SATURATED = "upper-saturated"
INTERIOR = "interior"

QUARTER_PI = math.pi / 4.0
HALF_PI = math.pi / 2.0


class BoundViolationError(RuntimeError):
    """A certified inequality failed numerically; this indicates a bug."""


def supported_order(a: OrderLike, *, allow_one: bool = True) -> EntropyOrder:
    """Validate an order against the (0, 1] range the bounds are proven on."""
    order = as_order(a)
    if order.alpha <= ALPHA_MIN:
        raise OrderDomainError(
            f"order {order.alpha!r} is at or below the supported minimum {ALPHA_MIN}"
        )
    if order.is_one:
        if not allow_one:
            raise OrderDomainError("order 1 is not admitted by this operation")
    elif order.alpha > 1.0:
        raise OrderDomainError(f"order {order.alpha!r} above 1 is outside the supported range")
    return order


@dataclass(frozen=True)
class DomainPoint:
    """Angle pair inside the reduced rectangle [0, pi/4] x [0, pi/4]."""

    tau: float
    phi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.tau <= QUARTER_PI and 0.0 <= self.phi <= QUARTER_PI):
            raise ValueError(f"({self.tau!r}, {self.phi!r}) lies outside the reduced domain")


@dataclass(frozen=True)
class BandPoint:
    """One row of the band sweep: constant lower bound and both uppers."""

    alpha: float
    lower: float
    b_upper: float
    a_upper: float

    def __post_init__(self) -> None:
        if not (2.0 / 3.0 - 1e-12 <= self.a_upper <= self.b_upper + 1e-12 <= 1.0 + 1e-12):
            raise ValueError(
                f"band ordering violated: lower=2/3, A={self.a_upper!r}, B={self.b_upper!r}"
            )


@dataclass(frozen=True)
class SaturationReport:
    """Classification of a state against the lower and upper bounds."""

    kind: str
    witness_axis: Optional[str]
    gap: float

    def __post_init__(self) -> None:
        if self.kind not in (LOWER_SATURATED, UPPER_SATURATED, INTERIOR):
            raise ValueError(f"unknown saturation kind {self.kind!r}")
        if self.gap < 0.0:
            raise ValueError("gap must be nonnegative after tolerance clamping")


def entropic_sum_renyi(t: PauliTriple, a: OrderLike) -> float:
    """Sum of the three per-axis Renyi entropies, in nats."""
    order = supported_order(a)
    return (
        renyi_entropy(t.p, order)
        + renyi_entropy(t.q, order)
        + renyi_entropy(t.r, order)
    )


def entropic_sum_tsallis(t: PauliTriple, a: OrderLike) -> float:
    """Sum of the three per-axis Tsallis entropies."""
    order = supported_order(a)
    return (
        tsallis_entropy(t.p, order)
        + tsallis_entropy(t.q, order)
        + tsallis_entropy(t.r, order)
    )


def big_f(d: DomainPoint, a: OrderLike) -> float:
    """Product of the three outcome power sums at the given angles.

    The entropic sum equals ln(big_f) / (1 - alpha), so minimizing or
    maximizing this product is equivalent to extremizing the sum.
    """
    order = supported_order(a, allow_one=False)
    triple = measure_pure(PureStateAngles(d.tau, d.phi))
    return phi_alpha(triple.p, order) * phi_alpha(triple.q, order) * phi_alpha(triple.r, order)


def f_func(u: float, a: OrderLike) -> float:
    """((1-u)**(alpha-1) - (1+u)**(alpha-1)) / u, and its limit 2(1 - alpha) at u = 0.

    Monotone increasing on [0, 1) for alpha in (0, 1). Since ln(1-u) -
    ln(1+u) = -2 atanh u, the form (1+u)**(alpha-1) expm1(2(1-alpha) atanh u) / u
    subtracts no two close numbers at any u or alpha: a few ulps of error.
    """
    order = supported_order(a)
    alpha = order.alpha
    if not (0.0 <= u < 1.0):
        raise ValueError(f"f_func needs u in [0, 1), got {u!r}")
    if u == 0.0:
        return 2.0 * (1.0 - alpha)
    return (1.0 + u) ** (alpha - 1.0) * math.expm1(2.0 * (1.0 - alpha) * math.atanh(u)) / u


def g_func(u: float, a: OrderLike) -> float:
    """(1+u)**alpha + (1-u)**alpha; monotone decreasing on [0, 1]."""
    order = supported_order(a)
    alpha = order.alpha
    if not (0.0 <= u <= 1.0):
        raise ValueError(f"g_func needs u in [0, 1], got {u!r}")
    return (1.0 + u) ** alpha + (1.0 - u) ** alpha


def series_coeffs_f(a: OrderLike, k_max: int) -> list[float]:
    """c_1..c_k_max of f_func = sum_k c_k u**(2k): c_k = 2 prod_{j<=2k+1}(j - alpha) / (2k+1)!.

    Built from c_0 = 2(1 - alpha) by the term ratios (2k - alpha)(2k+1 - alpha)
    / (2k (2k+1)), with no factorial to overflow. For alpha in (0, 1) every
    ratio is positive, so every c_k is, which is what forces f_func to increase.
    """
    order = supported_order(a)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    alpha = order.alpha
    coeffs = []
    c = 2.0 * (1.0 - alpha)
    for k in range(1, k_max + 1):
        c *= (2 * k - alpha) * (2 * k + 1 - alpha) / (2 * k * (2 * k + 1))
        coeffs.append(c)
    return coeffs


def series_coeffs_g(a: OrderLike, k_max: int) -> list[float]:
    """d_1..d_k_max of g_func = 2 - 2 sum_k d_k u**(2k): alpha prod_{j<=2k-1}(j - alpha) / (2k)!.

    Built from d_0 = -1 (g_func = -2 sum_{k>=0} d_k u**(2k)) by the term
    ratios (2k-2 - alpha)(2k-1 - alpha) / ((2k-1) 2k), so d_1 = alpha (1 - alpha)
    / 2. Positive for alpha in (0, 1), which is what forces g_func to decrease.
    """
    order = supported_order(a)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    alpha = order.alpha
    coeffs = []
    d = -1.0
    for k in range(1, k_max + 1):
        d *= (2 * k - 2 - alpha) * (2 * k - 1 - alpha) / ((2 * k - 1) * 2 * k)
        coeffs.append(d)
    return coeffs


def rho_hat(a: OrderLike) -> float:
    """Per-axis Renyi entropy of the balanced extremal pair, in nats.

    Three times this value is the tight pure-state ceiling of the Renyi
    entropic sum.
    """
    return renyi_entropy(_EXTREMAL_DIST, supported_order(a))


def h_hat(a: OrderLike) -> float:
    """Per-axis Tsallis entropy of the balanced extremal pair."""
    return tsallis_entropy(_EXTREMAL_DIST, supported_order(a))


def band_bounds(a: OrderLike) -> BandPoint:
    """Band of the rescaled average entropy: 2/3 up to B (Renyi) or A (Tsallis).

    At order one both uppers are computed from the same Shannon branch, so
    the band's single coincidence point carries no cancellation error.
    """
    order = supported_order(a)
    return BandPoint(
        alpha=order.alpha,
        lower=2.0 / 3.0,
        b_upper=rho_hat(order) / math.log(2.0),
        a_upper=h_hat(order) / alpha_log(2.0, order),
    )


def symmetry_reduce(tau: float, phi: float) -> DomainPoint:
    """Fold any (tau, phi) with tau in [0, pi/2] into the reduced rectangle.

    Each step swaps outcome probabilities within or between axes, so the
    power-sum product is untouched: phi > pi drops by pi, phi > pi/2
    reflects to pi - phi, phi > pi/4 reflects to pi/2 - phi (swapping the
    x and y axes), and finally tau > pi/4 reflects to pi/2 - tau.
    """
    if not (0.0 <= tau <= HALF_PI):
        raise ValueError(f"tau {tau!r} outside [0, pi/2]")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    phi = phi % (2.0 * math.pi)
    if phi > math.pi:
        phi = phi - math.pi
    if phi > HALF_PI:
        phi = math.pi - phi
    if phi > QUARTER_PI:
        phi = HALF_PI - phi
    if tau > QUARTER_PI:
        tau = HALF_PI - tau
    return DomainPoint(tau, phi)


def rounding_floor(order: EntropyOrder) -> float:
    """Rounding floor of a computed entropic sum against an exact bound.

    The 1/(1 - alpha) prefactor amplifies the last ulp of ln(power sum) to
    4 eps / (1 - alpha), above VIOLATION_TOL near order one (~4e-12 at 1 - 1e-4).
    """
    if order.is_one:
        return VIOLATION_TOL
    # conditionals, not max(): every saturation check calls this, and a
    # builtin call costs more than the arithmetic
    floor = 4.0 * sys.float_info.epsilon / abs(1.0 - order.alpha)
    return floor if floor > VIOLATION_TOL else VIOLATION_TOL


def _is_deterministic(dist, tol: float) -> bool:
    return max(dist.probs) >= 1.0 - tol


def _is_uniform(dist, tol: float) -> bool:
    return abs(dist[0] - 0.5) <= tol


def _matches_extremal_pair(dist, tol: float) -> bool:
    hi, lo = max(dist.probs), min(dist.probs)
    return abs(hi - EXTREMAL_PAIR[0]) <= tol and abs(lo - EXTREMAL_PAIR[1]) <= tol


def check_lower(t: PauliTriple, a: OrderLike, tol: float = SATURATION_TOL) -> SaturationReport:
    """Certify the lower bound: entropic sum >= 2 ln 2.

    The gate is max(tol, rounding_floor(alpha)): no tol below the rounding
    of the sum turns an exact saturation into a failure. Saturation within
    the gate must come with the equality pattern (one deterministic axis,
    two uniform ones); a gap below -gate means the implementation itself
    is broken and raises BoundViolationError.
    """
    order = supported_order(a)
    floor = rounding_floor(order)
    gate = tol if tol > floor else floor
    gap = entropic_sum_renyi(t, order) - TWO_LN2
    if gap < -gate:
        raise BoundViolationError(f"entropic sum undercuts 2 ln 2 by {-gap!r}")
    if gap <= gate:
        witness = None
        for name in ("x", "y", "z"):
            if _is_deterministic(t.axis(name), gate):
                witness = name
                break
        if witness is None:
            raise BoundViolationError("saturated lower bound without a deterministic axis")
        # the gap is quadratic in the remaining axes' deviation from 1/2,
        # and the Bloch norm couples them to the deterministic axis, so
        # sqrt(gate) is the scale certified by gap <= gate
        others = [n for n in ("x", "y", "z") if n != witness]
        if not all(_is_uniform(t.axis(n), math.sqrt(gate)) for n in others):
            raise BoundViolationError("saturated lower bound without two uniform axes")
        return SaturationReport(LOWER_SATURATED, witness, max(gap, 0.0))
    return SaturationReport(INTERIOR, None, gap)


def check_upper(t: PauliTriple, a: OrderLike, tol: float = SATURATION_TOL) -> SaturationReport:
    """Certify the pure-state upper bound: entropic sum <= 3 rho_hat.

    Applies the gate max(tol, rounding_floor(alpha)) as check_lower does.
    Only defined for triples coming from pure states; mixed input is a
    contract violation, not a soft failure.
    """
    order = supported_order(a)
    if not t.is_pure:
        raise ValueError("the upper bound certificate applies to pure states only")
    floor = rounding_floor(order)
    gate = tol if tol > floor else floor
    gap = 3.0 * rho_hat(order) - entropic_sum_renyi(t, order)
    if gap < -gate:
        raise BoundViolationError(f"entropic sum exceeds the pure-state ceiling by {-gap!r}")
    if gap <= gate:
        # quadratic maximum: gap <= gate certifies the probabilities only
        # to the sqrt(gate) scale
        if not all(_matches_extremal_pair(t.axis(n), math.sqrt(gate)) for n in ("x", "y", "z")):
            raise BoundViolationError("saturated upper bound without the extremal outcome pair")
        return SaturationReport(UPPER_SATURATED, None, max(gap, 0.0))
    return SaturationReport(INTERIOR, None, gap)
