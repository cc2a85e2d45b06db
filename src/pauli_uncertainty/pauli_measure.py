"""Born-rule outcome distributions for sigma_x, sigma_y, sigma_z measurements."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import ProbabilityDistribution
from .qubit import PURITY_TOL, BlochVector, PureStateAngles, angles_to_bloch

#: Probabilities within this distance of 0 or 1 are clamped; anything
#: farther outside [0, 1] is a logic bug and raises.
CLAMP_TOL = 1e-15


@dataclass(frozen=True)
class PauliTriple:
    """The three 2-outcome distributions from measuring a single state.

    Outcomes are ordered (+1, -1) everywhere. The probability differences
    reconstruct the Bloch vector of the measured state, so their squared
    norm cannot exceed 1 and equals 1 exactly for pure states.
    """

    p: ProbabilityDistribution
    q: ProbabilityDistribution
    r: ProbabilityDistribution

    def __post_init__(self) -> None:
        for dist in (self.p, self.q, self.r):
            if len(dist) != 2:
                raise ValueError("each Pauli measurement has exactly two outcomes")
        if self.bloch_norm_sq > 1.0 + 1e-12:
            raise ValueError("outcome probabilities are inconsistent with a qubit state")

    @property
    def bloch_norm_sq(self) -> float:
        dx = self.p[0] - self.p[1]
        dy = self.q[0] - self.q[1]
        dz = self.r[0] - self.r[1]
        return dx * dx + dy * dy + dz * dz

    @property
    def is_pure(self) -> bool:
        return math.sqrt(self.bloch_norm_sq) >= 1.0 - PURITY_TOL

    def axis(self, name: str) -> ProbabilityDistribution:
        return {"x": self.p, "y": self.q, "z": self.r}[name]


def _clamp01(value: float) -> float:
    if value < 0.0:
        if value < -CLAMP_TOL:
            raise ValueError(f"probability {value!r} below 0 beyond rounding tolerance")
        return 0.0
    if value > 1.0:
        if value > 1.0 + CLAMP_TOL:
            raise ValueError(f"probability {value!r} above 1 beyond rounding tolerance")
        return 1.0
    return value


def _outcome_pair(component: float) -> ProbabilityDistribution:
    plus = _clamp01((1.0 + component) / 2.0)
    # constructed from one shared component so the pair sums to 1 exactly
    return ProbabilityDistribution((plus, 1.0 - plus))


def measure_pure(s: PureStateAngles) -> PauliTriple:
    """Outcome distributions for a pure state given by its angles."""
    return measure_mixed(angles_to_bloch(s))


def measure_mixed(b: BlochVector) -> PauliTriple:
    """Outcome distributions (1 +/- r_nu) / 2 for any Bloch vector."""
    return PauliTriple(
        p=_outcome_pair(b.rx),
        q=_outcome_pair(b.ry),
        r=_outcome_pair(b.rz),
    )
