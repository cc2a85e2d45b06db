"""Qubit state representations and reproducible random-state sampling.

The Bloch vector is the canonical internal representation: every Pauli
outcome probability is affine in it, so complex 2x2 matrices never appear
outside the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: Bloch norm at or above 1 - PURITY_TOL counts as a pure state.
PURITY_TOL = 1e-9

_MAX_RADIUS = 1.0 - 4.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class PureStateAngles:
    """Pure qubit state cos(tau)|0> + exp(i phi) sin(tau)|1>.

    Arbitrary real input angles are folded into the canonical ranges
    tau in [0, pi/2], phi in [0, 2 pi); the fold fixes the represented
    state, only the redundant global phase is dropped.
    """

    tau: float
    phi: float

    def __post_init__(self) -> None:
        tau = float(self.tau)
        phi = float(self.phi)
        if not (math.isfinite(tau) and math.isfinite(phi)):
            raise ValueError(f"angles must be finite, got ({self.tau!r}, {self.phi!r})")
        # Fold via the Bloch polar angle theta = 2 tau: theta in (pi, 2 pi)
        # maps to (2 pi - theta, phi + pi), which is the same physical state.
        theta = (2.0 * tau) % TWO_PI
        if theta > math.pi:
            theta = TWO_PI - theta
            phi = phi + math.pi
        phi = phi % TWO_PI
        object.__setattr__(self, "tau", theta / 2.0)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector r with norm <= 1; the state is (I + r . sigma) / 2."""

    rx: float
    ry: float
    rz: float

    def __post_init__(self) -> None:
        for c in (self.rx, self.ry, self.rz):
            if not math.isfinite(c):
                raise ValueError("Bloch components must be finite")
        if self.norm_sq > 1.0 + 1e-12:
            raise ValueError(f"Bloch vector ({self.rx}, {self.ry}, {self.rz}) lies outside the unit ball")

    @property
    def norm_sq(self) -> float:
        return self.rx * self.rx + self.ry * self.ry + self.rz * self.rz

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    @property
    def is_pure(self) -> bool:
        return self.norm >= 1.0 - PURITY_TOL


def angles_to_bloch(s: PureStateAngles) -> BlochVector:
    """Bloch vector (sin 2tau cos phi, sin 2tau sin phi, cos 2tau)."""
    st = math.sin(2.0 * s.tau)
    return BlochVector(st * math.cos(s.phi), st * math.sin(s.phi), math.cos(2.0 * s.tau))


_EIGENSTATE_ANGLES = {
    ("x", +1): (math.pi / 4.0, 0.0),
    ("x", -1): (math.pi / 4.0, math.pi),
    ("y", +1): (math.pi / 4.0, math.pi / 2.0),
    ("y", -1): (math.pi / 4.0, 3.0 * math.pi / 2.0),
    ("z", +1): (0.0, 0.0),
    ("z", -1): (math.pi / 2.0, 0.0),
}


def pauli_eigenstate(axis: str, sign: int) -> PureStateAngles:
    """Eigenstate of sigma_axis with eigenvalue sign (+1 or -1)."""
    key = (axis.lower(), int(sign))
    if key not in _EIGENSTATE_ANGLES:
        raise ValueError(f"no Pauli eigenstate for axis={axis!r}, sign={sign!r}")
    tau, phi = _EIGENSTATE_ANGLES[key]
    return PureStateAngles(tau, phi)


def sample_pure(seed: int, count: int) -> list[PureStateAngles]:
    """Haar-uniform pure states: cos 2tau ~ U[-1, 1], phi ~ U[0, 2 pi).

    The sequence is a pure function of the seed, so reports quoting the
    seed are bit-reproducible.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    cos2tau = rng.uniform(-1.0, 1.0, size=count)
    phi = rng.uniform(0.0, TWO_PI, size=count)
    return [
        PureStateAngles(math.acos(c) / 2.0, ph)
        for c, ph in zip(cos2tau.tolist(), phi.tolist())
    ]


def sample_mixed(seed: int, count: int) -> np.ndarray:
    """Bloch vectors uniform in the open unit ball (norm strictly < 1).

    Returns a (count, 3) array with one (rx, ry, rz) row per state.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, size=count)
    phi = rng.uniform(0.0, TWO_PI, size=count)
    # radius = U**(1/3) keeps the radial density 3 r**2 of the uniform ball.
    # The largest U, 1 - 2**-53, rounds to radius 1.0, and rounding in the
    # components and in a norm taken of them can lift the computed norm to
    # r (1 + 7u), u = 2**-53. Capping r at 1 - 8u keeps every computed norm
    # strictly below 1 and moves only the top 22 of the 2**53 values of U.
    radius = np.minimum(rng.random(count) ** (1.0 / 3.0), _MAX_RADIUS)
    r_sin = radius * np.sqrt(1.0 - cos_theta**2)
    return np.column_stack((r_sin * np.cos(phi), r_sin * np.sin(phi), radius * cos_theta))
