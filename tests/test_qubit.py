import math

import numpy as np
import pytest

from pauli_uncertainty import qubit
from pauli_uncertainty.qubit import (
    BlochVector,
    PureStateAngles,
    angles_to_bloch,
    pauli_eigenstate,
    sample_mixed,
    sample_pure,
)

from _oracles import ket, pauli_expectation, sample_mixed_loop

QUARTER_PI = math.pi / 4.0


def _bloch_tuple(b: BlochVector) -> tuple[float, float, float]:
    return (b.rx, b.ry, b.rz)


# -------------------------------------------------------------- conversion


def test_angles_to_bloch_poles_and_equator():
    assert _bloch_tuple(angles_to_bloch(PureStateAngles(0.0, 0.0))) == (0.0, 0.0, 1.0)
    b = angles_to_bloch(PureStateAngles(QUARTER_PI, 0.0))
    assert b.rx == pytest.approx(1.0, abs=1e-15)
    assert abs(b.ry) < 1e-15 and abs(b.rz) < 1e-12


def test_angles_to_bloch_against_matrix_oracle():
    state = PureStateAngles(math.pi / 6.0, math.pi / 2.0)
    b = angles_to_bloch(state)
    assert b.ry == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
    assert b.rz == pytest.approx(0.5, abs=1e-15)
    psi = ket(state.tau, state.phi)
    for axis, got in (("x", b.rx), ("y", b.ry), ("z", b.rz)):
        assert got == pytest.approx(pauli_expectation(psi, axis), abs=1e-12)


def test_angles_to_bloch_unit_norm(rng):
    for _ in range(500):
        state = PureStateAngles(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
        assert angles_to_bloch(state).norm == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------- eigenstates


def test_eigenstate_angles():
    z_plus = pauli_eigenstate("z", 1)
    assert (z_plus.tau, z_plus.phi) == (0.0, 0.0)
    x_minus = pauli_eigenstate("x", -1)
    assert (x_minus.tau, x_minus.phi) == (QUARTER_PI, math.pi)
    y_plus = pauli_eigenstate("y", 1)
    assert (y_plus.tau, y_plus.phi) == (QUARTER_PI, math.pi / 2.0)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_eigenstate_bloch_vectors(axis):
    unit = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[axis]
    plus = angles_to_bloch(pauli_eigenstate(axis, 1))
    minus = angles_to_bloch(pauli_eigenstate(axis, -1))
    for got, want in zip(_bloch_tuple(plus), unit):
        assert got == pytest.approx(want, abs=1e-12)
    # antipodality
    assert abs(plus.rx + minus.rx) < 1e-12
    assert abs(plus.ry + minus.ry) < 1e-12
    assert abs(plus.rz + minus.rz) < 1e-12


def test_eigenstate_rejects_unknown():
    with pytest.raises(ValueError):
        pauli_eigenstate("w", 1)
    with pytest.raises(ValueError):
        pauli_eigenstate("x", 2)


# ---------------------------------------------------------- canonicalization


def test_canonicalization_mod_two_pi():
    base = PureStateAngles(0.3, 0.2)
    shifted = PureStateAngles(0.3, 0.2 + 4 * math.pi)
    assert base.tau == pytest.approx(shifted.tau, abs=1e-12)
    assert base.phi == pytest.approx(shifted.phi, abs=1e-12)


def test_canonicalization_preserves_state(rng):
    for _ in range(500):
        tau = rng.uniform(-6.0, 6.0)
        phi = rng.uniform(-10.0, 10.0)
        state = PureStateAngles(tau, phi)
        assert 0.0 <= state.tau <= math.pi / 2.0
        assert 0.0 <= state.phi < 2.0 * math.pi
        got = angles_to_bloch(state)
        psi = ket(tau, phi)
        for axis, val in (("x", got.rx), ("y", got.ry), ("z", got.rz)):
            assert val == pytest.approx(pauli_expectation(psi, axis), abs=1e-9)


def test_bloch_vector_validation():
    with pytest.raises(ValueError):
        BlochVector(1.0, 1.0, 1.0)
    assert BlochVector(1.0, 0.0, 0.0).is_pure
    assert not BlochVector(0.5, 0.0, 0.0).is_pure


# ------------------------------------------------------------------ samplers


def test_sample_pure_deterministic():
    a = sample_pure(123, 50)
    b = sample_pure(123, 50)
    assert a == b
    c = sample_pure(124, 50)
    assert a != c


def test_sample_pure_statistics():
    states = sample_pure(7, 100_000)
    zs = np.array([angles_to_bloch(s).rz for s in states])
    norms = np.array([angles_to_bloch(s).norm for s in states])
    assert abs(zs.mean()) < 0.01
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_sample_mixed_deterministic_and_inside_ball():
    a = sample_mixed(55, 1000)
    assert a.shape == (1000, 3)
    assert np.array_equal(a, sample_mixed(55, 1000))
    norms = np.linalg.norm(a, axis=1)
    assert np.all(norms < 1.0)


def test_sample_mixed_radial_moment():
    norms = np.linalg.norm(sample_mixed(99, 100_000), axis=1)
    assert abs(norms.mean() - 0.75) < 0.01


@pytest.mark.parametrize(
    "seed, count", [(0, 5_000), (1, 5_000), (55, 1_000), (20240817, 100_000)]
)
def test_sample_mixed_matches_per_state_loop(seed, count):
    # same draws and the same (r sin theta) cos phi association as the
    # one-state-at-a-time loop, so every row must agree bit for bit
    assert np.array_equal(sample_mixed(seed, count), sample_mixed_loop(seed, count))


def test_sample_mixed_largest_draw_stays_inside_ball(monkeypatch):
    # force the largest radial draw, U = 1 - 2**-53, whose cube root rounds
    # to 1.0; the directions stay genuine draws
    real_default_rng = np.random.default_rng

    class LargestRadialDraw:
        def __init__(self, seed):
            self._rng = real_default_rng(seed)

        def uniform(self, *args, **kwargs):
            return self._rng.uniform(*args, **kwargs)

        def random(self, size):
            return np.full(size, 1.0 - 2.0**-53)

    monkeypatch.setattr(qubit.np.random, "default_rng", LargestRadialDraw)
    rows = sample_mixed(3, 200_000)
    assert np.max(np.linalg.norm(rows, axis=1)) < 1.0
    assert np.max(np.sqrt(np.sum(rows * rows, axis=1))) < 1.0


def test_samplers_reject_bad_count():
    with pytest.raises(ValueError):
        sample_pure(1, 0)
    with pytest.raises(ValueError):
        sample_mixed(1, 0)
