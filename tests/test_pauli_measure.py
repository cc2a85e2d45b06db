import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_uncertainty.pauli_measure import PauliTriple, measure_mixed, measure_pure
from pauli_uncertainty.distributions import ProbabilityDistribution
from pauli_uncertainty.qubit import (
    BlochVector,
    PureStateAngles,
    angles_to_bloch,
    pauli_eigenstate,
)

from _oracles import born_pair, density_from_bloch, measure_pure_trig

QUARTER_PI = math.pi / 4.0
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_measure_pure_z_eigenstate():
    t = measure_pure(PureStateAngles(0.0, 0.0))
    assert t.p.probs == (0.5, 0.5)
    assert t.q.probs == (0.5, 0.5)
    assert t.r.probs == (1.0, 0.0)


def test_measure_pure_x_eigenstate():
    t = measure_pure(PureStateAngles(QUARTER_PI, 0.0))
    assert t.p.probs == (1.0, 0.0)
    assert t.q.probs == (0.5, 0.5)
    assert t.r[0] == pytest.approx(0.5, abs=1e-15)


def test_measure_pure_diagonal_line():
    t = measure_pure(PureStateAngles(QUARTER_PI, QUARTER_PI))
    hi = (1.0 + INV_SQRT2) / 2.0
    assert t.p[0] == pytest.approx(hi, abs=1e-15)
    assert t.q[0] == pytest.approx(hi, abs=1e-15)
    assert t.r[0] == pytest.approx(0.5, abs=1e-12)


def test_measure_mixed_center_and_axis():
    t = measure_mixed(BlochVector(0.0, 0.0, 0.0))
    assert t.p.probs == t.q.probs == t.r.probs == (0.5, 0.5)
    t = measure_mixed(BlochVector(0.5, 0.0, 0.0))
    assert t.p.probs == (0.75, 0.25)
    assert t.q.probs == (0.5, 0.5)
    t = measure_mixed(BlochVector(0.0, 0.0, 1.0))
    assert t.r.probs == (1.0, 0.0)


def test_measure_mixed_against_matrix_oracle(rng):
    for _ in range(200):
        raw = rng.normal(size=3)
        raw *= rng.uniform() ** (1 / 3) / math.sqrt(float(raw @ raw))
        b = BlochVector(*raw)
        t = measure_mixed(b)
        rho = density_from_bloch(b.rx, b.ry, b.rz)
        for name, dist in (("x", t.p), ("y", t.q), ("z", t.r)):
            plus, minus = born_pair(rho, name)
            assert dist[0] == pytest.approx(plus, abs=1e-12)
            assert dist[1] == pytest.approx(minus, abs=1e-12)


def test_pure_and_mixed_paths_agree(rng):
    # element-wise agreement across 1e4 random pure states
    taus = rng.uniform(0.0, math.pi / 2.0, size=10_000)
    phis = rng.uniform(0.0, 2.0 * math.pi, size=10_000)
    for tau, phi in zip(taus, phis):
        s = PureStateAngles(tau, phi)
        a = measure_pure(s)
        b = measure_mixed(angles_to_bloch(s))
        for da, db in ((a.p, b.p), (a.q, b.q), (a.r, b.r)):
            assert abs(da[0] - db[0]) <= 1e-12
            assert abs(da[1] - db[1]) <= 1e-12


def test_measure_pure_matches_its_own_trig_bitwise(rng):
    # measure_pure goes through angles_to_bloch; the triple must keep the
    # bits of the trig it once did itself, fold edges included
    special = [0.0, math.pi / 8.0, QUARTER_PI, math.pi / 2.0, 2.0 * math.pi, 1e-300, -1e-300]
    angles = [(t, p) for t in special for p in special]
    angles += rng.uniform(-10.0, 10.0, size=(5000, 2)).tolist()
    for tau, phi in angles:
        s = PureStateAngles(tau, phi)
        got, want = measure_pure(s), measure_pure_trig(s)
        for axis in "xyz":
            assert [p.hex() for p in got.axis(axis)] == [p.hex() for p in want.axis(axis)]


def test_pairs_sum_exactly_to_one(rng):
    for _ in range(1000):
        s = PureStateAngles(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
        t = measure_pure(s)
        for dist in (t.p, t.q, t.r):
            assert dist[0] + dist[1] == 1.0
            assert 0.0 <= dist[0] <= 1.0


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("sign", [1, -1])
def test_eigenstate_pattern(axis, sign):
    # exactly one deterministic distribution, the other two uniform
    t = measure_pure(pauli_eigenstate(axis, sign))
    deterministic = [n for n in "xyz" if max(t.axis(n).probs) > 1.0 - 1e-12]
    uniform = [n for n in "xyz" if abs(t.axis(n)[0] - 0.5) < 1e-12]
    assert deterministic == [axis]
    assert sorted(uniform) == sorted(n for n in "xyz" if n != axis)
    expected_index = 0 if sign > 0 else 1
    assert t.axis(axis)[expected_index] == pytest.approx(1.0, abs=1e-12)


def test_pure_flag_matches_norm():
    assert measure_pure(PureStateAngles(0.3, 1.0)).is_pure
    assert not measure_mixed(BlochVector(0.2, 0.1, 0.0)).is_pure


def test_clamp_accepts_rounding_rejects_bugs():
    # norm passes the ball check but the component exceeds 1 beyond 1e-15
    bad = BlochVector(1.0 + 2e-13, 0.0, 0.0)
    with pytest.raises(ValueError):
        measure_mixed(bad)


def test_triple_rejects_inconsistent_probabilities():
    det = ProbabilityDistribution((1.0, 0.0))
    with pytest.raises(ValueError):
        PauliTriple(det, det, det)


def test_triple_rejects_wrong_length():
    tri = ProbabilityDistribution((0.4, 0.3, 0.3))
    half = ProbabilityDistribution((0.5, 0.5))
    with pytest.raises(ValueError):
        PauliTriple(tri, half, half)


@given(
    tau=st.floats(0.0, math.pi / 2.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)
@settings(max_examples=300, deadline=None)
def test_property_bloch_norm_bound(tau, phi):
    t = measure_pure(PureStateAngles(tau, phi))
    assert t.bloch_norm_sq <= 1.0 + 1e-12
    assert t.is_pure
