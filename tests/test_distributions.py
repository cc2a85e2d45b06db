import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_uncertainty.distributions import (
    EntropyOrder,
    ProbabilityDistribution,
    alpha_log,
    as_order,
    phi_alpha,
    renyi_entropy,
    shannon_entropy,
    tsallis_entropy,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------- types


def test_distribution_rejects_negative_probability():
    with pytest.raises(ValueError):
        ProbabilityDistribution((1.1, -0.1))


def test_distribution_rejects_bad_normalization():
    with pytest.raises(ValueError):
        ProbabilityDistribution((0.5, 0.5 + 1e-9))


def test_distribution_rejects_empty():
    with pytest.raises(ValueError):
        ProbabilityDistribution(())


def test_distribution_accepts_singleton():
    dist = ProbabilityDistribution((1.0,))
    assert len(dist) == 1


def test_order_rejects_nonpositive():
    for bad in (0.0, -0.3, math.nan):
        with pytest.raises(ValueError):
            EntropyOrder(bad)


def test_order_one_flag_window():
    assert EntropyOrder(1.0).is_one
    assert EntropyOrder(1.0 - 5e-10).is_one
    assert not EntropyOrder(1.0 - 1e-8).is_one
    assert as_order(0.5).alpha == 0.5


# ------------------------------------------------------------ phi_alpha


def test_phi_uniform_half_order():
    assert phi_alpha([0.5, 0.5], 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_phi_deterministic_small_order():
    # 0**alpha = 0 for alpha > 0, so the deterministic value is exactly 1
    assert phi_alpha([1.0, 0.0], 0.3) == 1.0


def test_phi_against_compensated_sum_oracle():
    probs = (0.75, 0.25)
    expected = math.fsum(p**0.5 for p in probs)
    assert expected == pytest.approx(1.3660254037844386, abs=1e-12)
    assert phi_alpha(probs, 0.5) == pytest.approx(expected, abs=1e-15)


def test_phi_at_order_one_is_exactly_one():
    assert phi_alpha([0.3, 0.7], 1.0) == pytest.approx(1.0, abs=1e-15)


# ------------------------------------------------------- named entropies


def test_renyi_uniform_any_order():
    for alpha in (0.1, 0.5, 0.99, 1.0, 2.0):
        assert renyi_entropy([0.5, 0.5], alpha) == pytest.approx(LN2, abs=1e-12)


def test_renyi_deterministic_is_zero():
    assert renyi_entropy([1.0, 0.0], 0.7) == 0.0


def test_renyi_shannon_at_order_one_extremal_pair():
    s3 = 1.0 / math.sqrt(3.0)
    dist = ((1.0 + s3) / 2.0, (1.0 - s3) / 2.0)
    # brute-force Shannon sum; rescaled by ln 2 this is the 0.744 band endpoint
    expected = -math.fsum(p * math.log(p) for p in dist)
    assert expected == pytest.approx(0.5157067364635542, abs=1e-12)
    assert renyi_entropy(dist, 1.0) == pytest.approx(expected, abs=1e-15)
    assert expected / LN2 == pytest.approx(0.744, abs=1e-3)


def test_shannon_values():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-15)
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.9, 0.1]) == pytest.approx(0.3250829733914482, abs=1e-15)


def test_shannon_matches_renyi_limit():
    dist = (0.9, 0.1)
    for eps in (1e-6, -1e-6):
        assert renyi_entropy(dist, 1.0 + eps) == pytest.approx(
            shannon_entropy(dist), abs=1e-5
        )


def test_tsallis_values():
    assert tsallis_entropy([0.5, 0.5], 0.5) == pytest.approx(
        2.0 * (math.sqrt(2.0) - 1.0), abs=1e-15
    )
    assert tsallis_entropy([1.0, 0.0], 0.5) == 0.0
    s3 = 1.0 / math.sqrt(3.0)
    dist = ((1.0 + s3) / 2.0, (1.0 - s3) / 2.0)
    expected = (math.fsum(p**0.5 for p in dist) - 1.0) / 0.5
    assert expected == pytest.approx(0.6955493547161966, abs=1e-12)
    assert tsallis_entropy(dist, 0.5) == pytest.approx(expected, abs=1e-15)


def test_tsallis_maximum_is_alpha_log_of_n():
    for n in (2, 3, 5):
        uniform = [1.0 / n] * n
        for alpha in (0.2, 0.5, 0.8):
            assert tsallis_entropy(uniform, alpha) == pytest.approx(
                alpha_log(float(n), alpha), abs=1e-12
            )


def test_alpha_log_values():
    assert alpha_log(2.0, 1.0) == pytest.approx(LN2, abs=1e-15)
    assert alpha_log(1.0, 0.37) == 0.0
    assert alpha_log(2.0, 0.5) == pytest.approx(0.8284271247461903, abs=1e-15)
    with pytest.raises(ValueError):
        alpha_log(0.0, 0.5)


# ------------------------------------------------------------ invariants


def _random_distributions(rng, count, size=2, floor=0.0):
    draws = rng.dirichlet([1.0] * size, size=count)
    if floor > 0.0:
        draws = (draws + floor) / (1.0 + size * floor)
    return draws


def test_order_monotonicity_bulk(rng):
    # 1e4 random (p, alpha, beta) with alpha < beta
    dists = _random_distributions(rng, 10_000)
    alphas = rng.uniform(0.05, 3.0, size=10_000)
    betas = alphas + rng.uniform(0.01, 2.0, size=10_000)
    for dist, a, b in zip(dists, alphas, betas):
        assert renyi_entropy(dist, a) >= renyi_entropy(dist, b) - 1e-10
        assert phi_alpha(dist, a) >= phi_alpha(dist, b) - 1e-12


def test_concavity_bulk(rng):
    for _ in range(2000):
        p = rng.dirichlet([1.0, 1.0])
        q = rng.dirichlet([1.0, 1.0])
        lam = rng.uniform()
        alpha = rng.uniform(0.05, 0.95)
        mix = lam * p + (1.0 - lam) * q
        lhs = renyi_entropy(mix, alpha)
        rhs = lam * renyi_entropy(p, alpha) + (1.0 - lam) * renyi_entropy(q, alpha)
        assert lhs >= rhs - 1e-12


def test_continuity_at_order_one(rng):
    dists = _random_distributions(rng, 500, floor=1e-3)
    for dist in dists:
        h = shannon_entropy(dist)
        assert abs(renyi_entropy(dist, 1.0 + 1e-7) - h) <= 1e-5
        assert abs(renyi_entropy(dist, 1.0 - 1e-7) - h) <= 1e-5


def test_range_and_equality_cases(rng):
    n = 3
    dists = _random_distributions(rng, 500, size=n)
    for dist in dists:
        for alpha in (0.3, 1.0, 2.0):
            value = renyi_entropy(dist, alpha)
            assert -1e-12 <= value <= math.log(n) + 1e-12
    for alpha in (0.3, 1.0, 2.0):
        assert abs(renyi_entropy([1 / 3] * 3, alpha) - math.log(3)) <= 1e-12
        assert abs(renyi_entropy([0.0, 1.0, 0.0], alpha)) <= 1e-12


# -------------------------------------------------------- property tests


@st.composite
def distributions_2(draw):
    a = draw(st.floats(min_value=1e-6, max_value=1.0))
    b = draw(st.floats(min_value=1e-6, max_value=1.0))
    total = a + b
    return (a / total, b / total)


@given(dist=distributions_2(), alpha=st.floats(0.05, 0.95), beta=st.floats(1.05, 4.0))
@settings(max_examples=200, deadline=None)
def test_property_order_monotone(dist, alpha, beta):
    assert renyi_entropy(dist, alpha) >= renyi_entropy(dist, beta) - 1e-10


@given(
    dist=distributions_2(),
    other=distributions_2(),
    lam=st.floats(0.0, 1.0),
    alpha=st.floats(0.05, 0.95),
)
@settings(max_examples=200, deadline=None)
def test_property_concavity(dist, other, lam, alpha):
    mix = tuple(lam * p + (1.0 - lam) * q for p, q in zip(dist, other))
    lhs = renyi_entropy(mix, alpha)
    rhs = lam * renyi_entropy(dist, alpha) + (1.0 - lam) * renyi_entropy(other, alpha)
    assert lhs >= rhs - 1e-12
