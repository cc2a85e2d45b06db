import math
import sys

import numpy as np
import pytest

from pauli_uncertainty import bounds
from pauli_uncertainty.bounds import (
    BandPoint,
    DomainPoint,
    band_bounds,
    big_f,
    check_lower,
    check_upper,
    entropic_sum_renyi,
    entropic_sum_tsallis,
    f_func,
    g_func,
    h_hat,
    rho_hat,
    series_coeffs_f,
    series_coeffs_g,
    symmetry_reduce,
)
from pauli_uncertainty.distributions import ProbabilityDistribution
from pauli_uncertainty.pauli_measure import PauliTriple, measure_mixed, measure_pure
from pauli_uncertainty.qubit import BlochVector, PureStateAngles, pauli_eigenstate

from _oracles import product_f_brute

LN2 = math.log(2.0)
TWO_LN2 = 2.0 * LN2
THREE_LN2 = 3.0 * LN2
QUARTER_PI = math.pi / 4.0
INV_SQRT3 = 1.0 / math.sqrt(3.0)
TAU_STAR = math.acos(INV_SQRT3) / 2.0  # cos(2 tau*) = 1/sqrt(3)


def extremal_triple():
    return measure_pure(PureStateAngles(TAU_STAR, QUARTER_PI))


# ------------------------------------------------------------- entropic sums


def test_sum_at_eigenstate_is_two_ln2():
    for alpha in (0.2, 0.5, 0.9, 1.0):
        t = measure_pure(pauli_eigenstate("z", 1))
        assert entropic_sum_renyi(t, alpha) == pytest.approx(TWO_LN2, abs=1e-12)


def test_sum_at_center_is_three_ln2():
    t = measure_mixed(BlochVector(0.0, 0.0, 0.0))
    for alpha in (0.3, 1.0):
        assert entropic_sum_renyi(t, alpha) == pytest.approx(THREE_LN2, abs=1e-12)


def test_sum_at_extremal_state_hits_ceiling():
    t = extremal_triple()
    assert entropic_sum_renyi(t, 0.5) == pytest.approx(3.0 * rho_hat(0.5), abs=1e-10)
    assert entropic_sum_tsallis(t, 0.5) == pytest.approx(3.0 * h_hat(0.5), abs=1e-10)


def test_sums_reject_orders_outside_range():
    t = measure_pure(pauli_eigenstate("x", 1))
    for alpha in (1.5, 1e-7):
        with pytest.raises(ValueError):
            entropic_sum_renyi(t, alpha)
        with pytest.raises(ValueError):
            entropic_sum_tsallis(t, alpha)


def test_tsallis_equals_renyi_at_order_one():
    for state in (PureStateAngles(0.4, 1.0), PureStateAngles(1.2, 4.0)):
        t = measure_pure(state)
        assert entropic_sum_renyi(t, 1.0) == pytest.approx(
            entropic_sum_tsallis(t, 1.0), abs=1e-9
        )


def test_tsallis_sum_eigenstate_and_center():
    ln_half_2 = 2.0 * (math.sqrt(2.0) - 1.0)  # deformed log of 2 at order 1/2
    t = measure_pure(pauli_eigenstate("z", 1))
    assert entropic_sum_tsallis(t, 0.5) == pytest.approx(2.0 * ln_half_2, abs=1e-12)
    t = measure_mixed(BlochVector(0.0, 0.0, 0.0))
    assert entropic_sum_tsallis(t, 0.5) == pytest.approx(3.0 * ln_half_2, abs=1e-12)


# ------------------------------------------------------------------- big_f


def test_big_f_corner_values():
    for alpha in (0.25, 0.5, 0.75):
        want = 2.0 ** (2.0 * (1.0 - alpha))
        assert big_f(DomainPoint(0.0, 0.0), alpha) == pytest.approx(want, abs=1e-12)
        assert big_f(DomainPoint(QUARTER_PI, 0.0), alpha) == pytest.approx(want, abs=1e-12)


def test_big_f_extremal_value():
    # conditional maximum (2**(-alpha) g(1/sqrt3))**3 evaluated directly
    g = math.sqrt(1.0 + INV_SQRT3) + math.sqrt(1.0 - INV_SQRT3)
    want = (2.0**-0.5 * g) ** 3
    assert want == pytest.approx(2.4482280932819545, abs=1e-12)
    assert big_f(DomainPoint(TAU_STAR, QUARTER_PI), 0.5) == pytest.approx(want, abs=1e-12)


def test_big_f_rejects_order_one_and_outside():
    point = DomainPoint(0.2, 0.2)
    for alpha in (1.0, 1.2, 1e-8):
        with pytest.raises(ValueError):
            big_f(point, alpha)


def test_big_f_matches_exp_of_sum(rng):
    # exp((1 - alpha) * renyi sum) must reproduce the product identity
    for _ in range(300):
        point = DomainPoint(rng.uniform(0, QUARTER_PI), rng.uniform(0, QUARTER_PI))
        alpha = rng.uniform(0.05, 0.95)
        t = measure_pure(PureStateAngles(point.tau, point.phi))
        via_sum = math.exp((1.0 - alpha) * entropic_sum_renyi(t, alpha))
        assert big_f(point, alpha) == pytest.approx(via_sum, rel=1e-10)


def test_domain_point_validation():
    with pytest.raises(ValueError):
        DomainPoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        DomainPoint(0.0, QUARTER_PI + 0.01)


# ------------------------------------------------------------- f and g


def test_f_closed_form_value():
    want = ((0.4) ** -0.5 - (1.6) ** -0.5) / 0.6
    assert want == pytest.approx(1.3176156917368247, abs=1e-12)
    assert f_func(0.6, 0.5) == pytest.approx(want, abs=1e-14)


def test_f_origin_limit():
    for alpha in (0.25, 0.5, 0.9):
        assert f_func(0.0, alpha) == pytest.approx(2.0 * (1.0 - alpha), abs=1e-14)
    assert f_func(0.0, 1.0) == 0.0
    assert f_func(1e-9, 1.0) == 0.0


def test_f_rejects_pole_and_bad_arguments():
    with pytest.raises(ValueError):
        f_func(1.0, 0.5)
    with pytest.raises(ValueError):
        f_func(-0.2, 0.5)


def test_f_series_matches_closed_form():
    # 20-term series oracle rebuilt from the coefficients
    for alpha in (0.1, 0.5, 0.9):
        coeffs = series_coeffs_f(alpha, 20)
        for u in np.linspace(0.0, 0.3, 31):
            series = 2.0 * (1.0 - alpha) + sum(
                c * u ** (2 * (k + 1)) for k, c in enumerate(coeffs)
            )
            assert abs(series - f_func(float(u), alpha)) <= 1e-10


def test_f_matches_mpmath_within_rounding_bound():
    # 50-digit oracle on the naive difference quotient, with points on both
    # sides of 1e-4 and orders from just above the cutoff to just below 1
    mpmath = pytest.importorskip("mpmath")
    eps = sys.float_info.epsilon
    with mpmath.workdps(50):
        for alpha in (2e-6, 0.01, 0.5, 0.9, 0.999, 1.0 - 1e-7):
            a = mpmath.mpf(alpha)
            for u in (0.0, 1e-12, 9.999e-5, 1.001e-4, 0.5, 0.999999):
                x = mpmath.mpf(u)
                want = 2 * (1 - a) if u == 0.0 else ((1 - x) ** (a - 1) - (1 + x) ** (a - 1)) / x
                # rounding of (1+u)**(alpha-1) * expm1(z) / u, z = 2(1-alpha) atanh u:
                # z carries <= 3 eps (1 - alpha, atanh, one product), which
                # expm1 amplifies by kappa = z e^z / expm1(z) and adds 1 eps;
                # the power adds 1.5 eps and the product and quotient 1 eps
                z = 2.0 * (1.0 - alpha) * math.atanh(u)
                kappa = z * math.exp(z) / math.expm1(z) if z > 0.0 else 1.0
                bound = (3.0 * kappa + 3.5) * eps * abs(want)
                assert abs(f_func(u, alpha) - want) <= bound, (alpha, u)


def test_f_monotone_increasing(rng):
    for _ in range(500):
        alpha = rng.uniform(0.05, 0.95)
        u, v = sorted(rng.uniform(0.0, 0.999, size=2))
        if u == v:
            continue
        assert f_func(u, alpha) <= f_func(v, alpha) + 1e-12


def test_g_values_and_monotonicity(rng):
    assert g_func(0.0, 0.3) == 2.0
    assert g_func(1.0, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert g_func(INV_SQRT3, 0.5) == pytest.approx(1.906041227742845, abs=1e-12)
    for _ in range(500):
        alpha = rng.uniform(0.05, 0.95)
        u, v = sorted(rng.uniform(0.0, 1.0, size=2))
        assert g_func(u, alpha) >= g_func(v, alpha) - 1e-12


def test_g_series_matches_closed_form():
    for alpha in (0.1, 0.5, 0.9):
        coeffs = series_coeffs_g(alpha, 20)
        for u in np.linspace(0.0, 0.3, 31):
            series = 2.0 - 2.0 * sum(
                c * u ** (2 * (k + 1)) for k, c in enumerate(coeffs)
            )
            assert abs(series - g_func(float(u), alpha)) <= 1e-10


def test_ratio_f_over_g_monotone(rng):
    for _ in range(1000):
        alpha = rng.uniform(0.05, 0.95)
        u, v = sorted(rng.uniform(0.0, 0.999, size=2))
        if v - u < 1e-12:
            continue
        assert f_func(u, alpha) / g_func(u, alpha) < f_func(v, alpha) / g_func(v, alpha)


# --------------------------------------------------------- series coefficients


def _binom_gamma(top: float, k: int) -> float:
    # generalized binomial via log-gamma, an independent route
    return math.exp(
        math.lgamma(top + 1.0) - math.lgamma(k + 1.0) - math.lgamma(top - k + 1.0)
    )


def test_series_coeff_f_first_value():
    assert series_coeffs_f(0.5, 1)[0] == pytest.approx(0.625, abs=1e-15)


def test_series_coeff_g_first_value():
    assert series_coeffs_g(0.5, 1)[0] == pytest.approx(0.125, abs=1e-15)


def test_series_coeffs_against_gamma_oracle():
    for alpha in (0.1, 0.5, 0.9):
        cf = series_coeffs_f(alpha, 12)
        cg = series_coeffs_g(alpha, 12)
        for k in range(1, 13):
            want_f = 2.0 * _binom_gamma(2 * k + 1 - alpha, 2 * k + 1)
            assert cf[k - 1] == pytest.approx(want_f, rel=1e-12)
            # c_2k = -binom(alpha, 2k), rebuilt from the product form
            prod = alpha
            for j in range(1, 2 * k):
                prod *= j - alpha
            want_g = prod / math.factorial(2 * k)
            assert cg[k - 1] == pytest.approx(want_g, rel=1e-12)


def test_series_coeffs_positive():
    # at k_max = 200 a factorial-based build ends in 0.0 and then nan
    for k_max in (50, 200):
        for alpha in np.linspace(0.05, 0.95, 19):
            for coeffs in (series_coeffs_f(float(alpha), k_max), series_coeffs_g(float(alpha), k_max)):
                assert all(math.isfinite(c) and c > 0.0 for c in coeffs)


def test_series_coeffs_vanish_toward_order_one():
    assert series_coeffs_f(1.0 - 1e-6, 3)[0] < 1e-5
    assert series_coeffs_g(1.0, 3) == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


# ------------------------------------------------------------ rho_hat / h_hat


def test_rho_hat_values():
    assert rho_hat(0.5) == pytest.approx(0.596909690446534, abs=1e-12)
    assert rho_hat(1.0) == pytest.approx(0.5157067364635542, abs=1e-12)
    # closed form cross-check through g
    g = math.sqrt(1.0 + INV_SQRT3) + math.sqrt(1.0 - INV_SQRT3)
    assert 3.0 * rho_hat(0.5) == pytest.approx(6.0 * math.log(2.0**-0.5 * g), abs=1e-12)


def test_h_hat_values():
    assert h_hat(0.5) == pytest.approx(0.6955493547161966, abs=1e-12)
    assert h_hat(1.0) == pytest.approx(rho_hat(1.0), abs=1e-15)
    # approaches 1 from below when the order goes to 0+
    assert 0.998 < h_hat(0.001) < 1.0


def test_band_bounds_endpoint():
    pt = band_bounds(1.0)
    assert pt.a_upper == pytest.approx(pt.b_upper, abs=1e-12)
    assert pt.b_upper == pytest.approx(0.744, abs=1e-3)
    assert pt.lower == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_band_bounds_small_order():
    pt = band_bounds(0.01)
    assert pt.b_upper == pytest.approx(0.9970772368726861, abs=1e-12)
    assert pt.a_upper == pytest.approx(0.9959646599764025, abs=1e-12)
    assert pt.b_upper > 0.99 and pt.a_upper > 0.99


def test_band_relative_gap_at_half():
    pt = band_bounds(0.5)
    gap = (pt.b_upper - pt.a_upper) / pt.b_upper
    # direct evaluation; the often-quoted 2.5% ceiling is already exceeded
    # by a whisker at this order
    assert gap == pytest.approx(0.02503174941258483, abs=1e-12)


def test_band_gap_peak_location():
    alphas = [k / 1000.0 for k in range(1, 1001)]
    gaps = [(a, (lambda p: (p.b_upper - p.a_upper) / p.b_upper)(band_bounds(a))) for a in alphas]
    peak_alpha, peak = max(gaps, key=lambda t: t[1])
    assert peak_alpha == pytest.approx(0.470, abs=1e-12)
    assert peak == pytest.approx(0.0251231492929, abs=1e-10)


def test_band_ordering_and_monotonicity():
    alphas = np.linspace(0.001, 1.0, 1000)
    b_vals = []
    a_vals = []
    for alpha in alphas:
        pt = band_bounds(float(alpha))
        assert 2.0 / 3.0 <= pt.a_upper <= pt.b_upper <= 1.0 + 1e-15
        b_vals.append(pt.b_upper)
        a_vals.append(pt.a_upper)
    assert all(b_vals[i] > b_vals[i + 1] for i in range(len(b_vals) - 1))
    assert all(a_vals[i] > a_vals[i + 1] for i in range(len(a_vals) - 1))


def test_band_point_validation():
    with pytest.raises(ValueError):
        BandPoint(alpha=0.5, lower=2 / 3, b_upper=0.8, a_upper=0.9)


# ---------------------------------------------------------- symmetry reduction


def test_symmetry_reduce_identity_inside_domain():
    got = symmetry_reduce(0.3, 0.2)
    assert (got.tau, got.phi) == (0.3, 0.2)


def test_symmetry_reduce_explicit_example():
    got = symmetry_reduce(math.pi / 3.0, 3.0 * math.pi / 2.0)
    assert got.tau == pytest.approx(math.pi / 6.0, abs=1e-15)
    assert got.phi == pytest.approx(0.0, abs=1e-15)


def test_symmetry_reduce_upper_quadrant_phi():
    # phi in (pi/4, pi/2] swaps the x and y axes
    got = symmetry_reduce(0.3, 0.4)
    assert (got.tau, got.phi) == (0.3, 0.4)
    got = symmetry_reduce(0.3, 1.0)
    assert got.phi == pytest.approx(math.pi / 2.0 - 1.0, abs=1e-15)


def test_symmetry_reduce_preserves_product():
    # grid over the full angle domain; the acceptance suite runs the same
    # check at 200x200. Random points arbitrarily close to the poles are
    # excluded on purpose: d(x**alpha)/dx diverges at x = 0, so the last
    # float ulp of an outcome probability near 0 moves the product by more
    # than 1e-12 there.
    taus = np.linspace(0.0, math.pi / 2.0, 60)
    phis = np.linspace(0.0, 2.0 * math.pi, 60, endpoint=False)
    for alpha in (0.3, 0.7):
        worst = 0.0
        for tau in taus.tolist():
            for phi in phis.tolist():
                reduced = symmetry_reduce(tau, phi)
                direct = product_f_brute(alpha, tau, phi)
                worst = max(worst, abs(big_f(reduced, alpha) - direct))
        assert worst <= 1e-12


def test_symmetry_reduce_rejects_bad_tau():
    with pytest.raises(ValueError):
        symmetry_reduce(2.0, 0.0)


# ------------------------------------------------------------- saturation


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("sign", [1, -1])
def test_check_lower_saturated_at_eigenstates(axis, sign):
    t = measure_pure(pauli_eigenstate(axis, sign))
    report = check_lower(t, 0.7)
    assert report.kind == bounds.LOWER_SATURATED
    assert report.witness_axis == axis
    assert report.gap <= 1e-8


def test_check_lower_near_eigenstate_saturates_cleanly():
    # gap below tol certifies the uniform axes only to sqrt(tol): this
    # state sits 1e-5 off |0> with gap ~2e-9 and must not be flagged as a
    # bound violation
    t = measure_pure(PureStateAngles(1e-5, 0.3))
    report = check_lower(t, 1.0)
    assert report.kind == bounds.LOWER_SATURATED
    assert report.witness_axis == "z"
    assert 0.0 < report.gap <= 1e-8


def test_check_lower_center_gap():
    t = measure_mixed(BlochVector(0.0, 0.0, 0.0))
    report = check_lower(t, 0.5)
    assert report.kind == bounds.INTERIOR
    assert report.gap == pytest.approx(LN2, abs=1e-12)


def test_check_lower_diagonal_mixture_strictly_interior():
    t = measure_mixed(BlochVector(0.5, 0.0, 0.0))
    report = check_lower(t, 0.5)
    assert report.kind == bounds.INTERIOR
    assert report.gap > 0.0


def test_check_upper_saturated_at_extremal_state():
    for alpha in (0.25, 0.5, 1.0):
        report = check_upper(extremal_triple(), alpha)
        assert report.kind == bounds.UPPER_SATURATED
        assert report.gap <= 1e-8


def test_check_upper_interior_at_eigenstate():
    report = check_upper(measure_pure(pauli_eigenstate("z", 1)), 0.5)
    assert report.kind == bounds.INTERIOR
    assert report.gap == pytest.approx(3.0 * rho_hat(0.5) - TWO_LN2, abs=1e-12)


def test_check_upper_rejects_mixed_states():
    with pytest.raises(ValueError):
        check_upper(measure_mixed(BlochVector(0.0, 0.0, 0.0)), 0.5)


# z deterministic to within the 1e-12 gate, x 1.1e-6 off 1/2 and so beyond
# sqrt(gate) = 1e-6; the squared Bloch norm stays below 1 + 1e-12
_OFF_UNIFORM = PauliTriple(
    p=ProbabilityDistribution((0.5 + 1.1e-6, 0.5 - 1.1e-6)),
    q=ProbabilityDistribution((0.5, 0.5)),
    r=ProbabilityDistribution((1.0 - 1e-12, 1e-12)),
)
_Z_PLUS = measure_pure(pauli_eigenstate("z", 1))
_CENTER = measure_mixed(BlochVector(0.0, 0.0, 0.0))
# 2**-20 is exact against both bounds, so the printed gap is too
_EXCESS = 2.0**-20


@pytest.mark.parametrize(
    "check, excess, triple, message",
    [
        (check_lower, -_EXCESS, _Z_PLUS, "entropic sum undercuts 2 ln 2 by 9.5367431640625e-07"),
        (check_lower, 0.0, _CENTER, "saturated lower bound without a deterministic axis"),
        (check_lower, 0.0, _OFF_UNIFORM, "saturated lower bound without two uniform axes"),
        (check_upper, _EXCESS, _Z_PLUS, "entropic sum exceeds the pure-state ceiling by 9.5367431640625e-07"),
        (check_upper, 0.0, _Z_PLUS, "saturated upper bound without the extremal outcome pair"),
    ],
)
def test_checks_raise_bound_violation(monkeypatch, check, excess, triple, message):
    bound = TWO_LN2 if check is check_lower else 3.0 * rho_hat(0.5)
    monkeypatch.setattr(bounds, "entropic_sum_renyi", lambda t, a: bound + excess)
    with pytest.raises(bounds.BoundViolationError) as info:
        check(triple, 0.5, 0.0)
    assert str(info.value) == message


def test_random_states_respect_both_bounds(rng):
    from pauli_uncertainty.qubit import sample_mixed, sample_pure

    for alpha in (0.25, 0.5, 1.0):
        for s in sample_pure(3, 500):
            t = measure_pure(s)
            low = check_lower(t, alpha)
            up = check_upper(t, alpha)
            assert low.kind in (bounds.LOWER_SATURATED, bounds.INTERIOR)
            assert up.kind in (bounds.UPPER_SATURATED, bounds.INTERIOR)
        for rx, ry, rz in sample_mixed(4, 500).tolist():
            report = check_lower(measure_mixed(BlochVector(rx, ry, rz)), alpha)
            assert report.gap >= 0.0
