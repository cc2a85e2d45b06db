"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
for passing criteria too.
"""

import math
import time

import numpy as np

from pauli_uncertainty import bounds, verify
from pauli_uncertainty.bounds import (
    band_bounds,
    big_f,
    check_lower,
    f_func,
    g_func,
    rho_hat,
    series_coeffs_f,
    series_coeffs_g,
    symmetry_reduce,
)
from pauli_uncertainty.distributions import renyi_entropy
from pauli_uncertainty.pauli_measure import measure_mixed, measure_pure
from pauli_uncertainty.qubit import (
    BlochVector,
    angles_to_bloch,
    pauli_eigenstate,
    sample_mixed,
    sample_pure,
)
from pauli_uncertainty.verify import (
    GridSpec,
    grid_max_sum_pure,
    grid_min_sum,
    renyi_sums_from_components,
)

from _oracles import product_f_brute

TWO_LN2 = 2.0 * math.log(2.0)
THREE_LN2 = 3.0 * math.log(2.0)
QUARTER_PI = math.pi / 4.0
ALPHAS = (0.25, 0.5, 0.75, 1.0)
BIG_GRID = GridSpec(2001, 2001)
SEED = 20240817


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_lower_bound_reproduction():
    worst_err = 0.0
    worst_time = 0.0
    locations_ok = True
    step = QUARTER_PI / (BIG_GRID.n_tau - 1)
    for alpha in ALPHAS:
        start = time.monotonic()
        report = grid_min_sum(alpha, BIG_GRID)
        elapsed = time.monotonic() - start
        worst_time = max(worst_time, elapsed)
        worst_err = max(worst_err, abs(report.observed - TWO_LN2))
        tau, phi = report.location
        near_corner = (
            min(abs(tau - 0.0), abs(tau - QUARTER_PI)) <= step and abs(phi) <= step
        )
        locations_ok = locations_ok and near_corner and report.passed
    ok = worst_err <= 1e-6 and locations_ok and worst_time < 30.0
    _verdict(
        1,
        "grid minimum of the entropic sum equals 2 ln 2 within 1e-6 at the corners",
        ok,
        f"worst |err|={worst_err:.3g}, worst time={worst_time:.2f}s",
    )


def test_criterion_02_upper_bound_reproduction():
    worst_err = 0.0
    structure_ok = True
    step = QUARTER_PI / (BIG_GRID.n_tau - 1)
    for alpha in ALPHAS:
        report = grid_max_sum_pure(alpha, BIG_GRID)
        target = 3.0 * rho_hat(alpha)
        worst_err = max(worst_err, target - report.observed)
        tau, phi = report.location
        u = math.cos(2.0 * tau)
        v = math.sin(2.0 * tau) / math.sqrt(2.0)
        structure_ok = structure_ok and report.passed
        structure_ok = structure_ok and abs(phi - QUARTER_PI) <= step
        structure_ok = structure_ok and abs(u * u + 2.0 * v * v - 1.0) <= 1e-9
        structure_ok = structure_ok and abs(u - v) <= 2.0 * step
        structure_ok = structure_ok and 0.0 <= target - report.observed <= 1e-6
    # independent closed-form oracle for the order-1/2 ceiling
    g_half = math.sqrt(1.0 + 1.0 / math.sqrt(3.0)) + math.sqrt(1.0 - 1.0 / math.sqrt(3.0))
    closed = 3.0 * 2.0 * math.log(2.0**-0.5 * g_half)
    closed_ok = abs(3.0 * rho_hat(0.5) - closed) <= 1e-12
    ok = worst_err <= 1e-6 and structure_ok and closed_ok
    _verdict(
        2,
        "grid maximum equals 3 rho_hat within 1e-6 on the diagonal edge",
        ok,
        f"worst gap={worst_err:.3g}, closed-form diff={abs(3.0 * rho_hat(0.5) - closed):.2g}",
    )


def test_criterion_03_band_endpoint():
    pt = band_bounds(1.0)
    ok = abs(pt.a_upper - pt.b_upper) <= 1e-9 and abs(pt.b_upper - 0.744) <= 1e-3
    _verdict(
        3,
        "band uppers coincide at order one near 0.744",
        ok,
        f"A=B={pt.b_upper:.9f}",
    )


def test_criterion_04_relative_gap_claim():
    alphas = [k / 1000.0 for k in range(1, 1001)]
    worst = -math.inf
    worst_alpha = math.nan
    for alpha in alphas:
        pt = band_bounds(alpha)
        gap = (pt.b_upper - pt.a_upper) / pt.b_upper
        if gap > worst:
            worst, worst_alpha = gap, alpha
    ok = worst <= 0.025
    _verdict(
        4,
        "relative gap (B-A)/B stays at or below 2.5% across the sweep",
        ok,
        f"max gap={worst:.6f} at alpha={worst_alpha:.3f}",
    )


def test_criterion_05_limit_behavior():
    alphas = [k / 1000.0 for k in range(1, 1001)]
    points = [band_bounds(a) for a in alphas]
    first = points[0]
    limits_ok = 0.999 < first.a_upper < 1.0 and 0.999 < first.b_upper < 1.0
    b_vals = [p.b_upper for p in points]
    a_vals = [p.a_upper for p in points]
    decreasing = all(
        b_vals[i] > b_vals[i + 1] and a_vals[i] > a_vals[i + 1]
        for i in range(len(points) - 1)
    )
    ok = limits_ok and decreasing
    _verdict(
        5,
        "both uppers approach 1 from below and decrease strictly in the order",
        ok,
        f"A(0.001)={first.a_upper:.6f}, B(0.001)={first.b_upper:.6f}",
    )


def test_criterion_06_saturation_iff_eigenstate():
    eigen_ok = True
    for alpha in ALPHAS:
        for axis in "xyz":
            for sign in (1, -1):
                report = check_lower(measure_pure(pauli_eigenstate(axis, sign)), alpha, 1e-8)
                eigen_ok = eigen_ok and report.kind == bounds.LOWER_SATURATED

    pure_states = sample_pure(SEED, 100_000)
    pure_b = np.array([[b.rx, b.ry, b.rz] for b in map(angles_to_bloch, pure_states)])
    mixed_b = sample_mixed(SEED + 1, 100_000)

    random_ok = True
    detail = []
    for alpha in ALPHAS:
        sums_pure, _ = renyi_sums_from_components(alpha, pure_b[:, 0], pure_b[:, 1], pure_b[:, 2])
        sums_mixed, _ = renyi_sums_from_components(alpha, mixed_b[:, 0], mixed_b[:, 1], mixed_b[:, 2])
        ceiling = 3.0 * rho_hat(alpha)
        no_violation = (
            bool(np.all(sums_pure >= TWO_LN2 - 1e-12))
            and bool(np.all(sums_pure <= ceiling + 1e-12))
            and bool(np.all(sums_mixed >= TWO_LN2 - 1e-12))
            and bool(np.all(sums_mixed <= THREE_LN2 + 1e-12))
        )
        no_false_saturation = (
            bool(np.all(sums_pure > TWO_LN2 + 1e-8))
            and bool(np.all(sums_pure < ceiling - 1e-8))
            and bool(np.all(sums_mixed > TWO_LN2 + 1e-8))
        )
        random_ok = random_ok and no_violation and no_false_saturation
        detail.append(f"a={alpha}: min gap={float(np.min(sums_pure)) - TWO_LN2:.3g}")
    ok = eigen_ok and random_ok
    _verdict(
        6,
        "all six eigenstates saturate; 2x1e5 random states show no false "
        "saturations or bound violations",
        ok,
        "; ".join(detail[:2]),
    )


def test_criterion_07_impure_strictness():
    ok = True
    worst = 0.0
    axes_units = {
        "x": (1.0, 0.0, 0.0),
        "y": (0.0, 1.0, 0.0),
        "z": (0.0, 0.0, 1.0),
    }
    for alpha in ALPHAS:
        for unit in axes_units.values():
            for lam in np.arange(0.05, 0.951, 0.05):
                lam = float(lam)
                scale = 2.0 * lam - 1.0
                b = BlochVector(scale * unit[0], scale * unit[1], scale * unit[2])
                total = bounds.entropic_sum_renyi(measure_mixed(b), alpha)
                want = TWO_LN2 + renyi_entropy((lam, 1.0 - lam), alpha)
                err = abs(total - want)
                worst = max(worst, err)
                ok = ok and err <= 1e-12
                gap = total - TWO_LN2
                if abs(lam - 0.0) > 1e-12 and abs(lam - 1.0) > 1e-12:
                    ok = ok and gap > 0.0
    _verdict(
        7,
        "diagonal families obey sum = 2 ln 2 + mixing entropy with positive gap",
        ok,
        f"worst identity error={worst:.2g}",
    )


def test_criterion_08_series_machinery():
    positive_ok = True
    for alpha in np.arange(0.1, 0.91, 0.1):
        alpha = float(alpha)
        positive_ok = positive_ok and all(c > 0.0 for c in series_coeffs_f(alpha, 50))
        positive_ok = positive_ok and all(c > 0.0 for c in series_coeffs_g(alpha, 50))

    series_ok = True
    worst = 0.0
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        cf = series_coeffs_f(alpha, 20)
        cg = series_coeffs_g(alpha, 20)
        for u in np.linspace(0.0, 0.3, 61):
            u = float(u)
            f_series = 2.0 * (1.0 - alpha) + sum(
                c * u ** (2 * (k + 1)) for k, c in enumerate(cf)
            )
            g_series = 2.0 - 2.0 * sum(c * u ** (2 * (k + 1)) for k, c in enumerate(cg))
            err = max(abs(f_series - f_func(u, alpha)), abs(g_series - g_func(u, alpha)))
            worst = max(worst, err)
            series_ok = series_ok and err <= 1e-10

    rng = np.random.default_rng(SEED)
    ratio_ok = True
    for _ in range(1000):
        alpha = float(rng.uniform(0.05, 0.95))
        u, v = sorted(rng.uniform(0.0, 0.999, size=2).tolist())
        if v - u < 1e-12:
            continue
        ratio_ok = ratio_ok and (
            f_func(u, alpha) / g_func(u, alpha) < f_func(v, alpha) / g_func(v, alpha)
        )
    ok = positive_ok and series_ok and ratio_ok
    _verdict(
        8,
        "series coefficients positive, series match closed forms, f/g ratio monotone",
        ok,
        f"worst series error={worst:.2g}",
    )


def test_criterion_09_derivative_signs():
    ok = True
    details = []
    for alpha in (0.3, 0.6, 0.9):
        report = verify.derivative_sign_check(alpha, 1000)
        ok = ok and report.passed and report.abs_error <= 1e-4
        details.append(f"a={alpha}: crossing err={report.abs_error:.2g}")
    _verdict(9, "derivative sign pattern holds with the crossing at pi/8", ok, "; ".join(details))


def test_criterion_10_symmetry_reduction():
    taus = np.linspace(0.0, math.pi / 2.0, 200)
    phis = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
    invariance_ok = True
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9):
        for tau in taus.tolist():
            for phi in phis.tolist():
                reduced = symmetry_reduce(tau, phi)
                err = abs(big_f(reduced, alpha) - product_f_brute(alpha, tau, phi))
                worst = max(worst, err)
                invariance_ok = invariance_ok and err <= 1e-12

    extrema_ok = True
    for alpha in (0.1, 0.5, 0.9):
        g_d = GridSpec(200, 200)
        g_full = GridSpec(200, 200, "full")
        min_d = grid_min_sum(alpha, g_d)
        min_full = grid_min_sum(alpha, g_full)
        max_d = grid_max_sum_pure(alpha, g_d)
        max_full = grid_max_sum_pure(alpha, g_full)
        budget = min_d.tolerance + min_full.tolerance
        extrema_ok = extrema_ok and abs(min_d.observed - min_full.observed) <= budget
        extrema_ok = extrema_ok and abs(max_d.observed - max_full.observed) <= budget
    ok = invariance_ok and extrema_ok
    _verdict(
        10,
        "fold into the reduced rectangle preserves the product to 1e-12; "
        "full and reduced extrema agree",
        ok,
        f"worst invariance error={worst:.2g}",
    )
