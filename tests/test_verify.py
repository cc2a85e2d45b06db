import math

import numpy as np
import pytest

from pauli_uncertainty import bounds, cli, verify
from pauli_uncertainty.verify import (
    GridSpec,
    derivative_sign_check,
    grid_max_sum_pure,
    grid_min_sum,
    impurity_gap_scan,
    max_relative_gap,
    renyi_sums_from_components,
    sweep_band,
)

from _oracles import (
    derivative_sign_check_loop,
    entropic_sum_brute,
    neg_xlnx_masked,
    product_f_brute,
    scan_grid_exhaustive,
    tsallis_sums_two_pass,
)

TWO_LN2 = 2.0 * math.log(2.0)
QUARTER_PI = math.pi / 4.0


# ------------------------------------------------------------------ GridSpec


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 100)
    with pytest.raises(ValueError):
        GridSpec(100, 200_000)
    with pytest.raises(ValueError):
        GridSpec(100, 100, "everything")
    # the point limit holds for library callers too, not only the CLI
    assert GridSpec(100_000, verify.MAX_GRID_POINTS // 100_000).n_phi == 1000
    with pytest.raises(ValueError, match="points"):
        GridSpec(100_000, verify.MAX_GRID_POINTS // 100_000 + 1)
    with pytest.raises(ValueError, match="points"):
        GridSpec(100_000, 100_000, "full")


def test_grid_spec_axes():
    g = GridSpec(101, 51)
    assert g.tau_values()[0] == 0.0
    assert g.tau_values()[-1] == pytest.approx(QUARTER_PI, abs=1e-15)
    assert g.phi_values()[-1] == pytest.approx(QUARTER_PI, abs=1e-15)
    full = GridSpec(101, 64, "full")
    assert full.tau_values()[-1] == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert full.phi_values()[-1] < 2.0 * math.pi


# --------------------------------------------------------- vectorized sums


def test_vectorized_sums_match_scalar_oracle(rng):
    comps = rng.uniform(-0.57, 0.57, size=(200, 3))
    for alpha in (0.35, 1.0):
        got, _ = renyi_sums_from_components(alpha, comps[:, 0], comps[:, 1], comps[:, 2])
        for k in range(comps.shape[0]):
            want = entropic_sum_brute(alpha, *comps[k])
            assert got[k] == pytest.approx(want, abs=1e-12)


def test_neg_xlnx_matches_masked_reference(rng):
    p = rng.random((37, 53))
    # the smallest normal, the largest p below 1 and 0.5 -/+ one ulp too
    p[0, :8] = [0.0, 1.0, 5e-324, 0.5, float(np.finfo(float).tiny), 1.0 - 2.0**-53,
                math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]
    got = verify._neg_xlnx(p)
    want = neg_xlnx_masked(p)
    # compare bit patterns, so that +0.0 at p == 0 and -0.0 at p == 1 count
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert math.copysign(1.0, got[0, 0]) == 1.0
    assert math.copysign(1.0, got[0, 1]) == -1.0


@pytest.mark.parametrize("alpha", [1.1e-6, 0.3, 0.9999])
def test_renyi_sums_are_bitwise_even_in_the_bloch_vector(rng, alpha):
    # the impurity chain evaluates only +u: below order one, -u swaps the
    # two power terms of every axis and their one addition commutes
    u = rng.normal(size=(50_000, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    plus, _ = renyi_sums_from_components(alpha, u[:, 0], u[:, 1], u[:, 2])
    minus, _ = renyi_sums_from_components(alpha, -u[:, 0], -u[:, 1], -u[:, 2])
    assert np.array_equal(plus.view(np.int64), minus.view(np.int64))


def test_vectorized_tsallis_center():
    _, val = renyi_sums_from_components(0.5, 0.0, 0.0, 0.0, True)
    assert float(val) == pytest.approx(6.0 * (math.sqrt(2.0) - 1.0), abs=1e-12)


# ------------------------------------------------------------- grid minimum


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_grid_min_hits_lower_bound(alpha):
    report = grid_min_sum(alpha, GridSpec(201, 201))
    assert report.passed
    assert report.observed >= TWO_LN2 - 1e-12
    assert report.abs_error <= report.tolerance
    tau, phi = report.location
    step = QUARTER_PI / 200
    near_corner = (abs(tau) <= step or abs(tau - QUARTER_PI) <= step) and abs(phi) <= step
    assert near_corner


def test_grid_min_full_domain_agrees():
    g_d = GridSpec(200, 200)
    g_full = GridSpec(200, 200, "full")
    r_d = grid_min_sum(0.5, g_d)
    r_full = grid_min_sum(0.5, g_full)
    assert r_full.passed
    assert abs(r_d.observed - r_full.observed) <= r_d.tolerance + r_full.tolerance


def test_grid_min_rejects_bad_order():
    with pytest.raises(ValueError):
        grid_min_sum(1.2, GridSpec(51, 51))


def test_grid_min_near_one_conditioning():
    # just below the Shannon window the 1/(1 - alpha) factor amplifies
    # rounding of ln(power sum) to a few 1e-12; the violation budget must
    # absorb that without loosening the flat 1e-12 at ordinary orders
    report = grid_min_sum(1.0 - 1e-4, GridSpec(101, 101))
    assert report.passed
    assert abs(report.observed - TWO_LN2) < 1e-11


def test_grid_min_injected_claim_fails():
    report = grid_min_sum(0.5, GridSpec(101, 101), claimed=TWO_LN2 - 0.01)
    assert not report.passed


# ------------------------------------------------------------- grid maximum


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_grid_max_hits_ceiling(alpha):
    report = grid_max_sum_pure(alpha, GridSpec(201, 201))
    assert report.passed
    target = 3.0 * bounds.rho_hat(alpha)
    assert report.observed <= target + 1e-12
    assert target - report.observed <= report.tolerance
    # maximizer sits on the phi = pi/4 edge
    assert report.location[1] == pytest.approx(QUARTER_PI, abs=1e-12)


def test_grid_max_full_domain_agrees():
    r_d = grid_max_sum_pure(0.5, GridSpec(200, 200))
    r_full = grid_max_sum_pure(0.5, GridSpec(200, 200, "full"))
    assert r_full.passed
    assert abs(r_d.observed - r_full.observed) <= r_d.tolerance + r_full.tolerance


# ------------------------------------------------------------- determinism


def test_reports_are_deterministic_across_threads():
    g = GridSpec(301, 301)
    base_min = grid_min_sum(0.5, g)
    base_max = grid_max_sum_pure(0.5, g)
    for workers in (2, 3, 8):
        assert grid_min_sum(0.5, g, n_threads=workers) == base_min
        assert grid_max_sum_pure(0.5, g, n_threads=workers) == base_max
    assert grid_min_sum(0.5, g).as_line() == base_min.as_line()


@pytest.mark.parametrize("g", [GridSpec(150, 97), GridSpec(130, 64, "full")])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_scan_is_identical_for_any_chunking(monkeypatch, g, alpha):
    # any block side, including one point and one block past the grid, and
    # any batch budget, including one block per batch
    order = bounds.supported_order(alpha)
    results = []
    for block, batch_points in ((1, 131_072), (7, 49), (32, 131_072), (64, 8192), (g.n_tau, 1)):
        monkeypatch.setattr(verify, "_BLOCK", block)
        monkeypatch.setattr(verify, "_BATCH_POINTS", batch_points)
        results.append(verify._scan_grid.__wrapped__(order, g, 2, True))
    assert all(r == results[0] for r in results)
    assert results[0] == scan_grid_exhaustive(order, g, 1, True)


def _count_calls(monkeypatch, name):
    calls = []
    kernel = getattr(verify, name)

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(verify, name, counting)
    return calls


@pytest.mark.parametrize("domain", ["D", "full"])
def test_order_one_tsallis_maximum_comes_from_the_shannon_scan(monkeypatch, domain):
    # two -p ln p terms per axis, per bound pass and per evaluated batch,
    # with or without Tsallis, and no power sum
    order = bounds.supported_order(1.0)
    g = GridSpec(150, 97, domain)
    counts = []
    for want_tsallis in (False, True):
        with monkeypatch.context() as m:
            terms = _count_calls(m, "_neg_xlnx")
            powers = _count_calls(m, "_power_sum")
            batches = _count_calls(m, "_scan_blocks")
            scan = verify._scan_grid.__wrapped__(order, g, 2, want_tsallis)
        assert len(terms) == 6 * (2 + len(batches))
        assert powers == []
        counts.append(len(terms))
    assert counts[0] == counts[1]
    assert scan.tsallis_maximum == scan.maximum


@pytest.mark.parametrize("want_tsallis", [False, True])
def test_scan_evaluates_each_power_sum_once_per_batch(monkeypatch, want_tsallis):
    # one per axis for each of the two bound passes and each evaluated batch
    powers = _count_calls(monkeypatch, "_power_sum")
    batches = _count_calls(monkeypatch, "_scan_blocks")
    order = bounds.supported_order(0.5)
    verify._scan_grid.__wrapped__(order, GridSpec(150, 97), 1, want_tsallis)
    assert len(batches) >= 2
    assert len(powers) == 3 * (2 + len(batches))


@pytest.mark.parametrize("domain", ["D", "full"])
@pytest.mark.parametrize("alpha", [1.1e-6, 0.2, 0.5, 0.9999, 1.0])
def test_tsallis_maximum_matches_the_two_pass_oracle(domain, alpha):
    g = GridSpec(150, 97, domain)
    sin2t = np.sin(2.0 * g.tau_values())[:, None]
    x = sin2t * np.cos(g.phi_values())[None, :]
    y = sin2t * np.sin(g.phi_values())[None, :]
    z = np.cos(2.0 * g.tau_values())[:, None]
    want = np.max(tsallis_sums_two_pass(alpha, x, y, z))
    scan = verify._scan_grid.__wrapped__(bounds.supported_order(alpha), g, 2, True)
    assert scan.tsallis_maximum.hex() == float(want).hex()


def test_batches_follow_the_point_budget(monkeypatch):
    # whole 32 x 32 blocks, 16 to a batch of 16,384 points: after the
    # seed batch every batch but the last is full
    batches = _count_calls(monkeypatch, "_scan_blocks")
    verify._scan_grid.__wrapped__(bounds.supported_order(0.5), GridSpec(2001, 2001), 1, False)
    sizes = [blocks.size for _, _, _, blocks, _ in batches]
    assert verify._BLOCK == 32 and verify._BATCH_POINTS == 16_384
    assert sizes[0] <= 2 and len(sizes) >= 3
    assert set(sizes[1:-1]) == {16} and 1 <= sizes[-1] <= 16
    # a block above the budget still makes a batch of one block
    batches.clear()
    monkeypatch.setattr(verify, "_BLOCK", 256)
    verify._scan_grid.__wrapped__(bounds.supported_order(0.5), GridSpec(600, 600), 1, False)
    assert {blocks.size for _, _, _, blocks, _ in batches[1:]} == {1}


def _count_scans(monkeypatch):
    """Record the key of every call that misses the scan memo, so really scans."""
    cached = verify._scan_grid
    cached.cache_clear()
    keys = []

    def counting(order, g, n_threads, want_tsallis):
        misses = cached.cache_info().misses
        scan = cached(order, g, n_threads, want_tsallis)
        if cached.cache_info().misses > misses:
            keys.append((order.alpha, g, n_threads, want_tsallis))
        return scan

    monkeypatch.setattr(verify, "_scan_grid", counting)
    return keys


def test_verify_scans_each_order_and_grid_once(monkeypatch, capsys):
    keys = _count_scans(monkeypatch)
    code = cli.main(
        ["verify", "--alpha-range", "0.5:1.0:0.5", "--grid", "21x21", "--samples", "200", "--points", "16"]
    )
    capsys.readouterr()
    assert code == cli.EXIT_OK
    g = GridSpec(21, 21)
    # min and max share one scan per order; the sweep scans with Tsallis
    assert keys == [
        (0.5, g, 1, False),
        (1.0, g, 1, False),
        (1.0 - 1e-4, g, 1, False),
        (0.5, g, 1, True),
        (1.0, g, 1, True),
    ]


def test_scan_memo_misses_on_any_key_change(monkeypatch):
    keys = _count_scans(monkeypatch)
    half, three_quarters = bounds.supported_order(0.5), bounds.supported_order(0.75)
    g = GridSpec(21, 23)
    first = verify._scan_grid(half, g, 1, False)
    assert verify._scan_grid(bounds.supported_order(0.5), g, 1, False) is first
    assert len(keys) == 1
    verify._scan_grid(three_quarters, g, 1, False)
    verify._scan_grid(three_quarters, GridSpec(23, 21), 1, False)
    verify._scan_grid(three_quarters, GridSpec(23, 21), 2, False)
    verify._scan_grid(three_quarters, GridSpec(23, 21), 2, True)
    # a single entry: going back to the first key scans again
    assert verify._scan_grid(half, g, 1, False) == first
    assert len(keys) == 6


def test_grid_refinement_consistency():
    # the 2n-1 grid contains every point of the n grid
    coarse_min = grid_min_sum(0.5, GridSpec(101, 101)).observed
    fine_min = grid_min_sum(0.5, GridSpec(201, 201)).observed
    assert fine_min <= coarse_min + 1e-15
    coarse_max = grid_max_sum_pure(0.5, GridSpec(101, 101)).observed
    fine_max = grid_max_sum_pure(0.5, GridSpec(201, 201)).observed
    assert fine_max >= coarse_max - 1e-15


def test_report_line_format():
    report = grid_min_sum(0.5, GridSpec(51, 51))
    line = report.as_line()
    assert line.startswith("check=grid_min_sum alpha=0.5 claimed=")
    assert " passed=true" in line
    fields = dict(part.split("=", 1) for part in line.split())
    assert set(fields) == {"check", "alpha", "claimed", "observed", "err", "passed"}


# ------------------------------------------------------------------- sweep


def test_sweep_band_certificate():
    points, report = sweep_band([0.25, 0.5, 0.75, 1.0], GridSpec(201, 201))
    assert report.passed
    assert report.check == "band_sweep"
    assert len(points) == 4
    for pt in points:
        assert 2.0 / 3.0 <= pt.a_upper <= pt.b_upper <= 1.0
    gap, gap_alpha = max_relative_gap(points)
    assert gap_alpha == 0.5  # largest relative gap among these four orders
    assert gap == pytest.approx(0.02503174941258483, abs=1e-12)
    assert report.alpha == gap_alpha


def test_sweep_band_reports_applied_gate():
    # just below the Shannon window the per-order gate 4 eps / (1 - alpha)
    # exceeds VIOLATION_TOL, and the report must quote the gate it used
    _, report = sweep_band([0.9999], GridSpec(21, 21))
    eps = float(np.finfo(float).eps)
    assert report.tolerance == pytest.approx(4.0 * eps / 1e-4, rel=1e-6)
    assert report.tolerance > bounds.VIOLATION_TOL


def test_sweep_band_rejects_empty():
    with pytest.raises(ValueError):
        sweep_band([], GridSpec(51, 51))


# ---------------------------------------------------------------- impurity


def test_impurity_scan_strictly_positive():
    report = impurity_gap_scan(0.5, seed=11, count=20_000)
    assert report.passed
    assert report.observed > TWO_LN2
    assert report.seed == 11


def test_impurity_scan_deterministic():
    a = impurity_gap_scan(0.3, seed=5, count=5_000)
    b = impurity_gap_scan(0.3, seed=5, count=5_000)
    assert a == b


def test_impurity_scan_fails_on_a_broken_concavity_chain(monkeypatch):
    # negative control: 6 ln 2 - S keeps every mixed sum above 2 ln 2 but
    # reverses the chain, since mixing raises S above its eigenstates' S
    sums = verify.renyi_sums_from_components
    monkeypatch.setattr(
        verify, "renyi_sums_from_components", lambda *a: (3.0 * TWO_LN2 - sums(*a)[0], None)
    )
    report = impurity_gap_scan(0.5, seed=11, count=2_000)
    assert report.observed > TWO_LN2 and report.abs_error == 0.0
    assert not report.passed


def test_impurity_scan_rejects_order_one():
    with pytest.raises(ValueError):
        impurity_gap_scan(1.0, seed=1, count=10)


def test_diagonal_family_identity():
    # mixtures diagonal in a Pauli eigenbasis: the other two axes each
    # contribute exactly ln 2 and the diagonal axis the mixing entropy
    from pauli_uncertainty.distributions import renyi_entropy
    from pauli_uncertainty.pauli_measure import measure_mixed
    from pauli_uncertainty.qubit import BlochVector

    for alpha in (0.25, 0.5, 0.75):
        for lam in np.linspace(0.1, 0.9, 9):
            b = BlochVector(2.0 * float(lam) - 1.0, 0.0, 0.0)
            total = bounds.entropic_sum_renyi(measure_mixed(b), alpha)
            want = TWO_LN2 + renyi_entropy((float(lam), 1.0 - float(lam)), alpha)
            assert total == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------------- derivatives


# the orders near 0 and 1 once failed on a flat 1e-10 sign gate, below
# the rounding noise of a 1e-6 difference quotient
@pytest.mark.parametrize("alpha", [1.1e-6, 1e-5, 1e-4, 0.5, 0.9, 0.999, 0.999999])
def test_derivative_sign_check_passes(alpha):
    report = derivative_sign_check(alpha, 200)
    assert report.passed
    assert report.abs_error <= 1e-4
    assert report.claimed == pytest.approx(math.pi / 8.0, abs=1e-15)


def test_product_f_matches_brute_oracle_exactly(rng):
    for _ in range(2000):
        alpha = rng.uniform(1e-3, 1.0)
        tau = rng.uniform(0.0, math.pi / 2.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        assert verify._product_f(alpha, tau, phi) == product_f_brute(alpha, tau, phi)


@pytest.mark.parametrize("n_points", [1, 2, 50, 1000])
@pytest.mark.parametrize("alpha", [1.1e-6, 1e-4, 0.2, 0.25, 0.5, 0.8, 0.999])
def test_derivative_sign_check_matches_per_point_reference(alpha, n_points):
    assert derivative_sign_check(alpha, n_points) == derivative_sign_check_loop(alpha, n_points)


def test_product_f_on_arrays_within_8_ulp_of_oracle(rng):
    # array pow may round differently from libm's in the last bits
    tau = rng.uniform(0.0, math.pi / 2.0, size=(40, 1))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(1, 50))
    for alpha in (1e-3, 0.3, 0.77, 0.999):
        got = verify._product_f(alpha, tau, phi)
        assert got.shape == (40, 50)
        want = np.array(
            [[product_f_brute(alpha, t, p) for p in phi[0].tolist()] for t in tau[:, 0].tolist()]
        )
        assert np.all(np.abs(got - want) <= 8.0 * np.spacing(want))


@pytest.mark.parametrize("alpha", [1.1e-6, 0.25, 0.5, 0.999])
def test_derivative_sign_check_fails_for_reciprocal_product(monkeypatch, alpha):
    # negative control: 1 / f flips every derivative sign
    product = verify._product_f
    monkeypatch.setattr(verify, "_product_f", lambda a, t, p: 1.0 / product(a, t, p))
    assert not derivative_sign_check(alpha, 50).passed


@pytest.mark.parametrize("alpha", [1.1e-6, 0.5, 0.999999])
def test_tau_zero_differences_are_exactly_zero(alpha):
    # x and y are 0.0 at tau = 0 for every phi: both products are the same bits
    edge = np.linspace(0.01, QUARTER_PI - 0.01, 32)
    assert np.all(verify._fd(alpha, 0.0, edge, 0.0, 1.0) == 0.0)
    assert all(verify._fd(alpha, 0.0, p, 0.0, 1.0) == 0.0 for p in edge.tolist())


def test_derivative_sign_check_rejects_order_one():
    with pytest.raises(ValueError):
        derivative_sign_check(1.0, 100)


def test_derivative_sign_check_rejects_no_points():
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        derivative_sign_check(0.5, 0)
