"""Brute-force re-derivation of every claimed extremum and band property.

The grid, sampling and finite-difference scans here recompute entropies
and power sums from first principles (outcome probabilities, powers,
logarithms) in vectorized numpy, without reusing the closed forms of
:mod:`.bounds` except as comparison targets. Reductions run in fixed index
order, so reports are byte-identical for any block size, batching or
thread count.

A grid scan finds the exact grid extrema, the same values and flat
indices as evaluating every point, by evaluating only the blocks of grid
points that can hold one: each axis's entropy falls as |c| grows, so cheap
bounds per block rule out the rest (interval branch and bound; Hansen and
Walster, Global Optimization Using Interval Analysis, 2004). One scan yields
the minimum and the maximum, and it is memoized on its last (order, grid,
threads, Tsallis) key, so the minimum and maximum reports for one (order,
grid) share a single scan; the band sweep's Tsallis maximum is read off
the power sums of that scan's Renyi pass. A scan evaluates batches of
whole blocks of at most _BATCH_POINTS points, so the memory of its
temporaries per thread does not grow with the grid. A grid holds at most
MAX_GRID_POINTS points.

The impurity scan evaluates the pure-state sums once per sample: the two
spectral eigenstates of a mixed state are antipodal, and their sums agree.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import bounds
from .distributions import EntropyOrder, OrderLike, alpha_log, as_order
from .qubit import sample_mixed

_EPS = float(np.finfo(float).eps)

#: Auto extremum tolerance = this factor times the squared largest grid
#: step; the sum's curvature stays below ~2 per squared radian, so the
#: factor 4 leaves a wide margin while meeting 1e-6 on a 2001-point axis.
EXTREMUM_TOL_FACTOR = 4.0

#: Upper limit of n_tau * n_phi of a GridSpec. On one thread of a 2-core
#: Intel Xeon (numpy 2.4) a scan of 10000 x 10000 points takes 0.07-0.11 s
#: at order 0.5 and 0.14-0.21 s at order one, at a peak RSS of 38 MB (29 MB
#: of it the import). Blocks enclose an anisotropic grid loosely: a
#: 1000 x 100000 "full" grid at order one evaluates 63% of its points in
#: 2.7-2.9 s, at a peak RSS of 46 MB.
MAX_GRID_POINTS = 10**8

_FD_STEP = 1e-6          # central-difference step for derivative checks

#: Side of the square blocks of grid points that a scan bounds, and then
#: evaluates whole or not at all.
_BLOCK = 32

#: A batch of blocks holds at most this many grid points (and at least one
#: block), so the memory of its temporaries per thread stays flat however
#: large the grid is: 128 KB per array, as fast per point as larger batches.
_BATCH_POINTS = 16_384

#: Per domain: tau's upper end, phi's upper end, whether phi's end is a grid point.
_DOMAINS = {
    "D": (math.pi / 4.0, math.pi / 4.0, True),
    "full": (math.pi / 2.0, 2.0 * math.pi, False),
}


@dataclass(frozen=True)
class GridSpec:
    """Resolution and domain of a verification grid.

    Domain "D" is the reduced rectangle [0, pi/4] x [0, pi/4] with both
    endpoints included; "full" is [0, pi/2] x [0, 2 pi) with the periodic
    phi endpoint excluded.
    """

    n_tau: int
    n_phi: int
    domain: str = "D"

    def __post_init__(self) -> None:
        for n in (self.n_tau, self.n_phi):
            if not (2 <= n <= 100_000):
                raise ValueError(f"grid resolution {n!r} outside [2, 1e5]")
        if self.n_tau * self.n_phi > MAX_GRID_POINTS:
            raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")
        if self.domain not in _DOMAINS:
            raise ValueError(f"domain must be 'D' or 'full', got {self.domain!r}")

    def tau_values(self) -> np.ndarray:
        return np.linspace(0.0, _DOMAINS[self.domain][0], self.n_tau)

    def phi_values(self) -> np.ndarray:
        _, phi_hi, closed = _DOMAINS[self.domain]
        return np.linspace(0.0, phi_hi, self.n_phi, endpoint=closed)

    @property
    def max_step(self) -> float:
        tau_hi, phi_hi, closed = _DOMAINS[self.domain]
        d_tau = tau_hi / (self.n_tau - 1)
        d_phi = phi_hi / (self.n_phi - 1 if closed else self.n_phi)
        return max(d_tau, d_phi)

    def default_extremum_tol(self) -> float:
        return EXTREMUM_TOL_FACTOR * self.max_step**2


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one brute-force check against a claimed value."""

    check: str
    alpha: float
    claimed: float
    observed: float
    abs_error: float
    tolerance: float
    passed: bool
    location: Optional[tuple[float, float]] = None
    grid: Optional[GridSpec] = None
    seed: Optional[int] = None

    def as_line(self) -> str:
        """Key=value line in the format consumed by the CLI."""
        return (
            f"check={self.check} alpha={self.alpha:.12g} claimed={self.claimed:.12g} "
            f"observed={self.observed:.12g} err={self.abs_error:.12g} "
            f"passed={'true' if self.passed else 'false'}"
        )


def _neg_xlnx(p: np.ndarray) -> np.ndarray:
    # p lies in [0, 1]. The clamp to the smallest subnormal passes every
    # p > 0 through unchanged, and at p == 0 gives ln(5e-324) * -0.0 =
    # +0.0: exactly the 0 ln 0 = 0 convention, with no mask
    return np.log(np.maximum(p, 5e-324)) * -p


def _trig(tau, phi):
    """(sin 2tau, cos 2tau, cos phi, sin phi): the factors of the Bloch components."""
    return np.sin(2.0 * tau), np.cos(2.0 * tau), np.cos(phi), np.sin(phi)


def _components(sin2t, cos2t, cos_phi, sin_phi):
    """Bloch components (sin 2tau cos phi, sin 2tau sin phi, cos 2tau), floats or arrays."""
    return sin2t * cos_phi, sin2t * sin_phi, cos2t


def _power_sum(alpha: float, c):
    """Per-axis power sum ((1 + c)/2)**alpha + ((1 - c)/2)**alpha.

    Plain operators only, so c may be a numpy array or a Python float.
    """
    return ((1.0 + c) / 2.0) ** alpha + ((1.0 - c) / 2.0) ** alpha


def renyi_sums_from_components(
    a: OrderLike, x, y, z, want_tsallis: bool = False
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Renyi and, if asked, Tsallis entropic sums (renyi, tsallis or None).

    Accepts broadcastable arrays of the three components; probabilities are
    (1 +/- c)/2 per axis, powers and logs are taken directly. With
    want_tsallis each axis's power sums feed both sums: one power pass.
    Without it they stay unnamed and are freed once their logarithm is
    taken. At order one both sums are the Shannon sums, one array.
    """
    order = as_order(a)
    x, y, z = np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)
    # 0.0 + v gives a zero buffer's bits; the terms set the broadcast shape
    renyi = 0.0
    if order.is_one:
        for comp in (x, y, z):
            renyi = renyi + _neg_xlnx((1.0 + comp) / 2.0) + _neg_xlnx((1.0 - comp) / 2.0)
        return renyi, (renyi if want_tsallis else None)
    tsallis = 0.0 if want_tsallis else None
    for comp in (x, y, z):
        if want_tsallis:
            ps = _power_sum(order.alpha, comp)
            tsallis = tsallis + (ps - 1.0)
        renyi = renyi + np.log(ps if want_tsallis else _power_sum(order.alpha, comp))
    scale = 1.0 - order.alpha
    return renyi / scale, (tsallis / scale if want_tsallis else None)


@dataclass(frozen=True)
class _ScanResult:
    minimum: float
    min_index: int
    maximum: float
    max_index: int
    tsallis_maximum: float
    #: kernel evaluations made, a record of the work and not of the result
    points: int = field(compare=False)


def _kernel_margin(order: EntropyOrder) -> float:
    # Each sum the array kernel returns lies within E = 36 eps / (1 - alpha)
    # of the exact sum of its own float components (36 eps at order one),
    # with u = eps/2 and numpy's pow and log taken to be within 4 ulp:
    #  - Renyi, per axis: p = (1 +/- c)/2 carries u, p**alpha alpha u plus
    #    the pow's 8u, the power sum ps u more: 10u relative on ps, so 10u
    #    on ln ps (< ln 2), plus the log's 4 ulp <= 4u. Three axes and two
    #    additions of partial sums below 4 (2u each) give 46u = 23 eps,
    #    over 1 - alpha; 1 - alpha and the division add 2u relative to a
    #    sum below 3 ln 2. In all <= 25.1 eps / (1 - alpha).
    #  - Tsallis: ps - 1 is exact (Sterbenz), so 10u of ps < 2 is 20u per
    #    axis; three axes and two additions below 3 give 64u = 32 eps over
    #    1 - alpha, and the division 2u of a sum below 3: <= 35 eps / (1 - alpha).
    #  - Shannon: each -p ln p carries |p (1 + ln p)| u <= u from p, 8u/e
    #    from the log and u/e from the product, 4.4u; six terms and five
    #    additions below 4 (2u each) give 36.4u = 18.2 eps.
    # A point's computed sum is within E of its exact sum, which lies within
    # its block's exact bounds, and each computed bound is within E of its
    # exact bound. So a point's computed sum clears its block's computed
    # bounds by at most 2E: the margin.
    return 72.0 * _EPS / (1.0 if order.is_one else 1.0 - order.alpha)


def _block_components(trig):
    """Per block of the grid, the components of least and of largest magnitude.

    Returns (lo, hi), each an (x, y, z) triple over (row block, column
    block): x and y of that shape, z a column. Rounding is monotone, so
    fl(max|sin 2tau| max|cos phi|) bounds every computed |x| of the block,
    and likewise below; no order of the angles is assumed, so the "full"
    domain is covered too.
    """

    def ends(v):
        starts = np.arange(0, v.size, _BLOCK)
        return np.minimum.reduceat(v, starts), np.maximum.reduceat(v, starts)

    (s_lo, s_hi), (z_lo, z_hi), (cx_lo, cx_hi), (cy_lo, cy_hi) = (ends(np.abs(v)) for v in trig)
    lo = _components(s_lo[:, None], z_lo[:, None], cx_lo, cy_lo)
    hi = _components(s_hi[:, None], z_hi[:, None], cx_hi, cy_hi)
    return lo, hi


def _scan_blocks(order: EntropyOrder, trig, g: GridSpec, blocks, want_tsallis) -> _ScanResult:
    """Extrema of whole blocks, given by flat block index; ties to the lowest grid index."""
    sin2t, cos2t, cos_phi, sin_phi = trig
    col_blocks = -(-g.n_phi // _BLOCK)
    offsets = np.arange(_BLOCK)
    # a last row or column block short of _BLOCK repeats the grid's last
    # row or column: points with their own values and flat indices, so no
    # extremum and no tie changes
    rows = np.minimum(blocks[:, None] // col_blocks * _BLOCK + offsets, g.n_tau - 1)
    cols = np.minimum(blocks[:, None] % col_blocks * _BLOCK + offsets, g.n_phi - 1)
    # the z component depends on tau only: one (blocks, rows, 1) column,
    # which the kernel broadcasts, so its entropy term is evaluated once per row
    x, y, z = _components(
        sin2t[rows, None], cos2t[rows, None], cos_phi[cols[:, None]], sin_phi[cols[:, None]]
    )
    sums, tsallis = renyi_sums_from_components(order, x, y, z, want_tsallis)

    def lowest_index(value):
        k, i, j = np.nonzero(sums == value)
        return int(np.min(rows[k, i] * g.n_phi + cols[k, j]))

    low, high = float(np.min(sums)), float(np.max(sums))
    ts_max = float(np.max(tsallis)) if want_tsallis else -math.inf
    return _ScanResult(low, lowest_index(low), high, lowest_index(high), ts_max, sums.size)


@functools.lru_cache(maxsize=1)
def _scan_grid(order: EntropyOrder, g: GridSpec, n_threads: int, want_tsallis: bool) -> _ScanResult:
    """Exact grid extrema from the blocks that can hold them, memoized on its last key.

    The result is that of evaluating every grid point, ties going to the
    lowest flat index. The per-axis entropy of ((1 + c)/2, (1 - c)/2) is
    even in c and non-increasing in |c| (Schur concavity), so a block's
    sums lie between the kernel at its largest and at its least component
    magnitudes, and its Tsallis sums below the latter. A seed pass
    evaluates the blocks with the best bounds; then every block whose bound,
    widened by the kernel's rounding margin, reaches a seed extremum is
    evaluated, in batches of whole blocks on n_threads threads.

    One scan yields both extrema, so the minimum and maximum reports for
    the same (order, grid), asked for back to back, share it. The thread
    count stays in the key so that every thread count really scans. The
    memo keys on the arguments as passed: no defaults, all four positional.
    """
    trig = _trig(g.tau_values(), g.phi_values())
    lo, hi = _block_components(trig)
    lower, _ = renyi_sums_from_components(order, *hi)
    upper, ts_upper = renyi_sums_from_components(order, *lo, want_tsallis)
    seeds = [np.argmin(lower), np.argmax(upper)] + ([np.argmax(ts_upper)] if want_tsallis else [])
    seed = _scan_blocks(order, trig, g, np.unique(seeds), want_tsallis)
    margin = _kernel_margin(order)
    keep = (lower - margin <= seed.minimum) | (upper + margin >= seed.maximum)
    if want_tsallis:
        keep |= ts_upper + margin >= seed.tsallis_maximum
    ids = np.flatnonzero(keep)
    per_batch = max(1, _BATCH_POINTS // _BLOCK**2)
    batches = [ids[k : k + per_batch] for k in range(0, ids.size, per_batch)]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        partials = list(pool.map(lambda b: _scan_blocks(order, trig, g, b, want_tsallis), batches))
    # lexicographic (value, index) reduction keeps argmin/argmax independent
    # of the batching and of the thread count
    best_min = min(partials, key=lambda r: (r.minimum, r.min_index))
    best_max = min(partials, key=lambda r: (-r.maximum, r.max_index))
    ts_max = max(r.tsallis_maximum for r in partials)
    points = seed.points + sum(r.points for r in partials)
    return _ScanResult(
        best_min.minimum, best_min.min_index, best_max.maximum, best_max.max_index, ts_max, points
    )


def _grid_location(g: GridSpec, flat_index: int) -> tuple[float, float]:
    i, j = divmod(flat_index, g.n_phi)
    return (float(g.tau_values()[i]), float(g.phi_values()[j]))


def grid_min_sum(
    a: OrderLike,
    g: GridSpec,
    n_threads: int = 1,
    claimed: Optional[float] = None,
) -> VerificationReport:
    """Exact grid minimum of the Renyi entropic sum versus 2 ln 2, from a pruned scan.

    Passing requires the observed minimum to sit within the grid's
    extremum tolerance above the claim and never more than the rounding
    floor of the sum (bounds.rounding_floor) below it.
    """
    order = bounds.supported_order(a)
    tol = g.default_extremum_tol()
    target = bounds.TWO_LN2 if claimed is None else claimed
    scan = _scan_grid(order, g, n_threads, False)
    abs_error = abs(scan.minimum - target)
    passed = scan.minimum >= target - bounds.rounding_floor(order) and abs_error <= tol
    return VerificationReport(
        check="grid_min_sum",
        alpha=order.alpha,
        claimed=target,
        observed=scan.minimum,
        abs_error=abs_error,
        tolerance=tol,
        passed=passed,
        location=_grid_location(g, scan.min_index),
        grid=g,
    )


def grid_max_sum_pure(a: OrderLike, g: GridSpec, n_threads: int = 1) -> VerificationReport:
    """Exact grid maximum of the Renyi entropic sum versus 3 rho_hat, from a pruned scan.

    Alongside the value, the maximizer itself is certified: folded into the
    reduced rectangle it must sit on the phi = pi/4 edge within one grid
    step, satisfy u**2 + 2 v**2 = 1 to 1e-9, and carry outcome
    probabilities matching the balanced extremal pair up to swapping.
    """
    order = bounds.supported_order(a)
    tol = g.default_extremum_tol()
    target = 3.0 * bounds.rho_hat(order)
    scan = _scan_grid(order, g, n_threads, False)
    abs_error = abs(target - scan.maximum)
    value_ok = scan.maximum <= target + bounds.rounding_floor(order) and abs_error <= tol

    tau_loc, phi_loc = _grid_location(g, scan.max_index)
    reduced = bounds.symmetry_reduce(tau_loc, phi_loc)
    step = g.max_step
    u = math.cos(2.0 * reduced.tau)
    v = math.sin(2.0 * reduced.tau) / math.sqrt(2.0)
    probs_hi = (1.0 + v) / 2.0
    location_ok = (
        abs(reduced.phi - math.pi / 4.0) <= step
        and abs(u - v) <= 2.0 * step
        and abs(u * u + 2.0 * v * v - 1.0) <= 1e-9
        and abs(probs_hi - bounds.EXTREMAL_PAIR[0]) <= 2.0 * step
        and abs((1.0 + u) / 2.0 - bounds.EXTREMAL_PAIR[0]) <= 2.0 * step
    )
    return VerificationReport(
        check="grid_max_sum_pure",
        alpha=order.alpha,
        claimed=target,
        observed=scan.maximum,
        abs_error=abs_error,
        tolerance=tol,
        passed=value_ok and location_ok,
        location=(tau_loc, phi_loc),
        grid=g,
    )


def max_relative_gap(points: Sequence[bounds.BandPoint]) -> tuple[float, float]:
    """Largest (B - A) / B over a band sweep and the order where it peaks."""
    best_gap = -math.inf
    best_alpha = math.nan
    for pt in points:
        gap = (pt.b_upper - pt.a_upper) / pt.b_upper
        if gap > best_gap:
            best_gap = gap
            best_alpha = pt.alpha
    return best_gap, best_alpha


def sweep_band(
    alphas: Sequence[float],
    g: GridSpec,
    n_threads: int = 1,
) -> tuple[list[bounds.BandPoint], VerificationReport]:
    """Band points per order plus a grid certificate that both uppers hold.

    For every order the rescaled Renyi grid maximum must stay at or below
    B and the rescaled Tsallis grid maximum at or below A; the report's
    observed value is the worst excess found anywhere in the sweep (at or
    below zero when the bounds hold), and its tolerance is the largest
    per-order gate applied. The report's alpha field records
    where the relative gap between the two uppers peaks; the gap itself is
    recoverable from the returned points via :func:`max_relative_gap`.
    """
    if not alphas:
        raise ValueError("sweep needs at least one order")
    points = []
    worst_excess = -math.inf
    gate = bounds.VIOLATION_TOL
    passed = True
    for alpha in alphas:
        order = bounds.supported_order(alpha)
        pt = bounds.band_bounds(order)
        points.append(pt)
        scan = _scan_grid(order, g, n_threads, True)
        renyi_excess = scan.maximum / bounds.THREE_LN2 - pt.b_upper
        tsallis_excess = scan.tsallis_maximum / (3.0 * alpha_log(2.0, order)) - pt.a_upper
        worst_excess = max(worst_excess, renyi_excess, tsallis_excess)
        tol = bounds.rounding_floor(order)
        gate = max(gate, tol)
        passed = passed and max(renyi_excess, tsallis_excess) <= tol
    _, gap_alpha = max_relative_gap(points)
    return points, VerificationReport(
        check="band_sweep",
        alpha=gap_alpha,
        claimed=0.0,
        observed=worst_excess,
        abs_error=max(worst_excess, 0.0),
        tolerance=gate,
        passed=passed,
        grid=g,
    )


def impurity_gap_scan(a: OrderLike, seed: int, count: int) -> VerificationReport:
    """Strictness of the lower bound on mixed states, by random sampling.

    Samples Bloch vectors uniformly in the ball scaled to norm <= 0.999,
    requires every entropic sum to clear 2 ln 2 strictly, and checks the
    concavity chain sum(rho) >= lam+ sum(psi+) + lam- sum(psi-) on each
    sample's spectral decomposition. Both eigenstates carry the same sum,
    so the chain's right side is sum(psi+), evaluated once.
    """
    order = bounds.supported_order(a, allow_one=False)
    b = 0.999 * sample_mixed(seed, count)
    norms = np.linalg.norm(b, axis=1)
    sums_mixed, _ = renyi_sums_from_components(order, b[:, 0], b[:, 1], b[:, 2])

    # spectral eigenstates: the antipodal unit vectors +u and -u. Negating
    # u swaps each axis's outcome pair, so psi- has the sum of psi+ (bit
    # for bit at alpha < 1: the two power terms trade places and one
    # commutative addition sums them), and lam+ S + lam- S is S
    safe = np.where(norms > 1e-12, norms, 1.0)[:, None]
    unit = np.where(norms[:, None] > 1e-12, b / safe, np.array([[0.0, 0.0, 1.0]]))
    sums_pure, _ = renyi_sums_from_components(order, unit[:, 0], unit[:, 1], unit[:, 2])
    chain_ok = bool(np.all(sums_mixed >= sums_pure - bounds.VIOLATION_TOL))

    observed = float(np.min(sums_mixed))
    min_gap = observed - bounds.TWO_LN2
    passed = min_gap > 0.0 and chain_ok
    return VerificationReport(
        check="impurity_gap_scan",
        alpha=order.alpha,
        claimed=bounds.TWO_LN2,
        observed=observed,
        abs_error=max(0.0, -min_gap),
        tolerance=0.0,
        passed=passed,
        seed=seed,
    )


def _product_f(alpha: float, tau, phi):
    """Power-sum product from raw angles (floats or broadcastable arrays)."""
    x, y, z = _components(*_trig(tau, phi))
    return _power_sum(alpha, x) * _power_sum(alpha, y) * _power_sum(alpha, z)


def _fd(alpha: float, tau, phi, d_tau: float, d_phi: float):
    """Central difference along (d_tau, d_phi), (1, 0) or (0, 1): adding 0.0 * h is exact."""
    h_tau, h_phi = d_tau * _FD_STEP, d_phi * _FD_STEP
    return (
        _product_f(alpha, tau + h_tau, phi + h_phi) - _product_f(alpha, tau - h_tau, phi - h_phi)
    ) / (2.0 * _FD_STEP)


def _fd_sign_gate(alpha: float) -> float:
    # a product value is at most 8**(1 - alpha) with <= 14 roundings of
    # eps/2 (per axis: per term an add and a pow of <= 1 ulp, their sum;
    # then two products), so a difference quotient over 2 h is off by
    # <= 7 eps 8**(1 - alpha) / h; k = 8 rounds that up
    return 8.0 * _EPS * 8.0 ** (1.0 - alpha) / _FD_STEP


def derivative_sign_check(a: OrderLike, n_points: int) -> VerificationReport:
    """Finite-difference certificate of the derivative sign pattern.

    Checked claims: the power-sum product is non-decreasing in phi inside
    the reduced rectangle and exactly flat in phi on the tau = 0 edge; along
    phi = 0 it strictly increases on (0, pi/8), strictly decreases on
    (pi/8, pi/4), and the sign change sits at pi/8 (located by bisection
    to within the reported tolerance). Off the edge, differences within the
    rounding noise bound :func:`_fd_sign_gate` count as zero.
    """
    order = bounds.supported_order(a, allow_one=False)
    alpha = order.alpha
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    margin = 0.02
    quarter = math.pi / 4.0
    eighth = math.pi / 8.0
    gate = _fd_sign_gate(alpha)

    inner = np.linspace(margin, quarter - margin, max(2, math.isqrt(n_points)))
    interior_ok = np.all(_fd(alpha, inner[:, None], inner[None, :], 0.0, 1.0) >= -gate)

    rising = np.linspace(margin, eighth - margin, n_points)
    falling = np.linspace(eighth + margin, quarter - margin, n_points)
    line_ok = np.all(_fd(alpha, rising, 0.0, 1.0, 0.0) > gate) and np.all(
        _fd(alpha, falling, 0.0, 1.0, 0.0) < -gate
    )

    # x = y = 0.0 at tau = 0 for every phi: both products are the same bits
    edge = np.linspace(0.01, quarter - 0.01, min(n_points, 32))
    edge_ok = np.all(_fd(alpha, 0.0, edge, 0.0, 1.0) == 0.0)

    # bisect the sign change of the phi = 0 tau-derivative around pi/8 on
    # Python floats: array pow may differ from libm's and move the crossing
    lo, hi = eighth - 0.02, eighth + 0.02
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _fd(alpha, mid, 0.0, 1.0, 0.0) > 0.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    crossing_err = abs(crossing - eighth)

    tol = 1e-4
    passed = bool(interior_ok and line_ok and edge_ok) and crossing_err <= tol
    return VerificationReport(
        check="derivative_sign_check",
        alpha=alpha,
        claimed=eighth,
        observed=crossing,
        abs_error=crossing_err,
        tolerance=tol,
        passed=passed,
        location=(crossing, 0.0),
    )
