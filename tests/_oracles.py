"""Independent test oracles.

Complex 2x2 matrix arithmetic lives only here: the library itself works in
Bloch coordinates, so these routines provide a genuinely different route to
the same probabilities.
"""

import math

import numpy as np

SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def ket(tau: float, phi: float) -> np.ndarray:
    return np.array([math.cos(tau), np.exp(1j * phi) * math.sin(tau)], dtype=complex)


def density_from_bloch(rx: float, ry: float, rz: float) -> np.ndarray:
    return 0.5 * (
        np.eye(2, dtype=complex) + rx * SIGMA["x"] + ry * SIGMA["y"] + rz * SIGMA["z"]
    )


def pauli_expectation(psi: np.ndarray, axis: str) -> float:
    return float(np.vdot(psi, SIGMA[axis] @ psi).real)


def born_pair(rho: np.ndarray, axis: str) -> tuple[float, float]:
    """(p_plus, p_minus) for a projective measurement of sigma_axis on rho."""
    vals, vecs = np.linalg.eigh(SIGMA[axis])
    plus = vecs[:, int(np.argmax(vals))]
    minus = vecs[:, int(np.argmin(vals))]
    p_plus = float(np.vdot(plus, rho @ plus).real)
    p_minus = float(np.vdot(minus, rho @ minus).real)
    return p_plus, p_minus


def entropic_sum_brute(alpha: float, rx: float, ry: float, rz: float) -> float:
    """Renyi sum over the three axes straight from powers and logs."""
    total = 0.0
    for c in (rx, ry, rz):
        plus = (1.0 + c) / 2.0
        minus = (1.0 - c) / 2.0
        if abs(alpha - 1.0) <= 1e-9:
            for p in (plus, minus):
                if p > 0.0:
                    total -= p * math.log(p)
        else:
            total += math.log(plus**alpha + minus**alpha) / (1.0 - alpha)
    return total


def sample_mixed_loop(seed: int, count: int) -> np.ndarray:
    """Ball sampler built one state at a time, the reference for qubit.sample_mixed."""
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, size=count)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
    radius = rng.random(count) ** (1.0 / 3.0)
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    rows = [
        [r * st * math.cos(ph), r * st * math.sin(ph), r * ct]
        for r, ct, st, ph in zip(
            radius.tolist(), cos_theta.tolist(), sin_theta.tolist(), phi.tolist()
        )
    ]
    return np.array(rows)


def product_f_brute(alpha: float, tau: float, phi: float) -> float:
    """Power-sum product at raw angles, valid on the whole angle domain."""
    sin2t = math.sin(2.0 * tau)
    out = 1.0
    for c in (sin2t * math.cos(phi), sin2t * math.sin(phi), math.cos(2.0 * tau)):
        out *= ((1.0 + c) / 2.0) ** alpha + ((1.0 - c) / 2.0) ** alpha
    return out


def measure_pure_trig(s):
    """PauliTriple of a pure state by its own trig, the reference for pauli_measure.measure_pure."""
    from pauli_uncertainty.pauli_measure import PauliTriple, _outcome_pair

    sin2t = math.sin(2.0 * s.tau)
    return PauliTriple(
        p=_outcome_pair(sin2t * math.cos(s.phi)),
        q=_outcome_pair(sin2t * math.sin(s.phi)),
        r=_outcome_pair(math.cos(2.0 * s.tau)),
    )


def neg_xlnx_masked(p: np.ndarray) -> np.ndarray:
    """-p ln p with 0 at p <= 0 by boolean gather/scatter, the reference for verify._neg_xlnx."""
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = -p[mask] * np.log(p[mask])
    return out


def tsallis_sums_two_pass(alpha: float, x, y, z) -> np.ndarray:
    """Tsallis sums of Bloch component arrays from a power pass of their own.

    The reference for the Tsallis half of verify.renyi_sums_from_components:
    the same per-axis power sums and the same order of additions, with the
    Shannon sums (by neg_xlnx_masked) at order one.
    """
    x, y, z = np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)
    total = np.zeros(np.broadcast(x, y, z).shape)
    for c in (x, y, z):
        if abs(alpha - 1.0) <= 1e-9:
            total = total + neg_xlnx_masked((1.0 + c) / 2.0) + neg_xlnx_masked((1.0 - c) / 2.0)
        else:
            total = total + ((((1.0 + c) / 2.0) ** alpha + ((1.0 - c) / 2.0) ** alpha) - 1.0)
    return total if abs(alpha - 1.0) <= 1e-9 else total / (1.0 - alpha)


def derivative_sign_check_loop(a, n_points: int):
    """The derivative sign check one Python-float point at a time.

    The reference for verify.derivative_sign_check: the same points, gate
    and bisection, on the math-module product of product_f_brute.
    """
    from pauli_uncertainty import bounds, verify

    alpha = bounds.supported_order(a, allow_one=False).alpha
    h = verify._FD_STEP
    gate = verify._fd_sign_gate(alpha)

    def dphi(t, p):
        return (product_f_brute(alpha, t, p + h) - product_f_brute(alpha, t, p - h)) / (2.0 * h)

    def dtau(t, p):
        return (product_f_brute(alpha, t + h, p) - product_f_brute(alpha, t - h, p)) / (2.0 * h)

    margin = 0.02
    quarter = math.pi / 4.0
    eighth = math.pi / 8.0
    inner = np.linspace(margin, quarter - margin, max(2, math.isqrt(n_points))).tolist()
    interior_ok = all(dphi(t, p) >= -gate for t in inner for p in inner)
    rising = np.linspace(margin, eighth - margin, n_points).tolist()
    falling = np.linspace(eighth + margin, quarter - margin, n_points).tolist()
    line_ok = all(dtau(t, 0.0) > gate for t in rising) and all(
        dtau(t, 0.0) < -gate for t in falling
    )
    edge_ok = all(
        dphi(0.0, p) == 0.0
        for p in np.linspace(0.01, quarter - 0.01, min(n_points, 32)).tolist()
    )
    lo, hi = eighth - 0.02, eighth + 0.02
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dtau(mid, 0.0) > 0.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    crossing_err = abs(crossing - eighth)
    return verify.VerificationReport(
        check="derivative_sign_check",
        alpha=alpha,
        claimed=eighth,
        observed=crossing,
        abs_error=crossing_err,
        tolerance=1e-4,
        passed=interior_ok and line_ok and edge_ok and crossing_err <= 1e-4,
        location=(crossing, 0.0),
    )


def scan_grid_exhaustive(order, g, n_threads: int, want_tsallis: bool):
    """Every grid point in row chunks of at most 131,072 points, the reference for verify._scan_grid.

    The chunks run on n_threads threads and reduce by (value, flat index),
    so ties go to the lowest index; the sums come from the library's array
    kernel, the trig from this function's own calls.
    """
    from concurrent.futures import ThreadPoolExecutor

    from pauli_uncertainty.verify import _ScanResult, renyi_sums_from_components

    tau, phi = g.tau_values(), g.phi_values()
    rows = max(1, min(64, 131_072 // g.n_phi))

    def chunk(lo):
        sin2t = np.sin(2.0 * tau[lo : lo + rows])[:, None]
        x, y = sin2t * np.cos(phi)[None, :], sin2t * np.sin(phi)[None, :]
        z = np.cos(2.0 * tau[lo : lo + rows])[:, None]
        sums, tsallis = renyi_sums_from_components(order, x, y, z, want_tsallis)
        flat = sums.ravel()
        i_min, i_max = int(np.argmin(flat)), int(np.argmax(flat))
        ts_max = float(np.max(tsallis)) if want_tsallis else -math.inf
        base = lo * g.n_phi
        return _ScanResult(
            float(flat[i_min]), base + i_min, float(flat[i_max]), base + i_max, ts_max, flat.size
        )

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        partials = list(pool.map(chunk, range(0, g.n_tau, rows)))
    best_min = min(partials, key=lambda r: (r.minimum, r.min_index))
    best_max = min(partials, key=lambda r: (-r.maximum, r.max_index))
    return _ScanResult(
        best_min.minimum,
        best_min.min_index,
        best_max.maximum,
        best_max.max_index,
        max(r.tsallis_maximum for r in partials),
        g.n_tau * g.n_phi,
    )
