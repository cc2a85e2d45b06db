"""Command-line surface: state evaluation, band tables, verification runs.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 domain
error (an OrderDomainError: order outside (0, 1] or not admitted).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import bounds, verify
from .distributions import ORDER_ONE_TOL, OrderDomainError, renyi_entropy, tsallis_entropy
from .pauli_measure import PauliTriple, measure_mixed, measure_pure
from .qubit import BlochVector, PureStateAngles, angles_to_bloch, pauli_eigenstate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_DOMAIN_ERROR = 3

DEFAULT_SEED = 20240817
DEFAULT_VERIFY_ALPHAS = (0.25, 0.5, 0.75, 1.0)
#: Upper limit of verify --threads; each thread holds its own batch buffers.
MAX_THREADS = 64
#: Upper limits of verify --samples and --points: each sample or point is a
#: row of every temporary array of its check (~175 MB at 1e6 samples).
MAX_SAMPLES = MAX_POINTS = 10**6
#: Upper limit of the number of orders an --alpha-range may expand to.
MAX_ORDERS = 10_000


class _InputError(ValueError):
    pass


def _parse_alpha_range(spec: str) -> list[float]:
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise _InputError(f"bad --alpha-range {spec!r}, expected A:B:STEP") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise _InputError(f"bad --alpha-range {spec!r}: A, B and STEP must be finite")
    if step <= 0 or stop < start:
        raise _InputError(f"bad --alpha-range {spec!r}: need A <= B and STEP > 0")
    # the range holds floor(span / step) + 1 orders; the quotient may be inf
    if (stop + 1e-12 - start) / step >= MAX_ORDERS:
        raise _InputError(f"bad --alpha-range {spec!r}: more than {MAX_ORDERS} orders")
    out = []
    k = 0
    while True:
        val = start + k * step
        if val > stop + 1e-12:
            break
        out.append(round(val, 12))
        k += 1
    # rounding to 12 decimals can merge orders a step below 1e-12 apart
    if any(b <= a for a, b in zip(out, out[1:])):
        raise _InputError(
            f"bad --alpha-range {spec!r}: orders repeat after rounding to 12 decimals"
        )
    return out


def _orders(args, default: Sequence[float]) -> list[float]:
    """Orders from --alpha or --alpha-range, which exclude each other."""
    if args.alpha is not None and args.alpha_range is not None:
        raise _InputError("give either --alpha or --alpha-range, not both")
    if args.alpha_range is not None:
        return _parse_alpha_range(args.alpha_range)
    return [args.alpha] if args.alpha is not None else list(default)


def _parse_floats(spec: str, n: int, what: str) -> list[float]:
    parts = spec.split(",")
    if len(parts) != n:
        raise _InputError(f"{what} needs {n} comma-separated numbers, got {spec!r}")
    try:
        return [float(x) for x in parts]
    except ValueError as exc:
        raise _InputError(f"{what} has a non-numeric entry: {spec!r}") from exc


def _parse_grid(spec: str) -> verify.GridSpec:
    try:
        n_tau_s, n_phi_s = spec.lower().split("x")
        return verify.GridSpec(int(n_tau_s), int(n_phi_s))
    except ValueError as exc:
        raise _InputError(f"bad --grid {spec!r}, expected NxM: {exc}") from exc


def _parse_state(args) -> tuple[PauliTriple, str]:
    """Build the measured triple, whose is_pure decides purity, from one state option."""
    given = (args.angles, args.bloch, args.eigenstate, args.mix)
    if sum(value is not None for value in given) != 1:
        raise _InputError("specify exactly one of --angles, --bloch, --eigenstate, --mix")

    if args.angles is not None:
        tau, phi = _parse_floats(args.angles, 2, "--angles")
        state = PureStateAngles(tau, phi)
        return measure_pure(state), f"angles tau={state.tau:.9g} phi={state.phi:.9g}"
    if args.bloch is not None:
        x, y, z = _parse_floats(args.bloch, 3, "--bloch")
        return measure_mixed(BlochVector(x, y, z)), f"bloch ({x:.9g}, {y:.9g}, {z:.9g})"
    if args.eigenstate is not None:
        name = args.eigenstate.strip().lower()
        if len(name) != 2 or name[0] not in "xyz" or name[1] not in "+-":
            raise _InputError(f"bad --eigenstate {args.eigenstate!r}, expected e.g. z+ or x-")
        state = pauli_eigenstate(name[0], +1 if name[1] == "+" else -1)
        return measure_pure(state), f"eigenstate {name}"
    lam_s, _, axis = args.mix.partition(",")
    axis = axis.strip().lower()
    try:
        lam = float(lam_s)
    except ValueError as exc:
        raise _InputError(f"bad --mix weight {lam_s!r}") from exc
    if not (0.0 <= lam <= 1.0) or axis not in ("x", "y", "z"):
        raise _InputError(f"bad --mix {args.mix!r}, expected LAMBDA,AXIS with LAMBDA in [0,1]")
    unit = angles_to_bloch(pauli_eigenstate(axis, +1))
    scale = 2.0 * lam - 1.0
    b = BlochVector(scale * unit.rx, scale * unit.ry, scale * unit.rz)
    return measure_mixed(b), f"mixture lambda={lam:.9g} axis={axis}"


def _format_dist(dist) -> str:
    return f"(+{dist[0]:.12g}, -{dist[1]:.12g})"


def cmd_eval(args) -> int:
    triple, label = _parse_state(args)
    pure = triple.is_pure
    order = bounds.supported_order(args.alpha)
    renyi = {n: renyi_entropy(triple.axis(n), order) for n in ("x", "y", "z")}
    tsallis = {n: tsallis_entropy(triple.axis(n), order) for n in ("x", "y", "z")}
    sum_r = renyi["x"] + renyi["y"] + renyi["z"]
    sum_t = tsallis["x"] + tsallis["y"] + tsallis["z"]
    upper = 3.0 * bounds.rho_hat(order) if pure else bounds.THREE_LN2
    upper_name = "3*rho_hat" if pure else "3*ln2"
    lines = [
        f"state: {label} (pure={str(pure).lower()})",
        f"alpha: {order.alpha:.12g}",
        f"dist_x: {_format_dist(triple.p)}",
        f"dist_y: {_format_dist(triple.q)}",
        f"dist_z: {_format_dist(triple.r)}",
        f"renyi: x={renyi['x']:.12g} y={renyi['y']:.12g} z={renyi['z']:.12g} sum={sum_r:.12g}",
        f"tsallis: x={tsallis['x']:.12g} y={tsallis['y']:.12g} z={tsallis['z']:.12g} sum={sum_t:.12g}",
        f"gap_lower: {sum_r - bounds.TWO_LN2:.12g}",
        f"gap_upper[{upper_name}]: {upper - sum_r:.12g}",
    ]
    if args.format == "csv":
        keys = [ln.split(":", 1)[0] for ln in lines]
        vals = [ln.split(":", 1)[1].strip() for ln in lines]
        print(",".join(keys))
        print(",".join(f'"{v}"' if "," in v else v for v in vals))
    else:
        print("\n".join(lines))
    return EXIT_OK


def cmd_saturate(args) -> int:
    # at sqrt(tol) >= 1/2 the uniform-axis test accepts every distribution,
    # so the certificate would be vacuous; nan fails the comparison too
    if not (0.0 <= args.tol < 0.25):
        raise _InputError(f"--tol must be finite and in [0, 0.25), got {args.tol}")
    triple, label = _parse_state(args)
    order = bounds.supported_order(args.alpha)
    report = bounds.check_lower(triple, order, args.tol)
    if report.kind == bounds.INTERIOR and triple.is_pure:
        upper_report = bounds.check_upper(triple, order, args.tol)
        if upper_report.kind == bounds.UPPER_SATURATED:
            report = upper_report
    witness = report.witness_axis if report.witness_axis is not None else "-"
    print(f"state: {label}")
    print(f"kind={report.kind} witness_axis={witness} gap={report.gap:.12g}")
    return EXIT_OK


def cmd_band(args) -> int:
    alphas = _orders(args, _parse_alpha_range("0.01:1.0:0.01"))
    rows = ["alpha,lower,B_renyi,A_tsallis"]
    for alpha in alphas:
        pt = bounds.band_bounds(alpha)
        rows.append(f"{pt.alpha:.12g},{pt.lower:.12g},{pt.b_upper:.12g},{pt.a_upper:.12g}")
    text = "\n".join(rows) + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    for name, value, limit in (
        ("--threads", args.threads, MAX_THREADS),
        ("--samples", args.samples, MAX_SAMPLES),
        ("--points", args.points, MAX_POINTS),
    ):
        if not (1 <= value <= limit):
            raise _InputError(f"{name} must be in [1, {limit}], got {value}")
    if args.seed < 0:
        raise _InputError(f"--seed must be >= 0, got {args.seed}")
    grid = _parse_grid(args.grid)
    alphas = _orders(args, DEFAULT_VERIFY_ALPHAS)
    # every order is checked against the domain before the first scan
    orders = [bounds.supported_order(alpha) for alpha in alphas]
    if sum(order.is_one for order in orders) > 1:
        raise _InputError(f"orders within {ORDER_ONE_TOL:g} of 1 would repeat the Shannon row")
    claimed = bounds.TWO_LN2 - 0.01 if args.inject_low_claim else None

    reports = []
    for order in orders:
        # strictness needs alpha < 1; the Shannon row additionally gets a
        # limit cross-check of the grid extrema just below 1, where its
        # impurity scan runs
        grid_orders = (order, 1.0 - 1e-4) if order.is_one else (order,)
        for a in grid_orders:
            reports.append(verify.grid_min_sum(a, grid, n_threads=args.threads, claimed=claimed))
            reports.append(verify.grid_max_sum_pure(a, grid, n_threads=args.threads))
        reports.append(verify.impurity_gap_scan(grid_orders[-1], args.seed, args.samples))
        if not order.is_one:
            # the sign claims scale with (1 - alpha) and vanish at order one,
            # so the Shannon row relies on the sub-one orders; below 1 - alpha
            # of about 3e-7 rounding swamps the 1e-6 central difference and
            # the bisection misses pi/8 (verify --alpha 0.9999999 exits 1)
            reports.append(verify.derivative_sign_check(order, args.points))
    sweep_grid = verify.GridSpec(min(grid.n_tau, 401), min(grid.n_phi, 401))
    points, sweep_report = verify.sweep_band(alphas, sweep_grid, n_threads=args.threads)
    reports.append(sweep_report)

    for report in reports:
        print(report.as_line())
    gap, gap_alpha = verify.max_relative_gap(points)
    print(f"info band_rel_gap alpha={gap_alpha:.12g} observed={gap:.12g}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauli-uncertainty",
        description="Entropic uncertainty/certainty bounds for the three Pauli measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_options(p):
        p.add_argument("--angles", help="pure state angles TAU,PHI in radians")
        p.add_argument("--bloch", help="Bloch vector X,Y,Z")
        p.add_argument("--eigenstate", help="Pauli eigenstate, one of {x,y,z}{+,-}")
        p.add_argument("--mix", help="diagonal mixture LAMBDA,AXIS")

    p_eval = sub.add_parser("eval", help="distributions, entropies and gaps for one state")
    add_state_options(p_eval)
    p_eval.add_argument("--alpha", type=float, required=True, help="entropy order in (0, 1]")
    p_eval.add_argument("--format", choices=("text", "csv"), default="text")
    p_eval.set_defaults(func=cmd_eval)

    p_sat = sub.add_parser("saturate", help="bound saturation classification for one state")
    add_state_options(p_sat)
    p_sat.add_argument("--alpha", type=float, required=True)
    p_sat.add_argument("--tol", type=float, default=bounds.SATURATION_TOL)
    p_sat.set_defaults(func=cmd_saturate)

    p_band = sub.add_parser("band", help="CSV table of the band bounds over orders")
    p_band.add_argument("--alpha", type=float)
    p_band.add_argument("--alpha-range", help="A:B:STEP, default 0.01:1.0:0.01")
    p_band.add_argument("--out", help="output path (default stdout)")
    p_band.set_defaults(func=cmd_band)

    p_ver = sub.add_parser("verify", help="run the brute-force verification suite")
    p_ver.add_argument("--alpha", type=float)
    p_ver.add_argument("--alpha-range", help="A:B:STEP")
    p_ver.add_argument("--grid", default="2001x2001", help="NxM grid, default 2001x2001")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.add_argument("--samples", type=int, default=100_000)
    p_ver.add_argument("--points", type=int, default=1000)
    p_ver.add_argument("--threads", type=int, default=1)
    p_ver.add_argument(
        "--inject-low-claim",
        action="store_true",
        help="negative control: lower the claimed minimum so the run must fail",
    )
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OrderDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
