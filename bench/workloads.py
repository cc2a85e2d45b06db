"""Workload definitions and the work counts computed from their parameters.

The parameters are part of each workload's definition: changing them makes
a different benchmark, and the recorded expectations under ``expected/``
must be recorded again.
"""

from __future__ import annotations

import math

#: CLI arguments of each verify workload; the run appends ``--seed <seed>``.
VERIFY_ARGS = {
    # every CLI default: the end-to-end target; full-grid scans dominate,
    # two of the ten on the Shannon branch
    "verify-default": [],
    # sampler, impurity and derivative work dominate on a small grid with no
    # alpha = 1 row; the one workload that runs the threaded reduction
    "verify-sampling": [
        "--alpha-range", "0.2:0.8:0.2",
        "--grid", "401x401",
        "--samples", "250000",
        "--points", "20000",
        "--threads", "2",
    ],
}

VERIFY_PARAMS = {
    "verify-default": {
        "orders": [0.25, 0.5, 0.75, 1.0],
        "grid": [2001, 2001],
        "samples": 100_000,
        "points": 1000,
        "threads": 1,
    },
    "verify-sampling": {
        "orders": [0.2, 0.4, 0.6, 0.8],
        "grid": [401, 401],
        "samples": 250_000,
        "points": 20_000,
        "threads": 2,
    },
}

#: States per block of the eval-stream workload; one block is one unit of
#: wall time and of traced per-layer totals.
STREAM_BLOCK = 1000
#: Leading blocks whose output digest is recorded per seed.
STREAM_DIGEST_BLOCKS = 4
#: The stream runs in this many worker processes one after another, each
#: for an equal share of the run's seconds and going on from the block the
#: one before stopped at.
STREAM_WORKERS = 6

STREAM_KINDS = {"haar": 0.44, "ball": 0.44, "eigen": 0.06, "extremal": 0.06}
STREAM_SHANNON_SHARE = 0.125
STREAM_ALPHA_RANGE = (0.01, 0.99)

STREAM_PARAMS = {
    "block": STREAM_BLOCK,
    "kinds": STREAM_KINDS,
    "orders": {"uniform": list(STREAM_ALPHA_RANGE), "shannon_share": STREAM_SHANNON_SHARE},
    "callers": 1,
    "loop": "closed",
    "workers": STREAM_WORKERS,
}

WORKLOADS = ("verify-default", "verify-sampling", "eval-stream")


def derivative_points(n_points: int) -> int:
    """Finite-difference points one ``derivative_sign_check`` evaluates.

    Interior m x m phi-derivatives, the rising and falling tau-lines, the
    tau = 0 edge and 60 bisection steps, as the check lays them out.
    """
    m = max(2, math.isqrt(n_points))
    return m * m + 2 * n_points + min(n_points, 32) + 60


def verify_counts(params: dict) -> dict:
    """Computed work of one verify invocation with ``params``.

    Grid scans: two per order, two more at 1 - 1e-4 for the Shannon order.
    Impurity: ``samples`` per order (the Shannon row samples at 1 - 1e-4).
    Derivative checks: orders below 1 only. Sweep: one scan per order on
    the grid capped at 401 x 401.
    """
    orders = params["orders"]
    n_tau, n_phi = params["grid"]
    shannon_rows = sum(1 for a in orders if a == 1.0)
    grid_points = (2 * len(orders) + 2 * shannon_rows) * n_tau * n_phi
    samples = len(orders) * params["samples"]
    fd_points = (len(orders) - shannon_rows) * derivative_points(params["points"])
    sweep_points = len(orders) * min(n_tau, 401) * min(n_phi, 401)
    return {
        "grid_points": grid_points,
        "impurity_samples": samples,
        "derivative_points": fd_points,
        "sweep_points": sweep_points,
    }
