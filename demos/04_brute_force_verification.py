"""Re-deriving every bound by exact grid search and random sampling.

The verification layer recomputes entropic sums from raw probabilities,
powers and logarithms, then compares the observed grid extrema against the
closed-form claims. Run with: python demos/04_brute_force_verification.py
"""

from pauli_uncertainty import (
    GridSpec,
    derivative_sign_check,
    grid_max_sum_pure,
    grid_min_sum,
    impurity_gap_scan,
    max_relative_gap,
    sweep_band,
)

grid = GridSpec(801, 801)
print(f"grid: {grid.n_tau} x {grid.n_phi} over the reduced angle rectangle")
print()

for alpha in (0.25, 0.5, 1.0):
    low = grid_min_sum(alpha, grid)
    high = grid_max_sum_pure(alpha, grid)
    print(low.as_line())
    print(f"   minimizer at (tau, phi) = {low.location}")
    print(high.as_line())
    print(f"   maximizer at (tau, phi) = {high.location}")
print()

# Impure states stay strictly above the lower bound; the scan also checks
# the mixing inequality against each sample's eigen-decomposition.
print(impurity_gap_scan(0.5, seed=7, count=50_000).as_line())

# Sign pattern of the product's derivatives, including the rise/fall
# switch at tau = pi/8 on the phi = 0 line.
print(derivative_sign_check(0.5, 500).as_line())
print()

# Band certificate: rescaled grid maxima never exceed the closed-form
# uppers, for a sweep of orders.
alphas = [k / 20.0 for k in range(1, 21)]
points, report = sweep_band(alphas, GridSpec(301, 301))
print(report.as_line())
gap, at_alpha = max_relative_gap(points)
print(f"largest relative gap between the uppers: {gap:.6f} at alpha={at_alpha}")
