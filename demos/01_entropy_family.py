"""Tour of the entropy family on two-outcome distributions.

Run with: python demos/01_entropy_family.py
"""

from pauli_uncertainty import (
    alpha_log,
    phi_alpha,
    renyi_entropy,
    shannon_entropy,
    tsallis_entropy,
)

dist = (0.75, 0.25)

print("distribution:", dist)
print()

# The order parameter interpolates between counting-like behaviour (alpha
# near 0) and max-probability behaviour (large alpha). Entropies can only
# go down as the order grows.
print("order   power sum   Renyi      Tsallis")
for alpha in (0.1, 0.25, 0.5, 0.75, 0.999, 2.0, 10.0):
    print(
        f"{alpha:7.4g} {phi_alpha(dist, alpha):10.6f}"
        f" {renyi_entropy(dist, alpha):10.6f} {tsallis_entropy(dist, alpha):10.6f}"
    )
print()

# At order one every member collapses to the Shannon entropy.
h = shannon_entropy(dist)
print("Shannon entropy:", h)
print("Renyi at 1:     ", renyi_entropy(dist, 1.0))
print("Renyi at 1+1e-7:", renyi_entropy(dist, 1.0 + 1e-7))
print()

# The Tsallis maximum over n outcomes is the deformed logarithm of n,
# reached by the uniform distribution.
for alpha in (0.3, 0.7):
    uniform = (0.5, 0.5)
    print(
        f"alpha={alpha}: tsallis(uniform)={tsallis_entropy(uniform, alpha):.9f}"
        f"  ln_alpha(2)={alpha_log(2.0, alpha):.9f}"
    )
