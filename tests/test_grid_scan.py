"""The pruned grid scan against the exhaustive oracle.

verify._scan_grid evaluates only the blocks whose enclosure can hold an
extremum; its results must equal, bit for bit and index for index, those
of evaluating every grid point.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_uncertainty import bounds, verify
from pauli_uncertainty.verify import GridSpec

from _oracles import scan_grid_exhaustive

ORDERS = (1.1e-6, 0.2, 0.5, 0.75, 0.9999, 0.999999, 1.0)

#: (alpha, grid, threads, want_tsallis): every order on both domains, with
#: grids whose sides are not multiples of the block, on 1 and 2 threads
FIXED_CASES = [
    (alpha, g, threads, want_tsallis)
    for alpha in ORDERS
    for g in (GridSpec(157, 93), GridSpec(130, 71, "full"))
    for threads in (1, 2)
    for want_tsallis in (False, True)
]

#: the orders of the default verify rows, the last the Shannon row's
#: cross-check just below one
DEFAULT_ROWS = (0.25, 0.5, 0.75, 1.0, 1.0 - 1e-4)
DEFAULT_GRID = GridSpec(2001, 2001)


def _pruned(alpha, g, threads, want_tsallis):
    return verify._scan_grid.__wrapped__(bounds.supported_order(alpha), g, threads, want_tsallis)


@functools.cache
def _oracle(alpha, g, want_tsallis):
    return scan_grid_exhaustive(bounds.supported_order(alpha), g, 1, want_tsallis)


@functools.cache
def _pruned_default_row(alpha):
    return _pruned(alpha, DEFAULT_GRID, 1, False)


def _mismatches():
    return [
        case for case in FIXED_CASES if _pruned(*case) != _oracle(case[0], case[1], case[3])
    ]


@pytest.mark.parametrize("alpha, g, threads, want_tsallis", FIXED_CASES)
def test_scan_matches_the_exhaustive_oracle(alpha, g, threads, want_tsallis):
    assert _pruned(alpha, g, threads, want_tsallis) == _oracle(alpha, g, want_tsallis)


def test_oracle_test_fails_with_a_swapped_enclosure(monkeypatch):
    # negative control: the least component magnitudes as the lower-bound
    # corner make lower bounds that blocks undercut, so blocks holding the
    # minimum are pruned
    components = verify._block_components

    def swapped(trig):
        lo, _ = components(trig)
        return lo, lo

    monkeypatch.setattr(verify, "_block_components", swapped)
    assert _mismatches()


@given(
    alpha=st.one_of(st.floats(1.1e-6, 1.0), st.sampled_from([1.0 - 1e-4, 0.999999, 1.0])),
    n_tau=st.integers(2, 300),
    n_phi=st.integers(2, 300),
    domain=st.sampled_from(["D", "full"]),
    threads=st.integers(1, 2),
    want_tsallis=st.booleans(),
    block=st.sampled_from([8, 32, 64]),
)
@settings(max_examples=100, deadline=None)
def test_scan_matches_the_oracle_on_random_grids(
    alpha, n_tau, n_phi, domain, threads, want_tsallis, block
):
    g = GridSpec(n_tau, n_phi, domain)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "_BLOCK", block)
        got = _pruned(alpha, g, threads, want_tsallis)
    assert got == scan_grid_exhaustive(bounds.supported_order(alpha), g, 1, want_tsallis)


@pytest.mark.parametrize("alpha", DEFAULT_ROWS)
def test_default_rows_match_the_oracle(alpha):
    assert _pruned_default_row(alpha) == _oracle(alpha, DEFAULT_GRID, False)


@pytest.mark.parametrize("alpha", DEFAULT_ROWS)
def test_default_rows_evaluate_at_most_a_quarter_of_the_grid(alpha):
    # a silent fall-back to scanning every point would evaluate all of it
    assert _pruned_default_row(alpha).points <= 0.25 * DEFAULT_GRID.n_tau * DEFAULT_GRID.n_phi
