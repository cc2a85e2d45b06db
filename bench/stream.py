"""The ``eval-stream`` workload: single states through the eval/saturate path.

Inputs are made here from the workload seed; the library only sees the
angles, Bloch components and orders. Block ``k`` of a stream is drawn from
``default_rng([seed, k])``, so a block's inputs do not depend on how many
blocks a run gets through.

Mix per block, in fixed shares and shuffled: Haar pure states and
ball-uniform mixed states make up most of it; Pauli eigenstates and the
eight extremal-pair states make both saturation branches run. Orders are
uniform on [0.01, 0.99] or exactly 1 (one state in eight); orders closer to 1 than 0.01 are left out because
the 1/(1 - alpha) prefactor would turn last-ulp differences between two
correct entropy kernels into more than the 1e-12 recomputation tolerance.
"""

from __future__ import annotations

import hashlib
import math
from types import SimpleNamespace

import numpy as np

from workloads import STREAM_ALPHA_RANGE, STREAM_KINDS, STREAM_SHANNON_SHARE

PURE, MIXED = "pure", "mixed"
KIND_NAMES = tuple(STREAM_KINDS)

TWO_LN2 = 2.0 * math.log(2.0)
THREE_LN2 = 3.0 * math.log(2.0)
INV_SQRT3 = 1.0 / math.sqrt(3.0)
#: Slack on the bound checks and on the recomputed Renyi sums.
SUM_TOL = 1e-12
#: Orders this close to 1 are the Shannon point, as in the library.
ORDER_ONE_TOL = 1e-9

_QUARTER = math.pi / 4.0
_EIGEN_ANGLES = (
    (_QUARTER, 0.0),
    (_QUARTER, math.pi),
    (_QUARTER, math.pi / 2.0),
    (_QUARTER, 1.5 * math.pi),
    (0.0, 0.0),
    (math.pi / 2.0, 0.0),
)
# Bloch vectors (sx, sy, sz)/sqrt3: tau from cos 2tau = sz/sqrt3, phi on a diagonal
_EXTREMAL_ANGLES = tuple(
    (math.acos(sz / math.sqrt(3.0)) / 2.0, math.atan2(sy, sx) % (2.0 * math.pi))
    for sx in (1.0, -1.0)
    for sy in (1.0, -1.0)
    for sz in (1.0, -1.0)
)


def block_inputs(seed: int, block: int, size: int) -> list[tuple]:
    """States ``(kind, shape, alpha, a, b, c)`` of one block of the stream.

    Pure states carry angles ``(tau, phi, 0.0)`` in the canonical ranges
    tau in [0, pi/2], phi in [0, 2 pi); mixed states carry ``(x, y, z)``.
    """
    rng = np.random.default_rng([seed, block])
    # fixed shares per block, shuffled, so per-block call counts repeat exactly
    per_kind = [round(share * size) for share in STREAM_KINDS.values()]
    per_kind[0] += size - sum(per_kind)
    kinds = rng.permutation(np.repeat(np.arange(len(KIND_NAMES)), per_kind)).tolist()
    n_shannon = round(STREAM_SHANNON_SHARE * size)
    shannon = rng.permutation(np.arange(size) < n_shannon).tolist()
    alphas = rng.uniform(*STREAM_ALPHA_RANGE, size=size).tolist()
    u = rng.random((size, 3)).tolist()
    out = []
    for kind, one, alpha, (u1, u2, u3) in zip(kinds, shannon, alphas, u):
        alpha = 1.0 if one else alpha
        name = KIND_NAMES[kind]
        if name == "haar":
            out.append((name, PURE, alpha, math.acos(2.0 * u1 - 1.0) / 2.0, 2.0 * math.pi * u2, 0.0))
        elif name == "ball":
            cos_t = 2.0 * u1 - 1.0
            sin_t = math.sqrt(1.0 - cos_t * cos_t)
            r = u3 ** (1.0 / 3.0)
            ph = 2.0 * math.pi * u2
            out.append((name, MIXED, alpha, r * sin_t * math.cos(ph), r * sin_t * math.sin(ph), r * cos_t))
        else:
            table = _EIGEN_ANGLES if name == "eigen" else _EXTREMAL_ANGLES
            tau, phi = table[int(u1 * len(table))]
            out.append((name, PURE, alpha, tau, phi, 0.0))
    return out


def library_api(pauli_uncertainty) -> SimpleNamespace:
    """The public scalar entry points the stream calls, by layer."""
    from pauli_uncertainty import bounds

    return SimpleNamespace(
        supported_order=bounds.supported_order,
        PureStateAngles=pauli_uncertainty.PureStateAngles,
        BlochVector=pauli_uncertainty.BlochVector,
        measure_pure=pauli_uncertainty.measure_pure,
        measure_mixed=pauli_uncertainty.measure_mixed,
        renyi_entropy=pauli_uncertainty.renyi_entropy,
        tsallis_entropy=pauli_uncertainty.tsallis_entropy,
        entropic_sum_renyi=pauli_uncertainty.entropic_sum_renyi,
        entropic_sum_tsallis=pauli_uncertainty.entropic_sum_tsallis,
        rho_hat=pauli_uncertainty.rho_hat,
        check_lower=pauli_uncertainty.check_lower,
        check_upper=pauli_uncertainty.check_upper,
        INTERIOR=bounds.INTERIOR,
        UPPER_SATURATED=bounds.UPPER_SATURATED,
    )


#: Span name of each traced entry point in :func:`library_api`.
LAYER_OF = {
    "supported_order": "bounds.order",
    "PureStateAngles": "qubit.state_build",
    "BlochVector": "qubit.state_build",
    "measure_pure": "pauli_measure.measure",
    "measure_mixed": "pauli_measure.measure",
    "renyi_entropy": "distributions.entropy",
    "tsallis_entropy": "distributions.entropy",
    "entropic_sum_renyi": "bounds.entropic_sum",
    "entropic_sum_tsallis": "bounds.entropic_sum",
    "rho_hat": "bounds.closed_form",
    "check_lower": "bounds.saturation",
    "check_upper": "bounds.saturation",
}


def traced_api(api: SimpleNamespace, tracer) -> SimpleNamespace:
    traced = SimpleNamespace(**vars(api))
    for attr, layer in LAYER_OF.items():
        setattr(traced, attr, tracer.wrap(getattr(api, attr), layer))
    return traced


def evaluate(api, shape: str, alpha: float, a: float, b: float, c: float) -> tuple:
    """One state through the path ``eval`` and ``saturate`` take."""
    order = api.supported_order(alpha)
    if shape == PURE:
        triple = api.measure_pure(api.PureStateAngles(a, b))
        pure = True
    else:
        state = api.BlochVector(a, b, c)
        triple = api.measure_mixed(state)
        pure = state.is_pure
    dists = (triple.p, triple.q, triple.r)
    renyi = tuple(api.renyi_entropy(d, order) for d in dists)
    tsallis = tuple(api.tsallis_entropy(d, order) for d in dists)
    sum_r = api.entropic_sum_renyi(triple, order)
    sum_t = api.entropic_sum_tsallis(triple, order)
    upper = 3.0 * api.rho_hat(order) if pure else THREE_LN2
    report = api.check_lower(triple, order)
    if report.kind == api.INTERIOR and pure:
        upper_report = api.check_upper(triple, order)
        if upper_report.kind == api.UPPER_SATURATED:
            report = upper_report
    return (dists, pure, renyi, tsallis, sum_r, sum_t, upper, report)


def components(shape: str, a: float, b: float, c: float) -> tuple[float, float, float]:
    """Bloch components of a stream input, by the bench's own formula."""
    if shape == MIXED:
        return (a, b, c)
    st = math.sin(2.0 * a)
    return (st * math.cos(b), st * math.sin(b), math.cos(2.0 * a))


def renyi_sum(alpha: float, comps) -> float:
    """Renyi entropic sum from the outcome pairs (1 + c)/2 and 1 - (1 + c)/2.

    The minus outcome is taken as the complement of the plus outcome, the
    convention that makes each pair sum to 1 exactly; near a pole the two
    roundings of (1 - c)/2 differ by more than the comparison tolerance.
    """
    total = 0.0
    for comp in comps:
        plus = (1.0 + comp) / 2.0
        pair = [p for p in (plus, 1.0 - plus) if p > 0.0]
        if abs(alpha - 1.0) <= ORDER_ONE_TOL:
            total += -sum(p * math.log(p) for p in pair)
        else:
            total += math.log(sum(p**alpha for p in pair)) / (1.0 - alpha)
    return total


def check_state(state: tuple, result: tuple) -> bool:
    """Bound band of the sum, and the sum and ceiling against recomputations."""
    _, shape, alpha, a, b, c = state
    _, pure, _, _, sum_r, _, upper, _ = result
    ceiling = renyi_sum(alpha, (INV_SQRT3,) * 3) if pure else THREE_LN2
    recomputed = renyi_sum(alpha, components(shape, a, b, c))
    return (
        TWO_LN2 - SUM_TOL <= sum_r <= ceiling + SUM_TOL
        and abs(upper - ceiling) <= SUM_TOL
        and abs(sum_r - recomputed) <= SUM_TOL
    )


def format_result(state: tuple, result: tuple) -> str:
    kind, _, alpha, *_ = state
    dists, pure, renyi, tsallis, sum_r, sum_t, upper, report = result
    witness = report.witness_axis or "-"
    return " ".join(
        [kind, f"{alpha:.17g}", "pure" if pure else "mixed"]
        + [f"{d[0]:.12g}" for d in dists]
        + [f"{v:.12g}" for v in renyi + tsallis + (sum_r, sum_t, upper)]
        + [report.kind, witness, f"{report.gap:.12g}"]
    )


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
