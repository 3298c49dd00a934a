"""Randomized, seeded checks of the discrete operator facts.

Each check packages one structural property of the finite-difference
system as a reproducible pass/fail report:

* dissipativity: the quadratic form of the diffusion operator is never
  positive, and equals minus the sum of squared difference quotients
  (summation by parts is exact for the discrete operator);
* maximality: the shift-by-one solve hits any right-hand side with a
  machine-precision backward error, and two elimination orders agree;
* semigroup: contraction, the composition law, strong continuity in t,
  and first-order consistency of (S(t)-I)/t with the generator;
* local Lipschitz bound of the reaction operator, at its default
  coefficients, on norm balls.

The semigroup durations and the Lipschitz ball radii are stated once, as
the defaults of their checks; the sizes, sample counts and seed of
``pdae1d verify`` are stated once, as the CLI's defaults.

These are finite-dimensional analogues: the interior second-difference
matrix is symmetric negative definite, so the first three hold at machine
precision rather than approximately.  All product norms are discrete
L2 x L2 throughout the package.

Samples are drawn and evaluated as stacks, block by block, with one call of
each public operator per block (looked up on its module at call time, so a
patched operator is the one checked); the semigroup check makes two, one
for all durations and one for S(t) of the S(s) rows.  Blocks are sized by
the values they stack (see _BLOCK_POINTS), large enough that the fixed cost
of a call, such as the elimination loop of a shifted solve, is paid rarely.
A report equals, bit for bit, the one a sample-by-sample evaluation of the
same seeded stream gives.  No check builds a ``Field``: the semigroup check's
smooth states are sine modes taken from ``np.sin`` of the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nonlinearity, spectral
from .fields import Grid1D, pair_norm, row_dot

__all__ = [
    "PropertyReport",
    "check_dissipativity",
    "check_maximality",
    "check_semigroup",
    "check_lipschitz",
    "run_checks",
]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one randomized property check; reproducible from its seed."""

    name: str
    samples: int
    worst_value: float
    tolerance: float
    seed: int
    observed: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.worst_value <= self.tolerance))


# Maxima over samples fold with np.max(..., initial=...) and np.maximum, which
# keep a NaN, so a non-finite operator result fails its check.
#
# Samples per block: max(1, _BLOCK_POINTS // points), where points is n per
# sample, n times the durations per sample for the stacked semigroup calls,
# or 4n for the Lipschitz check (each sample is a (2, 2, n) pair stack).
# Sizing blocks by stacked points keeps each stack and its temporaries near a
# fixed size at every n.  The budget trades that size against the fixed cost
# a block pays: a Python elimination loop of 2(n - 1) steps per maximality
# block, two transform calls per semigroup block.  Lipschitz work is
# elementwise and pays no such cost, so its blocks count all 4n values and
# stay at 4096 // n samples; 16x larger ones outgrow the cache.  In-process
# medians of 40 interleaved rounds, ms, at budgets 4096 / 16384 / 65536
# (2 shared vCPUs, one BLAS thread):
#
#   maximality, 1000 samples, n = 256      90.8 / 41.3 / 37.8
#   semigroup, 1000 samples, n = 64        36.8 / 26.1 / 29.3
#   dissipativity, 1000 samples, n = 256   10.3 /  8.9 / 13.0
#   lipschitz, 300 samples, n = 256, at 1x / 4x / 16x its blocks:
#                                          23.8 / 19.7 / 33.8
_BLOCK_POINTS = 16384


def _blocks(n_samples: int, points: int):
    """Sizes of the consecutive sample blocks covering n_samples, in order."""
    size = max(1, _BLOCK_POINTS // points)
    for start in range(0, n_samples, size):
        yield min(size, n_samples - start)


def _square(x):
    # libm pow, as Python's float ** 2 computes it; x * x rounds differently
    # in about 1 of 1000 cases, and the reports stay bit-identical
    return np.float_power(x, 2)


def _random_states(
    rng: np.random.Generator, shape: tuple, n: int, target_norm: float | None = None
) -> np.ndarray:
    """Random nodal pairs shaped ``shape + (2, n)``, uniform in [-1, 1].

    One draw gives the same stream as drawing the pairs one (u, v) after
    another in C order.  With ``target_norm`` each pair is rescaled to that
    product norm.  A pair of norm 0 is redrawn in place; only then does the
    stream depart from the pair-by-pair one, and such a draw does not occur
    in practice.
    """
    # 2r - 1 in place, the bits of rng.uniform(-1.0, 1.0) without its temporaries
    states = rng.random(shape + (2, n))
    states *= 2.0
    states -= 1.0
    if target_norm is None:
        return states
    h = 1.0 / (n + 1)
    norms = pair_norm(states, h)
    for index in zip(*np.nonzero(norms == 0.0)):
        while norms[index] == 0.0:
            states[index] = rng.uniform(-1.0, 1.0, (2, n))
            norms[index] = pair_norm(states[index], h)
    return (target_norm / norms)[..., None, None] * states


def check_dissipativity(n_samples: int, grid: Grid1D, seed: int = 0) -> PropertyReport:
    """Quadratic form <A U, U> <= 0, and equal to minus the gradient energy.

    worst_value is the larger of the normalized form max <A U, U>/||U||^2
    and the relative defect of the summation-by-parts identity
    <A U, U> = -(|u|_1^2 + |v|_1^2); both must stay below 1e-10.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    n, h = grid.n_interior, grid.h
    worst = -np.inf
    worst_identity = 0.0
    for count in _blocks(n_samples, n):
        states = _random_states(rng, (count,), n)
        applied = spectral.discrete_laplacian(states)
        inner = h * (
            row_dot(states[:, 0], applied[:, 0]) + row_dot(states[:, 1], applied[:, 1])
        )
        seminorms = nonlinearity.h1_seminorm(states)
        energy = _square(seminorms[:, 0]) + _square(seminorms[:, 1])
        norm_sq = _square(pair_norm(states, h))
        worst = np.max(inner / norm_sq, initial=worst)
        worst_identity = np.max(np.abs(inner + energy) / energy, initial=worst_identity)
    return PropertyReport(
        name="dissipativity",
        samples=n_samples,
        worst_value=float(np.maximum(worst, worst_identity)),
        tolerance=1e-10,
        seed=seed,
        observed={
            "max_normalized_form": float(worst),
            "max_identity_defect": float(worst_identity),
        },
    )


def check_maximality(n_samples: int, grid: Grid1D, seed: int = 0) -> PropertyReport:
    """(I - A) U = g is solvable for random g with tiny residual, uniquely.

    Both sub-checks are backward errors in the max norm, each bounded at
    1e-14 and divided by it, so the report passes iff worst_value stays at
    most 1 (normalized as in :func:`check_semigroup`).  The scale of a
    sample is (1 + 4/h^2)||u|| + ||g||, where 1 + 4/h^2 = ||I - A||.

    * The solve: ||r|| over that scale, r = (I - A) u - g.  The residual
      relative to ||g|| alone, kept in ``observed`` as
      ``max_relative_residual``, grows like 1/h^2 for a correct solve
      (2.5e-12 at n = 1023), so it is reported, not bounded.
    * The forward and reversed elimination orders (the matrix is
      persymmetric, so index reversal solves the same system): ||(I - A)
      (u - u_rev)|| over that scale.  Their difference relative to ||u||,
      kept as ``max_elimination_disagreement``, grows with n too (7.4e-13
      at n = 1024, 2.6e-12 at n = 4096; 100 samples, seed 2), so it is
      reported, not bounded.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = grid.n_interior
    operator_norm = 1.0 + 4.0 / grid.h**2
    worst = 0.0
    worst_backward = 0.0
    worst_gap = 0.0
    worst_disagreement = 0.0
    for count in _blocks(n_samples, n):
        # one right-hand side per sample and component; each is eliminated on
        # its own, so one call solves both orders
        g = _random_states(rng, (count,), n)
        u, u_rev = spectral.solve_shifted(np.stack((g, g[..., ::-1])), 1.0)
        residual = np.max(np.abs(u - spectral.discrete_laplacian(u) - g), axis=-1)
        scale = np.max(np.abs(g), axis=-1)
        u_max = np.max(np.abs(u), axis=-1)
        size = operator_norm * u_max + scale
        worst = np.max(residual / scale, initial=worst)
        worst_backward = np.max(residual / size, initial=worst_backward)
        gap = u - u_rev[..., ::-1]
        gap_image = np.max(np.abs(gap - spectral.discrete_laplacian(gap)), axis=-1)
        worst_gap = np.max(gap_image / size, initial=worst_gap)
        denom = np.maximum(u_max, np.finfo(float).tiny)
        worst_disagreement = np.max(
            np.max(np.abs(gap), axis=-1) / denom, initial=worst_disagreement
        )
    return PropertyReport(
        name="maximality",
        samples=n_samples,
        worst_value=float(np.maximum(worst_backward, worst_gap) / 1e-14),
        tolerance=1.0,
        seed=seed,
        observed={
            "max_relative_residual": float(worst),
            "max_backward_error": float(worst_backward),
            "max_elimination_disagreement": float(worst_disagreement),
            "max_disagreement_backward_error": float(worst_gap),
        },
    )


def _evolve_each(states: np.ndarray, durations: list):
    """S(t) ``states`` for every t in ``durations``, a few durations per call.

    Yields ``(t, evolved)``: t shaped (k, 1) and evolved (k,) + states.shape.
    The durations go in the blocks of :func:`_blocks`, each duration counting
    the points of ``states``.  Each call transforms ``states`` forward once.
    """
    counts = list(_blocks(len(durations), len(states) * states.shape[-1]))
    for t in np.split(np.array(durations)[:, None], np.cumsum(counts)[:-1]):
        yield t, spectral.semigroup_apply(states, t)


def check_semigroup(
    n_samples: int,
    grid: Grid1D,
    seed: int = 0,
    times: tuple = (0.01, 0.1, 1.0),
) -> PropertyReport:
    """Contraction, composition law, strong continuity, generator consistency.

    The four sub-checks carry different native tolerances, so worst_value is
    normalized: each measured slack is divided by its own tolerance and the
    report passes iff the maximum stays below 1.  Native numbers are kept in
    ``observed``.

    A stack of states takes all its durations in one ``semigroup_apply``
    call, t shaped (durations, samples), so each state is transformed once
    per call; calls stack at most _BLOCK_POINTS points.  NaN times raise.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if len(times) == 0 or not all(t >= 0 for t in times):
        raise ValueError("sample durations must be one or more nonnegative numbers")
    rng = np.random.default_rng(seed)
    n, h = grid.n_interior, grid.h

    contraction_slack = 0.0
    law_defect = 0.0
    for count in _blocks(n_samples, n * (len(times) + 2)):
        # each sample draws its 2n nodal values on [-1, 1], then (t, s) on
        # [0, 1); -1 + 2 r is exactly what uniform(-1, 1) makes of r
        draws = rng.random((count, 2 * n + 2))
        states = (-1.0 + 2.0 * draws[:, : 2 * n]).reshape(count, 2, n)
        t, s = draws[:, -2], draws[:, -1]
        norms = pair_norm(states, h)
        # rows: S(d) U for each d in times, then S(t + s) U, then S(s) U
        evolved = spectral.semigroup_apply(states, np.stack(np.broadcast_arrays(*times, t + s, s)))
        for norms_after in pair_norm(evolved[: len(times)], h):
            contraction_slack = np.max((norms_after - norms) / norms, initial=contraction_slack)
        composed = spectral.semigroup_apply(evolved[-1], t)
        law_defect = np.max(pair_norm(evolved[-2] - composed, h) / norms, initial=law_defect)

    # strong continuity: ||S(t)U - U|| decreases monotonically as t halves
    halving = [0.1 * 2.0**-j for j in range(18)]  # down past 1e-6
    states = _random_states(rng, (min(n_samples, 8),), n)
    defects = np.concatenate(
        [pair_norm(evolved - states, h) for _, evolved in _evolve_each(states, halving)]
    )
    steps = np.diff(defects, axis=0)  # should all be <= 0
    continuity_violation = np.max(np.max(steps, axis=0, initial=0.0) / pair_norm(states, h))

    # generator consistency at rate O(t) on smooth states (low sine modes only,
    # so the halved durations sit inside the asymptotic regime)
    lam = spectral.laplacian_eigenvalues(grid)
    n_low = min(5, n)
    # the sine modes sin(k*pi*x) of fields.sine_mode, without building a Field
    smooth = [
        np.stack((np.sin(k * np.pi * grid.nodes), np.sin(min(k + 1, n) * np.pi * grid.nodes)))
        for k in (1, 2, 3)
        if k <= n
    ]
    coeffs = np.zeros((2, n))
    coeffs[0, :n_low] = rng.uniform(-1.0, 1.0, n_low)
    coeffs[1, :n_low] = rng.uniform(-1.0, 1.0, n_low)
    smooth = np.stack(smooth + [spectral.to_values(coeffs)])
    generator = spectral.discrete_laplacian(smooth)
    t0 = 0.01 / abs(lam[n_low - 1])
    drifts = _evolve_each(smooth, [t0 * 2.0**-j for j in range(4)])
    defects = np.concatenate(
        [pair_norm((d - smooth) * (1.0 / t)[..., None, None] - generator, h) for t, d in drifts]
    )
    orders = np.log2(defects[:-1] / defects[1:])
    order_error = np.max(np.abs(orders - 1.0))

    normalized = np.max(
        [
            contraction_slack / 1e-12,
            law_defect / 1e-12,
            continuity_violation / 1e-12,
            order_error / 0.1,
        ]
    )
    return PropertyReport(
        name="semigroup",
        samples=n_samples,
        worst_value=float(normalized),
        tolerance=1.0,
        seed=seed,
        observed={
            "max_contraction_slack": float(contraction_slack),
            "max_law_defect": float(law_defect),
            "max_continuity_increase": float(continuity_violation),
            "max_generator_order_error": float(order_error),
        },
    )


def check_lipschitz(
    n_samples: int,
    grid: Grid1D,
    seed: int = 0,
    C_levels: tuple = (0.5, 1.0, 5.0),
) -> PropertyReport:
    """Reaction-operator quotients stay below 4*sqrt(3)*C on the C-ball.

    worst_value is the largest slack (ratio minus bound) over all sampled
    pairs and levels; the empirically sharpest ratio per level is recorded
    in ``observed``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if len(C_levels) == 0 or not all(0 < c < np.inf for c in C_levels):
        raise ValueError("C levels must be one or more positive finite numbers")
    rng = np.random.default_rng(seed)
    n = grid.n_interior
    worst_slack = -np.inf
    observed = {}
    for level in C_levels:
        bound = nonlinearity.LIPSCHITZ_BOUND_FACTOR * level
        max_ratio = 0.0
        for count in _blocks(n_samples, 4 * n):
            pairs = _random_states(rng, (count, 2), n, target_norm=level)
            ratios = nonlinearity.lipschitz_ratio(pairs[:, 0], pairs[:, 1])
            max_ratio = np.max(ratios, initial=max_ratio)
        worst_slack = np.maximum(worst_slack, max_ratio - bound)
        observed[f"max_ratio_at_C={level:g}"] = float(max_ratio)
    return PropertyReport(
        name="lipschitz",
        samples=n_samples,
        worst_value=float(worst_slack),
        tolerance=1e-9,
        seed=seed,
        observed=observed,
    )


def run_checks(
    grid: Grid1D, seed: int, n_samples: int, lipschitz_samples: int
) -> list[PropertyReport]:
    """All four checks on one grid at their default durations and C levels, seeds seed + 0..3."""
    return [
        check_dissipativity(n_samples, grid, seed),
        check_maximality(n_samples, grid, seed + 1),
        check_semigroup(n_samples, grid, seed + 2),
        check_lipschitz(lipschitz_samples, grid, seed + 3),
    ]
