"""Randomized, seeded checks of the discrete operator facts.

Each check packages one structural property of the finite-difference
system as a reproducible pass/fail report:

* dissipativity: the quadratic form of the diffusion operator is never
  positive, and equals minus the sum of squared difference quotients
  (summation by parts is exact for the discrete operator);
* maximality: the shift-by-one solve hits any right-hand side with a
  machine-precision residual, and two elimination orders agree;
* semigroup: contraction, the composition law, strong continuity in t,
  and first-order consistency of (S(t)-I)/t with the generator;
* local Lipschitz bound of the reaction operator on norm balls.

These are finite-dimensional analogues: the interior second-difference
matrix is symmetric negative definite, so the first three hold at machine
precision rather than approximately.  All product norms are discrete
L2 x L2 throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nonlinearity, spectral
from .fields import Field, Grid1D, StatePair, sine_mode

__all__ = [
    "PropertyReport",
    "check_dissipativity",
    "check_maximality",
    "check_semigroup",
    "check_lipschitz",
    "run_checks",
    "report_to_dict",
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


def report_to_dict(report: PropertyReport) -> dict:
    out = {
        "name": report.name,
        "samples": report.samples,
        "worst_value": report.worst_value,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "seed": report.seed,
    }
    if report.observed:
        out["observed"] = dict(report.observed)
    return out


def _random_state(grid: Grid1D, rng: np.random.Generator, target_norm: float | None = None) -> StatePair:
    # uniform nodal values in [-1, 1], optionally rescaled to an exact norm
    u = rng.uniform(-1.0, 1.0, grid.n_interior)
    v = rng.uniform(-1.0, 1.0, grid.n_interior)
    state = StatePair(Field(grid, u), Field(grid, v))
    if target_norm is not None:
        current = state.norm()
        while current == 0.0:
            u = rng.uniform(-1.0, 1.0, grid.n_interior)
            v = rng.uniform(-1.0, 1.0, grid.n_interior)
            state = StatePair(Field(grid, u), Field(grid, v))
            current = state.norm()
        state = state * (target_norm / current)
    return state


def check_dissipativity(n_samples: int, grid: Grid1D, seed: int = 0) -> PropertyReport:
    """Quadratic form <A U, U> <= 0, and equal to minus the gradient energy.

    worst_value is the larger of the normalized form max <A U, U>/||U||^2
    and the relative defect of the summation-by-parts identity
    <A U, U> = -(|u|_1^2 + |v|_1^2); both must stay below 1e-10.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    h = grid.h
    worst = -np.inf
    worst_identity = 0.0
    for _ in range(n_samples):
        state = _random_state(grid, rng)
        au = spectral.discrete_laplacian(state.u).values
        av = spectral.discrete_laplacian(state.v).values
        inner = h * (np.dot(state.u.values, au) + np.dot(state.v.values, av))
        energy = (
            nonlinearity.h1_seminorm(state.u) ** 2 + nonlinearity.h1_seminorm(state.v) ** 2
        )
        norm_sq = state.norm() ** 2
        worst = max(worst, inner / norm_sq)
        worst_identity = max(worst_identity, abs(inner + energy) / energy)
    return PropertyReport(
        name="dissipativity",
        samples=n_samples,
        worst_value=float(max(worst, worst_identity)),
        tolerance=1e-10,
        seed=seed,
        observed={
            "max_normalized_form": float(worst),
            "max_identity_defect": float(worst_identity),
        },
    )


def check_maximality(n_samples: int, grid: Grid1D, seed: int = 0) -> PropertyReport:
    """(I - A) U = g is solvable for random g with tiny residual, uniquely.

    worst_value is the larger of the relative max-norm residual and the
    relative disagreement between forward and reversed elimination orders
    (the matrix is persymmetric, so index reversal solves the same system).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_disagreement = 0.0
    for _ in range(n_samples):
        for _component in range(2):
            g = Field(grid, rng.uniform(-1.0, 1.0, grid.n_interior))
            u = spectral.solve_shifted(g, 1.0)
            residual = u.values - spectral.discrete_laplacian(u).values - g.values
            scale = np.max(np.abs(g.values))
            worst = max(worst, np.max(np.abs(residual)) / scale)
            flipped = spectral.solve_shifted(Field(grid, g.values[::-1]), 1.0)
            u_rev = flipped.values[::-1]
            denom = max(np.max(np.abs(u.values)), np.finfo(float).tiny)
            worst_disagreement = max(
                worst_disagreement, np.max(np.abs(u.values - u_rev)) / denom
            )
    return PropertyReport(
        name="maximality",
        samples=n_samples,
        worst_value=float(max(worst, worst_disagreement)),
        tolerance=1e-12,
        seed=seed,
        observed={
            "max_relative_residual": float(worst),
            "max_elimination_disagreement": float(worst_disagreement),
        },
    )


def _generator_defect(state: StatePair, t: float) -> float:
    drift = spectral.semigroup_apply(state, t)
    difference_quotient = (drift - state) * (1.0 / t)
    generator = StatePair(
        spectral.discrete_laplacian(state.u), spectral.discrete_laplacian(state.v)
    )
    return (difference_quotient - generator).norm()


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
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if any(t < 0 for t in times):
        raise ValueError("sample durations must be nonnegative")
    rng = np.random.default_rng(seed)

    contraction_slack = 0.0
    law_defect = 0.0
    for _ in range(n_samples):
        state = _random_state(grid, rng)
        norm = state.norm()
        for t in times:
            contraction_slack = max(
                contraction_slack, (spectral.semigroup_apply(state, t).norm() - norm) / norm
            )
        t, s = rng.uniform(0.0, 1.0, 2)
        joint = spectral.semigroup_apply(state, t + s)
        composed = spectral.semigroup_apply(spectral.semigroup_apply(state, s), t)
        law_defect = max(law_defect, (joint - composed).norm() / norm)

    # strong continuity: ||S(t)U - U|| decreases monotonically as t halves
    continuity_violation = 0.0
    halving = [0.1 * 2.0**-j for j in range(18)]  # down past 1e-6
    for _ in range(min(n_samples, 8)):
        state = _random_state(grid, rng)
        norm = state.norm()
        defects = [(spectral.semigroup_apply(state, t) - state).norm() for t in halving]
        steps = np.diff(defects)  # should all be <= 0
        continuity_violation = max(continuity_violation, float(np.max(steps, initial=0.0)) / norm)

    # generator consistency at rate O(t) on smooth states (low sine modes only,
    # so the halved durations sit inside the asymptotic regime)
    lam = spectral.laplacian_eigenvalues(grid)
    order_error = 0.0
    n_low = min(5, grid.n_interior)
    smooth_states = [
        StatePair(sine_mode(grid, k), sine_mode(grid, min(k + 1, grid.n_interior)))
        for k in (1, 2, 3)
        if k <= grid.n_interior
    ]
    cu = np.zeros(grid.n_interior)
    cv = np.zeros(grid.n_interior)
    cu[:n_low] = rng.uniform(-1.0, 1.0, n_low)
    cv[:n_low] = rng.uniform(-1.0, 1.0, n_low)
    smooth_states.append(
        StatePair(Field(grid, spectral.to_values(cu)), Field(grid, spectral.to_values(cv)))
    )
    t0 = 0.01 / abs(lam[n_low - 1])
    for state in smooth_states:
        defects = [_generator_defect(state, t0 * 2.0**-j) for j in range(4)]
        orders = np.log2(np.asarray(defects[:-1]) / np.asarray(defects[1:]))
        order_error = max(order_error, float(np.max(np.abs(orders - 1.0))))

    normalized = max(
        contraction_slack / 1e-12,
        law_defect / 1e-12,
        continuity_violation / 1e-12,
        order_error / 0.1,
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
    if any(c <= 0 for c in C_levels):
        raise ValueError("C levels must be positive")
    rng = np.random.default_rng(seed)
    worst_slack = -np.inf
    observed = {}
    for level in C_levels:
        bound = nonlinearity.LIPSCHITZ_BOUND_FACTOR * level
        max_ratio = 0.0
        for _ in range(n_samples):
            a = _random_state(grid, rng, target_norm=level)
            b = _random_state(grid, rng, target_norm=level)
            ratio = nonlinearity.lipschitz_ratio(a, b)
            max_ratio = max(max_ratio, ratio)
        worst_slack = max(worst_slack, max_ratio - bound)
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
    grid: Grid1D,
    seed: int = 0,
    n_samples: int = 1000,
    lipschitz_samples: int = 10000,
    times: tuple = (0.01, 0.1, 1.0),
    C_levels: tuple = (0.5, 1.0, 5.0),
) -> list[PropertyReport]:
    """All four checks on one grid; per-check seeds are fixed offsets of ``seed``."""
    return [
        check_dissipativity(n_samples, grid, seed),
        check_maximality(n_samples, grid, seed + 1),
        check_semigroup(n_samples, grid, seed + 2, times),
        check_lipschitz(lipschitz_samples, grid, seed + 3, C_levels),
    ]
