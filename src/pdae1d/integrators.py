"""Time marching for the constrained reaction-diffusion pair.

Three one-step methods share the split "stiff diffusion + mild reaction",
all written in the exact sine eigenbasis of the discrete Laplacian, where
diffusion is diagonal with z_k = d * lambda_k * dt per component:

* exponential Euler, exact on the diffusion part,
  c_{n+1} = exp(z) c_n + dt * phi1(z) DST(R(U_n, t_n));
* IMEX Euler, implicit in the diffusion and explicit in the reaction; the
  inverse of (I - dt * d * Laplacian) is the exact diagonal 1/(1 - z), so
  c_{n+1} = (c_n + dt * DST(R(U_n, t_n))) / (1 - z);
* a Picard fixed-point solve of the variation-of-constants integral on
  each slab, with trapezoid quadrature over a few substep samples.

A state is a (2, n) array of the nodal values (u, v); the one-step
functions take and return such arrays, and sources return each component
as a float array of shape (n,).  Only ``solve`` takes a ``StatePair``, at
the edge, and builds no ``Field``/``StatePair`` after it.

One factory builds each method's ``step(carry, values, t) -> (carry,
values, sweeps)``.  For exponential Euler and IMEX the carry is the (2, n)
sine coefficients, so a step is one batched inverse and one batched
forward sine transform; a Picard step is one ``picard_slab``, whose sweeps
each transform all substep samples at once, and carries nothing.  The
public one-step functions are thin calls of the same kernels.  ``solve``
runs one loop for every method: a step, then one norm that classifies it.
A norm below the blow-up threshold continues.  Otherwise a finiteness
scan, made only on that path, tells the two endings apart.  A non-finite
state is a step failure at the step's start time; its reason names the
first source component that is non-finite at a time the step used, or
else reads "non-finite state".  A finite one is a blow-up candidate (a
detection heuristic: the reported time is a candidate, not a proven
maximal existence time).  ``solve`` keeps each snapshot as its (2, n)
nodal values and, when the march ends, stacks them to (S, 2, n) and
reconstructs the constrained profile and its residual for all snapshots
with one call each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constraint import constraint_residual, reconstruct_w
from .fields import Grid1D, StatePair, _check_finite, pair_norm

# eval_reaction and zero_sources are looked up here at call time, so the
# wrappers perfbench/tracing.py puts on this module's bindings see every call
from .nonlinearity import (
    CoefficientSet,
    SourcePair,
    _reaction_terms,
    eval_reaction,
    zero_sources,
)

# phi1_apply, semigroup_apply and solve_shifted stay bound here because
# perfbench/tracing.py wraps every module binding of them
from .spectral import (  # noqa: F401
    laplacian_eigenvalues,
    phi1,
    phi1_apply,
    semigroup_apply,
    solve_shifted,
    to_coeffs,
    to_values,
)

__all__ = [
    "SolveConfig",
    "RunStatus",
    "Trajectory",
    "PicardResult",
    "PicardConvergenceError",
    "step_exp_euler",
    "step_imex",
    "picard_slab",
    "solve",
]

METHODS = ("exp_euler", "picard", "imex")


@dataclass(frozen=True)
class SolveConfig:
    """Fixed-step marching parameters; no adaptivity by design."""

    dt: float
    t_end: float
    method: str = "exp_euler"
    picard_max_iter: int = 25
    picard_tol: float = 1e-10
    picard_substeps: int = 4
    blowup_threshold: float = 1e6
    snapshot_every: int = 1

    def __post_init__(self):
        _check_finite(self)
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        steps = self.t_end / self.dt
        if steps == math.inf:
            raise ValueError(f"t_end={self.t_end} is too many steps of dt={self.dt}")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_end={self.t_end} is not a whole number of steps of dt={self.dt}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be >= 1")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_substeps < 2:
            raise ValueError("picard_substeps must be >= 2")
        if self.blowup_threshold <= 0:
            raise ValueError("blowup_threshold must be positive")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


@dataclass(frozen=True)
class RunStatus:
    """Terminal state of a march: completed, blowup_detected, or step_failure."""

    kind: str
    t: float | None = None
    reason: str | None = None

    @classmethod
    def completed(cls) -> "RunStatus":
        return cls("completed")

    @classmethod
    def blowup_detected(cls, t: float) -> "RunStatus":
        return cls("blowup_detected", t=t)

    @classmethod
    def step_failure(cls, t: float, reason: str) -> "RunStatus":
        return cls("step_failure", t=t, reason=reason)


@dataclass
class Trajectory:
    """Snapshots of a single march plus its termination status.

    Snapshot s is held as arrays: ``values[s]`` is the (2, n) nodal pair
    (u, v) at ``times[s]``, ``w[s]`` the reconstructed profile at all n+2
    nodes (w(0) = 0 exactly, w(1) last), and ``residual_l2[s]`` and
    ``w_at_1[s]`` its constraint diagnostics.
    """

    grid: Grid1D
    times: list[float]
    values: np.ndarray
    w: np.ndarray
    residual_l2: np.ndarray
    w_at_1: np.ndarray
    status: RunStatus
    steps_taken: int = 0
    picard_iterations_total: int = 0


class PicardResult(NamedTuple):
    """A slab's end values (2, n), its sweep count and the per-sweep changes."""

    values: np.ndarray
    iterations: int
    diff_norms: tuple[float, ...]


class PicardConvergenceError(RuntimeError):
    """Raised when a slab's fixed point does not contract within the sweep budget.

    It means only "no convergence": a slab whose iterate turns non-finite
    returns its end values, and ``solve`` classifies them.
    """

    def __init__(self, t: float, iterations: int, diff_norms: tuple[float, ...]):
        self.t = t
        self.iterations = iterations
        self.diff_norms = diff_norms
        self.contraction_estimate = (
            diff_norms[-1] / diff_norms[-2]
            if len(diff_norms) >= 2 and diff_norms[-2] > 0
            else float("nan")
        )
        super().__init__(
            f"no convergence after {iterations} sweeps at t={t}; "
            f"last contraction estimate {self.contraction_estimate:.3g}"
        )


def _exponents(grid: Grid1D, c: CoefficientSet, dt: float) -> np.ndarray:
    # z_k = d * dt * lambda_k per component, shape (2, n)
    lam = laplacian_eigenvalues(grid)
    return np.stack((c.d_u * dt * lam, c.d_v * dt * lam))


def _step_inputs(dt: float, values: np.ndarray, sources, coefficients):
    """The grid of ``values`` (2, n), and the coefficients and sources with their defaults."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    grid = Grid1D(values.shape[-1])
    c = coefficients if coefficients is not None else CoefficientSet()
    return grid, c, sources if sources is not None else zero_sources(grid)


def _substep_times(t: float, dt: float, m: int) -> list[float]:
    # the m uniformly spaced samples of the slab [t, t + dt]
    delta = dt / (m - 1)
    return [t + i * delta for i in range(m)]


def _stepper(
    method: str, values: np.ndarray, dt: float, config: SolveConfig | None,
    sources: SourcePair | None, coefficients: CoefficientSet | None,
):
    """One method's step, its starting carry, and the source times of a step.

    Returns ``(step, carry, source_times)``: ``step(carry, values, t) ->
    (carry, values, sweeps)`` advances nodal values (2, n) from t by dt,
    the carry is the sine coefficients of ``values`` for exp_euler/imex
    (the update c <- a*c + b*DST(R(values) + S(t))) and None for picard,
    and ``source_times(t)`` lists the times at which a step from t
    evaluates the sources.
    """
    grid, c, src = _step_inputs(dt, values, sources, coefficients)
    if method == "picard":

        def step(carry, values, t):
            # through the module binding, so a tracer of picard_slab sees every slab
            result = picard_slab(values, t, dt, config, src, c)
            return carry, result.values, result.iterations

        return step, None, lambda t: _substep_times(t, dt, config.picard_substeps)
    z = _exponents(grid, c, dt)
    if method == "exp_euler":
        a, b = np.exp(z), dt * phi1(z)
    else:
        a, b = 1.0 / (1.0 - z), dt / (1.0 - z)

    def step(coeffs, values, t):
        coeffs = a * coeffs + b * to_coeffs(eval_reaction(values, t, src, c))
        return coeffs, to_values(coeffs), 0

    return step, to_coeffs(values), lambda t: (t,)


@lru_cache(maxsize=16)
def _picard_weights(grid: Grid1D, delta: float, m: int, c: CoefficientSet):
    """Drift E^i and history weight K of a slab with m samples delta apart.

    E is the propagator over one substep gap; K[i, q] is the trapezoid
    weight times E^(i - q).  Cached, so a march builds them once.
    """
    drift = np.exp(np.arange(m)[:, None, None] * _exponents(grid, c, delta))
    kernel = np.zeros((m,) + drift.shape)
    for i in range(1, m):
        kernel[i, : i + 1] = delta * drift[i::-1]  # E^(i - q) for q = 0..i
        kernel[i, [0, i]] *= 0.5
    drift.flags.writeable = kernel.flags.writeable = False
    return drift, kernel


# step_exp_euler, step_imex and picard_slab are traced by perfbench/tracing.py
def step_exp_euler(
    values: np.ndarray,
    t: float,
    dt: float,
    sources: SourcePair | None = None,
    coefficients: CoefficientSet | None = None,
) -> np.ndarray:
    """One exponential-Euler step of nodal values (2, n) from time t.

    Exact on the diffusion part; the reaction is frozen at the left
    endpoint and weighted by phi1.
    """
    step, coeffs, _ = _stepper("exp_euler", values, dt, None, sources, coefficients)
    return step(coeffs, values, t)[1]


def step_imex(
    values: np.ndarray,
    t: float,
    dt: float,
    sources: SourcePair | None = None,
    coefficients: CoefficientSet | None = None,
) -> np.ndarray:
    """One IMEX Euler step of nodal values (2, n): implicit diffusion, explicit reaction.

    Componentwise (I - dt*d*Laplacian) u_next = u + dt*rhs_u, solved
    exactly in the sine eigenbasis, where the inverse is the diagonal
    1/(1 - dt*d*lambda_k); unconditionally stable in the diffusion part.
    """
    step, coeffs, _ = _stepper("imex", values, dt, None, sources, coefficients)
    return step(coeffs, values, t)[1]


def picard_slab(
    values: np.ndarray,
    t: float,
    dt: float,
    config: SolveConfig,
    sources: SourcePair | None = None,
    coefficients: CoefficientSet | None = None,
) -> PicardResult:
    """Fixed-point solve of the variation-of-constants integral on [t, t+dt].

    ``values`` are the nodal values (2, n) at t.  The iterate is held at
    ``picard_substeps`` uniformly spaced samples of the slab, all swept at
    once: sample i is E^i c_0 + sum_q K[i, q] F_q, with F_q the
    reaction-plus-source coefficients at sample q.  Sweeping stops when
    the max-over-samples product-norm change drops below ``picard_tol``,
    or when that change is non-finite and so is the new iterate (a finite
    iterate whose squared change overflows keeps sweeping).  Either way the
    slab's end values are returned, finite or not; the caller classifies
    them.  Exhausting ``picard_max_iter`` raises
    :class:`PicardConvergenceError`.
    """
    grid, c, src = _step_inputs(dt, values, sources, coefficients)
    m = config.picard_substeps
    drift, kernel = _picard_weights(grid, dt / (m - 1), m, c)
    forcing = np.empty(drift.shape)
    for i, s in enumerate(_substep_times(t, dt, m)):
        forcing[i, 0] = src.f(s)
        forcing[i, 1] = src.g(s)
    start = drift * to_coeffs(values)
    iterate = start
    diff_norms: list[float] = []
    for _ in range(config.picard_max_iter):
        rhs = to_coeffs(_reaction_terms(to_values(iterate), c) + forcing)
        new = start + np.einsum("iqkn,qkn->ikn", kernel, rhs)
        # Parseval on the unit interval: ||f||_2^2 = (1/2) sum c_k^2
        diffs = 0.5 * np.sum((new - iterate) ** 2, axis=(1, 2))
        change = float(np.sqrt(np.max(diffs)))
        diff_norms.append(change)
        iterate = new
        # a non-finite change with a finite iterate only overflowed when squared
        if change < config.picard_tol or not (math.isfinite(change) or np.all(np.isfinite(new))):
            return PicardResult(to_values(new[-1]), len(diff_norms), tuple(diff_norms))
    raise PicardConvergenceError(t, config.picard_max_iter, tuple(diff_norms))


def _non_finite_reason(sources: SourcePair, times) -> str:
    """Name the first source component that is non-finite at one of ``times``."""
    for t in times:
        for name in ("f", "g"):
            if not np.all(np.isfinite(getattr(sources, name)(t))):
                return f"non-finite source {name} at t={t}"
    return "non-finite state"


def _march(
    values: np.ndarray, grid: Grid1D, config: SolveConfig, src: SourcePair, c: CoefficientSet,
    times: list[float], snapshots: list[np.ndarray],
) -> tuple[RunStatus, int, int]:
    """Advance ``values`` (2, n) from t = 0, appending each snapshot's time and values.

    One loop for every method; returns the terminal status, the accepted
    steps and the Picard sweeps.
    """
    if pair_norm(values, grid.h) >= config.blowup_threshold:
        return RunStatus.blowup_detected(0.0), 0, 0
    step, carry, source_times = _stepper(config.method, values, config.dt, config, src, c)
    sweeps = 0
    n_steps = round(config.t_end / config.dt)
    for k in range(1, n_steps + 1):
        t_prev = (k - 1) * config.dt
        try:
            carry, values, used = step(carry, values, t_prev)
        except PicardConvergenceError as err:
            return RunStatus.step_failure(t_prev, str(err)), k - 1, sweeps + err.iterations
        sweeps += used
        t_now = k * config.dt
        # a NaN norm is not below the threshold either, so only a state that
        # is non-finite or a blow-up candidate pays for the finiteness scan
        below = pair_norm(values, grid.h) < config.blowup_threshold
        if not below and not np.all(np.isfinite(values)):
            reason = _non_finite_reason(src, source_times(t_prev))
            return RunStatus.step_failure(t_prev, reason), k - 1, sweeps
        if not below or k % config.snapshot_every == 0 or k == n_steps:
            times.append(t_now)
            snapshots.append(values)
        if not below:
            return RunStatus.blowup_detected(t_now), k, sweeps
    return RunStatus.completed(), n_steps, sweeps


def _check_sources(sources: SourcePair, n: int) -> None:
    for name in ("f", "g"):
        value = getattr(sources, name)(0.0)
        if not (isinstance(value, np.ndarray) and value.dtype == float and value.shape == (n,)):
            shape = getattr(value, "shape", type(value).__name__)
            raise ValueError(
                f"sources.{name}(0.0) must be a float array of shape ({n},), got {shape}"
            )


# solve takes a StatePair: the benchmark builds its initial states with
# mms_state, and its self-test counts their Field constructions
def solve(
    state0: StatePair,
    config: SolveConfig,
    sources: SourcePair | None = None,
    coefficients: CoefficientSet | None = None,
) -> Trajectory:
    """March from t = 0 to t_end at fixed dt with the configured method.

    Snapshots (nodal pair, reconstructed profile, constraint diagnostics)
    are taken every ``snapshot_every`` steps plus always at t = 0 and at
    the final accepted step.  Crossing the blow-up threshold stops the
    march with a candidate detection time; a Picard slab that does not
    converge or a step that leaves a non-finite state ends it as a step
    failure that keeps the partial trajectory; the reason of the latter
    names a non-finite source value the step used, if there is one.
    However the march ends, the profiles and residuals of all snapshots
    come from one ``reconstruct_w`` and one ``constraint_residual`` call
    on the stack.
    Sources whose components at t = 0 are not float arrays of shape (n,)
    raise ValueError before the first step.
    """
    values0 = state0.values
    grid, c, src = _step_inputs(config.dt, values0, sources, coefficients)
    _check_sources(src, grid.n_interior)
    times, snapshots = [0.0], [values0]
    status, steps, sweeps = _march(values0, grid, config, src, c, times, snapshots)
    values = np.stack(snapshots)
    w = reconstruct_w(values, c.p_u, c.p_v)
    report = constraint_residual(values, w, c.p_u, c.p_v)
    return Trajectory(
        grid, times, values, w, report.residual_l2, report.w_at_1, status, steps, sweeps
    )
