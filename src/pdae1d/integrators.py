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
the edge, and builds no ``Field``/``StatePair`` after it.  Inside
``solve`` an exponential-Euler or IMEX state is a (2, n) array of sine
coefficients held together with its nodal values (which the reaction, the
norm and the snapshots need), and each step is one batched inverse and
one batched forward sine transform.  A Picard march goes slab by slab
through ``picard_slab``, whose sweeps each transform all substep samples
at once.  ``solve`` keeps each snapshot as its (2, n) nodal values and,
when the march ends, stacks them to (S, 2, n) and reconstructs the
constrained profile and its residual for all snapshots with one call
each.  The public one-step functions wrap the same kernels.  The march
stops early when the state norm crosses the blow-up threshold (a
detection heuristic: the reported time is a candidate, not a proven
maximal existence time).
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
    """Raised when a slab's fixed point does not contract within the budget.

    A sweep that leaves the iterate non-finite raises it at once, with
    ``non_finite`` set and a message starting with "non-finite state".
    """

    def __init__(
        self, t: float, iterations: int, diff_norms: tuple[float, ...], non_finite: bool = False
    ):
        self.t = t
        self.iterations = iterations
        self.diff_norms = diff_norms
        self.non_finite = non_finite
        self.contraction_estimate = (
            diff_norms[-1] / diff_norms[-2]
            if len(diff_norms) >= 2 and diff_norms[-2] > 0
            else float("nan")
        )
        if non_finite:
            message = f"non-finite state after {iterations} sweeps at t={t}"
        else:
            message = (
                f"no convergence after {iterations} sweeps at t={t}; "
                f"last contraction estimate {self.contraction_estimate:.3g}"
            )
        super().__init__(message)


def _exponents(grid: Grid1D, c: CoefficientSet, dt: float) -> np.ndarray:
    # z_k = d * dt * lambda_k per component, shape (2, n)
    lam = laplacian_eigenvalues(grid)
    return np.stack((c.d_u * dt * lam, c.d_v * dt * lam))


def _diagonal_step(method: str, grid: Grid1D, dt: float, sources: SourcePair, c: CoefficientSet):
    """exp_euler or imex as the diagonal update c <- a*c + b*DST(R(values) + S(t)).

    Returns ``step(coeffs, values, t) -> (coeffs, values)`` on the (2, n)
    sine coefficients and nodal values of one state.
    """
    z = _exponents(grid, c, dt)
    if method == "exp_euler":
        a, b = np.exp(z), dt * phi1(z)
    else:
        a, b = 1.0 / (1.0 - z), dt / (1.0 - z)

    def step(coeffs, values, t):
        coeffs = a * coeffs + b * to_coeffs(eval_reaction(values, t, sources, c))
        return coeffs, to_values(coeffs)

    return step


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


def _picard_sweeps(
    grid: Grid1D, values: np.ndarray, t: float, dt: float, config: SolveConfig,
    sources: SourcePair, c: CoefficientSet,
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Fixed-point sweeps of one slab, all m substep samples at once.

    Sample i of an iterate is E^i c_0 + sum_q K[i, q] F_q, with F_q the
    reaction-plus-source coefficients at sample q.  Returns the end values
    and the per-sweep changes.
    """
    m = config.picard_substeps
    delta = dt / (m - 1)
    drift, kernel = _picard_weights(grid, delta, m, c)
    forcing = np.empty(drift.shape)
    for i in range(m):
        forcing[i, 0] = sources.f(t + i * delta)
        forcing[i, 1] = sources.g(t + i * delta)
    start = drift * to_coeffs(values)
    iterate = start
    diff_norms: list[float] = []
    for _ in range(config.picard_max_iter):
        rhs = to_coeffs(_reaction_terms(to_values(iterate), c) + forcing)
        new = start + np.einsum("iqkn,qkn->ikn", kernel, rhs)
        # Parseval on the unit interval: ||f||_2^2 = (1/2) sum c_k^2
        diffs = 0.5 * np.sum((new - iterate) ** 2, axis=(1, 2))
        diff_norms.append(float(np.sqrt(np.max(diffs))))
        iterate = new
        finite = np.all(np.isfinite(iterate))
        if finite and diff_norms[-1] >= config.picard_tol:
            continue
        end = to_values(iterate[-1]) if finite else iterate[-1]
        if not np.all(np.isfinite(end)):
            raise PicardConvergenceError(t, len(diff_norms), tuple(diff_norms), non_finite=True)
        return end, tuple(diff_norms)
    raise PicardConvergenceError(t, config.picard_max_iter, tuple(diff_norms))


def _step_inputs(dt: float, values: np.ndarray, sources, coefficients):
    if not dt > 0:
        raise ValueError("dt must be positive")
    grid = Grid1D(values.shape[-1])
    c = coefficients if coefficients is not None else CoefficientSet()
    return grid, c, sources if sources is not None else zero_sources(grid)


def _diagonal_one_step(method, values, t, dt, sources, coefficients) -> np.ndarray:
    grid, c, src = _step_inputs(dt, values, sources, coefficients)
    step = _diagonal_step(method, grid, dt, src, c)
    return step(to_coeffs(values), values, t)[1]


# step_exp_euler, step_imex and picard_slab are traced by perfbench/tracing.py;
# _march calls picard_slab through this module, so every slab is seen
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
    return _diagonal_one_step("exp_euler", values, t, dt, sources, coefficients)


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
    return _diagonal_one_step("imex", values, t, dt, sources, coefficients)


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
    ``picard_substeps`` uniformly spaced samples of the slab; each sweep
    replaces it by the semigroup drift plus the trapezoid quadrature of
    the propagated reaction history.  Sweeping stops when the
    max-over-samples product-norm change drops below ``picard_tol``.  A
    sweep that leaves the iterate non-finite, or exhausting
    ``picard_max_iter``, raises :class:`PicardConvergenceError` (the former
    with ``non_finite`` set).
    """
    grid, c, src = _step_inputs(dt, values, sources, coefficients)
    end, diff_norms = _picard_sweeps(grid, values, t, dt, config, src, c)
    return PicardResult(end, len(diff_norms), diff_norms)


def _march(
    values: np.ndarray, grid: Grid1D, config: SolveConfig, src: SourcePair, c: CoefficientSet,
    times: list[float], snapshots: list[np.ndarray],
) -> tuple[RunStatus, int, int]:
    """Advance ``values`` (2, n) from t = 0, appending each snapshot's time and values.

    Returns the terminal status, the accepted steps and the Picard sweeps.
    """
    if pair_norm(values, grid.h) >= config.blowup_threshold:
        return RunStatus.blowup_detected(0.0), 0, 0
    picard = config.method == "picard"
    if not picard:
        step = _diagonal_step(config.method, grid, config.dt, src, c)
        coeffs = to_coeffs(values)
    sweeps = 0
    n_steps = round(config.t_end / config.dt)
    for k in range(1, n_steps + 1):
        t_prev = (k - 1) * config.dt
        if picard:
            # a slab goes through picard_slab, whose result records its sweeps
            try:
                result = picard_slab(values, t_prev, config.dt, config, src, c)
            except PicardConvergenceError as err:
                return RunStatus.step_failure(t_prev, str(err)), k - 1, sweeps
            values = result.values
            sweeps += result.iterations
        else:
            coeffs, values = step(coeffs, values, t_prev)
            if not np.all(np.isfinite(values)):
                return RunStatus.step_failure(t_prev, "non-finite state"), k - 1, sweeps
        t_now = k * config.dt
        blowup = pair_norm(values, grid.h) >= config.blowup_threshold
        if blowup or k % config.snapshot_every == 0 or k == n_steps:
            times.append(t_now)
            snapshots.append(values)
        if blowup:
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
    failure that keeps the partial trajectory.  However the march ends,
    the profiles and residuals of all snapshots come from one
    ``reconstruct_w`` and one ``constraint_residual`` call on the stack.
    Sources whose components at t = 0 are not float arrays of shape (n,)
    raise ValueError before the first step.
    """
    grid = state0.grid
    c = coefficients if coefficients is not None else CoefficientSet()
    src = sources if sources is not None else zero_sources(grid)
    _check_sources(src, grid.n_interior)
    values0 = np.stack((state0.u.values, state0.v.values))
    times, snapshots = [0.0], [values0]
    status, steps, sweeps = _march(values0, grid, config, src, c, times, snapshots)
    values = np.stack(snapshots)
    w = reconstruct_w(values, c.p_u, c.p_v)
    report = constraint_residual(values, w, c.p_u, c.p_v)
    return Trajectory(
        grid, times, values, w, report.residual_l2, report.w_at_1, status, steps, sweeps
    )
