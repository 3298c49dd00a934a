"""Time marching for the constrained reaction-diffusion pair.

Three one-step methods share the split "stiff diffusion + mild reaction",
all written in the exact sine eigenbasis of the discrete Laplacian, where
diffusion is diagonal with z_k = d * lambda_k * dt per component, built by
``spectral._exponents`` for every method, with exp(z) from ``spectral._exp``:

* exponential Euler, exact on the diffusion part,
  c_{n+1} = exp(z) c_n + dt * phi1(z) DST(R(U_n, t_n));
* IMEX Euler, implicit in the diffusion and explicit in the reaction; the
  inverse of (I - dt * d * Laplacian) is the exact diagonal 1/(1 - z), so
  c_{n+1} = (c_n + dt * DST(R(U_n, t_n))) / (1 - z);
* a Picard fixed-point solve of the variation-of-constants integral on
  each slab, with trapezoid quadrature over a few substep samples.

A state is a (2, n) array of the nodal values (u, v); the one-step
functions take and return such arrays.  Only ``solve`` takes a
``StatePair``, at the edge, and builds no ``Field``/``StatePair`` after it.

Every method has one step contract, ``step(carry, values, t, s) ->
(carry, values, sweeps)``: t is the step's start and s the source values
at the step's source times t + offsets.  ``_stepper`` gives each method's
step, carry and offsets: 0.0 for exponential Euler and IMEX, with s shaped
(2, n), and the m = ``picard_substeps`` substep offsets of a Picard slab,
with s shaped (m, 2, n).  An exp_euler or imex step is
``_diagonal_step`` on the weights (a, b) that ``_weights`` builds from z
and carries the (2, n) sine coefficients; a Picard step is one
``picard_slab``, which carries nothing and never evaluates the sources.

``solve`` runs one march for every method.  It evaluates the source times
of a block of steps, as many as keep the block within ``_BLOCK_VALUES``
values, with one f call and one g call, and hands each step its row.
After a step, one norm classifies it: below the blow-up threshold the
march continues; otherwise a finiteness scan tells a non-finite state, a
step failure at the step's start whose reason names the first non-finite
source value in the step's row, f before g, from a blow-up candidate (a
detection heuristic, not a proven maximal existence time).  ``solve``
stacks the snapshots to (S, 2, n) when the march ends and reconstructs
the constrained profile and its residual for all of them with one call
each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .constraint import constraint_residual, reconstruct_w
from .fields import Grid1D, StatePair, _check_fields, _pair_norm, pair_norm

# eval_reaction and zero_sources are looked up here at call time, so the
# wrappers perfbench/tracing.py puts on this module's bindings see every call
from .nonlinearity import (
    _DEFAULT_COEFFICIENTS,
    CoefficientSet,
    SourcePair,
    _reaction_terms,
    _source_values,
    eval_reaction,
    zero_sources,
)

# phi1_apply, semigroup_apply and solve_shifted stay bound here because
# perfbench/tracing.py wraps every module binding of them
from .spectral import (  # noqa: F401
    _exp,
    _exponents,
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

# a march evaluates the sources of its steps a block of steps at a time, one f
# and one g call per block of at most this many values (64 KB)
_BLOCK_VALUES = 8192


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
        _check_fields(self)
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

    It means only "no convergence": a slab whose end values turn non-finite
    or reach the blow-up threshold returns them, and ``solve`` classifies them.
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


def _step_inputs(dt: float, values: np.ndarray, coefficients):
    """The node count n >= 1 of ``values`` (2, n) and the coefficients with their default."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    n = values.shape[-1]
    if n < 1:
        raise ValueError("n_interior must be a positive integer")
    return n, coefficients if coefficients is not None else _DEFAULT_COEFFICIENTS


def _stepper(method: str, values: np.ndarray, dt: float, config: SolveConfig | None, coefficients):
    """One method's ``step(carry, values, t, s) -> (carry, values, sweeps)``, starting carry and offsets.

    A step advances nodal values (2, n) by dt from t, with s the source
    values at t + offsets: 0.0 for exp_euler/imex, so s is (2, n), and the m
    substep offsets of a Picard slab, so s is (m, 2, n).  The carry is the
    sine coefficients of ``values`` for exp_euler/imex and None for picard.
    """
    n, c = _step_inputs(dt, values, coefficients)
    if method == "picard":
        m = config.picard_substeps

        def step(carry, values, t, s):
            # through the module binding, so a tracer of picard_slab sees every slab
            result = picard_slab(values, t, dt, config, s, c)
            return carry, result.values, result.iterations

        return step, None, np.arange(m) * (dt / (m - 1))
    a, b = _weights(method, _exponents(n, c.d_u, c.d_v, dt), dt)
    return partial(_diagonal_step, a, b, c), to_coeffs(values), 0.0


def _weights(method: str, z: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray]:
    """The weights (a, b) of an exp_euler or imex step of length dt, for z of any shape.

    exp_euler: a = exp(z), b = dt * phi1(z); imex: a = 1/(1 - z), b = dt/(1 - z).
    """
    if method == "exp_euler":
        return _exp(z), dt * phi1(z)
    return 1.0 / (1.0 - z), dt / (1.0 - z)


def _diagonal_step(a, b, c: CoefficientSet, coeffs, values, t, s):
    """The diagonal update c <- a*c + b*DST(R(values) + s); returns (c, values, 0).

    ``coeffs`` and ``values`` are (..., 2, n), the sine coefficients and
    nodal values of one state or a stack, ``s`` the source values at the
    step's start t, (2, n) or a matching stack, and a, b broadcast against
    them.
    """
    coeffs = a * coeffs + b * to_coeffs(eval_reaction(values, s, c))
    return coeffs, to_values(coeffs), 0


@lru_cache(maxsize=16)
def _picard_weights(n: int, delta: float, m: int, c: CoefficientSet):
    """Drift E^i and history weight K of a slab of n nodes with m samples delta apart.

    E is the propagator over one substep gap; K[i, q] is the trapezoid
    weight times E^(i - q).  Cached, so a march builds them once.
    """
    z = _exponents(n, c.d_u, c.d_v, delta)
    drift = _exp(np.arange(m)[:, None, None] * z)
    kernel = np.zeros((m,) + drift.shape)
    for i in range(1, m):
        kernel[i, : i + 1] = delta * drift[i::-1]  # E^(i - q) for q = 0..i
        kernel[i, [0, i]] *= 0.5
    drift.flags.writeable = kernel.flags.writeable = False
    return drift, kernel


def _one_step(method, values, t, dt, sources, coefficients) -> np.ndarray:
    """One exp_euler or imex step of nodal values (2, n) from t, its sources evaluated at t."""
    step, coeffs, _ = _stepper(method, values, dt, None, coefficients)
    n = values.shape[-1]
    src = sources if sources is not None else zero_sources(Grid1D(n))
    return step(coeffs, values, t, _source_values(src, np.array([t], dtype=float), n)[0])[1]


# step_exp_euler, step_imex and picard_slab are traced by perfbench/tracing.py.
# Each returns a state that overflowed or turned non-finite as it is, for the
# caller to classify, so numpy's warnings on the way there are only noise.
@np.errstate(over="ignore", invalid="ignore")
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
    return _one_step("exp_euler", values, t, dt, sources, coefficients)


@np.errstate(over="ignore", invalid="ignore")
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
    return _one_step("imex", values, t, dt, sources, coefficients)


@np.errstate(over="ignore", invalid="ignore")
def picard_slab(
    values: np.ndarray,
    t: float,
    dt: float,
    config: SolveConfig,
    sources: np.ndarray | None = None,
    coefficients: CoefficientSet | None = None,
) -> PicardResult:
    """Fixed-point solve of the variation-of-constants integral on [t, t+dt].

    ``values`` are the nodal values (2, n) at t, and ``sources`` the source
    values (f, g) at the slab's m = ``picard_substeps`` substep times
    t + i * (dt / (m - 1)), a float array shaped (m, 2, n), or None
    for none; anything else raises ValueError.  The iterate is held at the
    m samples: sample i is E^i c_0 + sum_q K[i, q] F_q, with F_q the
    reaction-plus-source coefficients at sample q.  E^0 = 1 and K[0] = 0, so
    sample 0 is c_0 in every sweep, and every sweep moves and measures only
    samples 1..m-1; F_0 is formed once, from c_0, with the first sweep's
    F.  Each sweep forms the reaction plus the sources in place, in the
    nodal values it has just transformed.  Sweeping stops when the
    max-over-samples product-norm change drops below ``picard_tol``, and
    the end values are returned.  It also stops when that change is
    non-finite (NaN, or a squared change that overflowed), as it is after
    any sweep with a non-finite F, which makes sample m-1 non-finite: end
    values that are non-finite or whose norm reaches
    ``blowup_threshold`` are returned for the caller to classify, as the
    other methods' are.  Any other ending, finite end values after a
    non-finite change or ``picard_max_iter`` sweeps spent, raises
    :class:`PicardConvergenceError`, so an unconverged slab never passes.
    """
    n, c = _step_inputs(dt, values, coefficients)
    m = config.picard_substeps
    if sources is None:
        sources = np.zeros((m, 2, n))
    elif not (isinstance(sources, np.ndarray) and sources.dtype == float and sources.shape == (m, 2, n)):
        got = getattr(sources, "shape", type(sources).__name__)
        raise ValueError(f"slab sources must be a float array of shape {(m, 2, n)}, got {got}")
    drift, kernel = _picard_weights(n, dt / (m - 1), m, c)

    def forced(samples, forcing):
        # DST(R(U) + S) of the samples' coefficients, R(U) + S formed in place
        x = _reaction_terms(to_values(samples), c)
        x += forcing
        return to_coeffs(x)

    start = drift * to_coeffs(values)
    rhs = forced(start, sources)  # F_0, from c_0, is never formed again
    iterate, tol = start[1:], config.picard_tol
    diff_norms: list[float] = []
    for sweep in range(config.picard_max_iter):
        if sweep:
            rhs[1:] = forced(iterate, sources[1:])
        new = start[1:] + np.einsum("iqkn,qkn->ikn", kernel[1:], rhs)
        # Parseval on the unit interval: ||f||_2^2 = (1/2) sum c_k^2; the
        # reductions are np.sum's and np.max's, called without their wrappers
        moved = new - iterate
        diffs = 0.5 * np.add.reduce(np.square(moved, out=moved), axis=(1, 2))
        change = math.sqrt(np.maximum.reduce(diffs))
        diff_norms.append(change)
        iterate = new
        if change < tol:
            return PicardResult(to_values(new[-1]), len(diff_norms), tuple(diff_norms))
        if not math.isfinite(change):
            # the sweeps cannot contract from here: end values that are
            # non-finite or a blow-up candidate go to the caller to classify
            end = to_values(new[-1])
            if not pair_norm(end, 1.0 / (n + 1)) < config.blowup_threshold:
                return PicardResult(end, len(diff_norms), tuple(diff_norms))
            break
    raise PicardConvergenceError(t, len(diff_norms), tuple(diff_norms))


def _non_finite_reason(s: np.ndarray, times: np.ndarray) -> str:
    """Name the first source component that is non-finite in a step's source values, f before g.

    ``s`` are the values (..., 2, n) at the step's source ``times`` (...).
    """
    finite = np.isfinite(s).all(axis=-1).reshape(-1, 2)
    for t, row in zip(np.ravel(times).tolist(), finite):
        for name, ok in zip(("f", "g"), row):
            if not ok:
                return f"non-finite source {name} at t={t}"
    return "non-finite state"


def _march(
    values: np.ndarray, grid: Grid1D, config: SolveConfig, src: SourcePair, c: CoefficientSet,
    times: list[float], snapshots: list[np.ndarray],
) -> tuple[RunStatus, int, int]:
    """Advance ``values`` (2, n) from t = 0, appending each snapshot's time and values.

    One loop for every method; returns the terminal status, the accepted
    steps and the Picard sweeps.  The steps go in blocks of at most
    ``_BLOCK_VALUES`` source values and at least one step, whose start times
    ``np.arange(k0, k1) * dt`` are each step's k * dt; a block's source
    values at its start times plus the stepper's offsets come from one f and
    one g call.  Runs inside ``solve``'s ``np.errstate``, so its norm is the
    unguarded one.
    """
    dt, h, threshold, every = config.dt, grid.h, config.blowup_threshold, config.snapshot_every
    if _pair_norm(values, h) >= threshold:
        return RunStatus.blowup_detected(0.0), 0, 0
    n = grid.n_interior
    step, carry, offsets = _stepper(config.method, values, dt, config, c)
    sweeps = 0
    n_steps = round(config.t_end / dt)
    block = max(1, _BLOCK_VALUES // (2 * n * np.size(offsets)))
    t_now = 0.0
    for k0 in range(0, n_steps, block):
        step_times = np.add.outer(np.arange(k0, min(k0 + block, n_steps)) * dt, offsets)
        rows = _source_values(src, step_times.ravel(), n).reshape(step_times.shape + (2, n))
        for k, s, s_times in zip(range(k0 + 1, n_steps + 1), rows, step_times):
            t_prev, t_now = t_now, k * dt
            try:
                carry, values, swept = step(carry, values, t_prev, s)
            except PicardConvergenceError as err:
                return RunStatus.step_failure(t_prev, str(err)), k - 1, sweeps + err.iterations
            sweeps += swept
            # a NaN norm is not below the threshold either, so only a state that
            # is non-finite or a blow-up candidate pays for the finiteness scan
            below = _pair_norm(values, h) < threshold
            if not below and not np.all(np.isfinite(values)):
                return RunStatus.step_failure(t_prev, _non_finite_reason(s, s_times)), k - 1, sweeps
            if not below or k % every == 0 or k == n_steps:
                times.append(t_now)
                snapshots.append(values)
            if not below:
                return RunStatus.blowup_detected(t_now), k, sweeps
    return RunStatus.completed(), n_steps, sweeps


# solve takes a StatePair: the initial states of run_convergence's levels are
# built as StatePairs, and the benchmark's self-test counts their Fields
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
    Sources whose components at the one time ``np.zeros(1)`` are not
    float arrays of shape (1, n) raise ValueError before the first step.
    """
    values0 = state0.values
    n, c = _step_inputs(config.dt, values0, coefficients)
    grid = Grid1D(n)
    src = sources if sources is not None else zero_sources(grid)
    _source_values(src, np.zeros(1), n)
    times, snapshots = [0.0], [values0]
    # the march classifies a state that overflows or turns non-finite
    # itself, and its diagnostics are then inf or NaN: numpy's warnings on
    # the way there are only noise
    with np.errstate(over="ignore", invalid="ignore"):
        status, steps, sweeps = _march(values0, grid, config, src, c, times, snapshots)
        values = np.stack(snapshots)
        w = reconstruct_w(values, c.p_u, c.p_v)
        report = constraint_residual(values, w, c.p_u, c.p_v)
    return Trajectory(
        grid, times, values, w, report.residual_l2, report.w_at_1, status, steps, sweeps
    )
