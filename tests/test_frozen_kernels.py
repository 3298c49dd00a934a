"""The reaction, the trapezoid integral, the Picard sweeps and the diagonal steps against frozen plain copies.

The package computes the reaction on the shared mass builder and a
running integral summed straight into its result, and its Picard sweeps
re-transform only the substep samples that move.  The copies below are the plain forms they
replaced: a padded (..., 2, n+2) pair, a cumsum of fresh temporaries, and
every sweep transforming all samples.  Outputs must match them bit for
bit, NaN payloads and infinities included.  Only the sign of a zero may
differ, from two sources.  The shared mass builder pads with +0.0 where
the padded pair gave p_u*0 + p_v*0, which is -0.0 when both are negative.
And a Picard sweep's sample 0 is start + 0*rhs, which turns a -0.0 start
coefficient into +0.0: the plain loop re-transformed that +0.0, the
package keeps the right-hand side made from the -0.0.  Any sum with a
nonzero term or a +0.0 source erases either difference.

One Picard ending differs by design.  The package ends the sweeps at the
first non-finite change; the plain loop sweeps on while its iterate stays
finite.  There the package's sweep changes must be a prefix of the loop's.
"""

import dataclasses
import math

import numpy as np
import pytest

import pdae1d
from pdae1d import CoefficientSet, Grid1D, MmsSpec, PicardConvergenceError, SolveConfig, SourcePair
from pdae1d import build_mms_sources, constraint, integrators, spectral, step_exp_euler, step_imex, tabulated_sources
from pdae1d import zero_sources
from pdae1d.fields import pair_norm
from pdae1d.scenarios import _mms_source_fns, _mms_values
from pdae1d.nonlinearity import _reaction_terms, eval_reaction
from pdae1d.spectral import laplacian_eigenvalues, phi1, to_coeffs, to_values

SIZES = (1, 2, 7, 31, 128, 255, 256)
IMPACTS = (1.0, -0.7, 0.0, 2.5)
PAIRS = [(p_u, p_v) for p_u in IMPACTS for p_v in IMPACTS] + [(-1.3, -2.5)]


def frozen_running_integral(full, h):
    out = np.zeros(full.shape)
    np.cumsum(0.5 * h * (full[..., :-1] + full[..., 1:]), axis=-1, out=out[..., 1:])
    return out


def frozen_reaction_terms(values, c):
    n = values.shape[-1]
    full = np.zeros(values.shape[:-1] + (n + 2,))
    full[..., 1:-1] = values
    integral = frozen_running_integral(c.p_u * full[..., 0, :] + c.p_v * full[..., 1, :], 1.0 / (n + 1))
    out = np.empty(values.shape)
    out[..., 0, :] = -values[..., 0, :] * integral[..., 1:-1]
    out[..., 1, :] = values[..., 1, :] * integral[..., 1:-1]
    return out


def frozen_reconstruct_w(values, p_u, p_v):
    h = 1.0 / (values.shape[-1] + 1)
    return frozen_running_integral(-frozen_running_integral(constraint._mass(values, p_u, p_v), h), h)


@np.errstate(over="ignore", invalid="ignore")
def frozen_picard_slab(values, t, dt, config, src, c):
    """(end values, sweeps, diff_norms), or ("no convergence", sweeps, diff_norms)."""
    m = config.picard_substeps
    drift, kernel = integrators._picard_weights(Grid1D(values.shape[-1]), dt / (m - 1), m, c)
    forcing = np.empty(drift.shape)
    for i, s in enumerate(integrators._substep_times(t, dt, m)):
        forcing[i] = at(src, s)
    start = drift * to_coeffs(values)
    iterate = start
    diff_norms = []
    for _ in range(config.picard_max_iter):
        rhs = to_coeffs(frozen_reaction_terms(to_values(iterate), c) + forcing)
        new = start + np.einsum("iqkn,qkn->ikn", kernel, rhs)
        diffs = 0.5 * np.sum((new - iterate) ** 2, axis=(1, 2))
        change = float(np.sqrt(np.max(diffs)))
        diff_norms.append(change)
        iterate = new
        if change < config.picard_tol or not (math.isfinite(change) or np.all(np.isfinite(new))):
            return to_values(new[-1]), len(diff_norms), tuple(diff_norms)
    return "no convergence", config.picard_max_iter, tuple(diff_norms)


def at(src, t):
    """The (2, n) values of a source pair at the one time t, through one-element calls."""
    times = np.array([t])
    return np.stack((src.f(times)[0], src.g(times)[0]))


def slab_sources(src, t, dt, config, n):
    """The (m, 2, n) source values of a slab from t, as a march hands them to picard_slab."""
    times = integrators._substep_times(t, dt, config.picard_substeps)
    return pdae1d.nonlinearity._source_values(src, times, n)


def picard(values, t, dt, config, src, c):
    try:
        result = integrators.picard_slab(values, t, dt, config, slab_sources(src, t, dt, config, values.shape[-1]), c)
    except PicardConvergenceError as err:
        return "no convergence", err.iterations, err.diff_norms
    return result


def same_bits(a, b):
    """Equal bit for bit, NaN payloads included, except for the sign of a zero."""
    a, b = np.asarray(a, dtype=float) + 0.0, np.asarray(b, dtype=float) + 0.0
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def states(n, rng):
    yield "random", rng.standard_normal((2, n))
    yield "stack", rng.standard_normal((5, 2, n)) * np.array([1e-3, 1.0, 30.0, 1e150, 0.0])[:, None, None]
    yield "zero", np.zeros((2, n))
    non_finite = rng.standard_normal((2, n))
    non_finite[0, n // 2], non_finite[1, -1] = np.inf, -np.inf  # I turns inf, then NaN
    yield "non-finite", non_finite
    yield "zero stack", np.zeros((5, 2, n))


@pytest.mark.parametrize("n", SIZES)
def test_reaction_and_profiles_equal_the_frozen_copies(n):
    rng = np.random.default_rng(n)
    for p_u, p_v in PAIRS:
        c = CoefficientSet(p_u=p_u, p_v=p_v)
        for kind, values in states(n, rng):
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = _reaction_terms(values, c), frozen_reaction_terms(values, c)
            assert np.array_equal(got, want, equal_nan=True), (kind, p_u, p_v)
            assert same_bits(got, want), (kind, p_u, p_v)
            with np.errstate(over="ignore", invalid="ignore"):
                got = constraint.reconstruct_w(values, p_u, p_v)
                want = frozen_reconstruct_w(values, p_u, p_v)
            assert same_bits(got, want), (kind, p_u, p_v)
    full = rng.standard_normal((3, 2, n + 2))
    h = 1.0 / (n + 1)
    assert same_bits(constraint.running_integral(full, h), frozen_running_integral(full, h))
    assert same_bits(constraint.running_integral(full[1, 0], h), frozen_running_integral(full[1, 0], h))


def slab_cases(n):
    """(name, values, dt, config, sources, coefficients) of slabs at n nodes."""
    rng = np.random.default_rng(100 + n)
    grid = Grid1D(n)
    x = grid.nodes
    wave = 0.4 * np.sin(np.pi * x) * np.cos(3.0 * x)
    sources = SourcePair(
        f=lambda times: np.cos(times)[:, None] * wave,
        g=lambda times: np.sin(2.0 * times)[:, None] * np.sin(np.pi * x),
    )
    for p_u, p_v in PAIRS[::3] + [(-1.3, -2.5)]:
        c = CoefficientSet(d_u=1.0, d_v=0.3, p_u=p_u, p_v=p_v)
        config = SolveConfig(dt=0.005, t_end=0.005, method="picard")
        yield f"sources p=({p_u}, {p_v})", rng.standard_normal((2, n)), 0.005, config, sources, c
        yield f"zero p=({p_u}, {p_v})", np.zeros((2, n)), 0.005, config, zero_sources(grid), c
    # a large state whose sweep budget runs out
    tight = SolveConfig(dt=0.05, t_end=0.05, method="picard", picard_max_iter=3)
    yield "budget", 100.0 * rng.standard_normal((2, n)), 0.05, tight, zero_sources(grid), CoefficientSet()
    # sources stepping from 0 at t to a huge value: 1e308 turns the first
    # sweep non-finite; 1e160 and 1e100 leave a finite iterate whose squared
    # change overflows in sweep 1 and 2, and the frozen loop sweeps on
    long = SolveConfig(dt=0.5, t_end=1.0, method="picard")
    for height in (1e308, 1e160, 1e100):
        top = np.full(n, height)
        rise = lambda times, top=top: top * (times > 0)[:, None]  # noqa: E731
        step = SourcePair(f=rise, g=rise)
        yield f"0 -> {height:g}", np.zeros((2, n)), 0.5, long, step, CoefficientSet()


@pytest.mark.parametrize("n", SIZES)
def test_picard_slabs_equal_the_frozen_sweep_loop(n):
    endings = set()
    for name, values, dt, config, src, c in slab_cases(n):
        got = picard(values, 0.0, dt, config, src, c)
        want = frozen_picard_slab(values, 0.0, dt, config, src, c)
        overflow = next(i + 1 for i, d in enumerate(want[2] + (math.nan,)) if not math.isfinite(d))
        if overflow < want[1]:
            # the package ends the sweeps at the first non-finite change and
            # hands its finite end values on as a blow-up candidate
            assert got[1] == overflow and same_bits(got[2], want[2][:overflow]), name
            assert np.all(np.isfinite(got[0])), name
            assert not pair_norm(got[0], 1.0 / (n + 1)) < config.blowup_threshold, name
            endings.add(f"overflow after {overflow}")
            continue
        assert got[1] == want[1], name
        assert same_bits(got[2], want[2]), name
        if isinstance(want[0], str):
            assert got[0] == want[0], name
            endings.add("no convergence")
        else:
            assert same_bits(got[0], want[0]), name
            endings.add("finite" if np.all(np.isfinite(want[0])) else f"non-finite after {want[1]}")
    # every ending is reached: converged, out of budget, non-finite in sweep 1,
    # and an overflowing change in sweep 1 and in sweep 2
    assert endings == {"finite", "no convergence", "non-finite after 1", "overflow after 1", "overflow after 2"}


# The diagonal steps of exp_euler and imex: the exponents z = d * dt * lambda
# come from spectral._exponents, the weights from integrators._weights, and the
# update from integrators._diagonal_step.  The frozen copies are the forms
# they replaced, an exponent built inline from the eigenvalues and a step
# closure with its weights built once per march.  The arithmetic is the same,
# so here even the sign of a zero must match.
STEP_SIZES = (64, 255, 256)  # dense sine matrix, FFT, dense again (257 is prime)


def identical(a, b):
    """Equal bit for bit, the sign of a zero included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def frozen_exponents(n, d_u, d_v, dt):
    lam = laplacian_eigenvalues(Grid1D(n))
    return np.stack((d_u * dt * lam, d_v * dt * lam))


def frozen_diagonal_step(method, values, t, dt, src, c):
    z = frozen_exponents(values.shape[-1], c.d_u, c.d_v, dt)
    if method == "exp_euler":
        a, b = np.exp(z), dt * phi1(z)
    else:
        a, b = 1.0 / (1.0 - z), dt / (1.0 - z)
    coeffs = a * to_coeffs(values) + b * to_coeffs(eval_reaction(values, at(src, t), c))
    return coeffs, to_values(coeffs)


@pytest.mark.parametrize("n", (1, 7, 64, 255, 256))
def test_exponents_equal_the_frozen_formula(n):
    for d_u, d_v in ((1.0, 1.0), (1.0, 0.3), (2.5, 1e-3), (0.7, 13.0)):
        for dt in (1e-5, 1e-3, 0.005, 0.1 / 3, 1.0, 7.25):
            want = frozen_exponents(n, d_u, d_v, dt)
            assert identical(spectral._exponents(n, d_u, d_v, dt), want), (d_u, d_v, dt)
            # arrays over a leading axis give each member's bits
            stacked = spectral._exponents(n, np.array([d_u, 1.0]), np.array([d_v, 1.0]), np.array([dt, 1.0]))
            assert identical(stacked[0], want), (d_u, d_v, dt)


def step_sources(n):
    x = Grid1D(n).nodes
    wave = 0.4 * np.sin(np.pi * x) * np.cos(3.0 * x)
    return SourcePair(
        f=lambda times: np.cos(times)[:, None] * wave,
        g=lambda times: np.sin(2.0 * times)[:, None] * np.sin(np.pi * x),
    )


@pytest.mark.parametrize("method", ("exp_euler", "imex"))
@pytest.mark.parametrize("n", STEP_SIZES)
def test_a_leading_unit_axis_gives_the_plain_step(n, method):
    rng = np.random.default_rng(n)
    src = step_sources(n)
    for d_u, d_v, p_u, p_v, dt in ((1.0, 1.0, 1.0, 1.0, 0.005), (1.0, 0.3, -0.7, 2.5, 1e-3)):
        c = CoefficientSet(d_u=d_u, d_v=d_v, p_u=p_u, p_v=p_v)
        values, t = rng.standard_normal((2, n)), 0.3
        coeffs = to_coeffs(values)
        a, b = integrators._weights(method, spectral._exponents(n, d_u, d_v, dt), dt)
        plain = integrators._diagonal_step(a, b, c, coeffs, values, t, at(src, t))
        want = frozen_diagonal_step(method, values, t, dt, src, c)
        assert identical(plain[0], want[0]) and identical(plain[1], want[1])
        stepper = step_exp_euler if method == "exp_euler" else step_imex
        assert identical(stepper(values, t, dt, src, c), want[1])
        # weights built from z with a leading (1,) axis, on a (1, 2, n) state
        z = spectral._exponents(n, np.array([d_u]), np.array([d_v]), np.array([dt]))
        a1, b1 = integrators._weights(method, z, np.array([dt])[:, None, None])
        assert a1.shape == b1.shape == (1, 2, n)
        unit = integrators._diagonal_step(a1, b1, c, coeffs[None], values[None], t, at(src, t))
        assert identical(unit[0], plain[0][None]) and identical(unit[1], plain[1][None])
        assert unit[2] == plain[2] == 0


# The per-step kernels against frozen copies of their previous forms: the
# reaction with its mass and trapezoid helpers, the mms source pair,
# pair_norm, and a Picard slab's sweeps.  Their current forms read their
# constants once and make fewer temporaries, with the same floating-point
# operations in the same order, so every bit must match, the sign of a zero
# and NaN payloads included: the comparisons are on int64 views.
KERNEL_SIZES = (7, 15, 63, 128, 255, 256)
KERNEL_COEFFICIENTS = (
    CoefficientSet(),
    CoefficientSet(d_u=0.4, d_v=2.3, p_u=0.5, p_v=1.7),
    CoefficientSet(d_u=1.9, d_v=0.05, p_u=-1.3, p_v=-2.5),
)
KERNEL_SPECS = (MmsSpec(), MmsSpec(a=1.3, b=-0.6), MmsSpec(a=-0.0, b=1e-300))


def bits(x):
    """The int64 view of a float array or float, for comparisons that see every bit."""
    return np.asarray(x, dtype=float).view(np.int64)


def same_int64(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def previous_mass(values, p_u, p_v):
    full = np.zeros(values.shape[:-2] + (values.shape[-1] + 2,))
    full[..., 1:-1] = p_u * values[..., 0, :] + p_v * values[..., 1, :]
    return full


def previous_running_integral(full, h):
    out = np.empty(full.shape)
    out[..., 0] = 0.0
    np.add.accumulate((full[..., :-1] + full[..., 1:]) * (0.5 * h), axis=-1, out=out[..., 1:])
    return out


def previous_reaction_terms(values, c):
    h = 1.0 / (values.shape[-1] + 1)
    integral = previous_running_integral(previous_mass(values, c.p_u, c.p_v), h)[..., None, 1:-1]
    out = np.array(values, dtype=float)
    np.negative(out[..., 0, :], out=out[..., 0, :])
    out *= integral
    return out


def previous_mms_source_fns(spec, c, x):
    sin_1 = np.sin(np.pi * x)
    sin_2 = np.sin(2.0 * np.pi * x)
    mass = (
        c.p_u * spec.a * (1.0 - np.cos(np.pi * x)) / np.pi
        + c.p_v * spec.b * (1.0 - np.cos(2.0 * np.pi * x)) / (2.0 * np.pi)
    )

    def f(t):
        decay = np.exp(-t)
        u = spec.a * decay * sin_1
        return (c.d_u * np.pi**2 - 1.0) * u + u * (decay * mass)

    def g(t):
        decay = np.exp(-t)
        v = spec.b * decay * sin_2
        return (4.0 * np.pi**2 * c.d_v - 1.0) * v - v * (decay * mass)

    return f, g


@np.errstate(over="ignore", invalid="ignore")
def previous_pair_norm(values, h):
    if isinstance(values, np.ndarray) and values.ndim > 2:
        u, v = values[..., 0, :], values[..., 1, :]
        return np.sqrt(h * (pdae1d.fields.row_dot(u, u) + pdae1d.fields.row_dot(v, v)))
    u, v = values
    return float(np.sqrt(h * (np.dot(u, u) + np.dot(v, v))))


# A Picard slab takes the (m, 2, n) source values of its substep times from
# the march, which evaluates them for a block of slabs with one call of each
# component.  After its first sweep a slab moves and measures only the m - 1
# samples that can move, and forms each sweep's reaction plus sources in
# place.  The frozen copy below is the slab's previous form: its own f and g
# call, and every sweep's kernel product and change over all m samples.  The
# two must agree bit for bit, the sign of a zero included: end values,
# sweeps, every change, and the time, sweeps and message of a
# PicardConvergenceError.
@np.errstate(over="ignore", invalid="ignore")
def all_samples_picard_slab(values, t, dt, config, src, c):
    n = values.shape[-1]
    m = config.picard_substeps
    drift, kernel = integrators._picard_weights(Grid1D(n), dt / (m - 1), m, c)
    times = integrators._substep_times(t, dt, m)
    forcing = np.stack((src.f(times), src.g(times)), axis=1)
    start = drift * to_coeffs(values)
    iterate = start
    rhs = to_coeffs(previous_reaction_terms(to_values(start), c) + forcing)
    diff_norms = []
    for sweep in range(config.picard_max_iter):
        if sweep:
            rhs[1:] = to_coeffs(previous_reaction_terms(to_values(iterate[1:]), c) + forcing[1:])
        new = start + np.einsum("iqkn,qkn->ikn", kernel, rhs)
        moved = new - iterate
        diffs = 0.5 * np.add.reduce(np.square(moved, out=moved), axis=(1, 2))
        change = math.sqrt(np.maximum.reduce(diffs))
        diff_norms.append(change)
        iterate = new
        if change < config.picard_tol:
            return integrators.PicardResult(to_values(new[-1]), len(diff_norms), tuple(diff_norms))
        if not math.isfinite(change):
            end = to_values(new[-1])
            if not previous_pair_norm(end, 1.0 / (n + 1)) < config.blowup_threshold:
                return integrators.PicardResult(end, len(diff_norms), tuple(diff_norms))
            break
    raise PicardConvergenceError(t, len(diff_norms), tuple(diff_norms))


def outcome(slab, *args):
    """("returned", values, sweeps, changes) or ("raised", t, sweeps, changes, message)."""
    try:
        result = slab(*args)
    except PicardConvergenceError as err:
        return "raised", err.t, err.iterations, err.diff_norms, str(err)
    return "returned", result.values, result.iterations, result.diff_norms


def assert_same_outcome(got, want, name):
    assert got[0] == want[0] and got[2] == want[2], name
    assert same_int64(got[1], want[1]) and same_int64(got[3], want[3]), name
    assert got[4:] == want[4:], name


def kernel_states(n, rng):
    """(2, n) pairs, and (3, 2, n) and (2, k, 2, n) stacks, holding -0.0, NaN and +-inf."""
    pair = rng.standard_normal((2, n))
    pair[0, 0], pair[1, -1] = -0.0, -0.0
    yield "pair", pair
    yield "negative zeros", np.full((2, n), -0.0)
    special = rng.standard_normal((2, n))
    special[0, n // 2], special[1, n // 3], special[1, -1] = np.nan, np.inf, -np.inf
    yield "pair with nan and inf", special
    stack = rng.standard_normal((3, 2, n)) * np.array([1e-3, 30.0, 1e150])[:, None, None]
    stack[0, 1, :] = -0.0
    stack[2, 0, -1] = -np.inf
    yield "(3, 2, n)", stack
    deep = rng.standard_normal((2, 4, 2, n))
    deep[0, 1] = -0.0
    deep[1, 2, 0, 0] = np.nan
    deep[1, 3, 1, n // 2] = np.inf
    yield "(2, k, 2, n)", deep


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_reaction_and_norm_equal_their_previous_forms(n):
    rng = np.random.default_rng(1000 + n)
    h = 1.0 / (n + 1)
    for kind, values in kernel_states(n, rng):
        for c in KERNEL_COEFFICIENTS:
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = _reaction_terms(values, c), previous_reaction_terms(values, c)
                mass = previous_mass(values, c.p_u, c.p_v)
                assert same_int64(constraint._mass(values, c.p_u, c.p_v), mass), (kind, c)
                assert same_int64(constraint.running_integral(mass, h), previous_running_integral(mass, h)), kind
            assert same_int64(got, want), (kind, c)
        assert same_int64(pair_norm(values, h), previous_pair_norm(values, h)), kind
        if values.ndim == 2:
            with np.errstate(over="ignore", invalid="ignore"):
                unguarded = pdae1d.fields._pair_norm(values, h)
            assert type(unguarded) is float and same_int64(unguarded, previous_pair_norm(values, h)), kind


SOURCE_TIMES = (0.0, -0.0, 1e-5, 0.3, 7.25, 800.0, np.inf, -np.inf, np.nan)


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_mms_sources_equal_their_previous_form(n):
    grid = Grid1D(n)
    for spec in KERNEL_SPECS:
        for c in KERNEL_COEFFICIENTS:
            src = build_mms_sources(spec, grid, c)
            # the mms-sources table evaluates the pair at every node, both ends included
            for x, (f, g) in ((grid.nodes, (src.f, src.g)), (grid.nodes_full, _mms_source_fns(spec, c, grid.nodes_full))):
                want_f, want_g = previous_mms_source_fns(spec, c, x)
                with np.errstate(over="ignore", invalid="ignore"):
                    got = f(np.array(SOURCE_TIMES)), g(np.array(SOURCE_TIMES))
                    for i, t in enumerate(SOURCE_TIMES):
                        want = want_f(t), want_g(t)
                        assert same_int64(got[0][i], want[0]) and same_int64(got[1][i], want[1]), (spec, c, t)
                assert not (got[0].flags.writeable or got[1].flags.writeable)


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_picard_slabs_equal_their_previous_form(n):
    rng = np.random.default_rng(2000 + n)
    grid = Grid1D(n)
    endings = set()
    for c, spec in zip(KERNEL_COEFFICIENTS, KERNEL_SPECS):
        src = build_mms_sources(spec, grid, c)
        for kind, values in kernel_states(n, rng):
            if values.ndim != 2:
                continue
            for dt, max_iter in ((0.005, 25), (0.05, 3)):
                config = SolveConfig(dt=dt, t_end=dt, method="picard", picard_max_iter=max_iter)
                forcing = slab_sources(src, 0.1, dt, config, n)
                got = outcome(integrators.picard_slab, values, 0.1, dt, config, forcing, c)
                want = outcome(all_samples_picard_slab, values, 0.1, dt, config, src, c)
                assert_same_outcome(got, want, (kind, c, dt))
                if want[0] == "raised":
                    endings.add("no convergence")
                else:
                    endings.add("finite" if np.all(np.isfinite(want[1])) else "non-finite")
    assert endings == {"finite", "non-finite", "no convergence"}


# The source pairs map an array of K times to a (K, n) array, and a march
# evaluates the start times of a block of exp_euler/imex steps, or the
# substep times of a block of Picard slabs, in one call of each component.  The frozen copies
# below are the per-time forms they replaced: the manufactured pair at one t,
# the table interpolation at one t and the zero pair.  Each row of one array
# call must have their bits, the sign of a zero included, on int64 views.
ARRAY_SIZES = (7, 63, 255, 256)
ARRAY_COEFFICIENTS = (
    CoefficientSet(d_u=0.4, d_v=2.3, p_u=0.5, p_v=1.7),
    CoefficientSet(d_u=1.9, d_v=0.05, p_u=-1.3, p_v=-2.5),
)
ARRAY_SPECS = (MmsSpec(a=1.3, b=-0.6), MmsSpec(a=-0.0, b=1e-300))


def frozen_mms_source_fns(spec, c, x):
    """The manufactured pair at one time t, as a fresh (len(x),) array."""
    a, b = spec.a, spec.b
    sin_1 = np.sin(np.pi * x)
    sin_2 = np.sin(2.0 * np.pi * x)
    mass = (
        c.p_u * a * (1.0 - np.cos(np.pi * x)) / np.pi
        + c.p_v * b * (1.0 - np.cos(2.0 * np.pi * x)) / (2.0 * np.pi)
    )
    gain_u = c.d_u * np.pi**2 - 1.0
    gain_v = 4.0 * np.pi**2 * c.d_v - 1.0

    def f(t):
        decay = np.exp(-t)
        u = a * decay * sin_1
        coupling = decay * mass
        coupling *= u
        u *= gain_u
        u += coupling
        return u

    def g(t):
        decay = np.exp(-t)
        v = b * decay * sin_2
        coupling = decay * mass
        coupling *= v
        v *= gain_v
        v -= coupling
        return v

    return f, g


def frozen_interpolate(times, slabs, component, t):
    """A table's source component at one time t: linear in t, clamped outside the slabs."""
    if t <= times[0]:
        return slabs[0, component]
    if t >= times[-1]:
        return slabs[-1, component]
    i = int(np.searchsorted(times, t, side="right")) - 1
    theta = (t - times[i]) / (times[i + 1] - times[i])
    return (1.0 - theta) * slabs[i, component] + theta * slabs[i + 1, component]


def frozen_zero_sources(grid):
    zero = np.zeros(grid.n_interior)
    return lambda t: zero, lambda t: zero


def march_times(n):
    """0.0, -0.0, the start times k * dt around the first block boundaries and Picard substep times."""
    block = integrators._block_steps("exp_euler", n, 4)
    times = [0.0, -0.0]
    for dt in (1e-5, 1e-3, 0.005):
        starts = [k * dt for k in (1, block - 1, block, block + 1, 2 * block, 3 * block - 1)]
        times += starts
        for t in starts[:3]:
            for m in (4, 6):
                times += integrators._substep_times(t, dt, m).tolist()
    return np.array(times)


def assert_rows_equal(got, per_time, times):
    assert got.shape == (len(times), got.shape[-1]) and not got.flags.writeable
    for i, t in enumerate(times.tolist()):
        assert same_int64(got[i], per_time(t)), (i, t)


@pytest.mark.parametrize("n", ARRAY_SIZES)
def test_mms_and_zero_array_forms_equal_the_per_time_forms(n):
    grid = Grid1D(n)
    times = march_times(n)
    for spec in ARRAY_SPECS:
        for c in ARRAY_COEFFICIENTS:
            src = build_mms_sources(spec, grid, c)
            want_f, want_g = frozen_mms_source_fns(spec, c, grid.nodes)
            assert_rows_equal(src.f(times), want_f, times)
            assert_rows_equal(src.g(times), want_g, times)
            # a one-element call gives the same row as the block
            for t in times[[0, 1, -1]]:
                assert same_int64(src.f(np.array([t]))[0], want_f(t)), t
    zero = zero_sources(grid)
    want_f, want_g = frozen_zero_sources(grid)
    assert_rows_equal(zero.f(times), want_f, times)
    assert_rows_equal(zero.g(times), want_g, times)


def frozen_mms_values(spec, x, t):
    """The manufactured pair at one time t on the nodes x, shaped (2, len(x))."""
    decay = np.exp(-t)
    return np.stack((spec.a * decay * np.sin(np.pi * x), spec.b * decay * np.sin(2.0 * np.pi * x)))


# e^-740 is subnormal and e^-800 is 0
@pytest.mark.parametrize("n", (7, 128, 255))
@pytest.mark.parametrize("spec", (MmsSpec(), MmsSpec(a=1.3, b=-0.6)), ids=("unit", "scaled"))
def test_manufactured_pair_at_a_vector_of_times_equals_the_per_time_form(n, spec):
    times = [0.0, -0.0, 1e-5, 0.3, 7.25, 740.0, 800.0]
    x = Grid1D(n).nodes
    got = _mms_values(spec, x, times)
    assert got.shape == (len(times), 2, n)
    for i, t in enumerate(times):
        assert same_int64(got[i], frozen_mms_values(spec, x, t)), t


@pytest.mark.parametrize("n", ARRAY_SIZES)
def test_tabulated_array_form_equals_the_per_time_interpolation(n, tmp_path):
    grid = Grid1D(n)
    rng = np.random.default_rng(3000 + n)
    slab_times = (0.1, 0.35, 0.6, 1.0)
    path = tmp_path / "sources.txt"
    with open(path, "w") as fh:
        for t in slab_times:
            for x in grid.nodes_full.tolist():
                fh.write(f"{t!r} {x!r} {rng.standard_normal()!r} {rng.standard_normal()!r}\n")
    table_times, slabs = pdae1d.nonlinearity.read_node_table(str(path), grid, ("t", "x", "f", "g"))
    src = tabulated_sources(grid, str(path))
    before, on, between, after = [0.0, -0.0, 0.05], list(slab_times), [0.2, 0.5999, 0.7, 0.99], [1.0 + 1e-12, 3.0]
    times = np.concatenate((before + on + between + after, march_times(n)))
    for component, fn in enumerate((src.f, src.g)):
        assert_rows_equal(fn(times), lambda t: frozen_interpolate(table_times, slabs, component, t), times)
        for t in (0.0, 0.35, 0.2, 3.0):  # one time before, on, between and after the slabs
            assert same_int64(fn(np.array([t]))[0], frozen_interpolate(table_times, slabs, component, t))


def frozen_per_step_march(values, n_steps, dt, method, f, g, c):
    """The nodal values after each step of a diagonal march that evaluates f and g at each step's start."""
    z = frozen_exponents(values.shape[-1], c.d_u, c.d_v, dt)
    if method == "exp_euler":
        a, b = np.exp(z), dt * phi1(z)
    else:
        a, b = 1.0 / (1.0 - z), dt / (1.0 - z)
    coeffs, out, t_now = to_coeffs(values), [], 0.0
    for k in range(1, n_steps + 1):
        t_prev, t_now = t_now, k * dt
        rhs = previous_reaction_terms(values, c) + np.stack((f(t_prev), g(t_prev)))
        coeffs = a * coeffs + b * to_coeffs(rhs)
        values = to_values(coeffs)
        out.append(values)
    return np.array(out)


@pytest.mark.parametrize("method", ("exp_euler", "imex"))
@pytest.mark.parametrize("n, n_steps", ((7, 1300), (256, 40)))  # blocks of 585 and 16 steps
def test_marches_across_source_blocks_equal_a_per_step_march(n, n_steps, method):
    grid, dt = Grid1D(n), 1e-3
    assert n_steps > 2 * integrators._block_steps(method, n, 4)
    spec, c = ARRAY_SPECS[0], ARRAY_COEFFICIENTS[0]
    state0 = pdae1d.mms_state(spec, grid, 0.0)
    config = SolveConfig(dt=dt, t_end=n_steps * dt, method=method)
    cases = (
        (build_mms_sources(spec, grid, c), frozen_mms_source_fns(spec, c, grid.nodes)),
        (zero_sources(grid), frozen_zero_sources(grid)),
    )
    for src, (f, g) in cases:
        traj = pdae1d.solve(state0, config, src, c)
        assert traj.status.kind == "completed" and traj.times == [k * dt for k in range(n_steps + 1)]
        want = frozen_per_step_march(state0.values, n_steps, dt, method, f, g, c)
        assert same_int64(traj.values[1:], want), src.kind


def frozen_source_time_lipschitz(f, g, times):
    worst = 0.0
    prev_f, prev_g = f(times[0]), g(times[0])
    h = 1.0 / (prev_f.shape[-1] + 1)
    for t_prev, t_next in zip(times[:-1], times[1:]):
        cur_f, cur_g = f(t_next), g(t_next)
        df, dg = cur_f - prev_f, cur_g - prev_g
        jump = np.hypot(np.sqrt(h * np.dot(df, df)), np.sqrt(h * np.dot(dg, dg)))
        worst = max(worst, jump / (t_next - t_prev))
        prev_f, prev_g = cur_f, cur_g
    return worst


@pytest.mark.parametrize("n", ARRAY_SIZES)
def test_source_time_lipschitz_equals_the_per_time_loop(n):
    grid = Grid1D(n)
    for spec in ARRAY_SPECS:
        for c in ARRAY_COEFFICIENTS:
            for t_end in (0.05, 1.0, 7.25):
                probes = np.linspace(0.0, t_end, 9)  # as run_scenario probes its sources
                got = pdae1d.source_time_lipschitz(build_mms_sources(spec, grid, c), probes)
                want = frozen_source_time_lipschitz(*frozen_mms_source_fns(spec, c, grid.nodes), probes)
                assert type(got) is float and same_int64(got, want), (spec, c, t_end)


def late_overflow_case(n):
    """A slab whose reaction overflows in sweep 2 after a finite sweep 1.

    Impacts of 1e100 make u*I overflow long before the squared change does.
    The reaction's coefficients turn +-inf, at n = 1 without a NaN, so the
    moving sample's change is inf while sample 0's, 0*F, is NaN.
    """
    top = np.full(n, 1e118)
    rise = lambda times: top * (times > 0)[:, None]  # noqa: E731
    config = SolveConfig(dt=0.01, t_end=0.01, method="picard", picard_substeps=2)
    return np.zeros((2, n)), 0.01, config, SourcePair(f=rise, g=rise), CoefficientSet(p_u=1e100, p_v=1e100)


def moving_slab_cases(n):
    """The slab cases at m = 4, 2 and 6, starts holding inf and NaN, and a late overflow."""
    rng = np.random.default_rng(200 + n)
    for name, values, dt, config, src, c in slab_cases(n):
        for m in (4, 2, 6):
            yield f"{name} m={m}", values, dt, dataclasses.replace(config, picard_substeps=m), src, c
    config = SolveConfig(dt=0.005, t_end=0.005, method="picard")
    src = step_sources(n)
    for bad in (np.inf, -np.inf, np.nan):
        values = rng.standard_normal((2, n))
        values[1, n // 2] = bad
        yield f"start holding {bad}", values, 0.005, config, src, CoefficientSet(p_u=0.5)
    yield ("late overflow", *late_overflow_case(n))


@pytest.mark.parametrize("n", SIZES)
def test_picard_slabs_equal_the_all_samples_slab(n):
    endings = set()
    for name, values, dt, config, src, c in moving_slab_cases(n):
        for t in (0.0, 0.3):
            got = outcome(
                integrators.picard_slab, values, t, dt, config, slab_sources(src, t, dt, config, n), c
            )
            want = outcome(all_samples_picard_slab, values, t, dt, config, src, c)
            assert_same_outcome(got, want, (name, t))
            changes = want[3]
            if want[0] == "raised":
                endings.add("raised")
            elif not math.isfinite(changes[-1]):
                finite_end = bool(np.all(np.isfinite(want[1])))
                endings.add(("blow-up" if finite_end else "non-finite") + f" after {len(changes)}")
            else:
                endings.add("converged")
            if name.startswith("start holding"):
                assert want[2] == 1 and math.isnan(changes[0]), name
    assert {"converged", "raised", "non-finite after 1", "blow-up after 1", "blow-up after 2"} <= endings
    if n == 1:
        assert "non-finite after 2" in endings  # the late overflow


def test_a_late_overflow_records_the_nan_change_of_sample_0():
    values, dt, config, src, c = late_overflow_case(1)
    result = integrators.picard_slab(values, 0.0, dt, config, slab_sources(src, 0.0, dt, config, 1), c)
    assert result.iterations == 2 and math.isfinite(result.diff_norms[0]) and math.isnan(result.diff_norms[1])
    # the moving sample moved by inf, not NaN: only sample 0's change is NaN
    assert same_int64(result.values, np.array([[-np.inf], [np.inf]]))


@pytest.mark.parametrize("n", (7, 128))
def test_picard_slab_takes_only_its_source_values(n):
    m, grid = 4, Grid1D(n)
    config = SolveConfig(dt=0.01, t_end=0.01, method="picard", picard_substeps=m)
    src = step_sources(n)
    values = np.random.default_rng(n).standard_normal((2, n))
    good = slab_sources(src, 0.0, 0.01, config, n)
    wrong = [
        (src, "SourcePair"),
        (zero_sources(grid), "SourcePair"),
        (good[:, 0], rf"\({m}, {n}\)"),
        (np.concatenate((good, good[:1])), rf"\({m + 1}, 2, {n}\)"),
        (good.astype(np.float32), rf"\({m}, 2, {n}\)"),
        (good.tolist(), "list"),
    ]
    for bad, shown in wrong:
        with pytest.raises(ValueError, match=rf"float array of shape \({m}, 2, {n}\), got {shown}"):
            integrators.picard_slab(values, 0.0, 0.01, config, bad)
    # None is no sources, as zero sources
    none = integrators.picard_slab(values, 0.0, 0.01, config)
    zero = integrators.picard_slab(values, 0.0, 0.01, config, slab_sources(zero_sources(grid), 0.0, 0.01, config, n))
    assert same_int64(none.values, zero.values) and none.diff_norms == zero.diff_norms


def frozen_per_slab_march(values, n_steps, dt, config, src, c):
    """Each slab's end values and the total sweeps of a march of all-samples slabs, one slab at a time."""
    out, sweeps = [], 0
    for k in range(n_steps):
        result = all_samples_picard_slab(values, k * dt, dt, config, src, c)
        values = result.values
        sweeps += result.iterations
        out.append(values)
    return np.array(out), sweeps


@pytest.mark.parametrize("n, n_steps", ((7, 300), (256, 10)))  # blocks of 146 and 4 slabs
def test_picard_marches_across_source_blocks_equal_a_per_slab_march(n, n_steps, tmp_path):
    grid, dt = Grid1D(n), 1e-3
    m = 4
    assert n_steps > 2 * integrators._block_steps("picard", n, m)
    spec, c = ARRAY_SPECS[0], ARRAY_COEFFICIENTS[0]
    state0 = pdae1d.mms_state(spec, grid, 0.0)
    config = SolveConfig(dt=dt, t_end=n_steps * dt, method="picard", picard_substeps=m)
    rng = np.random.default_rng(4000 + n)
    path = tmp_path / "sources.txt"
    with open(path, "w") as fh:
        for t in (0.0, 0.4 * n_steps * dt, 0.7 * n_steps * dt, 2.0):
            for x in grid.nodes_full.tolist():
                fh.write(f"{t!r} {x!r} {rng.standard_normal()!r} {rng.standard_normal()!r}\n")
    for src in (build_mms_sources(spec, grid, c), tabulated_sources(grid, str(path))):
        traj = pdae1d.solve(state0, config, src, c)
        assert traj.status.kind == "completed" and traj.times == [k * dt for k in range(n_steps + 1)]
        want, sweeps = frozen_per_slab_march(state0.values, n_steps, dt, config, src, c)
        assert same_int64(traj.values[1:], want), src.kind
        assert traj.picard_iterations_total == sweeps, src.kind
