"""The package's per-step kernels against plain references, bit for bit.

Each kernel has one reference below, written from its formula in the
plainest form: the mass p_u*u + p_v*v, the trapezoid running integral, the
reaction (-u*I, v*I), the profile w and the pair norm; the exponents
z = d*dt*lambda and the exp_euler/imex weights, which serve one diagonal step
and a march of them; the Picard weights and slab; the manufactured pair,
the table interpolation and the zero pair, each at one time; and the
source-time Lipschitz quotient.  Of the package's functions the references
call only ``to_coeffs``, ``to_values``, ``phi1`` and ``laplacian_eigenvalues``,
which ``tests/test_spectral.py`` checks against independent oracles.

The package computes the same floating-point operations in the same order,
with fewer temporaries, batched over leading axes, over the times of a block
of steps, and, in a Picard slab, over only the samples that move.  So every
comparison is on int64 views, and no difference remains: NaN payloads,
infinities and the sign of a zero must all match.
"""

import math

import numpy as np
import pytest

import pdae1d
from pdae1d import CoefficientSet, Grid1D, MmsSpec, PicardConvergenceError, SolveConfig, SourcePair
from pdae1d import build_mms_sources, constraint, fields, integrators, spectral, step_exp_euler, step_imex
from pdae1d import tabulated_sources, zero_sources
from pdae1d.fields import pair_norm
from pdae1d.nonlinearity import _reaction_terms, _source_values, eval_reaction
from pdae1d.scenarios import _mms_source_fns, _mms_values
from pdae1d.spectral import laplacian_eigenvalues, phi1, to_coeffs, to_values

SIZES = (1, 2, 7, 15, 31, 63, 128, 255, 256)  # 255 takes the FFT, 256 the dense matrix (257 is prime)
SOURCE_SIZES = (7, 15, 63, 128, 255, 256)
IMPACTS = (1.0, -0.7, 0.0, 2.5)
P_PAIRS = [(p_u, p_v) for p_u in IMPACTS for p_v in IMPACTS] + [(-1.3, -2.5), (0.5, 1.7)]
COEFFICIENTS = (
    CoefficientSet(),
    CoefficientSet(d_u=0.4, d_v=2.3, p_u=0.5, p_v=1.7),
    CoefficientSet(d_u=1.9, d_v=0.05, p_u=-1.3, p_v=-2.5),
)
SPECS = (MmsSpec(), MmsSpec(a=1.3, b=-0.6), MmsSpec(a=-0.0, b=1e-300))


def same(a, b):
    """Equal bit for bit on int64 views: NaN payloads, infinities and the sign of a zero included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# ---------------------------------------------------------------------------
# The references


def ref_mass(values, p_u, p_v):
    """p_u*u + p_v*v of nodal pairs (..., 2, n) at all n+2 nodes, zero at both ends."""
    full = np.zeros(values.shape[:-2] + (values.shape[-1] + 2,))
    full[..., 1:-1] = p_u * values[..., 0, :] + p_v * values[..., 1, :]
    return full


def ref_running_integral(full, h):
    """The trapezoid running integral along the last axis, 0 at x = 0: a cumulative sum."""
    out = np.zeros(full.shape)
    out[..., 1:] = np.cumsum((full[..., :-1] + full[..., 1:]) * (0.5 * h), axis=-1)
    return out


def ref_reaction(values, c):
    """(-u, v) * I, with I the running integral of the mass at the interior nodes.

    One broadcast product over the pair, as the package forms it: which of
    two NaNs a product keeps follows numpy's loop, so -u*I and v*I formed
    apart can differ from it in the sign of a NaN.
    """
    h = 1.0 / (values.shape[-1] + 1)
    integral = ref_running_integral(ref_mass(values, c.p_u, c.p_v), h)[..., None, 1:-1]
    return np.stack((-values[..., 0, :], values[..., 1, :]), axis=-2) * integral


def ref_profile(values, p_u, p_v):
    """w at all n+2 nodes: the running integral of the slope, minus the running integral of the mass."""
    h = 1.0 / (values.shape[-1] + 1)
    return ref_running_integral(-ref_running_integral(ref_mass(values, p_u, p_v), h), h)


@np.errstate(over="ignore", invalid="ignore")
def ref_pair_norm(values, h):
    """sqrt(h*(u.u + v.v)) of each pair, one np.dot per component; a float for one pair."""
    n = values.shape[-1]
    rows = values.reshape(-1, 2, n)
    norms = [np.sqrt(h * (np.dot(u, u) + np.dot(v, v))) for u, v in rows]
    return float(norms[0]) if values.ndim == 2 else np.reshape(norms, values.shape[:-2])


def ref_exponents(n, d_u, d_v, dt):
    """z = d*dt*lambda_k of both components, shaped (2, n)."""
    lam = laplacian_eigenvalues(Grid1D(n))
    return np.stack((d_u * dt * lam, d_v * dt * lam))


def ref_weights(method, z, dt):
    """(a, b) of c <- a*c + b*F: exp(z) and dt*phi1(z) for exp_euler, 1/(1-z) and dt/(1-z) for imex."""
    if method == "exp_euler":
        return np.exp(z), dt * phi1(z)
    return 1.0 / (1.0 - z), dt / (1.0 - z)


def ref_diagonal_step(method, coeffs, values, dt, s, c):
    """The (coefficients, values) after one exp_euler or imex step with sources s at its start."""
    a, b = ref_weights(method, ref_exponents(values.shape[-1], c.d_u, c.d_v, dt), dt)
    coeffs = a * coeffs + b * to_coeffs(ref_reaction(values, c) + s)
    return coeffs, to_values(coeffs)


def ref_picard_weights(n, delta, m, c):
    """Drift E^i and history weight K[i, q] = (trapezoid weight) * delta * E^(i - q) of m samples."""
    drift = np.exp(np.arange(m)[:, None, None] * ref_exponents(n, c.d_u, c.d_v, delta))
    kernel = np.zeros((m,) + drift.shape)
    for i in range(1, m):
        for q in range(i + 1):
            kernel[i, q] = delta * drift[i - q]
        kernel[i, [0, i]] *= 0.5
    return drift, kernel


@np.errstate(over="ignore", invalid="ignore")
def ref_picard_slab(values, t, dt, config, forcing, c):
    """(end values, sweeps, changes) of Picard sweeps on [t, t + dt], or PicardConvergenceError.

    Every sweep forms F_q = DST(R(U_q) + forcing[q]) at all m samples and
    sets sample i >= 1 to E^i c_0 + sum_q K[i, q] F_q; sample 0 stays c_0.
    Its change is the largest norm of a move of samples 1..m-1.  The sweeps
    stop below ``picard_tol``, or at a non-finite change, where end values
    that are non-finite or reach the blow-up threshold are returned.
    """
    n, m = values.shape[-1], config.picard_substeps
    drift, kernel = ref_picard_weights(n, dt / (m - 1), m, c)
    start = drift * to_coeffs(values)
    iterate, changes = start, []
    for _ in range(config.picard_max_iter):
        rhs = to_coeffs(ref_reaction(to_values(iterate), c) + forcing)
        new = start[1:] + np.einsum("iqkn,qkn->ikn", kernel[1:], rhs)
        changes.append(float(np.sqrt(np.max(0.5 * np.sum((new - iterate[1:]) ** 2, axis=(1, 2))))))
        iterate = np.concatenate((start[:1], new))
        if changes[-1] < config.picard_tol:
            return to_values(new[-1]), len(changes), tuple(changes)
        if not math.isfinite(changes[-1]):
            end = to_values(new[-1])
            if not ref_pair_norm(end, 1.0 / (n + 1)) < config.blowup_threshold:
                return end, len(changes), tuple(changes)
            break
    raise PicardConvergenceError(t, len(changes), tuple(changes))


def ref_march(values, config, at, c):
    """The nodal values after each step of a march from t = 0, and its Picard sweeps, one step at a time.

    ``at(t)`` gives the (2, n) source values at the one time t.
    """
    dt, m = config.dt, config.picard_substeps
    coeffs, out, sweeps = to_coeffs(values), [], 0
    for k in range(round(config.t_end / dt)):
        t = k * dt
        if config.method == "picard":
            forcing = np.stack([at(t + i * (dt / (m - 1))) for i in range(m)])
            values, swept, _ = ref_picard_slab(values, t, dt, config, forcing, c)
            sweeps += swept
        else:
            coeffs, values = ref_diagonal_step(config.method, coeffs, values, dt, at(t), c)
        out.append(values)
    return np.array(out), sweeps


def ref_mms(spec, c, x, t):
    """The manufactured pair (u, v) and its sources (f, g), each (2, len(x)), at the one time t on x."""
    decay = np.exp(-t)
    u = spec.a * decay * np.sin(np.pi * x)
    v = spec.b * decay * np.sin(2.0 * np.pi * x)
    # the running integral of p_u*u + p_v*v in closed form, over the decay
    mass = (
        c.p_u * spec.a * (1.0 - np.cos(np.pi * x)) / np.pi
        + c.p_v * spec.b * (1.0 - np.cos(2.0 * np.pi * x)) / (2.0 * np.pi)
    )
    f = (c.d_u * np.pi**2 - 1.0) * u + u * (decay * mass)
    g = (4.0 * np.pi**2 * c.d_v - 1.0) * v - v * (decay * mass)
    return np.stack((u, v)), np.stack((f, g))


def ref_interpolate(times, slabs, t):
    """A table's (f, g) slabs (T, 2, n) at the one time t: linear in t, clamped outside the slabs."""
    if t <= times[0]:
        return slabs[0]
    if t >= times[-1]:
        return slabs[-1]
    i = int(np.searchsorted(times, t, side="right")) - 1
    theta = (t - times[i]) / (times[i + 1] - times[i])
    return (1.0 - theta) * slabs[i] + theta * slabs[i + 1]


def ref_source_time_lipschitz(at, times):
    """The largest ||S(t2) - S(t1)|| / (t2 - t1) over consecutive times, S = at(t) of shape (2, n)."""
    worst = 0.0
    for t1, t2 in zip(times[:-1], times[1:]):
        df, dg = at(t2) - at(t1)
        h = 1.0 / (df.size + 1)
        jump = np.hypot(np.sqrt(h * np.dot(df, df)), np.sqrt(h * np.dot(dg, dg)))
        worst = max(worst, jump / (t2 - t1))
    return worst


# ---------------------------------------------------------------------------
# Inputs


def states(n, rng):
    """(kind, values) of pairs (2, n) and stacks (..., 2, n) holding -0.0, NaN, +-inf and huge values."""
    yield "zero", np.zeros((2, n))
    yield "negative zeros", np.full((2, n), -0.0)
    pair = rng.standard_normal((2, n))
    pair[0, 0], pair[1, -1] = -0.0, -0.0
    yield "pair", pair
    non_finite = rng.standard_normal((2, n))
    non_finite[0, n // 2], non_finite[1, -1] = np.inf, -np.inf  # I turns inf, then NaN
    yield "non-finite", non_finite
    special = rng.standard_normal((2, n))
    special[0, n // 2], special[1, n // 3], special[1, -1] = np.nan, np.inf, -np.inf
    yield "pair with nan and inf", special
    yield "stack", rng.standard_normal((5, 2, n)) * np.array([1e-3, 1.0, 30.0, 1e150, 0.0])[:, None, None]
    yield "zero stack", np.zeros((5, 2, n))
    stack = rng.standard_normal((3, 2, n)) * np.array([1e-3, 30.0, 1e150])[:, None, None]
    stack[0, 1, :] = -0.0
    stack[2, 0, -1] = -np.inf
    yield "(3, 2, n)", stack
    deep = rng.standard_normal((2, 4, 2, n))
    deep[0, 1] = -0.0
    deep[1, 2, 0, 0] = np.nan
    deep[1, 3, 1, n // 2] = np.inf
    yield "(2, k, 2, n)", deep


def wave_sources(n):
    """A smooth source pair of the test's own, f = cos(t)*0.4*sin(pi x)*cos(3x) and g = sin(2t)*sin(pi x)."""
    x = Grid1D(n).nodes
    profile = 0.4 * np.sin(np.pi * x) * np.cos(3.0 * x)
    return SourcePair(
        f=lambda times: np.cos(times)[:, None] * profile,
        g=lambda times: np.sin(2.0 * times)[:, None] * np.sin(np.pi * x),
    )


def slab_sources(src, t, dt, config, n):
    """The (m, 2, n) source values of a slab from t at its substep times t + i * (dt / (m - 1))."""
    m = config.picard_substeps
    return _source_values(src, np.array([t + i * (dt / (m - 1)) for i in range(m)]), n)


def write_table(path, grid, times, rng):
    """Write a (t, x, f, g) table of random values at every node; return its interior slabs (T, 2, n)."""
    values = rng.standard_normal((len(times), 2, grid.n_interior + 2))
    with open(path, "w") as fh:
        for t, (f, g) in zip(times, values.tolist()):
            for x, f_x, g_x in zip(grid.nodes_full.tolist(), f, g):
                fh.write(f"{t!r} {x!r} {f_x!r} {g_x!r}\n")
    return values[..., 1:-1]


def march_times(n):
    """0.0, -0.0, the start times k * dt around the first block boundaries and Picard substep times.

    An exp_euler block holds 8192 // (2n) steps, at least one.
    """
    block = max(1, 8192 // (2 * n))
    times = [0.0, -0.0]
    for dt in (1e-5, 1e-3, 0.005):
        starts = [k * dt for k in (1, block - 1, block, block + 1, 2 * block, 3 * block - 1)]
        times += starts
        for t in starts[:3]:
            for m in (4, 6):
                times += [t + i * (dt / (m - 1)) for i in range(m)]
    return times


# ---------------------------------------------------------------------------
# The reaction and its helpers, the profile and the norm


STATE_KINDS = tuple(kind for kind, _ in states(1, np.random.default_rng(0)))


@pytest.mark.parametrize("kind", STATE_KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_reaction_profile_and_norm_equal_their_references(n, kind):
    h = 1.0 / (n + 1)
    values = dict(states(n, np.random.default_rng(n)))[kind]
    original = values.copy()
    for p_u, p_v in P_PAIRS:
        c, case = CoefficientSet(p_u=p_u, p_v=p_v), (p_u, p_v)
        with np.errstate(over="ignore", invalid="ignore"):
            mass = ref_mass(values, p_u, p_v)
            assert same(constraint._mass(values, p_u, p_v), mass), case
            assert same(constraint.running_integral(mass, h), ref_running_integral(mass, h)), case
            reaction = ref_reaction(values, c)
            assert same(eval_reaction(values, None, c), reaction), case
            assert same(_reaction_terms(values.copy(), c), reaction), case
            assert same(constraint.reconstruct_w(values, p_u, p_v), ref_profile(values, p_u, p_v)), case
    assert same(values, original)
    assert same(pair_norm(values, h), ref_pair_norm(values, h))
    if values.ndim == 2:
        with np.errstate(over="ignore", invalid="ignore"):
            unguarded = fields._pair_norm(values, h)
        assert type(unguarded) is float and same(unguarded, ref_pair_norm(values, h))


@pytest.mark.parametrize("n", SIZES)
def test_running_integral_of_nonzero_ends_equals_the_reference(n):
    h = 1.0 / (n + 1)
    full = np.random.default_rng(200 + n).standard_normal((3, 2, n + 2))
    assert same(constraint.running_integral(full, h), ref_running_integral(full, h))
    assert same(constraint.running_integral(full[1, 0], h), ref_running_integral(full[1, 0], h))


# ---------------------------------------------------------------------------
# The exponents and the diagonal steps of exp_euler and imex


@pytest.mark.parametrize("n", (1, 7, 64, 255, 256))
def test_exponents_weights_and_diagonal_steps_equal_their_references(n):
    for d_u, d_v in ((1.0, 1.0), (1.0, 0.3), (2.5, 1e-3), (0.7, 13.0)):
        for dt in (1e-5, 1e-3, 0.005, 0.1 / 3, 1.0, 7.25):
            z = ref_exponents(n, d_u, d_v, dt)
            assert same(spectral._exponents(n, d_u, d_v, dt), z), (d_u, d_v, dt)
            # arrays over a leading axis give each member's bits
            stacked = spectral._exponents(n, np.array([d_u, 1.0]), np.array([d_v, 1.0]), np.array([dt, 1.0]))
            assert same(stacked[0], z), (d_u, d_v, dt)
            for method in ("exp_euler", "imex"):
                got, want = integrators._weights(method, z, dt), ref_weights(method, z, dt)
                assert same(got[0], want[0]) and same(got[1], want[1]), (method, d_u, d_v, dt)
    rng = np.random.default_rng(n)
    src = wave_sources(n)
    for method, stepper in (("exp_euler", step_exp_euler), ("imex", step_imex)):
        for d_u, d_v, p_u, p_v, dt in ((1.0, 1.0, 1.0, 1.0, 0.005), (1.0, 0.3, -0.7, 2.5, 1e-3)):
            c = CoefficientSet(d_u=d_u, d_v=d_v, p_u=p_u, p_v=p_v)
            values, t = rng.standard_normal((2, n)), 0.3
            s = _source_values(src, np.array([t]), n)[0]
            coeffs = to_coeffs(values)
            want = ref_diagonal_step(method, coeffs, values, dt, s, c)
            a, b = integrators._weights(method, spectral._exponents(n, d_u, d_v, dt), dt)
            plain = integrators._diagonal_step(a, b, c, coeffs, values, t, s)
            assert same(plain[0], want[0]) and same(plain[1], want[1]) and plain[2] == 0
            assert same(stepper(values, t, dt, src, c), want[1])
            # weights built from z with a leading (1,) axis, on a (1, 2, n) state
            z = spectral._exponents(n, np.array([d_u]), np.array([d_v]), np.array([dt]))
            a1, b1 = integrators._weights(method, z, np.array([dt])[:, None, None])
            assert a1.shape == b1.shape == (1, 2, n)
            unit = integrators._diagonal_step(a1, b1, c, coeffs[None], values[None], t, s)
            assert same(unit[0], plain[0][None]) and same(unit[1], plain[1][None]) and unit[2] == 0


# ---------------------------------------------------------------------------
# Picard slabs


def late_overflow_case(n):
    """A slab whose reaction overflows in sweep 2 after a finite sweep 1.

    Impacts of 1e100 make u*I overflow long before the squared change does;
    at n = 1 the reaction's coefficients turn +-inf without a NaN.
    """
    top = np.full(n, 1e118)
    rise = lambda times: top * (times > 0)[:, None]  # noqa: E731
    config = SolveConfig(dt=0.01, t_end=0.01, method="picard", picard_substeps=2)
    return np.zeros((2, n)), 0.01, config, SourcePair(f=rise, g=rise), CoefficientSet(p_u=1e100, p_v=1e100)


def slab_cases(n):
    """(name, values, dt, config, sources, coefficients) of slabs at n nodes, sources a SourcePair."""
    rng = np.random.default_rng(100 + n)
    grid = Grid1D(n)
    for m in (4, 2, 6):
        config = SolveConfig(dt=0.005, t_end=0.005, method="picard", picard_substeps=m)
        for p_u, p_v in P_PAIRS[::3] + [(-1.3, -2.5)]:
            c = CoefficientSet(d_u=1.0, d_v=0.3, p_u=p_u, p_v=p_v)
            name = f"p=({p_u}, {p_v}) m={m}"
            yield f"sources {name}", rng.standard_normal((2, n)), 0.005, config, wave_sources(n), c
            yield f"zero {name}", np.zeros((2, n)), 0.005, config, zero_sources(grid), c
        # a large state whose sweep budget runs out
        tight = SolveConfig(dt=0.05, t_end=0.05, method="picard", picard_max_iter=3, picard_substeps=m)
        big = 100.0 * rng.standard_normal((2, n))
        yield f"budget m={m}", big, 0.05, tight, zero_sources(grid), CoefficientSet()
        # sources stepping from 0 at t = 0 to a huge value: 1e308 turns the first
        # sweep non-finite; 1e160 and 1e100 leave a finite iterate whose squared
        # change overflows in sweep 1 and 2
        long = SolveConfig(dt=0.5, t_end=1.0, method="picard", picard_substeps=m)
        for height in (1e308, 1e160, 1e100):
            rise = lambda times, top=np.full(n, height): top * (times > 0)[:, None]  # noqa: E731
            step = SourcePair(f=rise, g=rise)
            yield f"0 -> {height:g} m={m}", np.zeros((2, n)), 0.5, long, step, CoefficientSet()
    config = SolveConfig(dt=0.005, t_end=0.005, method="picard")
    for bad in (np.inf, -np.inf, np.nan):
        values = rng.standard_normal((2, n))
        values[1, n // 2] = bad
        yield f"start holding {bad}", values, 0.005, config, wave_sources(n), CoefficientSet(p_u=0.5)
    yield ("late overflow", *late_overflow_case(n))
    # the kernel states, from the manufactured pair's sources, converging or out of budget
    for c, spec in zip(COEFFICIENTS, SPECS):
        src = build_mms_sources(spec, grid, c)
        pairs = [(kind, values) for kind, values in states(n, rng) if values.ndim == 2]
        for kind, values in pairs:
            for dt, max_iter in ((0.005, 25), (0.05, 3)):
                config = SolveConfig(dt=dt, t_end=dt, method="picard", picard_max_iter=max_iter)
                yield f"{kind} {spec} dt={dt}", values, dt, config, src, c


def outcome(slab, *args):
    """("returned", values, sweeps, changes) or ("raised", t, sweeps, changes, message) of a slab."""
    try:
        values, sweeps, changes = slab(*args)
    except PicardConvergenceError as err:
        return "raised", err.t, err.iterations, err.diff_norms, str(err)
    return "returned", values, sweeps, changes


def ending(result):
    """Raised, converged, or a non-finite change after k sweeps, with finite end values (blow-up) or not."""
    if result[0] == "raised":
        return "raised"
    if math.isfinite(result[3][-1]):
        return "converged"
    return ("blow-up" if np.all(np.isfinite(result[1])) else "non-finite") + f" after {result[2]}"


@pytest.mark.parametrize("n", SIZES)
def test_picard_slabs_equal_the_reference_slab(n):
    endings = set()
    for name, values, dt, config, src, c in slab_cases(n):
        m = config.picard_substeps
        weights = integrators._picard_weights(n, dt / (m - 1), m, c)
        assert all(map(same, weights, ref_picard_weights(n, dt / (m - 1), m, c))), name
        for t in (0.0, 0.1, 0.3):
            forcing = slab_sources(src, t, dt, config, n)
            got = outcome(integrators.picard_slab, values, t, dt, config, forcing, c)
            want = outcome(ref_picard_slab, values, t, dt, config, forcing, c)
            assert got[0] == want[0] and got[2] == want[2] and got[4:] == want[4:], (name, t)
            assert same(got[1], want[1]) and same(got[3], want[3]), (name, t)
            endings.add(ending(want))
            if name.startswith("start holding"):
                assert want[2] == 1 and math.isnan(want[3][0]), name
    # the late overflow is the one slab that turns non-finite in sweep 2
    assert endings == {
        "converged", "raised", "non-finite after 1", "blow-up after 1", "blow-up after 2", "non-finite after 2"
    }


def test_a_late_overflow_ends_on_the_moving_sample_s_change():
    values, dt, config, src, c = late_overflow_case(1)
    result = integrators.picard_slab(values, 0.0, dt, config, slab_sources(src, 0.0, dt, config, 1), c)
    # sample 1, the one that moves at m = 2, moved by inf in sweep 2
    assert result.iterations == 2 and math.isfinite(result.diff_norms[0]) and result.diff_norms[1] == math.inf
    assert same(result.values, np.array([[-np.inf], [np.inf]]))


@pytest.mark.parametrize("n", (7, 128))
def test_picard_slab_takes_only_its_source_values(n):
    m, grid = 4, Grid1D(n)
    config = SolveConfig(dt=0.01, t_end=0.01, method="picard", picard_substeps=m)
    src = wave_sources(n)
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
    assert same(none.values, zero.values) and none.diff_norms == zero.diff_norms


# ---------------------------------------------------------------------------
# Marches across source blocks, against one step at a time


@pytest.mark.parametrize(
    "method, n, n_steps",
    # blocks of 585 and 16 exp_euler/imex steps, and of 146 and 4 Picard slabs
    [(method, 7, 1300) for method in ("exp_euler", "imex")]
    + [(method, 256, 40) for method in ("exp_euler", "imex")]
    + [("picard", 7, 300), ("picard", 256, 10)],
)
def test_marches_across_source_blocks_equal_a_step_by_step_march(method, n, n_steps, tmp_path):
    grid, dt = Grid1D(n), 1e-3
    # a block holds 8192 // (2n) steps, or 8192 // (2nm) slabs of m = 4 substeps
    assert n_steps > 2 * (8192 // (2 * n * (4 if method == "picard" else 1)))
    spec, c = SPECS[1], COEFFICIENTS[1]
    state0 = pdae1d.mms_state(spec, grid, 0.0)
    config = SolveConfig(dt=dt, t_end=n_steps * dt, method=method)
    table_times = (0.0, 0.4 * n_steps * dt, 0.7 * n_steps * dt, 2.0)
    path = tmp_path / "sources.txt"
    slabs = write_table(path, grid, table_times, np.random.default_rng(4000 + n))
    cases = (
        (build_mms_sources(spec, grid, c), lambda t: ref_mms(spec, c, grid.nodes, t)[1]),
        (zero_sources(grid), lambda t: np.zeros((2, n))),
        (tabulated_sources(grid, str(path)), lambda t: ref_interpolate(table_times, slabs, t)),
    )
    for src, at in cases:
        traj = pdae1d.solve(state0, config, src, c)
        assert traj.status.kind == "completed" and traj.times == [k * dt for k in range(n_steps + 1)]
        want, sweeps = ref_march(state0.values, config, at, c)
        assert same(traj.values[1:], want), src.kind
        assert traj.picard_iterations_total == sweeps, src.kind


# ---------------------------------------------------------------------------
# The source pairs at an array of times, against one time at a time


def assert_rows(fn, per_time, times):
    """fn(times) is a read-only (K, n) array, and it and a one-time call give per_time's bits at each time."""
    rows = fn(times)
    assert rows.shape == (len(times), rows.shape[-1]) and not rows.flags.writeable
    for i, t in enumerate(times.tolist()):
        want = per_time(t)
        assert same(rows[i], want) and same(fn(times[i : i + 1])[0], want), (i, t)


@pytest.mark.parametrize("n", SOURCE_SIZES)
def test_source_pairs_and_their_lipschitz_quotient_equal_the_per_time_references(n, tmp_path):
    grid = Grid1D(n)
    # e^-740 is subnormal and e^-800 is 0
    times = np.array([0.0, -0.0, 1e-5, 0.3, 7.25, 740.0, 800.0, np.inf, -np.inf, np.nan] + march_times(n))
    for spec in SPECS:
        for c in COEFFICIENTS:
            src = build_mms_sources(spec, grid, c)
            # the mms-sources table evaluates the pair at every node, both ends included
            full = _mms_source_fns(spec, c, grid.nodes_full)
            for x, pair in ((grid.nodes, (src.f, src.g)), (grid.nodes_full, full)):
                with np.errstate(over="ignore", invalid="ignore"):
                    for component, fn in enumerate(pair):
                        assert_rows(fn, lambda t: ref_mms(spec, c, x, t)[1][component], times)
                    want = [ref_mms(spec, c, x, t)[0] for t in times.tolist()]
                    assert same(_mms_values(spec, x, times), np.array(want)), (spec, c)
            for t_end in (0.05, 1.0, 7.25):
                probes = np.linspace(0.0, t_end, 9)  # as run_scenario probes its sources
                got = pdae1d.source_time_lipschitz(src, probes)
                want = ref_source_time_lipschitz(lambda t: ref_mms(spec, c, grid.nodes, t)[1], probes.tolist())
                assert type(got) is float and same(got, want), (spec, c, t_end)
    zero = zero_sources(grid)
    for fn in (zero.f, zero.g):
        assert_rows(fn, lambda t: np.zeros(n), times)
    table_times = (0.1, 0.35, 0.6, 1.0)
    path = tmp_path / "sources.txt"
    slabs = write_table(path, grid, table_times, np.random.default_rng(3000 + n))
    table = tabulated_sources(grid, str(path))
    before, between, after = [0.0, -0.0, 0.05], [0.2, 0.5999, 0.7, 0.99], [1.0 + 1e-12, 3.0]
    times = np.array(before + list(table_times) + between + after + march_times(n))
    for component, fn in enumerate((table.f, table.g)):
        assert_rows(fn, lambda t: ref_interpolate(table_times, slabs, t)[component], times)
