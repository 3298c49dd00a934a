import math
import warnings

import numpy as np
import pytest
from constraint_oracle import recurrence_gap
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import expm

from pdae1d import (
    CoefficientSet,
    Field,
    Grid1D,
    MmsSpec,
    PicardConvergenceError,
    RunStatus,
    SolveConfig,
    SourcePair,
    StatePair,
    build_mms_sources,
    constraint_residual,
    laplacian_eigenvalues,
    mms_state,
    picard_slab,
    reconstruct_w,
    sine_mode,
    solve,
    step_exp_euler,
    step_imex,
    zero_sources,
)
from pdae1d import cli, fields, integrators, nonlinearity, spectral
from pdae1d.fields import pair_norm

METHODS = ("exp_euler", "imex", "picard")


def held(value):
    """A source component that is ``value`` (n,) at every time: a read-only (K, n) view."""
    return lambda times: np.broadcast_to(value, (len(times),) + value.shape)


def switched(condition, on, off):
    """A source component that is ``on`` (n,) at the times where ``condition(times)`` holds, else ``off``."""
    return lambda times: np.where(condition(times)[:, None], on, off)


def slab_sources(pair, t, cfg, n):
    """The (m, 2, n) source values of the Picard slab of length cfg.dt from t, as a march hands them over."""
    return nonlinearity._source_values(pair, integrators._step_times("picard", t, cfg.dt, cfg.picard_substeps), n)


def dense_laplacian(n):
    h = 1.0 / (n + 1)
    return (-2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / h**2


def mol_rhs_factory(grid, sources=None, coefficients=None):
    # independent method-of-lines right-hand side for oracle integration
    c = coefficients if coefficients is not None else CoefficientSet()
    n = grid.n_interior
    matrix = dense_laplacian(n)

    def rhs(t, y):
        u, v = y[:n], y[n:]
        full = np.concatenate(([0.0], c.p_u * u + c.p_v * v, [0.0]))
        integral = cumulative_trapezoid(full, grid.nodes_full, initial=0.0)[1:-1]
        du = c.d_u * (matrix @ u) - u * integral
        dv = c.d_v * (matrix @ v) + v * integral
        if sources is not None:
            du = du + sources.f(np.array([t]))[0]
            dv = dv + sources.g(np.array([t]))[0]
        return np.concatenate((du, dv))

    return rhs


def rk4_march(y0, t0, dt, substeps, rhs):
    y, t = y0.copy(), t0
    step = dt / substeps
    for _ in range(substeps):
        k1 = rhs(t, y)
        k2 = rhs(t + step / 2, y + step / 2 * k1)
        k3 = rhs(t + step / 2, y + step / 2 * k2)
        k4 = rhs(t + step, y + step * k3)
        y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += step
    return y


def decay_values(grid, amplitude=0.1):
    x = grid.nodes
    return np.stack((amplitude * np.sin(np.pi * x), amplitude * np.sin(2.0 * np.pi * x)))


def as_pair(grid, values):
    return StatePair(Field(grid, values[0]), Field(grid, values[1]))


def decay_state(grid, amplitude=0.1):
    return as_pair(grid, decay_values(grid, amplitude))


class TestExpEuler:
    def test_zero_is_fixed_point(self):
        out = step_exp_euler(np.zeros((2, 10)), 0.0, 0.1)
        assert np.all(out == 0.0)

    def test_linear_regime_matches_dense_exponential(self):
        # reaction disabled, no sources: ten steps reproduce expm exactly
        rng = np.random.default_rng(51)
        state = rng.uniform(-1, 1, (2, 12))
        dt = 0.01
        marched = state
        for k in range(10):
            marched = step_exp_euler(marched, k * dt, dt, coefficients=CoefficientSet(p_u=0, p_v=0))
        propagator = expm(10 * dt * dense_laplacian(12))
        assert np.max(np.abs(marched[0] - propagator @ state[0])) < 1e-9
        assert np.max(np.abs(marched[1] - propagator @ state[1])) < 1e-9

    def test_one_step_against_rk4_oracle(self):
        grid = Grid1D(16)
        state = decay_values(grid)
        rhs = mol_rhs_factory(grid)
        errors = []
        for dt in (0.02, 0.01, 0.005):
            stepped = step_exp_euler(state, 0.0, dt)
            reference = rk4_march(state.ravel(), 0.0, dt, 100, rhs)
            errors.append(np.max(np.abs(stepped.ravel() - reference)))
        assert errors[0] < 1e-4
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        assert all(2.7 <= r <= 5.5 for r in ratios)  # local error is O(dt^2)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_exp_euler(np.zeros((2, 4)), 0.0, 0.0)


class TestImex:
    def test_zero_is_fixed_point(self):
        out = step_imex(np.zeros((2, 10)), 0.0, 0.1)
        assert np.all(out == 0.0)

    def test_single_mode_linear_recurrence(self):
        grid = Grid1D(14)
        lam = laplacian_eigenvalues(grid)
        dt, diffusion = 0.05, 1.5
        coefficients = CoefficientSet(d_u=diffusion, d_v=1.0, p_u=0, p_v=0)
        for k in (1, 4, 14):
            state = np.stack((sine_mode(grid, k).values, np.zeros(14)))
            out = step_imex(state, 0.0, dt, coefficients=coefficients)
            expected = state[0] / (1.0 - dt * diffusion * lam[k - 1])
            np.testing.assert_allclose(out[0], expected, rtol=1e-12, atol=1e-15)

    def test_full_step_against_rk4_oracle(self):
        grid = Grid1D(16)
        state = decay_values(grid, amplitude=0.5)
        rhs = mol_rhs_factory(grid)
        errors = []
        for dt in (0.002, 0.001):
            stepped = step_imex(state, 0.0, dt)
            reference = rk4_march(state.ravel(), 0.0, dt, 100, rhs)
            errors.append(np.max(np.abs(stepped.ravel() - reference)))
        assert 3.0 <= errors[0] / errors[1] <= 5.0  # one-step defect is O(dt^2)

    def test_agrees_with_exp_euler_under_refinement(self):
        grid = Grid1D(32)
        state = decay_state(grid)
        distances = []
        for dt in (1e-3, 5e-4):
            cfg_a = SolveConfig(dt=dt, t_end=0.2, method="exp_euler", snapshot_every=10**9)
            cfg_b = SolveConfig(dt=dt, t_end=0.2, method="imex", snapshot_every=10**9)
            a = solve(state, cfg_a).values[-1]
            b = solve(state, cfg_b).values[-1]
            distances.append(pair_norm(a - b, grid.h))
        assert distances[0] < 1e-3
        assert distances[0] / distances[1] > 1.5


class TestPicard:
    def test_zero_state_converges_immediately(self):
        cfg = SolveConfig(dt=0.1, t_end=0.1, method="picard")
        result = picard_slab(np.zeros((2, 8)), 0.0, 0.1, cfg)
        assert result.iterations == 1
        assert np.all(result.values[0] == 0.0)

    def test_contraction_within_budget(self):
        grid = Grid1D(64)
        state = decay_values(grid)
        dt = 0.13
        assert dt * 4.0 * np.sqrt(3.0) * pair_norm(state, grid.h) <= 0.1
        cfg = SolveConfig(dt=dt, t_end=dt, method="picard")
        result = picard_slab(state, 0.0, dt, cfg)
        assert result.iterations <= 6
        assert result.diff_norms[-1] < 1e-10
        ratios = np.asarray(result.diff_norms[1:]) / np.asarray(result.diff_norms[:-1])
        assert np.max(ratios) <= 0.12

    def test_slab_end_matches_refined_exp_euler(self):
        grid = Grid1D(24)
        state = decay_values(grid, amplitude=0.4)
        errors = []
        for dt in (0.08, 0.04):
            cfg = SolveConfig(dt=dt, t_end=dt, method="picard", picard_tol=1e-13)
            slab_end = picard_slab(state, 0.0, dt, cfg).values
            refined = state
            fine = dt / 64
            for k in range(64):
                refined = step_exp_euler(refined, k * fine, fine)
            errors.append(pair_norm(slab_end - refined, grid.h))
        assert errors[0] < 1e-4
        assert 3.0 <= errors[0] / errors[1] <= 6.0  # both converge at O(dt^2) or better

    def test_nonconvergence_raises_with_estimate(self):
        state = 50.0 * decay_values(Grid1D(16), amplitude=1.0)
        cfg = SolveConfig(dt=0.5, t_end=0.5, method="picard", picard_max_iter=8)
        with pytest.raises(PicardConvergenceError) as excinfo:
            picard_slab(state, 0.0, 0.5, cfg)
        assert excinfo.value.iterations == 8
        assert np.isfinite(excinfo.value.contraction_estimate)

    @pytest.mark.parametrize("n", [7, 256])
    def test_overflowing_change_ends_the_slab(self, n):
        # sources stepping from 0 to 1e100: the squared change of sweep 2
        # overflows while the iterate stays finite
        grid = Grid1D(n)
        top = np.full(n, 1e100)
        sources = SourcePair(f=switched(lambda t: t > 0, top, 0.0), g=switched(lambda t: t > 0, top, 0.0))
        zero = as_pair(grid, np.zeros((2, n)))
        for method, t_blowup in (("exp_euler", 1.0), ("imex", 1.0), ("picard", 0.5)):
            traj = solve(zero, SolveConfig(dt=0.5, t_end=1.0, method=method), sources)
            assert traj.status == RunStatus.blowup_detected(t_blowup), method
        cfg = SolveConfig(dt=0.5, t_end=1.0, method="picard")
        result = picard_slab(np.zeros((2, n)), 0.0, 0.5, cfg, slab_sources(sources, 0.0, cfg, n))
        assert result.iterations == traj.picard_iterations_total == 2
        assert math.isfinite(result.diff_norms[0]) and result.diff_norms[1] == math.inf
        assert np.all(np.isfinite(result.values))
        assert pair_norm(result.values, grid.h) >= cfg.blowup_threshold

    @pytest.mark.parametrize("n", [7, 256])
    def test_overflowing_change_with_a_small_end_raises(self, n):
        # a 1e200 source at the slab's second substep sample only: its
        # change overflows in sweep 1, and a slab of 30 time units damps
        # the end values to a norm below the threshold.  They have not
        # converged, so the slab raises rather than pass them on
        top, zero = np.full(n, 1e200), np.zeros(n)
        sources = SourcePair(f=switched(lambda t: t == 10.0, top, zero), g=held(zero))
        cfg = SolveConfig(dt=30.0, t_end=30.0, method="picard", blowup_threshold=1e300)
        with pytest.raises(PicardConvergenceError) as excinfo:
            picard_slab(np.zeros((2, n)), 0.0, 30.0, cfg, slab_sources(sources, 0.0, cfg, n))
        assert excinfo.value.iterations == 1 and excinfo.value.diff_norms == (math.inf,)
        traj = solve(as_pair(Grid1D(n), np.zeros((2, n))), cfg, sources)
        assert traj.status == RunStatus.step_failure(0.0, str(excinfo.value))
        assert traj.picard_iterations_total == 1

    def test_solve_reports_step_failure_with_partial_trajectory(self):
        grid = Grid1D(16)
        state = as_pair(grid, 50.0 * decay_values(grid, amplitude=1.0))
        cfg = SolveConfig(dt=0.5, t_end=1.0, method="picard", picard_max_iter=5, blowup_threshold=1e9)
        traj = solve(state, cfg)
        assert traj.status.kind == "step_failure"
        assert traj.status.t == 0.0
        assert "no convergence" in traj.status.reason
        assert traj.times == [0.0]


class TestSolve:
    def test_zero_initial_data_stays_zero(self):
        grid = Grid1D(12)
        cfg = SolveConfig(dt=0.05, t_end=0.5)
        traj = solve(as_pair(grid, np.zeros((2, 12))), cfg)
        assert traj.status.kind == "completed"
        assert np.all(pair_norm(traj.values, grid.h) == 0.0)
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0.0)

    def test_snapshot_cadence(self):
        grid = Grid1D(8)
        cfg = SolveConfig(dt=0.01, t_end=0.2, snapshot_every=5)
        traj = solve(decay_state(grid), cfg)
        np.testing.assert_allclose(traj.times, [0.0, 0.05, 0.1, 0.15, 0.2], rtol=1e-12)
        assert len(traj.values) == len(traj.w) == 5
        assert len(traj.residual_l2) == len(traj.w_at_1) == 5

    def test_blowup_detection(self):
        grid = Grid1D(32)
        state = StatePair(Field.zeros(grid), sine_mode(grid, 1, 50.0))
        cfg = SolveConfig(dt=5e-4, t_end=1.0, blowup_threshold=1e3, snapshot_every=100)
        traj = solve(state, cfg)
        assert traj.status.kind == "blowup_detected"
        assert traj.status.t == traj.times[-1]
        assert pair_norm(traj.values[-1], grid.h) >= 1e3
        assert np.all(np.diff(traj.times) > 0.0)

    def test_blowup_threshold_hit_at_start(self):
        grid = Grid1D(8)
        state = StatePair(sine_mode(grid, 1, 10.0), Field.zeros(grid))
        cfg = SolveConfig(dt=0.01, t_end=0.1, blowup_threshold=1.0)
        traj = solve(state, cfg)
        assert traj.status.kind == "blowup_detected"
        assert traj.status.t == 0.0

    def test_norm_continuity_along_decay(self):
        grid = Grid1D(48)
        cfg = SolveConfig(dt=1e-3, t_end=0.3)
        traj = solve(decay_state(grid), cfg)
        norms = pair_norm(traj.values, grid.h)
        jumps = np.abs(np.diff(norms))
        rate_limit = np.max(jumps[:30]) / cfg.dt  # steepest early decay bounds the rest
        assert np.all(jumps <= 1.05 * rate_limit * cfg.dt + 1e-14)

    def test_constraint_reports_present_and_second_order(self):
        residual_maxima = []
        for n in (63, 127):
            grid = Grid1D(n)
            cfg = SolveConfig(dt=1e-3, t_end=0.05, snapshot_every=10)
            traj = solve(decay_state(grid), cfg)
            assert traj.status.kind == "completed"
            report = constraint_residual(traj.values, traj.w)
            assert np.all(report.w_at_0 == 0.0) and np.all(report.wx_at_0 == 0.0)
            assert recurrence_gap(traj.values, traj.w) <= 1.0  # agrees to O(h^2)
            residual_maxima.append(max(traj.residual_l2))
        assert 3.2 <= residual_maxima[0] / residual_maxima[1] <= 4.8

    def test_picard_solve_counts_iterations(self):
        grid = Grid1D(16)
        cfg = SolveConfig(dt=0.02, t_end=0.1, method="picard")
        traj = solve(decay_state(grid), cfg)
        assert traj.status.kind == "completed"
        assert traj.picard_iterations_total >= traj.steps_taken

    def test_picard_counts_the_sweeps_of_a_slab_that_does_not_converge(self):
        grid = Grid1D(16)
        cfg = SolveConfig(dt=0.01, t_end=0.05, method="picard", picard_max_iter=1)
        traj = solve(decay_state(grid), cfg)
        assert traj.status.kind == "step_failure" and traj.status.t == 0.0
        assert "no convergence after 1 sweeps" in traj.status.reason
        assert traj.steps_taken == 0 and traj.picard_iterations_total == 1

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("ending", ["blowup_detected", "blowup_at_start", "step_failure"])
    def test_snapshot_arrays_have_a_row_per_time(self, method, ending):
        grid = Grid1D(16)
        cfg = SolveConfig(dt=0.05, t_end=1.0, method=method, blowup_threshold=1e9)
        state, sources = decay_state(grid), None
        if ending == "blowup_detected":
            state = StatePair(Field.zeros(grid), sine_mode(grid, 1, 50.0))
            cfg = SolveConfig(
                dt=5e-4, t_end=1.0, method=method, blowup_threshold=1e3, snapshot_every=20
            )
        elif ending == "blowup_at_start":
            cfg = SolveConfig(dt=0.05, t_end=1.0, method=method, blowup_threshold=1e-3)
        else:
            huge, zero = np.full(16, 1e308), np.zeros(16)
            ramp = switched(lambda t: t > 0.12, huge, zero)
            sources = SourcePair(f=ramp, g=ramp)
        traj = solve(state, cfg, sources)
        assert traj.status.kind == ending.replace("_at_start", "_detected")
        rows = len(traj.times)
        assert rows == 1 if ending == "blowup_at_start" else rows >= 2
        assert traj.values.shape == (rows, 2, 16) and traj.w.shape == (rows, 18)
        assert traj.residual_l2.shape == traj.w_at_1.shape == (rows,)
        last = traj.values[-1]
        assert np.array_equal(traj.w[-1], reconstruct_w(last))
        assert traj.residual_l2[-1] == constraint_residual(last, reconstruct_w(last)).residual_l2

    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_source_is_a_non_finite_failure(self, method):
        grid = Grid1D(16)
        huge = np.full(16, 1e308)
        cfg = SolveConfig(dt=0.5, t_end=1.0, method=method)
        sources = SourcePair(f=held(huge), g=held(huge))
        traj = solve(as_pair(grid, np.zeros((2, 16))), cfg, sources)
        assert traj.status.kind == "step_failure"
        assert traj.status.t == 0.0
        # the source is finite, so the state is to blame
        assert traj.status.reason == "non-finite state"
        assert traj.times == [0.0]

    @pytest.mark.parametrize("method", METHODS)
    def test_source_on_another_grid_raises(self, method):
        # a scalar or (1, 1) source would broadcast over the state without the check
        values = (sine_mode(Grid1D(8), 1).values[None], 0.5, np.ones((1, 1)), np.ones((1, 16), dtype=int))
        cfg = SolveConfig(dt=0.01, t_end=0.02, method=method)
        zero = held(np.zeros(16))
        for value in values:
            calls = []

            def bad(times, value=value):
                calls.append(times.tolist())
                return value

            for sources in (SourcePair(f=bad, g=zero), SourcePair(f=zero, g=bad)):
                with pytest.raises(ValueError, match=r"must be a float array of shape \(1, 16\)"):
                    solve(decay_state(Grid1D(16)), cfg, sources)
            assert calls == [[0.0], [0.0]]  # once per pair, at [0.0], before the first step

    @pytest.mark.parametrize("method", METHODS)
    def test_source_ignoring_the_number_of_times_raises(self, method):
        # one (n,) value for any array of times: without the check it would
        # broadcast over a block's rows
        cfg = SolveConfig(dt=0.01, t_end=0.02, method=method)
        flat, zero = (lambda times: np.zeros(16)), held(np.zeros(16))
        for sources in (SourcePair(f=flat, g=zero), SourcePair(f=zero, g=flat)):
            with pytest.raises(ValueError, match=r"must be a float array of shape \(1, 16\), got \(16,\)"):
                solve(decay_state(Grid1D(16)), cfg, sources)

    @pytest.mark.parametrize("method", ["exp_euler", "imex"])
    def test_source_with_one_row_for_a_block_raises(self, method):
        # right at one time, but one row for every block of times
        cfg = SolveConfig(dt=0.01, t_end=0.02, method=method)
        sources = SourcePair(f=lambda times: np.zeros((1, 16)), g=held(np.zeros(16)))
        with pytest.raises(ValueError, match=r"sources.f at 2 time\(s\) must be .* \(2, 16\), got \(1, 16\)"):
            solve(decay_state(Grid1D(16)), cfg, sources)

    @pytest.mark.parametrize("method", METHODS)
    def test_builds_no_field_or_state_pair_per_step(self, method, monkeypatch):
        grid = Grid1D(15)
        spec = MmsSpec()
        state0, sources = mms_state(spec, grid, 0.0), build_mms_sources(spec, grid)
        counts = {}
        for cls in (fields.Field, fields.StatePair):
            original = cls.__post_init__

            def counting(self, original=original, name=cls.__name__):
                counts[name] = counts.get(name, 0) + 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        built = []
        for steps in (2, 20):
            counts.clear()
            cfg = SolveConfig(dt=0.01, t_end=0.01 * steps, method=method)
            traj = solve(state0, cfg, sources)
            assert traj.steps_taken == steps and len(traj.times) == steps + 1
            built.append(dict(counts))
        assert built[0] == built[1] == {}


def public_step(method, values, t, cfg, sources):
    """One step through the public one-step functions; returns (values, Picard sweeps)."""
    if method == "exp_euler":
        return step_exp_euler(values, t, cfg.dt, sources), 0
    if method == "imex":
        return step_imex(values, t, cfg.dt, sources), 0
    result = picard_slab(values, t, cfg.dt, cfg, slab_sources(sources, t, cfg, values.shape[-1]))
    return result.values, result.iterations


class TestArrayCore:
    @pytest.mark.parametrize("method", ["exp_euler", "imex"])
    def test_one_step_with_frozen_source_matches_dense_formula(self, method):
        # no coupling, so a step is exp(M) x + dt phi1(M) s or (I - M)^-1 (x + dt s)
        n, dt = 12, 0.03
        grid = Grid1D(n)
        u0, v0, f, g = np.random.default_rng(7).uniform(-1.0, 1.0, (4, n))
        c = CoefficientSet(d_u=0.7, d_v=1.9, p_u=0, p_v=0)
        sources = SourcePair(f=held(f), g=held(g))
        step = step_exp_euler if method == "exp_euler" else step_imex
        out = step(np.stack((u0, v0)), 0.0, dt, sources, c)
        identity = np.eye(n)
        for got, x0, s, d in ((out[0], u0, f, c.d_u), (out[1], v0, g, c.d_v)):
            m = dt * d * dense_laplacian(n)
            if method == "exp_euler":
                want = expm(m) @ x0 + dt * np.linalg.solve(m, expm(m) - identity) @ s
            else:
                want = np.linalg.solve(identity - m, x0 + dt * s)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize("method", METHODS)
    def test_solve_matches_a_loop_of_public_steps(self, method, n):
        grid = Grid1D(n)
        spec = MmsSpec()
        sources = build_mms_sources(spec, grid)
        cfg = SolveConfig(dt=0.01, t_end=0.05, method=method)
        traj = solve(mms_state(spec, grid, 0.0), cfg, sources)
        assert traj.status.kind == "completed" and traj.steps_taken == 5
        state, sweeps = traj.values[0], 0
        for k in range(5):
            state, used = public_step(method, state, k * cfg.dt, cfg, sources)
            sweeps += used
            assert pair_norm(traj.values[k + 1] - state, grid.h) <= 1e-13 * pair_norm(state, grid.h)
        assert traj.picard_iterations_total == sweeps

    @pytest.mark.parametrize("method", METHODS)
    def test_batched_transforms_per_step_and_sweep(self, method, monkeypatch):
        shapes = []
        dst = spectral._dst

        def counting(x, *args, **kwargs):
            shapes.append(x.shape)
            return dst(x, *args, **kwargs)

        monkeypatch.setattr(spectral, "_dst", counting)
        sweeps_per_slab = []
        slab = integrators.picard_slab

        def recording(*args, **kwargs):
            result = slab(*args, **kwargs)
            sweeps_per_slab.append(result.iterations)
            return result

        monkeypatch.setattr(integrators, "picard_slab", recording)
        grid = Grid1D(31)
        spec = MmsSpec()
        cfg = SolveConfig(dt=0.01, t_end=0.06, method=method, snapshot_every=2)
        traj = solve(mms_state(spec, grid, 0.0), cfg, build_mms_sources(spec, grid))
        assert traj.steps_taken == 6
        m = cfg.picard_substeps
        pair, samples, moving = (2, 31), (m, 2, 31), (m - 1, 2, 31)
        if method == "picard":
            # per slab: the start coefficients, an inverse and a forward
            # transform of all samples in the first sweep, the pair of all
            # but the unchanging sample 0 in each later sweep, the end values
            assert len(sweeps_per_slab) == traj.steps_taken
            assert sum(sweeps_per_slab) == traj.picard_iterations_total
            assert traj.picard_iterations_total > traj.steps_taken
            expected = []
            for sweeps in sweeps_per_slab:
                expected += [pair, samples, samples] + [moving] * (2 * (sweeps - 1)) + [pair]
            assert shapes == expected
        else:
            # the initial state once per march, then two per step
            assert shapes == [pair] * (1 + 2 * traj.steps_taken)

    def test_picard_slab_returns_a_non_finite_end(self):
        huge = np.full(16, 1e308)
        cfg = SolveConfig(dt=0.5, t_end=1.0, method="picard")
        sources = SourcePair(f=held(huge), g=held(huge))
        with warnings.catch_warnings():  # the caller classifies the end, numpy need not warn
            warnings.simplefilter("error")
            result = picard_slab(np.zeros((2, 16)), 0.0, 0.5, cfg, slab_sources(sources, 0.0, cfg, 16))
        assert not np.all(np.isfinite(result.values))
        assert result.iterations < cfg.picard_max_iter
        traj = solve(as_pair(Grid1D(16), np.zeros((2, 16))), cfg, sources)
        assert traj.status == RunStatus.step_failure(0.0, "non-finite state")
        assert traj.times == [0.0] and traj.steps_taken == 0
        assert traj.picard_iterations_total == result.iterations


def planting(monkeypatch, value, t_bad):
    """Make every step from t >= t_bad return a state with one entry set to ``value``."""
    original = integrators._stepper

    def stepper(*args):
        step, carry = original(*args)

        def planted(carry, values, t, s):
            carry, values, sweeps = step(carry, values, t, s)
            if t >= t_bad:
                values = values.copy()
                values[1, 5] = value
            return carry, values, sweeps

        return planted, carry

    monkeypatch.setattr(integrators, "_stepper", stepper)


class TestClassification:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_state_fails_at_the_step_start(self, method, value, monkeypatch):
        planting(monkeypatch, value, 0.1)
        grid = Grid1D(16)
        cfg = SolveConfig(dt=0.05, t_end=0.5, method=method)
        traj = solve(decay_state(grid), cfg)
        assert traj.status == RunStatus.step_failure(0.1, "non-finite state")
        assert traj.steps_taken == 2
        assert traj.times == [0.0, 0.05, 0.1]  # no snapshot of the failed step
        assert np.all(np.isfinite(traj.values))

    @pytest.mark.parametrize("method", METHODS)
    def test_finite_state_whose_norm_overflows_is_a_blowup_candidate(self, method, monkeypatch):
        planting(monkeypatch, 1e200, 0.1)
        grid = Grid1D(16)
        cfg = SolveConfig(dt=0.05, t_end=0.5, method=method)
        traj = solve(decay_state(grid), cfg)
        assert traj.status == RunStatus.blowup_detected(3 * cfg.dt)
        assert traj.steps_taken == 3 and traj.times[-1] == traj.status.t
        assert traj.values[-1, 1, 5] == 1e200
        with warnings.catch_warnings():  # an overflowing norm is inf, without a warning
            warnings.simplefilter("error")
            assert pair_norm(traj.values[-1], grid.h) == math.inf
            assert pair_norm(traj.values, grid.h)[-1] == math.inf

    @pytest.mark.parametrize("method", METHODS)
    def test_finite_source_driving_the_norm_past_overflow(self, method):
        # every method reaches a finite state whose norm is inf; a Picard slab
        # ends its sweeps at the first change whose square overflows
        grid = Grid1D(16)
        big, zero = np.full(16, 1e200), np.zeros(16)
        sources = SourcePair(f=held(big), g=held(zero))
        cfg = SolveConfig(dt=0.01, t_end=0.05, method=method)
        step = {"exp_euler": step_exp_euler, "imex": step_imex}.get(method)
        with warnings.catch_warnings():  # the caller classifies, numpy need not warn
            warnings.simplefilter("error")
            traj = solve(as_pair(grid, np.zeros((2, 16))), cfg, sources)
            if method == "picard":
                result = picard_slab(np.zeros((2, 16)), 0.0, cfg.dt, cfg, slab_sources(sources, 0.0, cfg, 16))
            else:
                stepped = step(np.zeros((2, 16)), 0.0, cfg.dt, sources)
                norm = pair_norm(stepped, grid.h)
        if method == "picard":
            assert result.iterations == traj.picard_iterations_total == 1
            assert result.diff_norms == (math.inf,)
            stepped, norm = result.values, pair_norm(result.values, grid.h)
        assert traj.status == RunStatus.blowup_detected(0.01)
        assert traj.steps_taken == 1 and traj.times == [0.0, 0.01]
        assert np.all(np.isfinite(traj.values))
        assert np.array_equal(stepped, traj.values[-1]) and norm == math.inf

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("component", ["f", "g", "both"])
    def test_non_finite_source_is_named(self, method, component):
        # NaN from t = 0.1 on; exp_euler/imex use the source at the step
        # start, Picard at the m substep samples of its slab
        grid = Grid1D(16)
        zero, nan = np.zeros(16), np.full(16, np.nan)
        turning = switched(lambda t: t >= 0.1, nan, zero)
        steady = held(zero)
        f = steady if component == "g" else turning
        g = steady if component == "f" else turning
        cfg = SolveConfig(dt=0.04, t_end=0.2, method=method)
        traj = solve(as_pair(grid, np.zeros((2, 16))), cfg, SourcePair(f=f, g=g))
        name = "g" if component == "g" else "f"
        if method == "picard":
            # the slab [0.08, 0.12] samples 0.08 + i * 0.04 / 3, i = 0..3
            t_prev, first_bad = 0.08, 0.08 + 2 * (0.04 / 3)
        else:
            t_prev = first_bad = 0.12
        reason = f"non-finite source {name} at t={first_bad}"
        assert traj.status == RunStatus.step_failure(t_prev, reason)

    @pytest.mark.parametrize("method", METHODS)
    def test_no_finiteness_scan_per_step_or_sweep(self, method, monkeypatch):
        grid = Grid1D(15)
        spec = MmsSpec()
        state0, sources = mms_state(spec, grid, 0.0), build_mms_sources(spec, grid)
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda *a, **k: calls.append(1) or isfinite(*a, **k))
        scans = []
        for steps in (2, 20):
            calls.clear()
            traj = solve(state0, SolveConfig(dt=0.01, t_end=0.01 * steps, method=method), sources)
            assert traj.status.kind == "completed" and traj.steps_taken == steps
            scans.append(len(calls))
        assert scans[0] == scans[1]


def recording(pair, calls):
    """``pair`` with each call's component name and times appended to ``calls``."""

    def record(name, fn):
        def component(times):
            calls.append((name, times.tolist()))
            return fn(times)

        return component

    return SourcePair(f=record("f", pair.f), g=record("g", pair.g), kind=pair.kind)


class TestSourceBlocks:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n, n_steps", [(7, 1300), (256, 40)])
    def test_one_call_of_each_component_per_block_or_slab(self, method, n, n_steps):
        grid, dt = Grid1D(n), 1e-3
        spec = MmsSpec()
        calls = []
        src = recording(build_mms_sources(spec, grid), calls)
        cfg = SolveConfig(dt=dt, t_end=n_steps * dt, method=method, snapshot_every=n_steps)
        traj = solve(mms_state(spec, grid, 0.0), cfg, src)
        assert traj.status.kind == "completed" and traj.steps_taken == n_steps
        m = cfg.picard_substeps
        block = integrators._block_steps(method, n, m)
        if method == "picard":
            # the m substep times of each slab of a block of slabs, flattened
            assert block == 8192 // (2 * n * m) == {7: 146, 256: 4}[n]
            step_times = lambda k: [k * dt + i * (dt / (m - 1)) for i in range(m)]  # noqa: E731
        else:
            # the start time k * dt of each step of a block of steps
            assert block == 8192 // (2 * n) == {7: 585, 256: 16}[n]
            step_times = lambda k: [k * dt]  # noqa: E731
        wanted = [
            [t for k in range(k0, min(k0 + block, n_steps)) for t in step_times(k)]
            for k0 in range(0, n_steps, block)
        ]
        # solve's check at the one time 0, then f and g once for each block
        assert calls == [("f", [0.0]), ("g", [0.0])] + [(name, ts) for ts in wanted for name in "fg"]

    @pytest.mark.parametrize("method", METHODS)
    def test_a_non_finite_reason_makes_no_source_call_after_the_failing_blocks(self, method):
        # NaN in g from t = 0.1: the reason reads the failed step's row of the
        # block the march holds, so the block's f and g calls are the last
        grid = Grid1D(16)
        zero, nan = np.zeros(16), np.full(16, np.nan)
        calls = []
        src = recording(SourcePair(f=held(zero), g=switched(lambda t: t >= 0.1, nan, zero)), calls)
        cfg = SolveConfig(dt=0.04, t_end=0.2, method=method)
        traj = solve(as_pair(grid, np.zeros((2, 16))), cfg, src)
        assert traj.status.kind == "step_failure" and traj.status.reason.startswith("non-finite source g")

        def step_times(t):
            return [t + i * (0.04 / 3) for i in range(4)] if method == "picard" else [t]

        # one block holds all five steps, the failed one among them
        block = [t for k in range(5) for t in step_times(k * 0.04)]
        assert calls == [("f", [0.0]), ("g", [0.0]), ("f", block), ("g", block)]
        assert float(traj.status.reason.split("t=")[1]) in step_times(traj.status.t)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("component", ["f", "g"])
    def test_a_source_non_finite_in_a_later_block_names_the_failing_step(self, method, component):
        # at n = 256 a block holds 16 steps or 4 slabs; NaN from t = 0.0425 on
        # first reaches the step from 0.043 (step 11 of the third block) or
        # the slab from 0.042 (slab 2 of the eleventh block) at its sample 2
        n, dt = 256, 1e-3
        grid = Grid1D(n)
        zero, nan = np.zeros(n), np.full(n, np.nan)
        turning, steady = switched(lambda t: t >= 0.0425, nan, zero), held(zero)
        pair = SourcePair(f=turning, g=steady) if component == "f" else SourcePair(f=steady, g=turning)
        cfg = SolveConfig(dt=dt, t_end=0.1, method=method)
        assert integrators._block_steps(method, n, cfg.picard_substeps) == (4 if method == "picard" else 16)
        traj = solve(as_pair(grid, np.zeros((2, n))), cfg, pair)
        if method == "picard":
            t_prev, first_bad = 42 * dt, 42 * dt + 2 * (dt / 3)
        else:
            t_prev = first_bad = 43 * dt
        assert traj.status == RunStatus.step_failure(t_prev, f"non-finite source {component} at t={first_bad}")
        assert traj.steps_taken == round(t_prev / dt) and traj.times[-1] == t_prev

    def test_source_time_lipschitz_calls_each_component_once(self):
        grid = Grid1D(9)
        calls = []
        probes = np.linspace(0.0, 0.5, 9)
        rate = nonlinearity.source_time_lipschitz(recording(build_mms_sources(MmsSpec(), grid), calls), probes)
        assert rate > 0 and calls == [("f", probes.tolist()), ("g", probes.tolist())]

    def test_mms_sources_table_calls_each_component_once(self, monkeypatch, tmp_path):
        calls = []
        fns = cli._mms_source_fns

        def recorded(*args):
            f, g = fns(*args)
            pair = recording(SourcePair(f=f, g=g), calls)
            return pair.f, pair.g

        monkeypatch.setattr(cli, "_mms_source_fns", recorded)
        out = tmp_path / "table.txt"
        assert cli.main(["mms-sources", "--n-interior", "7", "--times", "0,0.25,1", "--output", str(out)]) == 0
        assert calls == [("f", [0.0, 0.25, 1.0]), ("g", [0.0, 0.25, 1.0])]


class TestSolveConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0, "t_end": 1.0},
            {"dt": 0.1, "t_end": -1.0},
            {"dt": 2.0, "t_end": 1.0},
            {"dt": 0.1, "t_end": 1.0, "method": "rk4"},
            {"dt": 0.1, "t_end": 1.0, "picard_substeps": 1},
            {"dt": 0.1, "t_end": 1.0, "picard_max_iter": 0},
            {"dt": 0.1, "t_end": 1.0, "picard_tol": 0.0},
            {"dt": 0.1, "t_end": 1.0, "blowup_threshold": 0.0},
            {"dt": 0.1, "t_end": 1.0, "snapshot_every": 0},
            {"dt": 0.3, "t_end": 1.0},
            {"dt": 0.1, "t_end": math.inf},
            {"dt": math.nan, "t_end": 1.0},
            {"dt": 0.1, "t_end": 1.0, "blowup_threshold": math.nan},
            {"dt": 0.1, "t_end": 1.0, "blowup_threshold": math.inf},
            {"dt": 0.1, "t_end": 1.0, "picard_tol": math.nan},
            {"dt": 0.1, "t_end": 1.0, "picard_tol": -math.inf},
            {"dt": 1, "t_end": 10**400},
            {"dt": 1e-10, "t_end": 1e308},
            {"dt": 0.1, "t_end": 1.0, "snapshot_every": 2.5},
            {"dt": 0.1, "t_end": 1.0, "snapshot_every": True},
            {"dt": 0.1, "t_end": 1.0, "picard_substeps": 2.5},
            {"dt": 0.1, "t_end": 1.0, "picard_max_iter": 2.5},
            {"dt": "0.1", "t_end": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)

    def test_defaults(self):
        cfg = SolveConfig(dt=0.1, t_end=1.0)
        assert cfg.picard_max_iter == 25
        assert cfg.picard_tol == 1e-10
        assert cfg.picard_substeps == 4
        assert cfg.blowup_threshold == 1e6
        assert cfg.snapshot_every == 1
