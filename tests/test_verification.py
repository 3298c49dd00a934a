from dataclasses import asdict

import numpy as np
import pytest

import pdae1d.spectral
from pdae1d import (
    Grid1D,
    PropertyReport,
    check_dissipativity,
    check_lipschitz,
    check_maximality,
    check_semigroup,
    discrete_laplacian,
    h1_seminorm,
    laplacian_eigenvalues,
    run_checks,
    run_verification,
    sine_mode,
    solve_shifted,
)
from pdae1d import nonlinearity, spectral
from pdae1d.fields import pair_norm

BOUND = 4.0 * np.sqrt(3.0)


class TestDissipativity:
    def test_passes_on_random_states(self):
        report = check_dissipativity(300, Grid1D(64), seed=1)
        assert report.passed
        assert report.worst_value <= 1e-10
        assert report.samples == 300 and report.seed == 1

    def test_single_mode_quadratic_form_is_eigenvalue(self):
        grid = Grid1D(33)
        lam = laplacian_eigenvalues(grid)
        for k in (1, 7, 33):
            mode = sine_mode(grid, k).values
            inner = grid.h * np.dot(mode, discrete_laplacian(mode))
            norm_sq = grid.h * np.dot(mode, mode)
            np.testing.assert_allclose(inner, lam[k - 1] * norm_sq, rtol=1e-12)
            assert inner < 0.0

    def test_tampered_laplacian_sign_fails(self, monkeypatch):
        # mutation hook: flip the operator sign and the check must go red
        true_laplacian = pdae1d.spectral.discrete_laplacian
        monkeypatch.setattr(
            pdae1d.spectral, "discrete_laplacian", lambda f: -1.0 * true_laplacian(f)
        )
        report = check_dissipativity(50, Grid1D(16), seed=3)
        assert not report.passed


class TestMaximality:
    def test_passes_on_random_rhs(self):
        for n in (16, 64):
            report = check_maximality(200, Grid1D(n), seed=2)
            assert report.passed
            assert report.observed["max_relative_residual"] <= 1e-12

    # solve_shifted calls of check_maximality: blocks hold 16384 // n
    # samples, so one elimination solves 1024, 256 or 64 of them; at
    # n = 20000 a block holds one sample
    @pytest.mark.parametrize(
        "n, n_samples, calls",
        [(16, 50, 1), (64, 50, 1), (256, 50, 1), (16, 1000, 1), (64, 1000, 4), (256, 1000, 16),
         (20000, 2, 2)],
    )
    def test_one_block_sized_elimination_per_block(self, n, n_samples, calls, monkeypatch):
        from pdae1d.verification import _BLOCK_POINTS

        sizes = []
        true_solve = spectral.solve_shifted

        def solve(g, lam):
            sizes.append(g.size)
            return true_solve(g, lam)

        monkeypatch.setattr(spectral, "solve_shifted", solve)
        check_maximality(n_samples, Grid1D(n), seed=2)
        assert len(sizes) == calls
        # every sample's two components in both elimination orders
        assert sum(sizes) == 4 * n * n_samples
        assert max(sizes) <= max(4 * _BLOCK_POINTS, 4 * n)

    def test_single_mode_resolvent_identity(self):
        grid = Grid1D(21)
        lam = laplacian_eigenvalues(grid)
        for k in (1, 5, 21):
            g = sine_mode(grid, k).values
            u = solve_shifted(g, 1.0)
            np.testing.assert_allclose(u, g / (1.0 - lam[k - 1]), rtol=1e-12)


class TestSemigroup:
    def test_passes(self):
        report = check_semigroup(300, Grid1D(64), seed=3)
        assert report.passed
        assert report.observed["max_law_defect"] <= 1e-12
        assert report.observed["max_contraction_slack"] <= 1e-12
        assert report.observed["max_continuity_increase"] <= 1e-12
        assert report.observed["max_generator_order_error"] <= 0.1

    def test_single_mode_generator_slope(self):
        # (exp(lam t) - 1)/t -> lam with first-order error, slope within 10%
        grid = Grid1D(32)
        lam = laplacian_eigenvalues(grid)[0]
        ts = 0.01 * 2.0 ** -np.arange(6)
        defects = np.abs(np.expm1(lam * ts) / ts - lam)
        orders = np.log2(defects[:-1] / defects[1:])
        assert np.all(np.abs(orders - 1.0) < 0.1)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            check_semigroup(10, Grid1D(8), seed=0, times=(-0.1,))

    def test_rejects_nan_times(self):
        with pytest.raises(ValueError):
            check_semigroup(10, Grid1D(8), seed=0, times=(0.1, np.nan))

    def test_rejects_no_times(self):
        # with no duration the contraction sub-check would pass unchecked
        with pytest.raises(ValueError, match="one or more"):
            check_semigroup(10, Grid1D(8), seed=0, times=())

    # (semigroup_apply calls, DST rows) of check_semigroup(50, Grid1D(n)): per
    # block one call for times, t + s and s and one for S(t) of the S(s) row;
    # then the 18 halvings in chunks and the 4 generator durations in one call.
    # Blocks hold 16384 // (5n) samples: 204, 51 and 12.
    @pytest.mark.parametrize("n, calls, rows", [(16, 4, 1146), (64, 4, 1146), (256, 14, 1178)])
    def test_transforms_each_state_once_per_call(self, n, calls, rows, monkeypatch):
        counts = {"apply": 0, "dst": 0, "rows": 0}
        true_apply, true_dst = spectral.semigroup_apply, spectral._dst

        def apply(values, t, **k):
            counts["apply"] += 1
            return true_apply(values, t, **k)

        def dst(x):
            counts["dst"] += 1
            counts["rows"] += x.size // x.shape[-1]
            return true_dst(x)

        monkeypatch.setattr(spectral, "semigroup_apply", apply)
        monkeypatch.setattr(spectral, "_dst", dst)
        assert check_semigroup(50, Grid1D(n), seed=3).passed
        # two transforms per call, and one to build the smooth state
        assert counts == {"apply": calls, "dst": 2 * calls + 1, "rows": rows}

    @pytest.mark.parametrize("times", [(0.01, 0.1, 1.0), (0.0, 0.01, 0.1, 0.5, 2.0)])
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_stacked_calls_stay_block_sized(self, n, times, monkeypatch):
        from pdae1d.verification import _BLOCK_POINTS

        sizes = []
        true_apply = spectral.semigroup_apply

        def apply(values, t, **k):
            out = true_apply(values, t, **k)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(spectral, "semigroup_apply", apply)
        check_semigroup(300, Grid1D(n), seed=1, times=times)
        assert max(sizes) <= max(2 * _BLOCK_POINTS, 2 * n * (len(times) + 2))


class TestLipschitz:
    def test_passes_and_records_sharpest_ratio(self):
        report = check_lipschitz(500, Grid1D(32), seed=4, C_levels=(0.5, 1.0, 5.0))
        assert report.passed
        assert report.worst_value <= 1e-9
        # strictly below the bound 4*sqrt(3) at C = 1
        assert 0.0 < report.observed["max_ratio_at_C=1"] < BOUND

    def test_bound_scales_linearly_with_level(self):
        report = check_lipschitz(300, Grid1D(24), seed=5, C_levels=(1.0, 5.0))
        assert report.observed["max_ratio_at_C=5"] <= 5.0 * BOUND
        # quadratic reaction: ratios at C=5 sit about 5x above those at C=1
        quotient = report.observed["max_ratio_at_C=5"] / report.observed["max_ratio_at_C=1"]
        assert 3.0 <= quotient <= 7.0

    # lipschitz_ratio calls per level of check_lipschitz(300, Grid1D(n)):
    # blocks count the 4n values of a sample's pair stack, 4096 // n samples
    @pytest.mark.parametrize("n, calls", [(16, 2), (64, 5), (256, 19)])
    def test_blocks_count_four_values_per_node(self, n, calls, monkeypatch):
        grid = Grid1D(n)
        levels = []
        true_ratio = nonlinearity.lipschitz_ratio

        def ratio(a, b):
            levels.append(round(float(pair_norm(a[0], grid.h)), 9))
            return true_ratio(a, b)

        monkeypatch.setattr(nonlinearity, "lipschitz_ratio", ratio)
        assert check_lipschitz(300, grid, seed=4, C_levels=(0.5, 1.0, 5.0)).passed
        assert levels == [0.5] * calls + [1.0] * calls + [5.0] * calls

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            check_lipschitz(10, Grid1D(8), seed=0, C_levels=(0.0,))

    def test_rejects_no_levels(self):
        # with no level the check would pass at worst value -inf
        with pytest.raises(ValueError, match="one or more"):
            check_lipschitz(10, Grid1D(8), seed=0, C_levels=())

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_levels(self, level):
        with pytest.raises(ValueError):
            check_lipschitz(10, Grid1D(8), seed=0, C_levels=(1.0, level))


class TestReports:
    def test_passed_iff_within_tolerance(self):
        ok = PropertyReport(name="x", samples=1, worst_value=0.5, tolerance=1.0, seed=0)
        bad = PropertyReport(name="x", samples=1, worst_value=2.0, tolerance=1.0, seed=0)
        assert ok.passed and not bad.passed

    def test_json_schema(self):
        report = check_dissipativity(20, Grid1D(8), seed=7)
        payload = asdict(report)
        assert set(payload) == {
            "name",
            "samples",
            "worst_value",
            "tolerance",
            "passed",
            "seed",
            "observed",
        }

    def test_bitwise_reproducible_from_seed(self):
        grid = Grid1D(32)
        first = check_lipschitz(100, grid, seed=11)
        second = check_lipschitz(100, grid, seed=11)
        assert asdict(first) == asdict(second)
        different = check_lipschitz(100, grid, seed=12)
        assert different.observed != first.observed

    def test_run_checks_bundle(self):
        reports = run_checks(Grid1D(16), seed=0, n_samples=50, lipschitz_samples=100)
        assert [r.name for r in reports] == [
            "dissipativity",
            "maximality",
            "semigroup",
            "lipschitz",
        ]
        assert all(r.passed for r in reports)


def test_run_verification_consolidated(tmp_path):
    out = tmp_path / "verify.json"
    passed, payload = run_verification(
        grid_sizes=(8, 16), seed=0, output_path=str(out), n_samples=40, lipschitz_samples=60
    )
    assert passed and payload["all_passed"]
    assert set(payload["reports"]) == {"8", "16"}
    assert out.exists()


def test_run_verification_fails_under_tamper(monkeypatch):
    true_laplacian = pdae1d.spectral.discrete_laplacian
    monkeypatch.setattr(pdae1d.spectral, "discrete_laplacian", lambda f: -1.0 * true_laplacian(f))
    passed, payload = run_verification(grid_sizes=(8,), seed=0, n_samples=20, lipschitz_samples=20)
    assert not passed
    flags = {r["name"]: r["passed"] for r in payload["reports"]["8"]}
    assert flags["dissipativity"] is False


# ---------------------------------------------------------------------------
# Per-sample oracle: the checks as one iteration per sample, each sample a
# (2, n) pair or an (n,) right-hand side.  The batched checks must reproduce
# its reports exactly (same RNG stream, same arithmetic on every element), so
# these compare with ==.
# ---------------------------------------------------------------------------


def oracle_state(grid, rng, target_norm=None):
    u = rng.uniform(-1.0, 1.0, grid.n_interior)
    v = rng.uniform(-1.0, 1.0, grid.n_interior)
    state = np.stack((u, v))
    if target_norm is not None:
        state = (target_norm / pair_norm(state, grid.h)) * state
    return state


def oracle_dissipativity(n_samples, grid, seed):
    rng = np.random.default_rng(seed)
    worst, worst_identity = -np.inf, 0.0
    for _ in range(n_samples):
        u, v = oracle_state(grid, rng)
        au = spectral.discrete_laplacian(u)
        av = spectral.discrete_laplacian(v)
        inner = grid.h * (np.dot(u, au) + np.dot(v, av))
        # float(): Python's float ** 2, as the batched check squares
        energy = float(h1_seminorm(u)) ** 2 + float(h1_seminorm(v)) ** 2
        worst = max(worst, inner / pair_norm((u, v), grid.h) ** 2)
        worst_identity = max(worst_identity, abs(inner + energy) / energy)
    return max(worst, worst_identity), {
        "max_normalized_form": worst,
        "max_identity_defect": worst_identity,
    }


def oracle_maximality(n_samples, grid, seed):
    rng = np.random.default_rng(seed)
    worst, worst_backward, worst_gap, worst_disagreement = 0.0, 0.0, 0.0, 0.0
    for _ in range(2 * n_samples):
        g = rng.uniform(-1.0, 1.0, grid.n_interior)
        u = spectral.solve_shifted(g, 1.0)
        residual = np.max(np.abs(u - spectral.discrete_laplacian(u) - g))
        worst = max(worst, residual / np.max(np.abs(g)))
        # ||I - A|| in the max norm is 1 + 4/h^2
        size = (1.0 + 4.0 / grid.h**2) * np.max(np.abs(u)) + np.max(np.abs(g))
        worst_backward = max(worst_backward, residual / size)
        u_rev = spectral.solve_shifted(g[::-1].copy(), 1.0)[::-1]
        # the two orders' difference as a backward error: what (I - A) makes of it
        gap = u - u_rev
        worst_gap = max(worst_gap, np.max(np.abs(gap - spectral.discrete_laplacian(gap))) / size)
        denom = max(np.max(np.abs(u)), np.finfo(float).tiny)
        worst_disagreement = max(worst_disagreement, np.max(np.abs(gap)) / denom)
    return max(worst_backward / 1e-14, worst_gap / 1e-14), {
        "max_relative_residual": worst,
        "max_backward_error": worst_backward,
        "max_elimination_disagreement": worst_disagreement,
        "max_disagreement_backward_error": worst_gap,
    }


def oracle_semigroup(n_samples, grid, seed, times=(0.01, 0.1, 1.0)):
    rng = np.random.default_rng(seed)
    apply = spectral.semigroup_apply
    h = grid.h
    slack, law = 0.0, 0.0
    for _ in range(n_samples):
        state = oracle_state(grid, rng)
        norm = pair_norm(state, h)
        for t in times:
            slack = max(slack, (pair_norm(apply(state, t), h) - norm) / norm)
        t, s = rng.uniform(0.0, 1.0, 2)
        law = max(law, pair_norm(apply(state, t + s) - apply(apply(state, s), t), h) / norm)
    continuity = 0.0
    for _ in range(min(n_samples, 8)):
        state = oracle_state(grid, rng)
        defects = [pair_norm(apply(state, 0.1 * 2.0**-j) - state, h) for j in range(18)]
        continuity = max(continuity, float(np.max(np.diff(defects), initial=0.0)) / pair_norm(state, h))
    n = grid.n_interior
    n_low = min(5, n)
    smooth = [np.stack((sine_mode(grid, k).values, sine_mode(grid, min(k + 1, n)).values))
              for k in (1, 2, 3) if k <= n]
    cu, cv = np.zeros(n), np.zeros(n)
    cu[:n_low] = rng.uniform(-1.0, 1.0, n_low)
    cv[:n_low] = rng.uniform(-1.0, 1.0, n_low)
    smooth.append(np.stack((spectral.to_values(cu), spectral.to_values(cv))))
    t0 = 0.01 / abs(laplacian_eigenvalues(grid)[n_low - 1])
    order_error = 0.0
    for state in smooth:
        generator = np.stack((spectral.discrete_laplacian(state[0]), spectral.discrete_laplacian(state[1])))
        defects = []
        for j in range(4):
            t = t0 * 2.0**-j
            defects.append(pair_norm((apply(state, t) - state) * (1.0 / t) - generator, h))
        orders = np.log2(np.asarray(defects[:-1]) / np.asarray(defects[1:]))
        order_error = max(order_error, float(np.max(np.abs(orders - 1.0))))
    worst = max(slack / 1e-12, law / 1e-12, continuity / 1e-12, order_error / 0.1)
    return worst, {
        "max_contraction_slack": slack,
        "max_law_defect": law,
        "max_continuity_increase": continuity,
        "max_generator_order_error": order_error,
    }


def oracle_lipschitz(n_samples, grid, seed, C_levels=(0.5, 1.0, 5.0)):
    rng = np.random.default_rng(seed)
    worst, observed = -np.inf, {}
    for level in C_levels:
        max_ratio = 0.0
        for _ in range(n_samples):
            a = oracle_state(grid, rng, level)
            b = oracle_state(grid, rng, level)
            max_ratio = max(max_ratio, nonlinearity.lipschitz_ratio(a, b))
        worst = max(worst, max_ratio - nonlinearity.LIPSCHITZ_BOUND_FACTOR * level)
        observed[f"max_ratio_at_C={level:g}"] = max_ratio
    return worst, observed


ORACLES = {
    check_dissipativity: oracle_dissipativity,
    check_maximality: oracle_maximality,
    check_semigroup: oracle_semigroup,
    check_lipschitz: oracle_lipschitz,
}


# each check at its defaults, and the two checks that take durations or
# levels with other ones
CASES = [(check, {}) for check in ORACLES] + [
    (check_semigroup, {"times": (0.3,)}),
    (check_semigroup, {"times": (0.0, 0.01, 0.1, 0.5, 2.0)}),
    (check_lipschitz, {"C_levels": (2.0,)}),
    (check_lipschitz, {"C_levels": (0.1, 3.0, 7.5, 20.0)}),
]


def case_id(case):
    check, options = case
    values = [f"{key}=" + ",".join(map(str, value)) for key, value in options.items()]
    return "-".join([check.__name__] + values)


# sample counts that leave one block, or a partial last block (blocks hold
# 16384 // n samples, 16384 // (n * (len(times) + 2)) for the semigroup
# stacks, and 4096 // n for the Lipschitz pair stacks)
@pytest.mark.parametrize(
    "n, n_samples", [(1, 5), (2, 7), (16, 300), (63, 70), (256, 37), (256, 100)]
)
@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize("check", CASES, ids=case_id)
def test_batched_check_equals_per_sample_oracle(check, seed, n, n_samples):
    check, options = check
    grid = Grid1D(n)
    report = check(n_samples, grid, seed=seed, **options)
    worst, observed = ORACLES[check](n_samples, grid, seed, **options)
    assert report.worst_value == worst
    assert report.observed == observed


class TestPlantedDefects:
    """Defects planted in the public operators turn the batched checks red."""

    def test_doubled_reaction_doubles_every_lipschitz_ratio(self, monkeypatch):
        grid = Grid1D(16)
        clean = check_lipschitz(200, grid, seed=5)
        true_reaction = nonlinearity.eval_reaction
        monkeypatch.setattr(nonlinearity, "eval_reaction", lambda *a, **k: 2.0 * true_reaction(*a, **k))
        doubled = check_lipschitz(200, grid, seed=5)
        # scaling by 2 is exact, so every sampled quotient doubles exactly
        assert doubled.observed == {key: 2.0 * value for key, value in clean.observed.items()}
        # sampled quotients sit far below 4*sqrt(3)*C, so only a gross
        # defect crosses the bound
        monkeypatch.setattr(nonlinearity, "eval_reaction", lambda *a, **k: 50.0 * true_reaction(*a, **k))
        assert not check_lipschitz(200, grid, seed=5).passed

    def test_perturbed_solve_fails_maximality(self, monkeypatch):
        true_solve = spectral.solve_shifted
        monkeypatch.setattr(spectral, "solve_shifted", lambda g, lam: true_solve(g, lam) * (1.0 + 1e-9))
        assert not check_maximality(50, Grid1D(16), seed=2).passed

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_backward_error_passes_the_solver_and_fails_a_perturbed_one(self, n, monkeypatch):
        # a solve scaled by 1 + 1e-9 has backward error about 1e-9 * 4/h^2 ||u|| / (4/h^2 ||u||
        # + ||g||): 1.7e-10 at n = 16 down to 6.2e-13 at n = 1024, all above the 1e-14 bound
        # and below the 1e-12 one that relative residuals would need
        clean = check_maximality(100, Grid1D(n), seed=2)
        assert clean.passed and clean.observed["max_backward_error"] <= 1e-15
        true_solve = spectral.solve_shifted
        monkeypatch.setattr(spectral, "solve_shifted", lambda g, lam: true_solve(g, lam) * (1.0 + 1e-9))
        planted = check_maximality(100, Grid1D(n), seed=2)
        assert not planted.passed and planted.observed["max_backward_error"] > 1e-14
        # both orders are scaled alike, so only the backward error sees it
        assert planted.observed["max_elimination_disagreement"] <= 1e-12

    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
    def test_disagreement_passes_the_solver_and_fails_a_perturbed_reversed_solve(self, n, monkeypatch):
        # a reversed-order solve scaled by 1 + 1e-9 has a disagreement backward error of
        # 1.7e-10 at n = 16 down to 7.6e-14 at n = 4096, all above the 1e-14 bound, while the
        # correct solver's reads 1.5-2.7e-16 (its relative disagreement, unbounded now,
        # reaches 2.6e-12 at n = 4096, past the 1e-12 that was once its bound)
        clean = check_maximality(100, Grid1D(n), seed=2)
        assert clean.passed and clean.observed["max_disagreement_backward_error"] <= 1e-15
        true_solve = spectral.solve_shifted

        def solve(g, lam):  # check_maximality stacks the two orders as (forward, reversed)
            u = true_solve(g, lam)
            return u * np.array([1.0, 1.0 + 1e-9]).reshape((2,) + (1,) * (u.ndim - 1))

        monkeypatch.setattr(spectral, "solve_shifted", solve)
        planted = check_maximality(100, Grid1D(n), seed=2)
        assert not planted.passed and planted.observed["max_disagreement_backward_error"] > 1e-14
        # the forward solve is the correct one, so only the disagreement sees the defect
        assert planted.observed["max_backward_error"] == clean.observed["max_backward_error"]

    @pytest.mark.parametrize("bad", [0.01, 0.1, 1.0])
    def test_expansion_at_any_duration_fails_contraction(self, bad, monkeypatch):
        true_apply = spectral.semigroup_apply

        # S(bad) grows every state by 1e-9 instead of damping it
        def apply(state, t, **k):
            hit = (np.asarray(t) == bad)[..., None, None]
            return np.where(hit, (1.0 + 1e-9) * state, true_apply(state, t, **k))

        monkeypatch.setattr(spectral, "semigroup_apply", apply)
        report = check_semigroup(50, Grid1D(16), seed=3)
        assert not report.passed
        assert report.observed["max_contraction_slack"] > 1e-12

    def test_wrong_exponent_fails_semigroup(self, monkeypatch):
        true_apply = spectral.semigroup_apply
        monkeypatch.setattr(
            spectral, "semigroup_apply", lambda state, t, **k: true_apply(state, np.multiply(t, 1.01), **k)
        )
        report = check_semigroup(50, Grid1D(16), seed=3)
        assert not report.passed
        assert report.observed["max_generator_order_error"] > 0.1


def test_zero_norm_draw_is_redrawn():
    from pdae1d.verification import _random_states

    class ZeroPairFirst:
        # hands out one all-zero pair in the first draw: 2 * 0.5 - 1 = 0
        def __init__(self):
            self.rng = np.random.default_rng(0)
            self.draws = 0

        def random(self, size):
            self.draws += 1
            out = self.rng.random(size)
            out[1, 0] = 0.5
            return out

        def uniform(self, low, high, size):
            self.draws += 1
            return self.rng.uniform(low, high, size)

    rng = ZeroPairFirst()
    states = _random_states(rng, (3, 2), 4, target_norm=2.0)
    assert rng.draws == 2
    np.testing.assert_allclose(pair_norm(states, 1.0 / 5), 2.0, rtol=1e-15)


@pytest.mark.parametrize("shape, n", [((16, 2), 256), ((64, 2), 64), ((1000,), 16), ((), 3), ((5, 3), 7)])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_random_states_have_the_bits_and_stream_of_uniform(shape, n, seed):
    from pdae1d.verification import _random_states

    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _random_states(rng, shape, n)
    want = reference.uniform(-1.0, 1.0, shape + (2, n))
    assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))
    assert rng.random() == reference.random()  # the same draws were consumed


@pytest.mark.parametrize(
    "check, module, name",
    [
        (check_dissipativity, spectral, "discrete_laplacian"),
        (check_maximality, spectral, "solve_shifted"),
        (check_semigroup, spectral, "semigroup_apply"),
        (check_lipschitz, nonlinearity, "lipschitz_ratio"),
    ],
    ids=["dissipativity", "maximality", "semigroup", "lipschitz"],
)
def test_non_finite_operator_result_fails_the_check(check, module, name, monkeypatch):
    true_fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: np.nan * true_fn(*a, **k))
    assert not check(20, Grid1D(8), seed=0).passed
