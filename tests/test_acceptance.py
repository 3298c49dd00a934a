"""End-to-end acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and runtime budget and prints a single pass/fail line (run
pytest with -s to see them as they happen).
"""

import filecmp
import time

import numpy as np
import pytest

from pdae1d import (
    Field,
    Grid1D,
    ScenarioConfig,
    SolveConfig,
    StatePair,
    check_dissipativity,
    check_lipschitz,
    check_maximality,
    check_semigroup,
    picard_slab,
    run_convergence,
    run_scenario,
    run_verification,
    sine_mode,
    solve,
)

BOUND = 4.0 * np.sqrt(3.0)


def report(number, name, ok, detail, elapsed, budget):
    flag = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {name}: {flag} ({detail}; {elapsed:.1f}s < {budget:.0f}s)")
    assert ok, f"criterion {number} {name}: {detail}"
    assert elapsed < budget, f"criterion {number} {name}: runtime {elapsed:.1f}s over budget {budget}s"


def decay_state(grid):
    x = grid.nodes
    return StatePair(
        Field(grid, 0.1 * np.sin(np.pi * x)), Field(grid, 0.1 * np.sin(2.0 * np.pi * x))
    )


def test_criterion_01_dissipativity():
    start = time.perf_counter()
    worst = -np.inf
    ok = True
    for n in (16, 64, 256):
        rep = check_dissipativity(1000, Grid1D(n), seed=101)
        ok = ok and rep.passed and rep.worst_value <= 1e-10
        worst = max(worst, rep.worst_value)
    elapsed = time.perf_counter() - start
    report(1, "dissipativity", ok, f"worst normalized value {worst:.2e} <= 1e-10", elapsed, 2.0)


def test_criterion_02_maximality():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for n in (16, 64, 256):
        rep = check_maximality(1000, Grid1D(n), seed=102)
        ok = ok and rep.passed
        worst = max(worst, rep.observed["max_relative_residual"])
    elapsed = time.perf_counter() - start
    report(2, "maximality", ok, f"worst relative residual {worst:.2e} <= 1e-12", elapsed, 2.0)


def test_criterion_03_contraction_semigroup():
    start = time.perf_counter()
    rep = check_semigroup(1000, Grid1D(64), seed=103)
    elapsed = time.perf_counter() - start
    detail = (
        f"law defect {rep.observed['max_law_defect']:.1e}, "
        f"contraction slack {rep.observed['max_contraction_slack']:.1e}, "
        f"continuity increase {rep.observed['max_continuity_increase']:.1e}, "
        f"generator order error {rep.observed['max_generator_order_error']:.2e}"
    )
    report(3, "contraction semigroup", rep.passed, detail, elapsed, 3.0)


def test_criterion_04_lipschitz_lemma():
    start = time.perf_counter()
    rep = check_lipschitz(10000, Grid1D(64), seed=104, C_levels=(0.5, 1.0, 5.0))
    elapsed = time.perf_counter() - start
    ratios = ", ".join(f"{k.split('=')[-1]}: {v:.3f}" for k, v in rep.observed.items())
    report(
        4,
        "lipschitz bound",
        rep.passed and rep.worst_value <= 1e-9,
        f"max ratios per C {{{ratios}}} all within 4*sqrt(3)*C",
        elapsed,
        5.0,
    )


def test_criterion_05_mild_solution_consistency():
    start = time.perf_counter()
    grid = Grid1D(128)
    state0 = decay_state(grid)
    finals = {}
    for dt in (1e-4, 5e-5):
        for method in ("exp_euler", "imex", "picard"):
            cfg = SolveConfig(dt=dt, t_end=0.5, method=method, snapshot_every=10**9)
            traj = solve(state0, cfg)
            assert traj.status.kind == "completed"
            finals[(method, dt)] = traj.states[-1]
    ok = True
    details = []
    for a, b in (("exp_euler", "imex"), ("exp_euler", "picard"), ("imex", "picard")):
        coarse = (finals[(a, 1e-4)] - finals[(b, 1e-4)]).norm()
        fine = (finals[(a, 5e-5)] - finals[(b, 5e-5)]).norm()
        shrink = coarse / fine
        ok = ok and coarse <= 1e-3 and shrink >= 1.8
        details.append(f"{a}|{b}: {coarse:.1e} shrink {shrink:.2f}x")
    elapsed = time.perf_counter() - start
    report(5, "mild-solution consistency", ok, "; ".join(details), elapsed, 60.0)


def test_criterion_06_mms_convergence(tmp_path):
    start = time.perf_counter()
    ok = True
    details = []
    for method in ("exp_euler", "imex"):
        cfg = ScenarioConfig(
            scenario="mms",
            n_interior=256,
            dt=1e-5,
            t_end=0.2,
            method=method,
            output_dir=str(tmp_path / f"temporal_{method}"),
        )
        rows = run_convergence(cfg, dt_levels=(0.02, 0.01, 0.005, 0.0025, 0.00125))
        last_order = rows[-1]["observed_order"]
        ok = ok and 0.8 <= last_order <= 1.2
        details.append(f"{method} temporal order {last_order:.3f}")
    spatial_cfg = ScenarioConfig(
        scenario="mms",
        n_interior=256,
        dt=1e-5,
        t_end=0.2,
        method="exp_euler",
        output_dir=str(tmp_path / "spatial"),
    )
    rows = run_convergence(spatial_cfg, n_levels=(7, 15, 31, 63))
    spatial_orders = [r["observed_order"] for r in rows[1:]]
    ok = ok and all(1.8 <= order <= 2.2 for order in spatial_orders)
    details.append("spatial orders " + ", ".join(f"{o:.3f}" for o in spatial_orders))
    elapsed = time.perf_counter() - start
    report(6, "mms convergence", ok, "; ".join(details), elapsed, 120.0)


def test_criterion_07_constraint_fidelity():
    start = time.perf_counter()
    residual_maxima = []
    ok = True
    for n in (63, 127):  # halving h exactly
        traj = solve(
            decay_state(Grid1D(n)), SolveConfig(dt=1e-3, t_end=0.25, snapshot_every=50)
        )
        assert traj.status.kind == "completed"
        ok = ok and all(r.w_at_0 == 0.0 and r.wx_at_0 == 0.0 for r in traj.reports)
        residual_maxima.append(max(r.residual_l2 for r in traj.reports))
    ratio = residual_maxima[0] / residual_maxima[1]
    ok = ok and 3.2 <= ratio <= 4.8
    elapsed = time.perf_counter() - start
    report(
        7,
        "constraint fidelity",
        ok,
        f"residual ratio under h-halving {ratio:.2f} in [3.2, 4.8]; left-end conditions exact",
        elapsed,
        60.0,
    )


def test_criterion_08_blowup_pathway():
    start = time.perf_counter()
    grid = Grid1D(64)
    probe = StatePair(Field.zeros(grid), sine_mode(grid, 1, 50.0))
    detect = {}
    ok = True
    for method in ("exp_euler", "imex"):
        for dt in (5e-4, 2.5e-4):
            cfg = SolveConfig(
                dt=dt, t_end=1.0, method=method, blowup_threshold=1e3, snapshot_every=200
            )
            traj = solve(probe, cfg)
            ok = ok and traj.status.kind == "blowup_detected"
            detect[(method, dt)] = traj.status.t
    cross = detect[("exp_euler", 5e-4)] / detect[("imex", 5e-4)]
    ok = ok and 0.5 <= cross <= 2.0
    for method in ("exp_euler", "imex"):
        drift = abs(detect[(method, 2.5e-4)] - detect[(method, 5e-4)]) / detect[(method, 5e-4)]
        ok = ok and drift <= 0.2
    elapsed = time.perf_counter() - start
    report(
        8,
        "blow-up alternative pathway",
        ok,
        f"candidate times {sorted(detect.values())}, cross-method ratio {cross:.3f}",
        elapsed,
        30.0,
    )


def test_criterion_09_picard_contraction():
    start = time.perf_counter()
    grid = Grid1D(128)
    state = decay_state(grid)
    dt = 0.13
    cfg = SolveConfig(dt=dt, t_end=5 * dt, method="picard")
    ok = True
    worst_ratio = 0.0
    worst_iters = 0
    t = 0.0
    for _ in range(5):
        assert dt * BOUND * state.norm() <= 0.1 + 1e-12
        result = picard_slab(state, t, dt, cfg)
        diffs = np.asarray(result.diff_norms)
        ratios = diffs[1:] / diffs[:-1]
        worst_ratio = max(worst_ratio, float(np.max(ratios)))
        worst_iters = max(worst_iters, result.iterations)
        ok = ok and result.iterations <= 6 and diffs[-1] < 1e-10 and np.max(ratios) <= 0.12
        state = result.state
        t += dt
    elapsed = time.perf_counter() - start
    report(
        9,
        "picard contraction",
        ok,
        f"max contraction factor {worst_ratio:.4f} <= 0.12, iterations <= {worst_iters} <= 6",
        elapsed,
        10.0,
    )


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    run_files = ("trajectory.csv", "constraint.csv", "summary.json")
    cfg = ScenarioConfig(
        scenario="decay",
        n_interior=31,
        dt=0.01,
        t_end=0.1,
        seed=7,
        output_dir=str(tmp_path / "run"),
    )
    verify_path = str(tmp_path / "verify.json")

    def execute():
        assert run_scenario(cfg) == 0
        run_verification(
            grid_sizes=(8, 16),
            seed=7,
            output_path=verify_path,
            n_samples=50,
            lipschitz_samples=100,
        )
        run_bytes = tuple((tmp_path / "run" / name).read_bytes() for name in run_files)
        return run_bytes, (tmp_path / "verify.json").read_bytes()

    first = execute()
    second = execute()  # identical config and seed, same destination
    ok = first == second
    elapsed = time.perf_counter() - start
    report(
        10,
        "determinism",
        ok,
        "run and verify artifacts byte-identical across re-execution",
        elapsed,
        60.0,
    )
