import argparse
import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdae1d import (
    CoefficientSet,
    Grid1D,
    MmsSpec,
    ScenarioConfig,
    SolveConfig,
    build_mms_sources,
    mms_source_table,
    mms_state,
    run_convergence,
    run_scenario,
)
from pdae1d.cli import build_parser, main
from pdae1d.fields import pair_norm
from pdae1d.integrators import METHODS
from pdae1d.scenarios import CONFIG_TYPES, SCENARIOS, _format_block, _write_json, read_config


def mms_truth(spec, c, t, x):
    u = spec.a * math.exp(-t) * math.sin(math.pi * x)
    v = spec.b * math.exp(-t) * math.sin(2.0 * math.pi * x)
    return u, v


class TestMmsSources:
    def test_zero_amplitudes_give_zero_sources(self):
        grid = Grid1D(16)
        sources = build_mms_sources(MmsSpec(0.0, 0.0), grid)
        assert np.all(sources.f(0.3) == 0.0)
        assert np.all(sources.g(0.3) == 0.0)

    def test_sources_equal_the_table_interior(self):
        grid = Grid1D(21)
        spec = MmsSpec(1.3, -0.6)
        c = CoefficientSet(d_u=0.8, d_v=1.7, p_u=1.1, p_v=0.4)
        sources = build_mms_sources(spec, grid, c)
        times = (0.0, 0.013, 0.25, 1.7)
        rows = np.array(mms_source_table(spec, grid, times, c))
        rows = rows.reshape(len(times), grid.n_interior + 2, 4)
        for t, table in zip(times, rows):
            assert np.array_equal(sources.f(t), table[1:-1, 2])
            assert np.array_equal(sources.g(t), table[1:-1, 3])

    def test_midpoint_closed_form(self):
        # a=1, b=0, unit coefficients, t=0, x=1/2: f = pi^2 - 1 + 1/pi
        grid = Grid1D(31)
        sources = build_mms_sources(MmsSpec(1.0, 0.0), grid)
        mid = 15  # x = 16/32 = 0.5
        assert grid.nodes[mid] == 0.5
        expected = 9.1879142872731492903722585266211798594  # 50-digit mpmath value
        np.testing.assert_allclose(sources.f(0.0)[mid], expected, rtol=1e-14)

    def test_against_finite_difference_oracle(self):
        spec = MmsSpec(1.3, 0.7)
        c = CoefficientSet(d_u=1.5, d_v=0.8, p_u=1.1, p_v=0.9)
        grid = Grid1D(15)
        sources = build_mms_sources(spec, grid, c)
        t, eps, delta = 0.3, 1e-6, 1e-4

        def u_of(tt, xx):
            return spec.a * math.exp(-tt) * math.sin(math.pi * xx)

        def v_of(tt, xx):
            return spec.b * math.exp(-tt) * math.sin(2.0 * math.pi * xx)

        for j in (0, 7, 14):
            x = grid.nodes[j]
            s = np.linspace(0.0, x, 200_001)
            integral = np.trapezoid(
                c.p_u * spec.a * math.exp(-t) * np.sin(np.pi * s)
                + c.p_v * spec.b * math.exp(-t) * np.sin(2.0 * np.pi * s),
                s,
            )
            du_dt = (u_of(t + eps, x) - u_of(t - eps, x)) / (2 * eps)
            d2u = (u_of(t, x + delta) - 2 * u_of(t, x) + u_of(t, x - delta)) / delta**2
            f_expected = du_dt - c.d_u * d2u + u_of(t, x) * integral
            np.testing.assert_allclose(sources.f(t)[j], f_expected, rtol=1e-5, atol=1e-8)
            dv_dt = (v_of(t + eps, x) - v_of(t - eps, x)) / (2 * eps)
            d2v = (v_of(t, x + delta) - 2 * v_of(t, x) + v_of(t, x - delta)) / delta**2
            g_expected = dv_dt - c.d_v * d2v - v_of(t, x) * integral
            np.testing.assert_allclose(sources.g(t)[j], g_expected, rtol=1e-5, atol=1e-8)

    def test_sources_vanish_at_ends(self):
        grid = Grid1D(12)
        rows = mms_source_table(MmsSpec(2.0, -1.5), grid, times=(0.0, 0.4))
        for t, x, f, g in rows:
            if x in (0.0, 1.0):
                assert abs(f) < 1e-12 and abs(g) < 1e-12

    def test_solver_reproduces_manufactured_pair(self):
        cfg = ScenarioConfig(scenario="mms", n_interior=63, dt=1e-3, t_end=0.1, output_dir="unused")
        grid = Grid1D(63)
        spec = MmsSpec(1.0, 1.0)
        from pdae1d import SolveConfig, solve

        traj = solve(
            mms_state(spec, grid, 0.0),
            SolveConfig(dt=cfg.dt, t_end=cfg.t_end, snapshot_every=10**9),
            build_mms_sources(spec, grid),
        )
        assert traj.status.kind == "completed"
        exact = mms_state(spec, grid, traj.times[-1])
        error = pair_norm(traj.values[-1] - np.stack((exact.u.values, exact.v.values)), grid.h)
        assert error < 2e-3


class TestScenarioConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ScenarioConfig.from_dict({"scenario": "decay", "dx": 0.1})

    def test_bad_enums_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="warp")
        with pytest.raises(ValueError):
            ScenarioConfig(method="rk4")

    def test_custom_requires_ic_file(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="custom")

    def test_mms_refuses_source_file(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="mms", source_file="somewhere.csv")

    def test_mms_refuses_ic_file(self):
        # an mms march starts from the manufactured pair its error is measured against
        with pytest.raises(ValueError, match="ic_file and source_file not allowed"):
            ScenarioConfig(scenario="mms", ic_file="somewhere.csv")
        with pytest.raises(ValueError, match="ic_file and source_file not allowed"):
            ScenarioConfig.from_dict({"scenario": "mms", "ic_file": "somewhere.csv"})
        assert ScenarioConfig(scenario="custom", ic_file="somewhere.csv").ic_file == "somewhere.csv"

    def test_threshold_resolution(self):
        assert ScenarioConfig(scenario="decay").resolved().blowup_threshold == 1e6
        assert ScenarioConfig(scenario="growth_probe").resolved().blowup_threshold == 1e3
        assert (
            ScenarioConfig(scenario="growth_probe", blowup_threshold=7.0)
            .resolved()
            .blowup_threshold
            == 7.0
        )

    @pytest.mark.parametrize(
        "key, value",
        [("dt", "0.1"), ("n_interior", 1.5), ("seed", True), ("t_end", None), ("method", 3)],
    )
    def test_mistyped_value_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            ScenarioConfig.from_dict({key: value})

    def test_int_fits_float_field_and_none_fits_optional_field(self):
        cfg = ScenarioConfig.from_dict({"dt": 1, "t_end": 2, "ic_file": None, "mms_a": 0})
        assert (cfg.dt, cfg.t_end, cfg.ic_file, cfg.mms_a) == (1, 2, None, 0)

    def test_solve_config_is_the_resolved_marching_subset(self):
        cfg = ScenarioConfig(
            scenario="growth_probe", dt=0.01, t_end=0.5, method="picard", picard_substeps=3
        )
        expected = SolveConfig(
            dt=0.01, t_end=0.5, method="picard", picard_substeps=3, blowup_threshold=1e3
        )
        assert cfg.solve_config() == expected
        assert cfg.solve_config(dt=0.05, snapshot_every=7) == dataclasses.replace(
            expected, dt=0.05, snapshot_every=7
        )

    def test_config_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        for document in ([1, 2], "decay", {"config": [1], "status": {}}):
            path.write_text(json.dumps(document))
            with pytest.raises(ValueError, match="must be a JSON object"):
                read_config(str(path))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("t_end", math.inf),
            ("dt", -math.inf),
            ("blowup_threshold", math.nan),
            ("picard_tol", math.nan),
            ("mms_a", math.inf),
            ("d_u", math.nan),
            pytest.param("dt", 10**400, id="dt-int_beyond_float_range"),
        ],
    )
    def test_non_finite_value_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be a finite number"):
            ScenarioConfig.from_dict({key: value})

    def test_roundtrip_through_summary_json(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="decay", n_interior=15, dt=0.02, t_end=0.1, output_dir=str(tmp_path / "a")
        )
        assert run_scenario(cfg) == 0
        reloaded = ScenarioConfig.from_dict(read_config(str(tmp_path / "a" / "summary.json")))
        assert reloaded.n_interior == 15 and reloaded.dt == 0.02
        assert reloaded.blowup_threshold == 1e6  # echo carries resolved values


# ---------------------------------------------------------------------------
# Config parser properties: whatever the document, the result is a valid
# config or a ValueError, never another exception.
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def field_values(name):
    """Values of the field's own type, non-finite floats and huge ints included, or any JSON."""
    kind, _ = CONFIG_TYPES[name]
    typed = {
        float: st.floats() | st.integers(),
        int: st.integers(),
        str: st.sampled_from(SCENARIOS + METHODS) | st.text(max_size=6),
    }[kind]
    return typed | st.none() | json_values


config_documents = st.fixed_dictionaries(
    {}, optional={name: field_values(name) for name in CONFIG_TYPES}
) | st.dictionaries(st.sampled_from(sorted(CONFIG_TYPES)) | st.text(max_size=6), json_values, max_size=4)

config_files = (
    st.one_of(
        config_documents,
        config_documents.map(lambda raw: {"config": raw, "status": {"kind": "completed"}}),
        st.fixed_dictionaries({"config": json_values, "status": json_values}),
        json_values,
    ).map(lambda document: json.dumps(document).encode())
    | st.binary(max_size=40)
)


def assert_valid_config_or_value_error(parse):
    try:
        cfg = parse()
    except ValueError:
        return
    for name, (kind, nullable) in CONFIG_TYPES.items():
        value = getattr(cfg, name)
        if value is None:
            assert nullable
            continue
        assert not isinstance(value, bool)
        assert isinstance(value, (int, float) if kind is float else kind)
        if kind is not str:
            assert math.isfinite(value)
    assert ScenarioConfig.from_dict(dataclasses.asdict(cfg)) == cfg


@settings(max_examples=200, deadline=None)
@given(config_documents)
def test_from_dict_gives_a_valid_config_or_value_error(raw):
    assert_valid_config_or_value_error(lambda: ScenarioConfig.from_dict(raw))


@settings(max_examples=100, deadline=None)
@given(config_files)
def test_read_config_gives_a_valid_config_or_value_error(document):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "cfg.json")
        with open(path, "wb") as fh:
            fh.write(document)
        assert_valid_config_or_value_error(lambda: ScenarioConfig.from_dict(read_config(path)))


class TestRunScenario:
    def test_decay_artifacts(self, tmp_path):
        out = tmp_path / "decay"
        cfg = ScenarioConfig(
            scenario="decay", n_interior=31, dt=0.01, t_end=0.2, output_dir=str(out), seed=9
        )
        assert run_scenario(cfg) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"]["kind"] == "completed"
        assert summary["final_norm"] < summary["initial_norm"]
        assert summary["timings"]["steps"] == 20
        assert summary["seed"] == 9
        assert summary["config"]["n_interior"] == 31
        assert summary["source_time_lipschitz"] is None

        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ") and '"n_interior":31' in lines[0]
        assert lines[1] == "# t x u v w"
        first = [float(p) for p in lines[2].split()]
        assert first == [0.0, 0.0, 0.0, 0.0, 0.0]  # explicit left boundary row
        # the right boundary row has u = v = 0 and carries w(1)
        right = [float(p) for p in lines[34].split()]
        assert right[1] == 1.0 and right[2] == 0.0 and right[3] == 0.0

        constraint_lines = (out / "constraint.csv").read_text().splitlines()
        assert constraint_lines[1] == "# t residual_l2 w_at_1"
        assert len(constraint_lines) == 2 + 21  # config echo + header + snapshots incl t = 0

    def test_growth_probe_exits_2(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="growth_probe",
            n_interior=31,
            dt=5e-4,
            t_end=1.0,
            snapshot_every=100,
            output_dir=str(tmp_path / "growth"),
        )
        assert run_scenario(cfg) == 2
        summary = json.loads((tmp_path / "growth" / "summary.json").read_text())
        assert summary["status"]["kind"] == "blowup_detected"
        assert 0.0 < summary["status"]["t"] < 1.0

    def test_step_failure_exits_1(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="growth_probe",
            method="picard",
            n_interior=15,
            dt=0.5,
            t_end=1.0,
            blowup_threshold=1e9,
            picard_max_iter=4,
            output_dir=str(tmp_path / "fail"),
        )
        assert run_scenario(cfg) == 1
        summary = json.loads((tmp_path / "fail" / "summary.json").read_text())
        assert summary["status"]["kind"] == "step_failure"
        assert "no convergence" in summary["status"]["reason"]

    def test_overflowing_floats_are_written_as_null(self, tmp_path):
        # a finite IC whose norm overflows blows up at t = 0; a 0 -> 1e308
        # source table overflows the source time-Lipschitz diagnostic
        x = Grid1D(7).nodes.tolist()
        ic, src = tmp_path / "ic.txt", tmp_path / "src.txt"
        ic.write_text("".join(f"{node!r} 1e200 1e200\n" for node in x))
        slabs = ((0, 0), (1, 1e308))
        src.write_text("".join(f"{t} {node!r} {f} 0\n" for t, f in slabs for node in x))
        cfg = ScenarioConfig(
            scenario="custom", n_interior=7, dt=0.01, t_end=0.05, ic_file=str(ic),
            source_file=str(src), output_dir=str(tmp_path / "huge"),
        )
        with np.errstate(over="ignore"):
            assert run_scenario(cfg) == 2

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "huge" / "summary.json").read_text()
        summary = json.loads(text, parse_constant=refuse)
        assert summary["status"] == {"kind": "blowup_detected", "t": 0.0, "reason": None}
        assert summary["initial_norm"] is None and summary["final_norm"] is None
        assert summary["source_time_lipschitz"] is None

    def test_json_writer_nulls_non_finite_floats_only(self, tmp_path):
        payload = {"b": [1.5, float("nan"), {"c": -math.inf}], "a": (math.inf, 2, None, "x")}
        path = tmp_path / "out.json"
        _write_json(str(path), payload)
        expected = {"a": [None, 2, None, "x"], "b": [1.5, None, {"c": None}]}
        assert json.loads(path.read_text()) == expected
        finite = {"z": [0.1, 1e308, -0.0], "y": {"w": 3, "v": True}}
        _write_json(str(path), finite)
        assert path.read_text() == json.dumps(finite, indent=2, sort_keys=True) + "\n"

    def test_missing_ic_file_exits_1(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="custom", ic_file=str(tmp_path / "nope.csv"), output_dir=str(tmp_path / "x")
        )
        assert run_scenario(cfg) == 1

    def test_custom_scenario_with_files(self, tmp_path):
        grid = Grid1D(15)
        ic = tmp_path / "ic.csv"
        with open(ic, "w") as fh:
            fh.write("# x u v\n")
            for x in grid.nodes:
                fh.write(f"{float(x)!r} {0.2 * math.sin(math.pi * x)!r} 0.0\n")
        src = tmp_path / "src.csv"
        with open(src, "w") as fh:
            for t in (0.0, 1.0):
                for x in grid.nodes:
                    fh.write(f"{float(t)!r} {float(x)!r} 0.0 0.0\n")
        cfg = ScenarioConfig(
            scenario="custom",
            n_interior=15,
            dt=0.01,
            t_end=0.1,
            ic_file=str(ic),
            source_file=str(src),
            output_dir=str(tmp_path / "custom"),
        )
        assert run_scenario(cfg) == 0
        summary = json.loads((tmp_path / "custom" / "summary.json").read_text())
        assert summary["source_time_lipschitz"] == 0.0

    def test_mms_scenario_emits_error_table(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="mms", n_interior=31, dt=5e-3, t_end=0.1, output_dir=str(tmp_path / "mms")
        )
        assert run_scenario(cfg) == 0
        lines = (tmp_path / "mms" / "mms_error.csv").read_text().splitlines()
        assert lines[1] == "# t error_H"
        final_error = float(lines[-1].split()[1])
        assert 0.0 < final_error < 1e-2


class TestRunConvergence:
    def test_requires_mms(self, tmp_path):
        cfg = ScenarioConfig(scenario="decay", output_dir=str(tmp_path))
        with pytest.raises(ValueError):
            run_convergence(cfg, dt_levels=(0.01,))

    def test_quick_temporal_sweep(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="mms", n_interior=64, dt=1e-4, t_end=0.1, output_dir=str(tmp_path)
        )
        rows = run_convergence(cfg, dt_levels=(0.01, 0.005, 0.0025))
        assert math.isnan(rows[0]["observed_order"])
        assert 0.7 <= rows[2]["observed_order"] <= 1.3
        table = (tmp_path / "convergence.csv").read_text().splitlines()
        assert table[1] == "# dt n_interior error_H observed_order"
        assert len(table) == 5


def per_value_rows(block):
    # the per-value formatting every artifact row is defined by
    return "".join(" ".join(format(float(x) + 0.0, ".17g") for x in row) + "\n" for row in block)


class TestBlockFormatter:
    def values(self):
        rng = np.random.default_rng(2024)
        count = 130 * 800
        mantissa = rng.uniform(1.0, 10.0, count) * rng.choice([-1.0, 1.0], count)
        values = mantissa * 10.0 ** rng.integers(-308, 308, count).astype(float)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.0, -1.0, 255.0]
        values[rng.choice(count, len(specials) * 40, replace=False)] = np.repeat(specials, 40)
        return values

    @pytest.mark.parametrize("cols", [1, 5, 130])
    def test_equals_per_value_format(self, cols):
        values = self.values()
        assert np.isfinite(values).sum() > 100_000
        for block in np.split(values.reshape(-1, cols), 8):
            got, want = _format_block(block), per_value_rows(block)
            # report a few differing lines, not a diff of the whole block
            bad = [pair for pair in zip(got.splitlines(), want.splitlines()) if pair[0] != pair[1]]
            assert bad[:3] == []
            assert got == want

    def test_negative_zero_prints_as_zero_and_empty_block_as_nothing(self):
        assert _format_block(np.array([[-0.0, 0.0, -1.5]])) == "0 0 -1.5\n"
        assert _format_block(np.zeros((0, 4))) == ""


class TestDeterminism:
    def test_run_artifacts_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        cfg = ScenarioConfig(
            scenario="decay", n_interior=31, dt=0.01, t_end=0.1, seed=5, output_dir=str(out)
        )
        texts = []
        for _ in range(2):  # identical config, same destination
            assert run_scenario(cfg) == 0
            texts.append(
                tuple(
                    (out / name).read_bytes()
                    for name in ("trajectory.csv", "constraint.csv", "summary.json")
                )
            )
        assert texts[0] == texts[1]


def subcommand_options(name):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest: action for action in sub.choices[name]._actions}


class TestCli:
    @pytest.mark.parametrize("command", ["run", "converge"])
    def test_every_config_field_has_a_flag(self, command):
        options = subcommand_options(command)
        for f in dataclasses.fields(ScenarioConfig):
            action = options[f.name]
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert action.type is CONFIG_TYPES[f.name][0]
            assert action.default is None
        assert options["scenario"].choices == SCENARIOS
        assert options["method"].choices == METHODS

    def test_summary_carrier_reproduces_the_data_rows(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        argv = ["run", "--scenario", "mms", "--method", "imex", "--n-interior", "15"]
        assert main(argv + ["--dt", "0.01", "--t-end", "0.05", "--output-dir", str(first)]) == 0
        assert main(["run", "--config", str(first / "summary.json"), "--output-dir", str(second)]) == 0
        for name in ("trajectory.csv", "constraint.csv", "mms_error.csv"):
            rows = [
                [line for line in (d / name).read_bytes().splitlines() if not line.startswith(b"#")]
                for d in (first, second)
            ]
            assert rows[0] and rows[0] == rows[1]

    @pytest.mark.parametrize(
        "case",
        [
            "n_interior_zero",
            "zero_diffusion",
            "empty_ic_file",
            "config_list",
            "config_string_dt",
            "config_infinite_t_end",
            "nan_blowup_threshold",
            "nan_picard_tol",
            "non_finite_source",
            "mms_ic_file",
            "verify_zero_samples",
            "verify_unwritable_output",
            "mms_sources_n_interior_zero",
            "mms_sources_unwritable_output",
        ],
    )
    def test_bad_input_exits_1_with_error_line(self, case, tmp_path, capsys):
        out = ["--output-dir", str(tmp_path / "out")]
        grid = Grid1D(3)
        ic = tmp_path / "ic.txt"
        ic.write_text("".join(f"{x!r} 0.1 0.2\n" for x in grid.nodes))
        config = tmp_path / "cfg.json"
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        if case == "n_interior_zero":
            argv = ["run", "--n-interior", "0"] + out
        elif case == "zero_diffusion":
            argv = ["run", "--d-u", "0"] + out
        elif case == "empty_ic_file":
            (tmp_path / "empty.txt").write_text("")
            argv = ["run", "--scenario", "custom", "--ic-file", str(tmp_path / "empty.txt")] + out
        elif case == "config_list":
            config.write_text("[1, 2]")
            argv = ["run", "--config", str(config)] + out
        elif case == "config_string_dt":
            config.write_text('{"dt": "0.1"}')
            argv = ["run", "--config", str(config)] + out
        elif case == "config_infinite_t_end":
            config.write_text('{"t_end": Infinity}')
            argv = ["run", "--config", str(config)] + out
        elif case == "nan_blowup_threshold":
            argv = ["run", "--blowup-threshold", "nan"] + out
        elif case == "nan_picard_tol":
            argv = ["run", "--method", "picard", "--picard-tol", "nan"] + out
        elif case == "non_finite_source":
            table = tmp_path / "src.txt"
            table.write_text("".join(f"0.0 {x!r} nan 0.0\n" for x in grid.nodes))
            argv = ["run", "--scenario", "custom", "--n-interior", "3", "--ic-file", str(ic)]
            argv += ["--source-file", str(table), "--dt", "0.01", "--t-end", "0.02"] + out
        elif case == "mms_ic_file":
            argv = ["run", "--scenario", "mms", "--n-interior", "3", "--ic-file", str(ic)] + out
        elif case == "verify_zero_samples":
            argv = ["verify", "--sizes", "8", "--samples", "0"]
        elif case == "verify_unwritable_output":
            argv = ["verify", "--sizes", "8", "--samples", "2", "--lipschitz-samples", "2"]
            argv += ["--output", str(blocker / "report.json")]
        elif case == "mms_sources_n_interior_zero":
            argv = ["mms-sources", "--n-interior", "0"]
        else:
            argv = ["mms-sources", "--output", str(blocker / "table.txt")]
        assert main(argv) == 1
        assert "error: " in capsys.readouterr().err
    def test_run_subcommand(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--scenario",
                "decay",
                "--n-interior",
                "15",
                "--dt",
                "0.02",
                "--t-end",
                "0.1",
                "--output-dir",
                str(tmp_path / "cli"),
            ]
        )
        assert code == 0
        assert (tmp_path / "cli" / "summary.json").exists()
        assert "exit=0" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "scenario": "decay",
                    "n_interior": 15,
                    "dt": 0.02,
                    "t_end": 0.1,
                    "output_dir": str(tmp_path / "a"),
                }
            )
        )
        code = main(["run", "--config", str(config), "--output-dir", str(tmp_path / "b")])
        assert code == 0
        assert (tmp_path / "b" / "summary.json").exists()
        assert not (tmp_path / "a").exists()

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenario": "decay", "dx": 1}))
        assert main(["run", "--config", str(config)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_t_end_off_the_step_grid_exits_1(self, tmp_path, capsys):
        code = main(
            ["run", "--dt", "0.3", "--t-end", "1.0", "--output-dir", str(tmp_path / "off")]
        )
        assert code == 1
        assert "error: t_end=1.0 is not a whole number of steps" in capsys.readouterr().err
        assert not (tmp_path / "off").exists()

    def test_picard_slab_without_convergence_counts_its_sweep(self, tmp_path):
        out = tmp_path / "p"
        argv = ["run", "--scenario", "decay", "--method", "picard", "--picard-max-iter", "1"]
        assert main(argv + ["--n-interior", "15", "--t-end", "0.05", "--output-dir", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"]["kind"] == "step_failure" and summary["timings"]["steps"] == 0
        assert summary["timings"]["picard_iterations"] == 1

    def test_growth_probe_exit_code_propagates(self, tmp_path):
        code = main(
            [
                "run",
                "--scenario",
                "growth_probe",
                "--n-interior",
                "31",
                "--dt",
                "0.0005",
                "--t-end",
                "1.0",
                "--snapshot-every",
                "200",
                "--output-dir",
                str(tmp_path / "g"),
            ]
        )
        assert code == 2

    def test_verify_subcommand_quick(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                "--sizes",
                "8,16",
                "--samples",
                "30",
                "--lipschitz-samples",
                "40",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "dissipativity: PASS" in stdout

    def test_mms_sources_subcommand_stdout(self, capsys):
        code = main(["mms-sources", "--n-interior", "7", "--times", "0.0,0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# t x f g"
        assert len(lines) == 1 + 2 * 9  # two times, full node set each

    def test_mms_sources_creates_missing_output_dir(self, tmp_path, capsys):
        out = tmp_path / "missing" / "table.txt"
        assert main(["mms-sources", "--n-interior", "7", "--output", str(out)]) == 0
        main(["mms-sources", "--n-interior", "7"])
        assert out.read_text() == capsys.readouterr().out

    def test_converge_honours_blowup_threshold(self, tmp_path, capsys):
        argv = ["converge", "--n-interior", "15", "--dt-levels", "0.02", "--n-levels", ""]
        argv += ["--output-dir", str(tmp_path / "conv")]
        assert main(argv + ["--blowup-threshold", "1e6"]) == 0
        # the manufactured state starts near norm 1: the march stops at once
        assert main(argv + ["--blowup-threshold", "0.01"]) == 1
        assert "manufactured run did not complete" in capsys.readouterr().err

    def test_mms_sources_flags_come_from_the_config_fields(self, capsys):
        options = subcommand_options("mms-sources")
        for name in ("n_interior", "mms_a", "mms_b", "d_u", "d_v", "p_u", "p_v"):
            action = options[name]
            assert action.option_strings == ["--" + name.replace("_", "-")]
            assert action.type is CONFIG_TYPES[name][0]
            assert action.default is None
        assert "config" not in options and "scenario" not in options
        assert main(["mms-sources"]) == 0  # n_interior falls back to 32
        assert len(capsys.readouterr().out.splitlines()) == 1 + 34

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_converge_exit_codes(self, code, tmp_path, capsys):
        argv = ["converge", "--n-interior", "7", "--dt-levels", "0.02,0.01", "--n-levels", ""]
        argv += ["--output-dir", str(tmp_path / "conv")]
        if code == 1:
            # the manufactured state starts near norm 1, so the first level stops at once
            argv += ["--blowup-threshold", "0.01"]
        if code == 2:
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--method", "bogus"])
            assert excinfo.value.code == 2
            assert "invalid choice: 'bogus'" in capsys.readouterr().err
            return
        assert main(argv) == code
        captured = capsys.readouterr()
        if code == 0:
            assert captured.out.count("order=") == 2 and captured.err == ""
            assert len((tmp_path / "conv" / "convergence.csv").read_text().splitlines()) == 4
        else:
            assert captured.err.startswith("error: manufactured run did not complete")

    def test_converge_subcommand_quick(self, tmp_path, capsys):
        code = main(
            [
                "converge",
                "--n-interior",
                "32",
                "--t-end",
                "0.05",
                "--dt",
                "0.0005",
                "--dt-levels",
                "0.005,0.0025",
                "--n-levels",
                "",
                "--output-dir",
                str(tmp_path / "conv"),
            ]
        )
        assert code == 0
        assert (tmp_path / "conv" / "convergence.csv").exists()
        assert "order=" in capsys.readouterr().out
