import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

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
    mms_state,
    run_convergence,
    run_scenario,
    run_verification,
)
from pdae1d import scenarios, verification
from pdae1d.cli import build_parser, main
from pdae1d.fields import _field_types, pair_norm
from pdae1d.integrators import METHODS
from pdae1d.scenarios import CONFIG_TYPES, SCENARIOS, _format_block, _write_json, read_config


def mms_source_rows(spec, grid, times, c=CoefficientSet()):
    """Rows (t, x, f, g) over all n+2 nodes, the n+2 rows of each time in turn.

    Each time is evaluated in a call of its own.
    """
    x = grid.nodes_full
    f_at, g_at = scenarios._mms_source_fns(spec, c, x)
    blocks = [
        np.column_stack((np.full_like(x, t), x, f_at(np.array([t]))[0], g_at(np.array([t]))[0]))
        for t in times
    ]
    return np.concatenate(blocks)


def at(sources, t):
    """The (2, n) values of a source pair at the one time t, through one-element calls."""
    times = np.array([t])
    return np.stack((sources.f(times)[0], sources.g(times)[0]))


def mms_truth(spec, c, t, x):
    u = spec.a * math.exp(-t) * math.sin(math.pi * x)
    v = spec.b * math.exp(-t) * math.sin(2.0 * math.pi * x)
    return u, v


class TestMmsSources:
    def test_zero_amplitudes_give_zero_sources(self):
        grid = Grid1D(16)
        sources = build_mms_sources(MmsSpec(0.0, 0.0), grid)
        assert np.all(sources.f(np.array([0.3, 1.0])) == 0.0)
        assert np.all(sources.g(np.array([0.3, 1.0])) == 0.0)

    def test_sources_equal_the_table_interior(self):
        grid = Grid1D(21)
        spec = MmsSpec(1.3, -0.6)
        c = CoefficientSet(d_u=0.8, d_v=1.7, p_u=1.1, p_v=0.4)
        sources = build_mms_sources(spec, grid, c)
        times = (0.0, 0.013, 0.25, 1.7)
        rows = mms_source_rows(spec, grid, times, c)
        rows = rows.reshape(len(times), grid.n_interior + 2, 4)
        # one call for all the times gives each time's row of the table
        assert np.array_equal(sources.f(np.array(times)), rows[:, 1:-1, 2])
        assert np.array_equal(sources.g(np.array(times)), rows[:, 1:-1, 3])

    def test_midpoint_closed_form(self):
        # a=1, b=0, unit coefficients, t=0, x=1/2: f = pi^2 - 1 + 1/pi
        grid = Grid1D(31)
        sources = build_mms_sources(MmsSpec(1.0, 0.0), grid)
        mid = 15  # x = 16/32 = 0.5
        assert grid.nodes[mid] == 0.5
        expected = 9.1879142872731492903722585266211798594  # 50-digit mpmath value
        np.testing.assert_allclose(at(sources, 0.0)[0, mid], expected, rtol=1e-14)

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
            np.testing.assert_allclose(at(sources, t)[0, j], f_expected, rtol=1e-5, atol=1e-8)
            dv_dt = (v_of(t + eps, x) - v_of(t - eps, x)) / (2 * eps)
            d2v = (v_of(t, x + delta) - 2 * v_of(t, x) + v_of(t, x - delta)) / delta**2
            g_expected = dv_dt - c.d_v * d2v - v_of(t, x) * integral
            np.testing.assert_allclose(at(sources, t)[1, j], g_expected, rtol=1e-5, atol=1e-8)

    def test_sources_vanish_at_ends(self):
        grid = Grid1D(12)
        rows = mms_source_rows(MmsSpec(2.0, -1.5), grid, times=(0.0, 0.4))
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

    @pytest.mark.parametrize("n", [2.7, 16.0, "16"])
    def test_a_grid_size_that_is_not_an_integer_is_rejected_by_value(self, n):
        # it used to run on int(n) nodes while its "# config:" echo said n
        with pytest.raises(ValueError, match=f"n_interior must be an integer, got {n!r}"):
            ScenarioConfig(n_interior=n)

    def test_a_numpy_integer_grid_size_is_held_as_an_int(self):
        # and so is every int field: a numpy integer left in place broke the echo's JSON
        for name in ("n_interior", "seed", "snapshot_every"):
            cfg = ScenarioConfig(**{name: np.int64(16)})
            assert type(getattr(cfg, name)) is int
            assert scenarios._config_echo(cfg) == scenarios._config_echo(ScenarioConfig(**{name: 16}))

    def test_a_numpy_number_in_a_float_field_is_held_as_the_python_number_it_equals(self):
        cfg = ScenarioConfig(dt=np.float32(0.125), t_end=np.longdouble(0.5), mms_a=np.int64(2))
        assert [type(v) for v in (cfg.dt, cfg.t_end, cfg.mms_a)] == [float, float, int]
        assert scenarios._config_echo(cfg) == scenarios._config_echo(
            ScenarioConfig(dt=0.125, t_end=0.5, mms_a=2)
        )
        long_tenth = np.longdouble("0.1")
        if long_tenth != 0.1:  # a long double wider than a double: no echo could state it
            with pytest.raises(ValueError, match="config key 't_end'"):
                ScenarioConfig(t_end=long_tenth)

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


def field_values(kind):
    """Values of a field of type ``kind``, non-finite floats and huge ints included, or any JSON."""
    typed = {
        float: st.floats() | st.integers(),
        int: st.integers(),
        str: st.sampled_from(SCENARIOS + METHODS) | st.text(max_size=6),
    }[kind]
    return typed | st.none() | json_values


config_documents = st.fixed_dictionaries(
    {}, optional={name: field_values(kind) for name, (kind, _) in CONFIG_TYPES.items()}
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
    for name, (kind, nullable) in _field_types(type(cfg)).items():
        value = getattr(cfg, name)
        if value is None:
            assert nullable
            continue
        assert not isinstance(value, bool)
        assert isinstance(value, (int, float) if kind is float else kind)
        if kind is not str:
            assert math.isfinite(value)
    assert type(cfg)(**dataclasses.asdict(cfg)) == cfg
    if type(cfg) is ScenarioConfig:
        assert ScenarioConfig.from_dict(dataclasses.asdict(cfg)) == cfg


@settings(max_examples=200, deadline=None)
@given(config_documents)
def test_from_dict_gives_a_valid_config_or_value_error(raw):
    assert_valid_config_or_value_error(lambda: ScenarioConfig.from_dict(raw))
    if set(raw) <= set(CONFIG_TYPES):  # the Python API takes what config files take
        assert_valid_config_or_value_error(lambda: ScenarioConfig(**raw))


def keyword_documents(cls):
    """Keyword arguments for ``cls`` from :func:`field_values`, with every field it requires."""
    values = {name: field_values(kind) for name, (kind, _) in _field_types(cls).items()}
    required = {f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}
    optional = {name: value for name, value in values.items() if name not in required}
    return st.fixed_dictionaries({name: values[name] for name in required}, optional=optional)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([SolveConfig, CoefficientSet]).flatmap(
    lambda cls: st.tuples(st.just(cls), keyword_documents(cls))
))
def test_solve_and_coefficient_configs_are_valid_or_a_value_error(case):
    cls, raw = case
    assert_valid_config_or_value_error(lambda: cls(**raw))


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

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case", ["huge_ic", "huge_source"])
    def test_overflow_is_classified_without_a_warning(self, case, method, tmp_path):
        # a 1e200 IC overflows the norm at t = 0; a source table stepping
        # from 0 to 1e308 overflows the state within two steps.  The march
        # classifies both itself, so numpy may not warn on the way there
        x = Grid1D(16).nodes.tolist()
        ic = tmp_path / "ic.txt"
        value = 1e200 if case == "huge_ic" else 0.0
        ic.write_text("".join(f"{node!r} {value!r} {value!r}\n" for node in x))
        extra = {}
        if case == "huge_source":
            table = tmp_path / "src.txt"
            slabs = ((0, 0), (1, 1e308))
            table.write_text("".join(f"{t} {node!r} {f} 0\n" for t, f in slabs for node in x))
            extra["source_file"] = str(table)
        cfg = ScenarioConfig(
            scenario="custom", n_interior=16, dt=0.001, t_end=0.01, method=method,
            ic_file=str(ic), output_dir=str(tmp_path / "out"), **extra,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_scenario(cfg)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        # (exit code, status, steps, snapshots, Picard sweeps); a Picard slab
        # ends at its first sweep, whose squared change overflows, with a
        # finite state of infinite norm
        blowup = {"kind": "blowup_detected", "t": 0.0, "reason": None}
        if case == "huge_ic":
            expected = (2, blowup, 0, 1, 0)
        elif method == "picard":
            expected = (2, dict(blowup, t=0.001), 1, 2, 1)
        else:
            expected = (2, dict(blowup, t=0.002), 2, 3, 0)
        timings = summary["timings"]
        got = (code, summary["status"], timings["steps"], timings["snapshots"])
        assert got + (timings["picard_iterations"],) == expected

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

    # the digest tool's custom inputs on n = 7, and its Picard step failure
    DECLARED_RUNS = {
        "decay": (["--scenario", "decay", "--n-interior", "7", "--t-end", "0.05"], 0),
        "mms": (["--scenario", "mms", "--method", "imex", "--n-interior", "7", "--t-end", "0.05"], 0),
        "custom": (["--scenario", "custom", "--ic-file", "ic.txt", "--source-file", "sources.txt",
                    "--n-interior", "7"], 0),
        "growth_probe": (["--scenario", "growth_probe", "--n-interior", "15"], 2),
        "picard step failure": (["--scenario", "growth_probe", "--method", "picard", "--n-interior", "63",
                                 "--dt", "0.001", "--t-end", "0.2", "--picard-max-iter", "7"], 1),
    }

    @pytest.mark.parametrize("case", DECLARED_RUNS)
    def test_summary_lists_exactly_the_tables_written(self, case, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        nodes = [j / 8 for j in range(9)]
        Path("ic.txt").write_text("".join(f"{x!r} {x * (1 - x)!r} {0.5 * x!r}\n" for x in nodes[1:-1]))
        Path("sources.txt").write_text(
            "".join(f"{t!r} {x!r} {t * x * (1 - x)!r} {(1 - t) * x!r}\n" for t in (0.0, 0.25, 0.6) for x in nodes)
        )
        argv, code = self.DECLARED_RUNS[case]
        assert main(["run", *argv, "--output-dir", "out"]) == code
        summary = json.loads(Path("out", "summary.json").read_text())
        tables = sorted(summary["artifacts"].values())
        assert sorted(os.listdir("out")) == sorted(tables + ["summary.json"])
        assert ("mms_error.csv" in tables) == (case == "mms")
        echo = json.dumps(summary["config"], sort_keys=True, separators=(",", ":"))
        for name in tables:
            assert name.endswith(".csv")
            assert Path("out", name).read_text().startswith(f"# config: {echo}\n# ")

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

    @pytest.mark.parametrize(
        "dt_levels, n_levels, message",
        [((0.02, 0.01, 0.02), (7, 15), "dt level 0.02 repeats"),
         ((0.02, 0.01), (7, 15, 15), "n_interior level 15 repeats")],
        ids=["dt sweep", "n sweep"],
    )
    def test_a_repeated_level_is_rejected_before_any_march(
        self, dt_levels, n_levels, message, tmp_path, monkeypatch
    ):
        # a repeated level would march twice and report order 0 against itself
        def no_march(*args):
            raise AssertionError("a level was marched")

        monkeypatch.setattr(scenarios, "_terminal_error", no_march)
        cfg = ScenarioConfig(scenario="mms", n_interior=15, output_dir=str(tmp_path / "conv"))
        with pytest.raises(ValueError, match=message):
            run_convergence(cfg, dt_levels=dt_levels, n_levels=n_levels)
        assert not (tmp_path / "conv").exists()

    @pytest.mark.parametrize("level", [7.9, 7.0, "7"])
    def test_a_grid_level_that_is_not_an_integer_is_rejected_before_any_march(
        self, level, tmp_path, monkeypatch
    ):
        # int() would march n = 7 for 7.9 and report it as the level
        def no_march(*args):
            raise AssertionError("a level was marched")

        monkeypatch.setattr(scenarios, "_terminal_error", no_march)
        cfg = ScenarioConfig(scenario="mms", output_dir=str(tmp_path / "conv"))
        with pytest.raises(ValueError, match=f"n_interior level must be an integer, got {level!r}"):
            run_convergence(cfg, n_levels=(15, level))
        assert not (tmp_path / "conv").exists()

    # the sweeps of mms at n = 63 to t = 0.2 whose last level is invalid: its
    # grid, or a dt that does not divide t_end
    INVALID_LAST_LEVEL = [
        ({"n_levels": (7, 15, 31, 0)}, "n_interior must be a positive integer"),
        ({"dt_levels": (0.02, 0.01, 0.005, 0.03)}, "t_end=0.2 is not a whole number of steps of dt=0.03"),
    ]

    @pytest.mark.parametrize("levels, message", INVALID_LAST_LEVEL, ids=["n sweep", "dt sweep"])
    def test_an_invalid_level_is_rejected_before_any_march(self, levels, message, tmp_path, monkeypatch):
        def no_march(*args):
            raise AssertionError("a level was marched")

        monkeypatch.setattr(scenarios, "solve", no_march)
        cfg = ScenarioConfig(scenario="mms", n_interior=63, dt=1e-4, t_end=0.2, output_dir=str(tmp_path / "conv"))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_convergence(cfg, **levels)
        assert not (tmp_path / "conv").exists()

    @pytest.mark.parametrize("levels, message", INVALID_LAST_LEVEL, ids=["n sweep", "dt sweep"])
    def test_converge_reports_an_invalid_level_before_any_march(
        self, levels, message, tmp_path, monkeypatch, capsys
    ):
        def no_march(*args):
            raise AssertionError("a level was marched")

        monkeypatch.setattr(scenarios, "solve", no_march)
        (name, values), = levels.items()
        other = "--n-levels" if name == "dt_levels" else "--dt-levels"
        argv = ["converge", "--n-interior", "63", "--dt", "1e-4", "--t-end", "0.2", other, ",",
                "--" + name.replace("_", "-"), ",".join(map(str, values)), "--output-dir", str(tmp_path / "conv")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not (tmp_path / "conv" / "convergence.csv").exists()

    def test_a_dt_level_may_equal_the_n_sweeps_dt(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="mms", n_interior=15, dt=0.02, t_end=0.2, output_dir=str(tmp_path)
        )
        rows = run_convergence(cfg, dt_levels=(0.02, 0.01), n_levels=(7, 15))
        assert [(r["dt"], r["n_interior"]) for r in rows] == [(0.02, 15), (0.01, 15), (0.02, 7), (0.02, 15)]
        assert rows[0]["error_H"] == rows[3]["error_H"]  # the same march, in two sweeps

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


def trajectory_rows(traj):
    # trajectory.csv's data rows by the per-value definition, from the
    # returned Trajectory: u and v are 0 at both ends
    rows = []
    for t, values, w in zip(traj.times, traj.values, traj.w):
        u, v = (np.concatenate(([0.0], row, [0.0])) for row in values)
        for x, cells in zip(traj.grid.nodes_full, zip(u, v, w)):
            rows.append(" ".join(format(float(c) + 0.0, ".17g") for c in (t, x) + cells))
    return rows


class TestTrajectoryTable:
    CASES = {
        "n1": dict(scenario="decay", n_interior=1, t_end=0.5),
        "picard_every3": dict(scenario="mms", n_interior=7, t_end=0.6, method="picard",
                              snapshot_every=3),
        "growth_probe_blowup": dict(scenario="growth_probe", n_interior=7, method="imex"),
        "custom_every3": dict(scenario="custom", n_interior=7, t_end=0.7, snapshot_every=3),
        "planted": dict(scenario="decay", n_interior=7, t_end=0.3),
    }
    # -0.0 must print as 0; the others need every digit or a special form
    PLANTED = [-0.0, 5e-324, 1e308, math.inf, -5e-324, -1e308, -math.inf]

    @pytest.mark.parametrize("case", CASES)
    def test_rows_equal_per_value_format_of_the_trajectory(self, case, tmp_path, monkeypatch):
        kwargs = dict(self.CASES[case], dt=0.1, output_dir=str(tmp_path / "out"))
        if kwargs["scenario"] == "custom":
            x = Grid1D(7).nodes.tolist()
            ic, src = tmp_path / "ic.txt", tmp_path / "src.txt"
            ic.write_text("".join(f"{a!r} {math.sin(math.pi * a)!r} {-a!r}\n" for a in x))
            src.write_text("".join(f"{t} {a!r} {t - a!r} {a * t!r}\n" for t in (0, 1) for a in x))
            kwargs.update(ic_file=str(ic), source_file=str(src))
        returned = []

        def solve(*args, **kw):
            traj = original(*args, **kw)
            if case == "planted":
                values, w = traj.values.copy(), traj.w.copy()
                values[1, 0, :7] = self.PLANTED
                values[2, 1, :7] = self.PLANTED[::-1]
                w[3, 1:8] = self.PLANTED
                traj = dataclasses.replace(traj, values=values, w=w)
            returned.append(traj)
            return traj

        original = scenarios.solve
        monkeypatch.setattr(scenarios, "solve", solve)
        code = run_scenario(ScenarioConfig(**kwargs))
        (traj,) = returned
        assert code == (2 if case == "growth_probe_blowup" else 0)
        assert len(traj.times) > 2 and traj.values.shape[-1] == kwargs["n_interior"]
        # some snapshot time, like 3 * 0.1, needs all 17 significant digits
        assert any(float(format(t, ".16g")) != t for t in traj.times)
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[1] == "# t x u v w"
        assert lines[2:] == trajectory_rows(traj)


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

    def test_one_parser_serves_every_call_of_a_process(self, tmp_path, monkeypatch, capsys):
        assert build_parser() is build_parser()
        calls = [
            ["run", "--scenario", "mms", "--method", "imex", "--n-interior", "15", "--dt", "0.01",
             "--t-end", "0.05", "--p-u", "0.5", "--output-dir", "first"],
            ["run", "--scenario", "decay", "--n-interior", "seven", "--output-dir", "bad"],
            ["run", "--scenario", "decay", "--dt", "0.01", "--t-end", "0.02", "--output-dir", "third"],
        ]

        def outcomes(fresh):
            seen = []
            for argv in calls:
                if fresh:
                    build_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exit:
                    code = exit.code
                seen.append((code, capsys.readouterr().err))
            files = {p.as_posix(): p.read_bytes() for p in Path(".").rglob("*") if p.is_file()}
            return seen, files

        runs = {}
        for fresh in (False, True):
            (tmp_path / str(fresh)).mkdir()
            monkeypatch.chdir(tmp_path / str(fresh))
            runs[fresh] = outcomes(fresh)
        (codes, files), fresh_runs = runs[False], runs[True]
        assert [code for code, _ in codes] == [0, 2, 0]
        assert codes[1][1].startswith("usage: pdae1d run") and "invalid int value: 'seven'" in codes[1][1]
        # the third run keeps the defaults the first one overrode
        assert json.loads(files["third/summary.json"])["config"]["method"] == "exp_euler"
        assert sorted({name.split("/")[0] for name in files}) == ["first", "third"]
        assert (codes, files) == fresh_runs

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

    # the cases that read the IC file fail for their own reason, not a parse error
    MESSAGES = {
        "nonzero_ic_end": "values at x = 0 and x = 1 must be 0",
        "non_finite_source": "table entries must be finite",
        "mms_ic_file": "ic_file and source_file not allowed",
    }

    @pytest.mark.parametrize(
        "case",
        [
            "n_interior_zero",
            "zero_diffusion",
            "empty_ic_file",
            "nonzero_ic_end",
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
            "converge_no_levels",
        ],
    )
    def test_bad_input_exits_1_with_error_line(self, case, tmp_path, capsys):
        out = ["--output-dir", str(tmp_path / "out")]
        grid = Grid1D(3)
        ic = tmp_path / "ic.txt"
        ic.write_text("".join(f"{x!r} 0.1 0.2\n" for x in grid.nodes.tolist()))
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
        elif case == "nonzero_ic_end":
            # all nodes listed, with u(0) = 1 at a Dirichlet end
            rows = [(0.0, 1.0, 0.0)] + [(x, 0.1, 0.2) for x in grid.nodes.tolist()] + [(1.0, 0.0, 0.0)]
            ic.write_text("".join(f"{x!r} {u!r} {v!r}\n" for x, u, v in rows))
            argv = ["run", "--scenario", "custom", "--n-interior", "3", "--ic-file", str(ic)] + out
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
            table.write_text("".join(f"0.0 {x!r} nan 0.0\n" for x in grid.nodes.tolist()))
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
        elif case == "mms_sources_unwritable_output":
            argv = ["mms-sources", "--output", str(blocker / "table.txt")]
        else:
            argv = ["converge", "--dt-levels", ",", "--n-levels", ","] + out
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: " in err
        if case in self.MESSAGES:
            assert self.MESSAGES[case] in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--sizes", "16,64,256,0"], "n_interior must be a positive integer"),
            (["--sizes", "256,16", "--lipschitz-samples", "0"], "lipschitz_samples must be >= 1"),
            (["--sizes", "256,16", "--samples", "0"], "n_samples must be >= 1"),
        ],
        ids=["last size", "lipschitz samples", "samples"],
    )
    def test_verify_rejects_bad_input_before_any_check(self, args, message, tmp_path, monkeypatch, capsys):
        calls = []
        for check in ("dissipativity", "maximality", "semigroup", "lipschitz"):
            monkeypatch.setattr(verification, f"check_{check}", lambda *a, name=check: calls.append(name))
        report = tmp_path / "verify" / "report.json"
        assert main(["verify", *args, "--output", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert calls == []
        assert not report.exists()

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

    @pytest.mark.parametrize("size", [16.5, 16.0, "16"])
    def test_verification_rejects_a_size_that_is_not_an_integer(self, size, tmp_path):
        # int() would check n = 16 for 16.5
        out = tmp_path / "verify.json"
        with pytest.raises(ValueError, match=f"grid size must be an integer, got {size!r}"):
            run_verification([8, size], seed=0, n_samples=5, lipschitz_samples=5, output_path=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("name", ["n_samples", "lipschitz_samples"])
    @pytest.mark.parametrize("count", [2.5, 5.0, True])
    def test_verification_rejects_a_sample_count_that_is_not_an_integer_before_any_check(
        self, name, count, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(verification, "check_dissipativity", lambda *a: calls.append(a))
        out = tmp_path / "verify.json"
        counts = {"n_samples": 5, "lipschitz_samples": 5, name: count}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {count!r}")):
            run_verification([8], seed=0, output_path=str(out), **counts)
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--sizes", "1024", "--lipschitz-samples", "100"],
         ["--sizes", "1023", "--samples", "50", "--lipschitz-samples", "50"],
         ["--sizes", "4096", "--samples", "100", "--lipschitz-samples", "10"]],
        ids=["1024", "1023", "4096"],
    )
    def test_verify_passes_the_correct_solver_at_a_thousand_nodes(self, argv, tmp_path, capsys):
        # the residual relative to ||g|| alone reads 4.8e-12 at n = 1024 and
        # 2.5e-12 at n = 1023, and the two elimination orders differ by 2.6e-12
        # of ||u|| at n = 4096; both backward errors stay near 1.6e-16
        out = tmp_path / "verify.json"
        assert main(["verify", *argv, "--output", str(out)]) == 0
        (maximality,) = [r for r in json.loads(out.read_text())["reports"][argv[1]] if r["name"] == "maximality"]
        observed = maximality["observed"]
        assert maximality["passed"] and maximality["tolerance"] == 1.0
        assert observed["max_backward_error"] <= 1e-15 < 1e-12 < observed["max_relative_residual"]
        assert observed["max_disagreement_backward_error"] <= 1e-15
        assert maximality["worst_value"] == max(
            observed["max_backward_error"], observed["max_disagreement_backward_error"]
        ) / 1e-14

    @pytest.mark.parametrize(
        "sizes, message",
        [("", "at least one grid size"), (",,", "at least one grid size"),
         ("16,16", "grid sizes must be distinct"), ("8,16,8", "grid sizes must be distinct")],
    )
    def test_verify_rejects_no_or_repeated_sizes(self, sizes, message, tmp_path, capsys):
        # no size would pass with no check run; a repeated one would key two
        # runs under one size and drop the first from the report
        out = tmp_path / "verify.json"
        argv = ["verify", "--sizes", sizes, "--samples", "5", "--lipschitz-samples", "5",
                "--output", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_mms_sources_subcommand_stdout(self, capsys):
        times = (-0.0, 0.5, 3 * 0.1)
        for n in (1, 7):
            argv = ["mms-sources", "--n-interior", str(n), "--times=-0,0.5,0.30000000000000004"]
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0] == "# t x f g"
            assert len(lines) == 1 + 3 * (n + 2)  # three times, full node set each
            # every row as the per-value format of the table prints it
            assert "".join(line + "\n" for line in lines[1:]) == per_value_rows(
                mms_source_rows(MmsSpec(), Grid1D(n), times)
            )

    @pytest.mark.parametrize("times", ["nan", "inf", "0,-inf", "nan,inf"])
    def test_mms_sources_rejects_non_finite_times(self, times, tmp_path, capsys):
        out = tmp_path / "table.txt"
        assert main(["mms-sources", "--times=" + times, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --times entries must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("times", ["", ",,"])
    def test_mms_sources_rejects_no_times(self, times, tmp_path, capsys):
        # no time would write a header-only table and report success
        out = tmp_path / "table.txt"
        assert main(["mms-sources", "--times=" + times, "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: --times needs at least one time\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "levels, message",
        [(["--n-interior", "15", "--dt-levels", "0.02,0.02", "--n-levels", ","],
          "error: dt level 0.02 repeats"),
         (["--dt-levels", ",", "--n-levels", "7,7", "--dt", "1e-3"],
          "error: n_interior level 7 repeats")],
        ids=["dt sweep", "n sweep"],
    )
    def test_converge_rejects_a_repeated_level(self, levels, message, tmp_path, capsys):
        out = tmp_path / "conv"
        assert main(["converge", *levels, "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message)
        assert not (out / "convergence.csv").exists()

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


def test_commands_do_not_import_scipy(tmp_path):
    # numpy is the package's one numerical dependency; scipy is a test oracle
    # only.  A fresh interpreter runs each subcommand and lists the scipy
    # modules loaded after each: the run at n = 255 takes the FFT kernel of
    # the sine transform, and verify calls the tridiagonal solve.
    out = str(tmp_path)
    commands = [
        ["run", "--scenario", "mms", "--n-interior", "255", "--t-end", "0.01",
         "--output-dir", out + "/run"],
        ["converge", "--dt-levels", "0.01", "--n-levels", "", "--output-dir", out + "/conv"],
        ["verify", "--sizes", "16"],
        ["mms-sources", "--n-interior", "255", "--output", out + "/sources.txt"],
    ]
    script = (
        "import json, sys\n"
        "from pdae1d.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = main(argv)\n"
        "    loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "    print(json.dumps([argv[0], code, loaded]))\n"
    )
    source = os.path.dirname(os.path.dirname(scenarios.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    reports = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("[")]
    assert reports == [[argv[0], 0, []] for argv in commands]
