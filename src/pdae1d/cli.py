"""Command line front end: run, converge, verify, mms-sources.

The argument parser is built once per process, on the first call of
:func:`build_parser`, and reused by every :func:`main` call after it.  Its
handlers look up ``run_scenario`` and the other entry points in this
module when they run, not when the parser is built, so a caller that
rebinds one of them here still reaches every run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from .fields import Grid1D
from .integrators import METHODS
from .nonlinearity import CoefficientSet
from .scenarios import (
    CONFIG_TYPES,
    SCENARIOS,
    MmsSpec,
    ScenarioConfig,
    _format_slabs,
    _mms_source_fns,
    read_config,
    run_convergence,
    run_scenario,
    run_verification,
)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _add_config_flags(parser: argparse.ArgumentParser, names=None) -> None:
    """A flag per named ``ScenarioConfig`` field (default: --config and every field)."""
    if names is None:
        parser.add_argument("--config", help="JSON config file; explicit flags override its values")
        names = CONFIG_TYPES
    choices = {"scenario": SCENARIOS, "method": METHODS}
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, type=CONFIG_TYPES[name][0], choices=choices.get(name))


def _config_from_args(args: argparse.Namespace, fallback: dict | None = None) -> ScenarioConfig:
    # precedence: explicit flags > config file > subcommand fallbacks > dataclass defaults
    raw: dict = dict(fallback or {})
    if getattr(args, "config", None):
        raw.update(read_config(args.config))
    for name in CONFIG_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            raw[name] = value
    return ScenarioConfig.from_dict(raw)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    code = run_scenario(cfg)
    print(f"scenario={cfg.scenario} method={cfg.method} exit={code} artifacts={cfg.output_dir}")
    return code


def _cmd_converge(args: argparse.Namespace) -> int:
    cfg = _config_from_args(
        args, fallback={"scenario": "mms", "n_interior": 256, "dt": 1e-5, "t_end": 0.2}
    )
    rows = run_convergence(cfg, dt_levels=args.dt_levels, n_levels=args.n_levels)
    for row in rows:
        print(
            f"dt={row['dt']:g} n={row['n_interior']} "
            f"error_H={row['error_H']:.6e} order={row['observed_order']:.3f}"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    passed, payload = run_verification(
        grid_sizes=args.sizes,
        seed=args.seed,
        output_path=args.output,
        n_samples=args.samples,
        lipschitz_samples=args.lipschitz_samples,
    )
    for size, reports in payload["reports"].items():
        for report in reports:
            print(
                f"n={size} {report['name']}: "
                f"{'PASS' if report['passed'] else 'FAIL'} "
                f"(worst={report['worst_value']:.3e}, tol={report['tolerance']:.0e})"
            )
    return 0 if passed else 1


def _cmd_mms_sources(args: argparse.Namespace) -> int:
    if not args.times:
        raise ValueError("--times needs at least one time")
    if not np.isfinite(args.times).all():
        raise ValueError(f"--times entries must be finite numbers, got {args.times!r}")
    cfg = _config_from_args(args, fallback={"n_interior": 32})
    x = Grid1D(cfg.n_interior).nodes_full
    coefficients = CoefficientSet(cfg.d_u, cfg.d_v, cfg.p_u, cfg.p_v)
    f_at, g_at = _mms_source_fns(MmsSpec(cfg.mms_a, cfg.mms_b), coefficients, x)
    times = np.array(args.times, dtype=float)
    # one call of each component for all the times
    slabs = (np.column_stack(pair) for pair in zip(f_at(times), g_at(times)))
    if args.output:
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        out = open(args.output, "w")
    else:
        out = contextlib.nullcontext(sys.stdout)
    with out as fh:
        fh.write("# t x f g\n")
        fh.writelines(_format_slabs(args.times, x, 2, slabs))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call; every later call returns the same one."""
    parser = argparse.ArgumentParser(
        prog="pdae1d",
        description=(
            "Solve and check the 1-D two-component reaction-diffusion system "
            "coupled to an integral constraint on [0, 1]."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its artifacts")
    _add_config_flags(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_conv = sub.add_parser("converge", help="manufactured-solution order sweeps")
    _add_config_flags(p_conv)
    p_conv.add_argument(
        "--dt-levels",
        type=_parse_floats,
        default=(0.02, 0.01, 0.005, 0.0025, 0.00125),
        help="comma-separated dt sweep (temporal order, fixed grid)",
    )
    p_conv.add_argument(
        "--n-levels",
        type=_parse_ints,
        default=(7, 15, 31, 63),
        help="comma-separated n_interior sweep (spatial order, fixed dt)",
    )
    p_conv.set_defaults(handler=_cmd_converge)

    p_ver = sub.add_parser("verify", help="run the property checks and report pass/fail")
    # the one statement of verify's sizes, seed and sample counts
    p_ver.add_argument("--sizes", type=_parse_ints, default=(16, 64, 256))
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--output", help="write the consolidated JSON report here")
    p_ver.add_argument("--samples", type=int, default=1000)
    p_ver.add_argument("--lipschitz-samples", type=int, dest="lipschitz_samples", default=10000)
    p_ver.set_defaults(handler=_cmd_verify)

    p_mms = sub.add_parser("mms-sources", help="dump the manufactured source tables")
    _add_config_flags(p_mms, ("n_interior",))
    p_mms.add_argument("--times", type=_parse_floats, default=(0.0,))
    _add_config_flags(p_mms, ("mms_a", "mms_b", "d_u", "d_v", "p_u", "p_v"))
    p_mms.add_argument("--output", help="write the table here instead of stdout")
    p_mms.set_defaults(handler=_cmd_mms_sources)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; bad input is reported as an ``error:`` line and exit 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
