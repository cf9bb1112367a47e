"""Command line front end.

Subcommands:

* ``sweep <config> -o <csv>``      run a sweep described by a config file
* ``preset <name> -o <csv>``       run a built-in parameter sweep (fig3..fig10)
* ``validate -o <csv>``            cross-validate closed forms; exit code 1 on FAIL

``--seed/--samples/--workers`` override the [mc] section of a sweep; for
``validate``, ``--seed/--samples`` set its Monte-Carlo draw and ``--workers``
is accepted but unused.  The sweep commands also take ``--modes``, which
overrides the mode list, and ``--emit-gnuplot``, which writes a plot script
next to the CSV.  Refused input (a bad config, override or ``validate``
argument) prints ``error: ...``, writes no CSV and exits with code 2; so
does a failed numerical guard (a quadrature error estimate, or a closed-form
survival outside [0, 1]).  Its message names the ``validate`` cell, or the
sweep's mode and first grid point (a mode computes all its points in one
call per metric function) and the failing column's parameters.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .specfun import NumericalGuardError
from .sweep import gnuplot_sidecar, run_sweep, write_csv
from .sweepcfg import (
    MODES, PRESETS, ConfigError, SweepSpec, parse_config, parse_ms, parse_thetas, preset_spec,
)
from .validation import run_validation


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, help="RNG seed override, in [0, 2**128)")
    p.add_argument("--samples", type=int, help="Monte-Carlo sample override")
    p.add_argument("--workers", type=int, help="worker thread override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swiptrelay", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep from a config file")
    p_sweep.add_argument("config", help="path to a key=value config file")
    p_preset = sub.add_parser("preset", help="run a built-in sweep")
    p_preset.add_argument("name", choices=PRESETS, help="preset name")
    for p in (p_sweep, p_preset):
        _add_run_options(p)
        p.add_argument("--modes", help="comma list drawn from " + ",".join(MODES))
        p.add_argument("--emit-gnuplot", action="store_true", help="write a .gp sidecar")

    # Arguments left out are left out of the run_validation call, so its
    # signature holds the defaults.
    p_val = sub.add_parser("validate", help="cross-validate closed forms",
                           argument_default=argparse.SUPPRESS)
    _add_run_options(p_val)
    p_val.add_argument("--grid-points", type=int,
                       help="threshold grid size for the CDF sup-norm check")
    p_val.add_argument("--m", help="comma list of distinct shapes")
    p_val.add_argument("--theta", help="comma list of distinct dependence values")
    p_val.add_argument("--inject-coefficient-error", action="store_true",
                       help=argparse.SUPPRESS)
    return parser


def _apply_overrides(spec: SweepSpec, args: argparse.Namespace) -> SweepSpec:
    mc = {key: getattr(args, key) for key in ("seed", "samples", "workers")
          if getattr(args, key) is not None}
    if "samples" in mc and spec.mc.batch_size is not None:  # an unset batch size is re-derived
        mc["batch_size"] = min(spec.mc.batch_size, mc["samples"])
    try:
        spec = replace(spec, mc=replace(spec.mc, **mc))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.modes is not None:
        spec = replace(spec, modes=tuple(v.strip() for v in args.modes.split(",")))
    return spec


def _load_spec(path: str) -> SweepSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _finish(args: argparse.Namespace, spec: SweepSpec, rows) -> None:
    write_csv(args.output, rows)
    if args.emit_gnuplot:
        gp_path = args.output + ".gp"
        with open(gp_path, "w") as fh:
            fh.write(gnuplot_sidecar(args.output, spec))
        print(f"wrote {gp_path}")
    print(f"wrote {args.output} ({len(rows)} rows)")


def _validate(args: argparse.Namespace) -> int:
    given = vars(args)
    kwargs = {key: given[key] for key in ("samples", "seed", "grid_points", "inject_coefficient_error")
              if key in given}
    if "m" in given:
        kwargs["ms"] = parse_ms(given["m"])
    if "theta" in given:
        kwargs["thetas"] = parse_thetas(given["theta"])
    report = run_validation(**kwargs)
    for check in report.checks:
        print(check.line())
    write_csv(args.output, report.csv_rows())
    print(f"wrote {args.output} ({len(report.checks)} checks)")
    if not report.passed:
        print("validation FAILED", file=sys.stderr)
        return 1
    print("validation passed")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _validate(args)
        spec = preset_spec(args.name) if args.command == "preset" else _load_spec(args.config)
        spec = _apply_overrides(spec, args)
        _finish(args, spec, run_sweep(spec))
        return 0
    except (ConfigError, OSError, NumericalGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
