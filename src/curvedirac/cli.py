"""Batch command-line interface.

Subcommands:
    run <config> [--out DIR]                 propagate a config file
    preset <exp1..exp6> [--scale ci|paper] [--out DIR]
    converge <config> --sweep h|dt --values v1,v2,... [--out FILE]
    norms <config>                           diagnostics only, no snapshots

run and preset print a summary: steps, the first and last norms, and on a
cn run the mean GMRES iterations and operator products a step, and the
largest iteration count and Krylov residual of any step.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigurationError, GeometryError, SimulationError
from . import harness


def _load(path) -> harness.RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return harness.parse_config(fh.read())
    except UnicodeDecodeError as exc:
        msg = f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        raise ConfigurationError(msg) from None


def _values(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        msg = f"expected comma-separated numbers, got '{text}'"
        raise argparse.ArgumentTypeError(msg) from None


def _print_summary(res):
    first, last = res.diagnostics[0], res.diagnostics[-1]
    print(f"steps: {last.step}   t: {last.t:g}")
    print(f"l2:       {first.l2:.9e} -> {last.l2:.9e}")
    print(f"l2_gamma: {first.l2_gamma:.9e} -> {last.l2_gamma:.9e}")
    solves = [r for r in res.diagnostics if r.krylov_iters is not None]
    if solves:
        iters = [r.krylov_iters for r in solves]
        products = sum(r.krylov_products for r in solves) / len(solves)
        print(f"krylov:   mean {sum(iters) / len(iters):.2f} iterations, "
              f"{products:.2f} operator products a step")
        print(f"krylov:   max {max(iters)} iterations, "
              f"max residual {max(r.krylov_residual for r in solves):.3e}")
    if res.snapshots:
        print(f"snapshots: {len(res.snapshots)} files")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="curvedirac",
        description="Pseudospectral Dirac propagation on static curved backgrounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="propagate a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_pre = sub.add_parser("preset", help="run a shipped experiment preset")
    p_pre.add_argument("name", choices=harness.PRESET_NAMES)
    p_pre.add_argument("--scale", choices=("ci", "paper"), default="ci")
    p_pre.add_argument("--out", default=None)

    p_con = sub.add_parser("converge", help="resolution sweep against a fine reference")
    p_con.add_argument("config")
    p_con.add_argument("--sweep", choices=("h", "dt"), required=True)
    p_con.add_argument("--values", type=_values, required=True, help="comma-separated, descending")
    p_con.add_argument("--out", default=None, help="CSV output path")

    p_nrm = sub.add_parser("norms", help="run and print diagnostics only")
    p_nrm.add_argument("config")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load(args.config)
            if args.out:
                cfg = cfg.replace(out_dir=args.out)
            _print_summary(harness.run_simulation(cfg))
        elif args.command == "preset":
            cfg = harness.preset_config(args.name, args.scale)
            if args.out:
                cfg = cfg.replace(out_dir=args.out)
            _print_summary(harness.run_simulation(cfg))
        elif args.command == "converge":
            cfg = _load(args.config)
            rows = harness.convergence_sweep(cfg, args.sweep, args.values,
                                             out_path=args.out or "")
            print(harness.sweep_csv(rows), end="")
        elif args.command == "norms":
            cfg = _load(args.config).replace(out_dir="", stride=0)
            res = harness.run_simulation(cfg)
            print(harness.diagnostics_csv(res.diagnostics), end="")
    except (ConfigurationError, GeometryError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
