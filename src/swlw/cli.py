"""Command line front end.

    swlw run <config>
    swlw converge <config> --meshes 250,500,1000
    swlw conserve <config>
    swlw truncate <config> --levels 1,4,10

Common flags: --output-dir DIR, --quiet, --profile {desk|paper}.  The
paper profile overrides tau = 1e-4 and T = 5 (the full-scale experiment);
desk leaves the config untouched.  Exit codes: 0 success, 1 usage error,
2 solver failure (non-convergence, singular system or blow-up).
"""

import argparse
import dataclasses
import math
import sys

from .dynamics import SolverFailure
from .harness import (ConfigError, cmd_conserve, cmd_converge, cmd_run,
                      cmd_truncate, load_config)

USAGE_ERROR = 1
SOLVER_ERROR = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="swlw",
        description="Coupled Schrodinger-KdV finite-difference solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="YAML run configuration")
        p.add_argument("--output-dir", default=".", help="directory for CSVs")
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--profile", choices=["desk", "paper"], default="desk",
                       help="paper overrides tau=1e-4, T=5")

    p = sub.add_parser("run", help="single fully discrete run")
    common(p)
    p = sub.add_parser("converge", help="error-vs-mesh sweep")
    common(p)
    p.add_argument("--meshes", required=True,
                   help="comma-separated J values, e.g. 250,500,1000")
    p = sub.add_parser("conserve", help="semi- vs fully discrete invariants")
    common(p)
    p = sub.add_parser("truncate", help="truncated vs untruncated runs")
    common(p)
    p.add_argument("--levels", required=True,
                   help="comma-separated truncation levels, e.g. 1,4,10")
    return parser


def _parse_floats(text, what, integral=False):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"could not parse {what} list {text!r}") from None
    if not values:
        raise ConfigError(f"empty {what} list")
    if not all(v.is_integer() if integral else math.isfinite(v)
               for v in values):
        kind = "integers" if integral else "finite"
        raise ConfigError(f"{what} values must be {kind}, got {text!r}")
    return values


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    def say(msg):
        if not args.quiet:
            print(msg)

    try:
        config = load_config(args.config)
        if args.profile == "paper":
            config = dataclasses.replace(config, tau=1e-4, T=5.0)
        if args.command == "run":
            for path in cmd_run(config, args.output_dir):
                say(f"wrote {path}")
        elif args.command == "converge":
            meshes = [int(v) for v in _parse_floats(args.meshes, "--meshes",
                                                    integral=True)]
            path, rows = cmd_converge(config, meshes, args.output_dir)
            say(f"wrote {path}")
            for row in rows:
                say(f"  J={row[0]} err_u={row[4]:.3e} err_v={row[5]:.3e} "
                    f"[{row[8]}]")
        elif args.command == "conserve":
            for path in cmd_conserve(config, args.output_dir):
                say(f"wrote {path}")
        elif args.command == "truncate":
            levels = _parse_floats(args.levels, "--levels")
            path, rows = cmd_truncate(config, levels, args.output_dir)
            say(f"wrote {path}")
            for M, v_sup, active, diff in rows:
                say(f"  M={M}: v_sup={v_sup:.4g} active={bool(active)} "
                    f"max_diff={diff:.3e}")
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
