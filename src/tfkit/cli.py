"""Command line entry point.

    tfkit <suite> [--config file.json] [--out dir] [--seed n] [--tol x]

Suites: norms, kernel, frames, regnet, mpq, all.  Each run writes CSV
tables plus summary.json into the output directory and prints one line
per suite.  Exit status: 0 all checks passed, 1 at least one check
failed (failing rows are listed), 2 the configuration did not parse.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .suites import (
    load_config,
    merge_config,
    run_all,
    run_suite,
    write_results,
)

_COMMON = dict(
    config="path to a JSON config overriding the built-in defaults",
    out="directory for CSV reports and summary.json",
    seed="base seed for every pseudorandom stream",
    tol="tolerance used by the suite assertions",
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help=_COMMON["config"])
    sub.add_argument("--out", default="tfkit-report", help=_COMMON["out"])
    sub.add_argument("--seed", type=int, default=0, help=_COMMON["seed"])
    sub.add_argument("--tol", type=float, default=1e-8, help=_COMMON["tol"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfkit",
        description="finite time-frequency verification suites",
    )
    subs = parser.add_subparsers(dest="suite", required=True)

    sub = subs.add_parser("norms", help="modulation norm tables and dual-route checks")
    _add_common(sub)

    sub = subs.add_parser("kernel", help="kernel calculus checks")
    _add_common(sub)
    sub.add_argument(
        "--op",
        choices=["apply", "compose", "trace", "bnorm", "expand"],
        default=None,
        help="run a single check instead of the whole battery",
    )

    sub = subs.add_parser("frames", help="frame bounds, duals, partial sums")
    _add_common(sub)
    sub.add_argument("--group", default=None, help="group orders, e.g. 8 or 2x3")
    sub.add_argument("--window", default=None, help="window spec, e.g. gauss:1.0")
    sub.add_argument("--a", type=int, default=None, help="time step of the lattice")
    sub.add_argument("--b", type=int, default=None, help="frequency step of the lattice")

    sub = subs.add_parser("regnet", help="regularizing net convergence tables")
    _add_common(sub)
    sub.add_argument(
        "--construction",
        choices=["pc", "loc", "gabor"],
        default=None,
        help="which net construction to run",
    )
    sub.add_argument("--stages", type=int, default=None, help="number of stages")
    sub.add_argument(
        "--target",
        choices=["identity", "fourier", "random"],
        default=None,
        help="operator the sandwiched net should approximate",
    )

    sub = subs.add_parser("mpq", help="mixed-norm conditions vs empirical norms")
    _add_common(sub)
    sub.add_argument("--p", nargs="+", default=None, help="inner exponents, e.g. 1 2 inf")
    sub.add_argument("--q", nargs="+", default=None, help="outer exponents, e.g. 1 2 inf")

    sub = subs.add_parser("all", help="run every suite")
    _add_common(sub)

    return parser


def _apply_flag_overrides(args: argparse.Namespace, config: dict) -> None:
    """Copy every flag given on the command line into the chosen suite's
    config section; suite flags are named after their config keys."""
    section = config.get(args.suite, {})
    for key, value in vars(args).items():
        if value is not None and key in section:
            section[key] = value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = load_config(args.config) if args.config else {}
        config = merge_config(overrides)
        _apply_flag_overrides(args, config)
        if args.suite == "all":
            results = run_all(config, args.seed, args.tol)
        else:
            results = [run_suite(args.suite, config, args.seed, args.tol)]
        summary_path = write_results(args.out, results, args.seed, args.tol)
    except ConfigError as exc:
        print(f"tfkit: {exc}", file=sys.stderr)
        return 2

    failures = [line for r in results for line in r.failures]
    for result in results:
        tables = ", ".join(sorted(result.tables))
        n_fail = len(result.failures)
        print(f"suite {result.name}: {tables} ({n_fail} failing checks)")
    print(f"summary: {summary_path}")
    if failures:
        print("failing rows:")
        for line in failures:
            print(f"  {line}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
