"""Command line entry point.

    tfkit <suite> [--config file.json] [--out dir] [--seed n] [--tol x]

Suites: norms, kernel, frames, regnet, mpq, all.  Each run writes CSV
tables plus summary.json into the output directory and prints one line
per suite.  Exit status: 0 all checks passed, 1 at least one check
failed (failing rows are listed; a check passes only when its value is
at most its threshold, so a NaN fails, and a window or frame error
inside a suite is a failing row), 2 a config value, flag or
TFKIT_THREADS was malformed (one `tfkit: ...` line on stderr).  The
suite flags and their checks come from `suites.SCHEMA`.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .suites import (
    OPTIONS,
    SCHEMA,
    SUITE_ORDER,
    load_config,
    merge_config,
    parse_keys,
    run_all,
    run_suite,
    write_results,
)

_SUITE_HELP = {
    "norms": "modulation norm tables and dual-route checks",
    "kernel": "kernel calculus checks",
    "frames": "frame bounds, duals, partial sums",
    "regnet": "regularizing net convergence tables",
    "mpq": "mixed-norm conditions vs empirical norms",
    "all": "run every suite",
}


def _add_flags(sub: argparse.ArgumentParser, keys: dict) -> None:
    """One flag per key that has a help text.  Flags take raw strings:
    the key's parser checks them together with the config values."""
    for name, key in keys.items():
        if key.help is not None:
            sub.add_argument(
                f"--{name}", nargs=key.nargs, metavar=key.metavar, help=key.help
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfkit",
        description="finite time-frequency verification suites",
    )
    subs = parser.add_subparsers(dest="suite", required=True)
    for suite in (*SUITE_ORDER, "all"):
        sub = subs.add_parser(suite, help=_SUITE_HELP[suite])
        sub.add_argument(
            "--config",
            help="path to a JSON config overriding the built-in defaults",
        )
        sub.add_argument(
            "--out",
            default="tfkit-report",
            help="directory for CSV reports and summary.json",
        )
        _add_flags(sub, OPTIONS)
        _add_flags(sub, SCHEMA.get(suite, {}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # flags not given stay None; the others are named after their keys
    flags = {name: value for name, value in vars(args).items() if value is not None}
    try:
        options = parse_keys(OPTIONS, flags, prefix="--")
        seed, tol = options["seed"], options["tol"]
        config = merge_config(load_config(args.config) if args.config else {})
        if args.suite == "all":
            results = run_all(config, seed, tol)
        else:
            section = config[args.suite]
            section.update({k: v for k, v in flags.items() if k in section})
            results = [run_suite(args.suite, config, seed, tol)]
        summary_path = write_results(args.out, results, seed, tol)
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
