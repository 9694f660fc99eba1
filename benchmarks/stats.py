"""Metric-name and tail-percentile helpers of the benchmark driver."""

from __future__ import annotations

import math
import re

# Metric names: letters, digits, '_', '.', '-'; a letter or digit first;
# at most 64 characters.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_name(name: str) -> str:
    """Return name if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def tail_percentile(values, beyond: int = 10) -> tuple:
    """(value, percentile, samples beyond it) for the highest whole
    percentile that leaves at least `beyond` samples above it.

    Percentiles are nearest-rank: percentile p is the sample at rank
    ceil(p * n / 100).  With `beyond` samples or fewer no percentile
    qualifies, and the maximum is returned as percentile 100 with 0
    samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no values")
    if n <= beyond:
        return xs[-1], 100, 0
    p = (100 * (n - beyond)) // n
    rank = max(1, math.ceil(p * n / 100))
    return xs[rank - 1], p, n - rank


def scaled_times(op_seconds, ref_seconds, nominal_s: float) -> list:
    """Op times on a machine whose reference job takes `nominal_s`.

    ref_seconds holds one reference time before the first op and one
    after each op.  Op i is scaled by nominal_s over the mean of the
    reference times on either side of it, which cancels a drift in the
    machine's speed that both share.
    """
    ops = list(op_seconds)
    refs = list(ref_seconds)
    if len(refs) != len(ops) + 1:
        raise ValueError(f"{len(ops)} ops need {len(ops) + 1} reference times, got {len(refs)}")
    return [
        t * nominal_s / ((refs[i] + refs[i + 1]) / 2.0) for i, t in enumerate(ops)
    ]
