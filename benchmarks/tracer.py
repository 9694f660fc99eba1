"""Span tracer for the benchmark's traced runs.

`Tracer.install()` wraps every public function of each tfkit layer
module at every place the function is bound: the defining module (so
calls inside the module are caught), each consuming module and the
`tfkit` namespace.  Each call records one span

    (name, layer, start, end, parent span index, op id, note)

in memory; `dump()` writes them out when the process ends.  A few
functions carry a note (an input digest, a table size, a row count) from
which `op_metrics` derives the per-layer counters.  Classes and their
methods are not wrapped: their time is self time of the calling span.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "groups",
    "signals",
    "transform",
    "kernels",
    "frames",
    "regnets",
    "modspaces",
    "suites",
    "cli",
)

NAME, LAYER, START, END, PARENT, OP, NOTE = range(7)

# Functions whose lru_cache hits make up groups.table_cache_hit_ratio.
CACHED_TABLES = ("character_table", "difference_table")
LIFT_TABLES = ("induced_m1_norm", "induced_minf_norm", "induced_m1_to_minf_norm")


def _digest(*arrays) -> str:
    import numpy as np  # here, so that importing this module leaves BLAS unloaded

    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _operator_key(op, g1, g2=None) -> str:
    g2 = g1 if g2 is None else g2
    return _digest(op.kernel, g1.values, g2.values)


def _phase_table_note(op, g1, g2) -> list:
    n1, n2 = op.domain.order, op.codomain.order
    return [_operator_key(op, g1, g2), n1 * n1 * n2 * n2 * 16]


def _frame_operator_note(system) -> str:
    lat = system.lattice
    return _digest(
        system.window.values,
        lat.time_step + lat.freq_step,
        (lat.weight.numerator, lat.weight.denominator),
    )


# name -> function of the call's bound arguments, run before the call.
_PRE_NOTES = {
    "operator_pairing_table": _phase_table_note,
    "mixed_norm_condition": lambda op, g1, g2, p, q: _operator_key(op, g1, g2),
    "frame_operator": _frame_operator_note,
    **{name: _operator_key for name in LIFT_TABLES},
}
# name -> function of the call's result.
_POST_NOTES = {"gabor_atoms": lambda atoms: int(atoms.shape[0])}


def public_functions(module) -> list:
    """(name, function) for each function (not class) the module exports:
    its __all__, or its public top-level definitions when it has none."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(module, name)
        if isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        out.append((name, obj))
    return out


class Tracer:
    """Records spans of tfkit's public functions, in memory."""

    def __init__(self):
        self.spans = []
        self.op = -1  # calls outside begin_op/end_op belong to no op
        self.cache = {}  # op id -> [hits, misses] of CACHED_TABLES
        self._local = threading.local()
        self._tables = []
        self._cache_at_start = None

    def install(self) -> int:
        """Wrap every layer function at every binding; returns the
        number of bindings replaced."""
        import tfkit  # noqa: F401
        import tfkit.cli  # noqa: F401  (imports tfkit.suites too)

        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"tfkit.{layer}"]
            for name, fn in public_functions(module):
                wrapped[id(fn)] = (fn, self._wrap(fn, layer, name))
                if name in CACHED_TABLES:
                    self._tables.append(fn)
        replaced = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "tfkit" or modname.startswith("tfkit.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    replaced += 1
        return replaced

    def _wrap(self, fn, layer: str, name: str):
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        pre = _PRE_NOTES.get(name)
        post = _POST_NOTES.get(name)
        signature = inspect.signature(fn) if pre is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            note = None
            if pre is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                note = pre(*bound.args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.op, note)
            if post is not None:
                spans[index] = spans[index][:NOTE] + (post(result),)
            return result

        return traced

    def _cache_counts(self) -> list:
        hits = misses = 0
        for fn in self._tables:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return [hits, misses]

    def begin_op(self, op: int) -> None:
        self.op = op
        self._cache_at_start = self._cache_counts()

    def end_op(self) -> None:
        now = self._cache_counts()
        self.cache[self.op] = [a - b for a, b in zip(now, self._cache_at_start)]
        self.op = -1

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "cache": self.cache}, fh)


def self_times(spans) -> list:
    """Per span: its duration minus the part of it covered by its child
    spans (the union of their intervals, clipped to the span)."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(spans, cache) -> dict:
    """Per-layer metrics of one op from its spans and its [hits, misses]
    of the cached group tables.  Unique ratios are distinct inputs per
    call within the op; a ratio with no calls reads 0."""
    selfs = self_times(spans)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    by_name = defaultdict(list)
    for s, own in zip(spans, selfs):
        m[f"{s[LAYER]}.calls"] += 1
        m[f"{s[LAYER]}.self_s"] += own
        by_name[s[NAME]].append(s)

    def count(*names):
        return sum(len(by_name[n]) for n in names)

    def unique(*names):
        notes = [s[NOTE] for n in names for s in by_name[n]]
        keys = {n[0] if isinstance(n, list) else n for n in notes}
        return _ratio(len(keys), len(notes))

    hits, misses = cache
    m["groups.table_cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["signals.convolve_calls"] = count("convolve")
    m["transform.table_calls"] = count("stft", "pairing_table")
    m["transform.conv_norm_calls"] = count("mod_norm_conv")
    m["kernels.phase_tables"] = count("operator_pairing_table")
    m["kernels.phase_table_mb"] = (
        sum(s[NOTE][1] for s in by_name["operator_pairing_table"]) / 1e6
    )
    m["kernels.phase_table_unique_ratio"] = unique("operator_pairing_table")
    m["regnets.lift_tables"] = count(*LIFT_TABLES)
    m["regnets.lift_unique_ratio"] = unique(*LIFT_TABLES)
    m["modspaces.conditions"] = count("mixed_norm_condition")
    m["frames.frame_operators"] = count("frame_operator")
    m["frames.frame_operator_unique_ratio"] = unique("frame_operator")
    m["frames.atom_rows"] = sum(s[NOTE] for s in by_name["gabor_atoms"])
    m["frames.partial_sums"] = count("partial_frame_sum")
    m["suites.write_s"] = sum(s[END] - s[START] for s in by_name["write_results"])
    return m


def split_ops(spans) -> dict:
    """Group a process's spans by op id, re-indexing parents per op (a
    parent in another op makes the span a root of its own op)."""
    out = defaultdict(list)
    where = {}
    for i, s in enumerate(spans):
        op_spans = out[s[OP]]
        where[i] = (s[OP], len(op_spans))
        parent_op, parent = where.get(s[PARENT], (None, -1))
        if parent_op != s[OP]:
            parent = -1
        op_spans.append(tuple(s[:PARENT]) + (parent,) + tuple(s[PARENT + 1 :]))
    return dict(out)
