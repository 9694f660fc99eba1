"""Verification suites behind the command line tool.

Each suite runs a battery of identity checks, collects per-row results
into CSV tables, and reports a JSON summary.  Everything is
deterministic: randomness comes only from named PCG64 streams seeded by
SeedSequence([seed, suite_ordinal]) or by literal seeds in the config,
floats are serialized with the '.17g' round-trip format, CSV rows are
RFC-4180 (CRLF) in UTF-8, the summary is written with sorted keys, and
no timestamps or environment details enter the reports -- so two runs
with equal seeds produce byte-identical output on the same NumPy/BLAS
build at the same BLAS thread count (a multi-threaded BLAS may round a
large matrix product differently; the benchmark pins one BLAS thread).

TFKIT_THREADS (an integer >= 1, default 1: serial) sets the worker
count used to run the sub-suites of `all` concurrently; reports are
written after all suites finish, in a fixed order, so the thread count
never changes the bytes.

Every config key is declared once, in SCHEMA, with its default and its
parser; the command line derives its suite flags from the same table.

Every numeric check goes through SuiteResult.grade, which passes it only
when value <= threshold, so a NaN fails; worst cases are reduced with
np.max, which keeps a NaN.  A suite that grades nothing fails, and a
window or frame error inside a suite is its failing row.
"""

from __future__ import annotations

import copy
import csv
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FrameError, LatticeError, WindowError
from .groups import Group, make_group, make_lattice
from .signals import (
    Signal,
    config_int,
    dirac,
    gauss,
    involute,
    l2_norm,
    pair_bilinear,
    random_signal,
    signal_from_spec,
    signal_spec,
    tensor,
)
from .transform import m1_norm, mod_norm, mod_norm_conv
from .kernels import (
    KernelOperator,
    bilinear_form,
    compose,
    fourier_operator,
    identity_operator,
    kernel_from_operator,
    kernel_signal,
    operator_m1_norm,
    operator_matrix,
    rank_one,
    tensor_expand,
)
from .frames import (
    GaborSystem,
    atomic_expand,
    canonical_dual,
    frame_bounds,
    frame_operator,
    gabor_synthesize,
    partial_frame_sum,
)
from .regnets import (
    RegNet,
    box_mask,
    check_regularizing,
    gabor_partial_net,
    induced_norms,
    localization_net,
    pc_net,
    sandwich,
    standard_probes,
)
from .modspaces import empirical_mpq_opnorms, mpq_bounds, stft_probes

__all__ = [
    "SUITE_ORDER",
    "Key",
    "SCHEMA",
    "OPTIONS",
    "DEFAULTS",
    "SuiteResult",
    "load_config",
    "merge_config",
    "parse_keys",
    "suite_rng",
    "run_suite",
    "run_all",
    "write_results",
]

SUITE_ORDER = ("norms", "kernel", "frames", "regnet", "mpq")
_SUITE_ORDINAL = {name: i for i, name in enumerate(SUITE_ORDER)}

_KERNEL_CHECKS = ("apply", "compose", "trace", "bnorm", "expand")
_CONSTRUCTIONS = ("pc", "loc", "gabor")
_TARGETS = ("identity", "fourier", "random")
_REGNET_ALL = (
    ("pc", "identity", "regnet_pc.csv"),
    ("loc", "fourier", "regnet_loc.csv"),
    ("gabor", "identity", "regnet_gabor.csv"),
)


@dataclass
class SuiteResult:
    """Tables, summary fragment, graded checks and failing-row descriptions
    of one suite.  Each graded check is a row (check, detail, value,
    threshold, status)."""

    name: str
    tables: dict = field(default_factory=dict)  # filename -> (header, rows)
    summary: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    def grade(self, check: str, detail: str, value, threshold) -> None:
        """Record one check; it passes only when value <= threshold, so a
        NaN value fails."""
        ok = bool(value <= threshold)
        self.checks.append((check, detail, value, threshold, "pass" if ok else "fail"))
        if not ok:
            self.failures.append(
                f"{self.name}: {check} [{detail}]: {value:.3e} > {threshold:.3e}"
            )


# ---------------------------------------------------------------------------
# configuration


def load_config(path) -> dict:
    """Read and parse a JSON config; ConfigError carries line and column
    on parse failure."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def merge_config(overrides: dict) -> dict:
    """Overlay a config file onto the defaults, rejecting unknown keys."""
    merged = copy.deepcopy(DEFAULTS)
    for section, value in overrides.items():
        if section not in merged:
            raise ConfigError(
                f"unknown config section {section!r}; expected one of {sorted(merged)}"
            )
        if not isinstance(value, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, item in value.items():
            if key not in merged[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section {section!r}; "
                    f"expected one of {sorted(merged[section])}"
                )
            merged[section][key] = item
    return merged


def _group_token(orders) -> str:
    return "x".join(str(n) for n in orders)


def parse_group_token(token) -> tuple:
    """Accept [2, 3] or the string form '2x3'; every order must be an
    integer >= 1."""
    parts = token.split("x") if isinstance(token, str) else token
    if not isinstance(parts, (list, tuple)) or not parts:
        raise ConfigError(f"bad group token {token!r}")
    try:
        return tuple(config_int(n, 1) for n in parts)
    except ConfigError as exc:
        raise ConfigError(f"bad group token {token!r}: {exc}") from exc


# the field that the argument of a string token fills, per kind
_TOKEN_FIELDS = {"dirac": "at", "gauss": "spread", "random": "seed"}


def parse_signal_token(token) -> dict:
    """'dirac' | 'dirac:1,2' | 'gauss' | 'gauss:0.5' | 'random:7' -> signal
    spec dict; a dict literal is checked and returned as it is.  Only
    the checks that need no group run here (signals.signal_spec)."""
    if not isinstance(token, str):
        signal_spec(token)
        return token
    kind, _, arg = token.partition(":")
    if kind not in _TOKEN_FIELDS:
        raise ConfigError(f"unknown signal kind {kind!r} in token {token!r}")
    spec = {"kind": kind}
    if arg:
        spec[_TOKEN_FIELDS[kind]] = arg.split(",") if kind == "dirac" else arg
    elif kind == "gauss":
        spec["spread"] = 1.0
    return signal_spec(spec)


def _real_window(token) -> dict:
    """A window token or literal whose values are real, as the mpq
    domination bound needs."""
    spec = parse_signal_token(token)
    checked = signal_spec(spec)
    if checked["kind"] == "random" or np.any(checked.get("im", 0.0)):
        raise ConfigError(f"must be real for the domination bound, got {token!r}")
    return spec


def parse_exponent(token) -> float:
    if isinstance(token, str) and token.lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(token)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad exponent {token!r}") from exc
    if isinstance(token, bool) or (value != math.inf and not value >= 1):
        raise ConfigError(f"exponent must be in [1, inf], got {token!r}")
    return value


def _exponent_token(p) -> str:
    if p == math.inf:
        return "inf"
    if float(p).is_integer():
        return str(int(p))
    return format(float(p), ".17g")


def _integer(minimum: int):
    return lambda value: config_int(value, minimum)


def _tolerance(value) -> float:
    try:
        tol = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"expected a number, got {value!r}") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"expected a finite number > 0, got {value!r}")
    return tol


def _list_of(parse_item, min_len: int = 0, max_len: float = math.inf):
    def parse(value):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"expected a list, got {value!r}")
        if not min_len <= len(value) <= max_len:
            size = min_len if min_len == max_len else f"at least {min_len}"
            raise ConfigError(f"expected a list of {size} entries, got {value!r}")
        return [parse_item(item) for item in value]

    return parse


def _identified_signal(token) -> tuple:
    """(token as written, signal spec): the norms table names each signal
    by the token of the config."""
    return str(token), parse_signal_token(token)


def _gap_order(token) -> tuple:
    return parse_group_token(token if isinstance(token, (list, tuple, str)) else [token])


@dataclass(frozen=True)
class Key:
    """One setting: its default and the parser that every value from a
    config file, a flag or the code goes through (ConfigError on a bad
    value).  A key with `help` also has a command-line flag of its name,
    taking `nargs` values and shown as `metavar`."""

    default: object
    parse: Callable
    help: str | None = None
    nargs: str | None = None
    metavar: str | None = None


def _choice(default, allowed: tuple, help: str) -> Key:
    """A key taking its default or one of `allowed`, with a flag shown as
    {a,b,...}."""

    def parse(value):
        if value != default and value not in allowed:
            raise ConfigError(f"expected one of {list(allowed)}, got {value!r}")
        return value

    return Key(default, parse, help, metavar="{" + ",".join(allowed) + "}")


# suite -> key -> Key.  Checks that tie keys together (the lattice steps
# must divide the group) stay in the runners.  Every sweep list takes at
# least one entry: an empty sweep would grade nothing.
SCHEMA = {
    "norms": {
        "groups": Key([[8], [12], [2, 3]], _list_of(parse_group_token, 1)),
        "windows": Key(["dirac", "gauss:1.0"], _list_of(_identified_signal, 1)),
        "signals": Key(
            ["dirac", "gauss:0.5", "random:1", "random:2"],
            _list_of(_identified_signal, 1),
        ),
    },
    "kernel": {
        "op": _choice(  # None runs every check
            None, _KERNEL_CHECKS, "run a single check instead of the whole battery"
        ),
        "pairs": Key(
            [[[8], [8]], [[5], [7]], [[2, 3], [4]]],
            _list_of(_list_of(parse_group_token, 2, 2), 1),
        ),
        # three composed operators need four groups
        "chain": Key([[8], [5], [7], [8]], _list_of(parse_group_token, 4)),
        "count": Key(12, _integer(1)),
    },
    "frames": {
        "group": Key([8], parse_group_token, help="group orders, e.g. 8 or 2x3"),
        "window": Key("gauss:1.0", parse_signal_token, help="window spec, e.g. gauss:1.0"),
        "a": Key(2, _integer(1), help="time step of the lattice"),
        "b": Key(2, _integer(1), help="frequency step of the lattice"),
        "probe_seed": Key(301, _integer(0)),
    },
    "regnet": {
        "group": Key([8], parse_group_token),
        "construction": _choice("pc", _CONSTRUCTIONS, "which net construction to run"),
        "stages": Key(4, _integer(1), help="number of stages"),
        "target": _choice(
            "identity", _TARGETS, "operator the sandwiched net should approximate"
        ),
        "probe_seed": Key(101, _integer(0)),
    },
    "mpq": {
        "group": Key([8], parse_group_token),
        "window": Key("gauss:1.0", _real_window),
        "p": Key(
            [1, 2, "inf"],
            _list_of(parse_exponent, 1),
            help="inner exponents, e.g. 1 2 inf",
            nargs="+",
        ),
        "q": Key(
            [1, 2, "inf"],
            _list_of(parse_exponent, 1),
            help="outer exponents, e.g. 1 2 inf",
            nargs="+",
        ),
        "probe_seed": Key(202, _integer(0)),
        "probe_count": Key(3, _integer(0)),
        "gap_orders": Key([4, 8, 16], _list_of(_gap_order, 1)),
    },
}

# The options every run takes besides a config: the seed of every
# pseudorandom stream and the tolerance of the checks.
OPTIONS = {
    "seed": Key(0, _integer(0), help="base seed for every pseudorandom stream"),
    "tol": Key(1e-8, _tolerance, help="tolerance used by the suite assertions"),
}

DEFAULTS = {
    suite: {name: key.default for name, key in keys.items()}
    for suite, keys in SCHEMA.items()
}


def parse_keys(keys: dict, raw: dict, prefix: str = "") -> dict:
    """Every key of `keys` parsed from `raw`, or its default when `raw`
    lacks it; the ConfigError of a bad value names `prefix` + the key."""
    parsed = {}
    for name, key in keys.items():
        try:
            parsed[name] = key.parse(raw.get(name, key.default))
        except ConfigError as exc:
            raise ConfigError(f"{prefix}{name}: {exc}") from exc
    return parsed


def suite_rng(seed: int, suite: str) -> np.random.Generator:
    """The suite's private random stream; independent of run order."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), _SUITE_ORDINAL[suite]]))
    )


def _normalized_gauss(group: Group) -> Signal:
    g = gauss(group, 1.0)
    return Signal(group, g.values / l2_norm(g))


def _random_kernel(rng: np.random.Generator, dom: Group, cod: Group) -> KernelOperator:
    k = rng.standard_normal((dom.order, cod.order)) + 1j * rng.standard_normal(
        (dom.order, cod.order)
    )
    return KernelOperator(dom, cod, k)


# ---------------------------------------------------------------------------
# norms suite


def run_norms(cfg: dict, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("norms")
    rows = []
    conv_defects = []
    energy_defects = []
    for orders in cfg["groups"]:
        grp = make_group(orders)
        gtok = _group_token(orders)
        for wtok, wspec in cfg["windows"]:
            window = signal_from_spec(grp, wspec)
            for stok, sspec in cfg["signals"]:
                sig = signal_from_spec(grp, sspec)
                s0_conv = mod_norm_conv(sig, window)
                m1 = mod_norm(sig, window, 1)
                m2 = mod_norm(sig, window, 2)
                m4 = mod_norm(sig, window, 4)
                minf = mod_norm(sig, window, math.inf)
                rows.append((gtok, wtok, stok, s0_conv, m1, m2, m4, minf))
                threshold = tol * max(1.0, m1)
                conv_defects.append(abs(s0_conv - m1_norm(sig, involute(window))))
                energy_defects.append(abs(m2 - l2_norm(sig) * l2_norm(window)))
                detail = f"group={gtok} window={wtok} signal={stok}"
                res.grade("conv_route", detail, conv_defects[-1], threshold)
                res.grade("energy", detail, energy_defects[-1], threshold)
    res.tables["norms.csv"] = (
        ("group", "window_id", "signal_id", "s0_conv", "m1", "m2", "m4", "minf"),
        rows,
    )
    res.summary = {
        "rows": len(rows),
        "max_conv_defect": np.max(conv_defects),
        "max_energy_defect": np.max(energy_defects),
    }
    return res


# ---------------------------------------------------------------------------
# kernel suite


def run_kernel(cfg: dict, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("kernel")
    which = cfg["op"]
    checks = _KERNEL_CHECKS if which is None else (which,)
    rng = suite_rng(seed, "kernel")
    count = cfg["count"]
    pairs = [(make_group(a), make_group(b)) for a, b in cfg["pairs"]]

    if "apply" in checks:
        for dom, cod in pairs:
            apply_defects = []
            round_defects = []
            for _ in range(count):
                op = _random_kernel(rng, dom, cod)
                probe = random_signal(dom, rng)
                dense = operator_matrix(op) @ probe.values
                apply_defects.append(np.max(np.abs(op.apply(probe).values - dense)))
                rebuilt = kernel_from_operator(op.apply, dom)
                round_defects.append(np.max(np.abs(rebuilt.kernel - op.kernel)))
            detail = f"{_group_token(dom.orders)}->{_group_token(cod.orders)} x{count}"
            res.grade("apply", detail, np.max(apply_defects), tol)
            res.grade("roundtrip", detail, np.max(round_defects), tol)

    if "compose" in checks:
        chain = [make_group(orders) for orders in cfg["chain"]]
        dense_defects = []
        assoc_defects = []
        ratios = []
        for _ in range(count):
            ops = [
                _random_kernel(rng, a, b) for a, b in zip(chain, chain[1:])
            ]
            ab = compose(ops[0], ops[1])
            dense = operator_matrix(ops[1]) @ operator_matrix(ops[0])
            dense_defects.append(np.max(np.abs(operator_matrix(ab) - dense)))
            left = compose(ab, ops[2])
            right = compose(ops[0], compose(ops[1], ops[2]))
            assoc_defects.append(np.max(np.abs(left.kernel - right.kernel)))
            w1 = _normalized_gauss(chain[0])
            w2 = _normalized_gauss(chain[1])
            w3 = _normalized_gauss(chain[2])
            num = operator_m1_norm(ab, w1, w3)
            den = operator_m1_norm(ops[0], w1, w2) * operator_m1_norm(ops[1], w2, w3)
            ratios.append(num / den)
        detail = "->".join(_group_token(g.orders) for g in chain[:3]) + f" x{count}"
        res.grade("compose_dense", detail, np.max(dense_defects), tol * 100)
        res.grade("compose_assoc", detail, np.max(assoc_defects), tol * 100)
        # no bound: the row records the ratio, and only a NaN fails it
        res.grade("compose_ratio", detail, np.max(ratios), math.inf)
        res.summary["submultiplicativity_ratio"] = np.max(ratios)

    if "trace" in checks:
        for orders in ((8,), (2, 3)):
            grp = make_group(orders)
            cyc_defects = []
            for _ in range(count):
                a = _random_kernel(rng, grp, grp)
                b = _random_kernel(rng, grp, grp)
                cyc_defects.append(abs(compose(a, b).trace() - compose(b, a).trace()))
            f1 = random_signal(grp, rng)
            f2 = random_signal(grp, rng)
            ro_defect = abs(rank_one(f1, f2).trace() - pair_bilinear(f1, f2))
            detail = f"{_group_token(orders)} x{count}"
            res.grade("trace_cyclic", detail, np.max(cyc_defects), tol * 100)
            res.grade("trace_rank_one", detail, ro_defect, tol)

    if "bnorm" in checks:
        grp = make_group((6,))
        w1 = _normalized_gauss(grp)
        w2 = _normalized_gauss(grp)
        two_path_defects = []
        for _ in range(count):
            op = _random_kernel(rng, grp, grp)
            direct = operator_m1_norm(op, w1, w2)
            lifted = m1_norm(kernel_signal(op), tensor(w1, w2))
            two_path_defects.append(abs(direct - lifted) / max(1.0, direct))
        res.grade("bnorm_two_paths", f"6->6 x{count}", np.max(two_path_defects), tol)
        f1 = random_signal(grp, rng)
        f2 = random_signal(grp, rng)
        product = m1_norm(f1, w1) * m1_norm(f2, w2)
        direct = operator_m1_norm(rank_one(f1, f2), w1, w2)
        res.grade(
            "bnorm_rank_one",
            "6->6",
            abs(direct - product) / max(1.0, product),
            tol,
        )

    if "expand" in checks:
        grp = make_group((6,))
        for kind in ("random", "rank_one"):
            if kind == "random":
                op = _random_kernel(rng, grp, grp)
            else:
                op = rank_one(random_signal(grp, rng), random_signal(grp, rng))
            exp = tensor_expand(op, 1e-12)
            res.grade(
                "expand_recon", f"6->6 {kind} rank={exp.rank}", exp.max_error, tol * 100
            )
            bound_gap = operator_m1_norm(op, gauss(grp, 1.0), gauss(grp, 1.0))
            res.grade(
                "expand_projective",
                f"6->6 {kind}",
                np.maximum(bound_gap - exp.projective_m1, 0.0) / max(1.0, bound_gap),
                tol,
            )

    res.tables["kernel.csv"] = (
        ("check", "detail", "value", "threshold", "status"),
        res.checks,
    )
    res.summary["rows"] = len(res.checks)
    return res


# ---------------------------------------------------------------------------
# frames suite


def run_frames(cfg: dict, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("frames")
    grp = make_group(cfg["group"])
    window = signal_from_spec(grp, cfg["window"])
    try:
        lattice = make_lattice(grp, cfg["a"], cfg["b"])
    except LatticeError as exc:
        raise ConfigError(f"bad frames lattice: {exc}") from exc
    system = GaborSystem(window, lattice)

    lower, upper = frame_bounds(system)
    full = frame_operator(system)
    smat = operator_matrix(full)
    s_minus_i = float(
        np.linalg.norm(smat - np.eye(grp.order), 2)
    )
    res.summary.update(
        {
            "group": _group_token(grp.orders),
            "lower_bound": lower,
            "upper_bound": upper,
            "s_minus_identity": s_minus_i,
            "lattice_size": lattice.size,
        }
    )
    try:
        dual = canonical_dual(system)
    except FrameError as exc:
        res.failures.append(f"frames: {exc}")
        return res
    probes = standard_probes(grp, cfg["probe_seed"])
    rep_defects = []
    for f in probes:
        rebuilt = gabor_synthesize(system, atomic_expand(f, system))
        defect = np.max(np.abs(rebuilt.values - f.values))
        rep_defects.append(defect / max(1.0, l2_norm(f)))
    detail = f"{_group_token(grp.orders)} a={cfg['a']} b={cfg['b']}"
    res.summary["frame_rep_defect"] = np.max(rep_defects)
    res.grade("dual_reconstruction", detail, np.max(rep_defects), tol * 100)

    probe0 = probes[-1]
    rows = []
    for k in range(1, lattice.size + 1):
        partial = partial_frame_sum(system, k)
        kernel_defect = float(np.max(np.abs(partial.kernel - full.kernel)))
        probe_defect = l2_norm(partial.apply(probe0) - full.apply(probe0))
        rows.append((k, kernel_defect, probe_defect))
    res.tables["frames.csv"] = (
        ("subset_size", "kernel_defect", "probe_defect"),
        rows,
    )
    res.grade("final_partial_sum", detail, rows[-1][1], tol)
    res.summary["final_partial_defect"] = rows[-1][1]
    res.summary["dual_norm"] = l2_norm(dual)
    return res


# ---------------------------------------------------------------------------
# regnet suite


def _spread_schedule(stages: int) -> list:
    return [2.0 * 0.5**j for j in range(stages)]


def _radius_schedule(grp: Group, stages: int) -> list:
    dmax = max(n // 2 for n in grp.orders)
    return [max(1, math.ceil(dmax * (j + 1) / stages)) for j in range(stages)]


def _onb_system(grp: Group) -> GaborSystem:
    """Critically sampled impulse system, index-weighted: orthonormal in
    l2(grp), so the frame bounds are exactly (1, 1) on any group."""
    lattice = make_lattice(grp, 1, grp.orders, weighting="index")
    impulse = dirac(grp)
    unit = Signal(grp, impulse.values / l2_norm(impulse))
    return GaborSystem(unit, lattice)


def _build_net(grp: Group, construction: str, stages: int) -> RegNet:
    """The net of one of the constructions pc, loc or gabor."""
    if construction == "pc":
        return pc_net(grp, _spread_schedule(stages))
    if construction == "loc":
        return localization_net(
            _normalized_gauss(grp),
            [box_mask(grp, r, r) for r in _radius_schedule(grp, stages)],
        )
    system = _onb_system(grp)
    size = system.lattice.size
    return gabor_partial_net(
        system, [max(1, math.ceil(size * (j + 1) / stages)) for j in range(stages)]
    )


def run_regnet(
    cfg: dict, seed: int, tol: float, filename: str = "convergence.csv"
) -> SuiteResult:
    res = SuiteResult("regnet")
    grp = make_group(cfg["group"])
    stages = cfg["stages"]
    construction = cfg["construction"]
    target_name = cfg["target"]

    if target_name == "identity":
        target = identity_operator(grp)
    elif target_name == "fourier":
        target = fourier_operator(grp)
    else:  # random
        target = _random_kernel(suite_rng(seed, "regnet"), grp, grp)

    cod = target.codomain
    net_dom = _build_net(grp, construction, stages)
    net_cod = net_dom if cod == grp else _build_net(cod, construction, stages)
    win_dom = _normalized_gauss(grp)
    win_cod = win_dom if cod == grp else _normalized_gauss(cod)

    probe_seed = cfg["probe_seed"]
    probes_dom = standard_probes(grp, probe_seed)
    probes_cod = standard_probes(cod, probe_seed + 50)

    staged = sandwich(target, net_dom, net_cod)
    rows = []
    for label, approx in zip(net_dom.labels, staged):
        m1_err = np.max(
            [m1_norm(approx.apply(f) - target.apply(f), win_cod) for f in probes_dom]
        )
        weak_err = np.max(
            [
                abs(bilinear_form(approx, f, h) - bilinear_form(target, f, h))
                for f in probes_dom
                for h in probes_cod
            ]
        )
        # the windows are real (_normalized_gauss), so the table against
        # conj win_dom is the one operator_m1_norm would build: b is b_norm
        m1_op, minf_op, _, b = induced_norms(approx, win_dom, win_cod)
        rows.append((label, m1_err, weak_err, b, m1_op, minf_op))
    res.tables[filename] = (
        ("stage", "m1_err", "weak_err", "b_norm", "m1_opnorm", "minf_opnorm"),
        rows,
    )

    detail = f"{construction}/{target_name}"
    res.grade("final_m1", detail, rows[-1][1], tol)
    res.grade("final_weak", detail, rows[-1][2], tol)
    largest = np.max(np.abs([row[1:] for row in rows]))
    res.grade("table_finite", detail, largest, sys.float_info.max)

    report = check_regularizing(net_dom, probes_dom, win_dom, tol)
    res.grade("certificate_m1", detail, np.max(report.final_m1_errors), report.tol)
    res.grade("certificate_weak", detail, np.max(report.weak_errors), report.tol)
    sup = np.max([report.sup_m1_opnorm, report.sup_minf_opnorm])
    res.grade("certificate_bounded", detail, sup, sys.float_info.max)
    res.summary = {
        "construction": construction,
        "target": target_name,
        "final_m1_err": rows[-1][1],
        "final_weak_err": rows[-1][2],
        "sup_m1_opnorm": report.sup_m1_opnorm,
        "sup_minf_opnorm": report.sup_minf_opnorm,
        "certificate": bool(report.passed),
    }
    return res


def _run_regnet_all(cfg: dict, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("regnet")
    for construction, target, filename in _REGNET_ALL:
        sub_cfg = dict(cfg, construction=construction, target=target)
        sub = run_regnet(sub_cfg, seed, tol, filename=filename)
        res.tables.update(sub.tables)
        res.failures.extend(sub.failures)
        res.checks.extend(sub.checks)
        res.summary[construction] = sub.summary
    return res


# ---------------------------------------------------------------------------
# mpq suite


def run_mpq(cfg: dict, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("mpq")
    grp = make_group(cfg["group"])
    g1 = signal_from_spec(grp, cfg["window"])
    energy = l2_norm(g1)
    if math.isinf(energy):
        raise WindowError("window energy overflows")
    g1 = Signal(grp, g1.values / energy)
    dual = grp.dual()
    g2_dual = _normalized_gauss(dual)
    rng = suite_rng(seed, "mpq")
    operators = (
        ("rank_one", rank_one(random_signal(grp, rng), random_signal(grp, rng)), g1),
        ("identity", identity_operator(grp), g1),
        ("fourier", fourier_operator(grp), g2_dual),
        ("random", _random_kernel(rng, grp, grp), g1),
    )
    probe_seed = cfg["probe_seed"]
    probes = standard_probes(grp, probe_seed) + stft_probes(
        grp, g1, probe_seed + 1, count=cfg["probe_count"]
    )
    ps = cfg["p"]
    qs = cfg["q"]
    rows = []
    for op_id, op, g2 in operators:
        bounds = mpq_bounds(op, g1, g2, ps, qs)
        observed = empirical_mpq_opnorms(op, g1, g2, ps, qs, probes)
        for i, p in enumerate(ps):
            for j, q in enumerate(qs):
                condition = float(bounds[i, j])
                empirical = float(observed[i, j])
                ratio = empirical / condition
                ptok, qtok = _exponent_token(p), _exponent_token(q)
                rows.append((op_id, ptok, qtok, condition, empirical, ratio))
                res.grade("ratio", f"{op_id} p={ptok} q={qtok}", ratio, 1.0 + 1e-9)
    res.tables["mpq.csv"] = (
        ("operator_id", "p", "q", "condition", "empirical", "ratio"),
        rows,
    )
    gap = {}
    for orders in cfg["gap_orders"]:
        gn = make_group(orders)
        wn = _normalized_gauss(gn)
        gap_probes = standard_probes(gn, probe_seed) + stft_probes(
            gn, wn, probe_seed + 1, count=cfg["probe_count"]
        )
        cond = float(mpq_bounds(identity_operator(gn), wn, wn, [2], [2])[0, 0])
        emp = empirical_mpq_opnorms(identity_operator(gn), wn, wn, [2], [2], gap_probes)
        emp = float(emp[0, 0])
        token = _group_token(gn.orders)
        gap[token] = {
            "condition": cond,
            "empirical": emp,
            "gap": cond / emp,
        }
        res.grade("identity_gap", f"order={token}", emp / cond, 1.0 + 1e-9)
    res.summary = {
        "rows": len(rows),
        "worst_ratio": np.max([row[-1] for row in rows]),
        "identity_gap": gap,
    }
    return res


# ---------------------------------------------------------------------------
# dispatch and reporting


_RUNNERS = {
    "norms": run_norms,
    "kernel": run_kernel,
    "frames": run_frames,
    "regnet": run_regnet,
    "mpq": run_mpq,
}


def _parse_section(config: dict, name: str) -> dict:
    return parse_keys(SCHEMA[name], config[name], prefix=f"{name}.")


def _graded(name: str, runner: Callable, section: dict, seed: int, tol: float) -> SuiteResult:
    """Run one suite.  A window or frame error inside it is its failing
    row, and a suite that graded no check and failed no other way fails:
    it has shown nothing.  Overflow and invalid-value warnings are
    silenced: every number ends in a graded row, where a NaN fails."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            res = runner(section, seed, tol)
    except (WindowError, FrameError) as exc:
        res = SuiteResult(name, failures=[f"{name}: {exc}"])
    if not res.checks and not res.failures:
        res.failures.append(f"{res.name}: no check was graded")
    return res


def run_suite(name: str, config: dict, seed: int, tol: float) -> SuiteResult:
    """Parse the suite's section of a merged config, then run the suite."""
    if name not in _RUNNERS:
        raise ConfigError(f"unknown suite {name!r}; expected one of {list(SUITE_ORDER)}")
    return _graded(name, _RUNNERS[name], _parse_section(config, name), seed, tol)


def run_all(config: dict, seed: int, tol: float) -> list:
    """Run every suite (regnet in its three standard configurations),
    after every section of the config has parsed.

    TFKIT_THREADS >= 1 (default 1) sets the worker count; results come
    back in the fixed suite order either way.
    """
    raw = os.environ.get("TFKIT_THREADS", "1").strip() or "1"
    try:
        threads = config_int(raw, 1)
    except ConfigError as exc:
        raise ConfigError(f"TFKIT_THREADS: {exc}") from exc
    sections = {name: _parse_section(config, name) for name in SUITE_ORDER}

    jobs = []
    for name in SUITE_ORDER:
        runner = _run_regnet_all if name == "regnet" else _RUNNERS[name]
        jobs.append(functools.partial(_graded, name, runner, sections[name], seed, tol))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(job) for job in jobs]
            return [f.result() for f in futures]
    return [job() for job in jobs]


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        # strict JSON has no NaN or infinity: write the CSV's tokens
        return float(value) if math.isfinite(value) else _format_cell(value)
    return value


def write_results(out_dir, results, seed: int, tol: float) -> Path:
    """Write every table as CSV plus one summary.json; returns the
    summary path.  Output is a pure function of (config, seed, tol)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for result in results:
        for filename, (header, rows) in result.tables.items():
            with open(out / filename, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_format_cell(v) for v in row])
    payload = {
        "seed": int(seed),
        "tol": float(tol),
        "suites": {r.name: _jsonable(r.summary) for r in results},
        "failures": [f for r in results for f in r.failures],
    }
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    return summary_path
