"""Verification suites behind the command line tool.

Each suite runs a battery of identity checks, collects per-row results
into CSV tables, and reports a JSON summary.  Everything is
deterministic: randomness comes only from named PCG64 streams seeded by
SeedSequence([seed, suite_ordinal]) or by literal seeds in the config,
floats are serialized with the '.17g' round-trip format, CSV rows are
RFC-4180 (CRLF) in UTF-8, the summary is written with sorted keys, and
no timestamps or environment details enter the reports -- so two runs
with equal seeds produce byte-identical output.

TFKIT_THREADS (an integer >= 1, default 1: serial) sets the worker
count used to run the sub-suites of `all` concurrently; reports are
written after all suites finish, in a fixed order, so the thread count
never changes the bytes.

Every config key is declared once, in SCHEMA, with its default and its
parser; the command line derives its suite flags from the same table.
"""

from __future__ import annotations

import copy
import csv
import functools
import json
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FrameError, LatticeError
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
    """Tables, summary fragment, and failing-row descriptions of one suite."""

    name: str
    tables: dict = field(default_factory=dict)  # filename -> (header, rows)
    summary: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


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


def parse_signal_token(token) -> dict:
    """'dirac' | 'dirac:3' | 'gauss:0.5' | 'random:7' -> signal spec dict."""
    if isinstance(token, dict):
        return token
    if not isinstance(token, str):
        raise ConfigError(f"bad signal token {token!r}")
    kind, _, arg = token.partition(":")
    if kind == "random" and not arg:
        raise ConfigError("random signal token needs a seed, e.g. 'random:7'")
    try:
        if kind == "dirac":
            if not arg:
                return {"kind": "dirac"}
            return {"kind": "dirac", "at": [int(part) for part in arg.split(",")]}
        if kind == "gauss":
            return {"kind": "gauss", "spread": float(arg) if arg else 1.0}
        if kind == "random":
            return {"kind": "random", "seed": config_int(arg, 0)}
    except ValueError as exc:
        raise ConfigError(f"bad {kind} argument {arg!r} in token {token!r}") from exc
    raise ConfigError(f"unknown signal kind {kind!r} in token {token!r}")


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
# must divide the group, the mpq window must be real) stay in the runners.
SCHEMA = {
    "norms": {
        "groups": Key([[8], [12], [2, 3]], _list_of(parse_group_token)),
        "windows": Key(["dirac", "gauss:1.0"], _list_of(_identified_signal)),
        "signals": Key(
            ["dirac", "gauss:0.5", "random:1", "random:2"], _list_of(_identified_signal)
        ),
    },
    "kernel": {
        "op": _choice(  # None runs every check
            None, _KERNEL_CHECKS, "run a single check instead of the whole battery"
        ),
        "pairs": Key(
            [[[8], [8]], [[5], [7]], [[2, 3], [4]]],
            _list_of(_list_of(parse_group_token, 2, 2)),
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
        "window": Key("gauss:1.0", parse_signal_token),
        "p": Key(
            [1, 2, "inf"],
            _list_of(parse_exponent),
            help="inner exponents, e.g. 1 2 inf",
            nargs="+",
        ),
        "q": Key(
            [1, 2, "inf"],
            _list_of(parse_exponent),
            help="outer exponents, e.g. 1 2 inf",
            nargs="+",
        ),
        "probe_seed": Key(202, _integer(0)),
        "probe_count": Key(3, _integer(0)),
        "gap_orders": Key([4, 8, 16], _list_of(_gap_order)),
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
    max_conv_defect = 0.0
    max_energy_defect = 0.0
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
                scale = max(1.0, m1)
                conv_defect = abs(s0_conv - m1_norm(sig, involute(window)))
                energy_defect = abs(m2 - l2_norm(sig) * l2_norm(window))
                max_conv_defect = max(max_conv_defect, conv_defect)
                max_energy_defect = max(max_energy_defect, energy_defect)
                if conv_defect > tol * scale:
                    res.failures.append(
                        f"norms: group={gtok} window={wtok} signal={stok}: "
                        f"convolution route differs from the reflected-window "
                        f"route by {conv_defect:.3e}"
                    )
                if energy_defect > tol * scale:
                    res.failures.append(
                        f"norms: group={gtok} window={wtok} signal={stok}: "
                        f"m2 deviates from ||s|| ||g|| by {energy_defect:.3e}"
                    )
    res.tables["norms.csv"] = (
        ("group", "window_id", "signal_id", "s0_conv", "m1", "m2", "m4", "minf"),
        rows,
    )
    res.summary = {
        "rows": len(rows),
        "max_conv_defect": max_conv_defect,
        "max_energy_defect": max_energy_defect,
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
    rows = []

    def record(check, detail, value, threshold):
        ok = value <= threshold
        rows.append((check, detail, value, threshold, "pass" if ok else "fail"))
        if not ok:
            res.failures.append(
                f"kernel: {check} [{detail}]: {value:.3e} > {threshold:.3e}"
            )

    pairs = [(make_group(a), make_group(b)) for a, b in cfg["pairs"]]

    if "apply" in checks:
        for dom, cod in pairs:
            worst_apply = 0.0
            worst_round = 0.0
            for _ in range(count):
                op = _random_kernel(rng, dom, cod)
                probe = random_signal(dom, rng)
                dense = operator_matrix(op) @ probe.values
                worst_apply = max(
                    worst_apply, float(np.max(np.abs(op.apply(probe).values - dense)))
                )
                rebuilt = kernel_from_operator(op.apply, dom)
                worst_round = max(
                    worst_round, float(np.max(np.abs(rebuilt.kernel - op.kernel)))
                )
            detail = f"{_group_token(dom.orders)}->{_group_token(cod.orders)} x{count}"
            record("apply", detail, worst_apply, tol)
            record("roundtrip", detail, worst_round, tol)

    if "compose" in checks:
        chain = [make_group(orders) for orders in cfg["chain"]]
        worst_dense = 0.0
        worst_assoc = 0.0
        worst_ratio = 0.0
        for _ in range(count):
            ops = [
                _random_kernel(rng, a, b) for a, b in zip(chain, chain[1:])
            ]
            ab = compose(ops[0], ops[1])
            dense = operator_matrix(ops[1]) @ operator_matrix(ops[0])
            worst_dense = max(
                worst_dense, float(np.max(np.abs(operator_matrix(ab) - dense)))
            )
            left = compose(ab, ops[2])
            right = compose(ops[0], compose(ops[1], ops[2]))
            worst_assoc = max(
                worst_assoc, float(np.max(np.abs(left.kernel - right.kernel)))
            )
            w1 = _normalized_gauss(chain[0])
            w2 = _normalized_gauss(chain[1])
            w3 = _normalized_gauss(chain[2])
            num = operator_m1_norm(ab, w1, w3)
            den = operator_m1_norm(ops[0], w1, w2) * operator_m1_norm(ops[1], w2, w3)
            worst_ratio = max(worst_ratio, num / den)
        detail = "->".join(_group_token(g.orders) for g in chain[:3]) + f" x{count}"
        record("compose_dense", detail, worst_dense, tol * 100)
        record("compose_assoc", detail, worst_assoc, tol * 100)
        rows.append(("compose_ratio", detail, worst_ratio, math.inf, "pass"))
        res.summary["submultiplicativity_ratio"] = worst_ratio

    if "trace" in checks:
        for orders in ((8,), (2, 3)):
            grp = make_group(orders)
            worst_cyc = 0.0
            for _ in range(count):
                a = _random_kernel(rng, grp, grp)
                b = _random_kernel(rng, grp, grp)
                worst_cyc = max(
                    worst_cyc,
                    abs(compose(a, b).trace() - compose(b, a).trace()),
                )
            f1 = random_signal(grp, rng)
            f2 = random_signal(grp, rng)
            ro_defect = abs(rank_one(f1, f2).trace() - pair_bilinear(f1, f2))
            detail = f"{_group_token(orders)} x{count}"
            record("trace_cyclic", detail, worst_cyc, tol * 100)
            record("trace_rank_one", detail, ro_defect, tol)

    if "bnorm" in checks:
        grp = make_group((6,))
        w1 = _normalized_gauss(grp)
        w2 = _normalized_gauss(grp)
        worst_two = 0.0
        for _ in range(count):
            op = _random_kernel(rng, grp, grp)
            direct = operator_m1_norm(op, w1, w2)
            lifted = m1_norm(kernel_signal(op), tensor(w1, w2))
            worst_two = max(worst_two, abs(direct - lifted) / max(1.0, direct))
        record("bnorm_two_paths", f"6->6 x{count}", worst_two, tol)
        f1 = random_signal(grp, rng)
        f2 = random_signal(grp, rng)
        product = m1_norm(f1, w1) * m1_norm(f2, w2)
        direct = operator_m1_norm(rank_one(f1, f2), w1, w2)
        record(
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
            total = np.zeros_like(op.kernel)
            for left, right in zip(exp.left, exp.right):
                total = total + rank_one(left, right).kernel
            recon = float(np.max(np.abs(total - op.kernel)))
            record("expand_recon", f"6->6 {kind} rank={exp.rank}", recon, tol * 100)
            bound_gap = operator_m1_norm(op, gauss(grp, 1.0), gauss(grp, 1.0))
            record(
                "expand_projective",
                f"6->6 {kind}",
                max(0.0, bound_gap - exp.projective_m1) / max(1.0, bound_gap),
                tol,
            )

    res.tables["kernel.csv"] = (
        ("check", "detail", "value", "threshold", "status"),
        rows,
    )
    res.summary["rows"] = len(rows)
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
        res.tables["frames.csv"] = (
            ("subset_size", "kernel_defect", "probe_defect"),
            [],
        )
        return res
    probes = standard_probes(grp, cfg["probe_seed"])
    worst_rep = 0.0
    for f in probes:
        coeffs = atomic_expand(f, system)
        rebuilt = gabor_synthesize(system, coeffs)
        worst_rep = max(
            worst_rep,
            float(np.max(np.abs(rebuilt.values - f.values))) / max(1.0, l2_norm(f)),
        )
    res.summary["frame_rep_defect"] = worst_rep
    if worst_rep > tol * 100:
        res.failures.append(
            f"frames: canonical-dual reconstruction off by {worst_rep:.3e}"
        )

    points = list(lattice.points())
    probe0 = probes[-1]
    rows = []
    for k in range(1, len(points) + 1):
        partial = partial_frame_sum(system, points[:k])
        kernel_defect = float(np.max(np.abs(partial.kernel - full.kernel)))
        probe_defect = l2_norm(partial.apply(probe0) - full.apply(probe0))
        rows.append((k, kernel_defect, probe_defect))
    res.tables["frames.csv"] = (
        ("subset_size", "kernel_defect", "probe_defect"),
        rows,
    )
    final_defect = rows[-1][1]
    if final_defect > tol:
        res.failures.append(
            f"frames: full partial sum misses the frame operator by {final_defect:.3e}"
        )
    res.summary["final_partial_defect"] = final_defect
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
    points = list(system.lattice.points())
    sizes = [
        max(1, math.ceil(len(points) * (j + 1) / stages)) for j in range(stages)
    ]
    return gabor_partial_net(system, [points[:k] for k in sizes])


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
        m1_err = max(
            m1_norm(approx.apply(f) - target.apply(f), win_cod) for f in probes_dom
        )
        weak_err = max(
            abs(bilinear_form(approx, f, h) - bilinear_form(target, f, h))
            for f in probes_dom
            for h in probes_cod
        )
        b = operator_m1_norm(approx, win_dom, win_cod)
        m1_op, minf_op, _ = induced_norms(approx, win_dom, win_cod)
        rows.append((label, m1_err, weak_err, b, m1_op, minf_op))
    res.tables[filename] = (
        ("stage", "m1_err", "weak_err", "b_norm", "m1_opnorm", "minf_opnorm"),
        rows,
    )

    final_m1 = rows[-1][1]
    final_weak = rows[-1][2]
    if final_m1 > tol:
        res.failures.append(
            f"regnet[{construction}/{target_name}]: final m1 error {final_m1:.3e}"
        )
    if final_weak > tol:
        res.failures.append(
            f"regnet[{construction}/{target_name}]: final weak error {final_weak:.3e}"
        )
    if not all(math.isfinite(v) for row in rows for v in row[1:]):
        res.failures.append(
            f"regnet[{construction}/{target_name}]: non-finite entry in the table"
        )

    report = check_regularizing(net_dom, probes_dom, win_dom, tol)
    if not report.passed:
        res.failures.append(
            f"regnet[{construction}/{target_name}]: net fails the regularizing "
            f"certificate (final {max(report.final_m1_errors):.3e}, "
            f"weak {max(report.weak_errors):.3e})"
        )
    res.summary = {
        "construction": construction,
        "target": target_name,
        "final_m1_err": final_m1,
        "final_weak_err": final_weak,
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
        res.summary[construction] = sub.summary
    return res


# ---------------------------------------------------------------------------
# mpq suite


def run_mpq(cfg: dict, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("mpq")
    grp = make_group(cfg["group"])
    g1 = signal_from_spec(grp, cfg["window"])
    g1 = Signal(grp, g1.values / l2_norm(g1))
    if np.max(np.abs(g1.values.imag)) > 0:
        raise ConfigError("mpq window must be real for the domination bound")
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
    worst_ratio = 0.0
    for op_id, op, g2 in operators:
        bounds = mpq_bounds(op, g1, g2, ps, qs)
        observed = empirical_mpq_opnorms(op, g1, g2, ps, qs, probes)
        for i, p in enumerate(ps):
            for j, q in enumerate(qs):
                condition = float(bounds[i, j])
                empirical = float(observed[i, j])
                ratio = empirical / condition
                worst_ratio = max(worst_ratio, ratio)
                rows.append(
                    (
                        op_id,
                        _exponent_token(p),
                        _exponent_token(q),
                        condition,
                        empirical,
                        ratio,
                    )
                )
                if ratio > 1.0 + 1e-9:
                    res.failures.append(
                        f"mpq: {op_id} p={_exponent_token(p)} q={_exponent_token(q)}: "
                        f"empirical {empirical:.6g} exceeds bound {condition:.6g}"
                    )
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
        gap[_group_token(gn.orders)] = {
            "condition": cond,
            "empirical": emp,
            "gap": cond / emp,
        }
    res.summary = {
        "rows": len(rows),
        "worst_ratio": worst_ratio,
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


def run_suite(name: str, config: dict, seed: int, tol: float) -> SuiteResult:
    """Parse the suite's section of a merged config, then run the suite."""
    if name not in _RUNNERS:
        raise ConfigError(f"unknown suite {name!r}; expected one of {list(SUITE_ORDER)}")
    return _RUNNERS[name](_parse_section(config, name), seed, tol)


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
        jobs.append(functools.partial(runner, sections[name], seed, tol))
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
        return float(value)
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
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summary_path
