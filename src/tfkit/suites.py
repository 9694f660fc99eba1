"""Verification suites behind the command line tool.

Each suite runs a battery of identity checks, collects per-row results
into CSV tables, and reports a JSON summary.  Everything is
deterministic: randomness comes only from named PCG64 streams seeded by
SeedSequence([seed, suite_ordinal]) or by literal seeds in the config,
floats are serialized with the '.17g' round-trip format, CSV rows are
RFC-4180 (CRLF) in UTF-8, the summary is written with sorted keys, and
no timestamps or environment details enter the reports -- so two runs
with equal seeds produce byte-identical output on the same NumPy/BLAS
build, at one BLAS thread or two (run_frames' sweep takes no matrix product).

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
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FrameError, LatticeError, WindowError
from .groups import Group, make_group, make_lattice
from .signals import (
    Signal,
    dirac,
    gauss,
    involute,
    l2_norm,
    pair_bilinear,
    random_signal,
    tensor,
)
from .transform import (
    m1_norm,
    mod_norm_conv,
    mod_norms,
    phase_atoms,
    require_exponent,
    require_window,
)
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
    gabor_synthesize,
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
    on a syntax error, and the reason on any other failure to read it
    (not UTF-8, an integer past Python's digit limit, deep nesting)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
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


def config_int(value, minimum=None) -> int:
    """A config value as an int: an integer, an integral float or a
    numeric string, at least `minimum` when given.  Booleans and
    fractional numbers are refused rather than truncated (ConfigError)."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        number = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"expected an integer, got {value!r}") from exc
    if minimum is not None and number < minimum:
        raise ConfigError(f"expected an integer >= {minimum}, got {value!r}")
    return number


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
    """A signal token or literal as a new spec dict.

    Tokens are 'kind' or 'kind:arg', the argument never empty:
      'dirac'        the impulse at 0
      'dirac:1,2'    the impulse at (1, 2), one int per factor
      'gauss'        spread 1.0
      'gauss:0.5'    spread 0.5 (> 0)
      'random:7'     seed 7 (>= 0); 'random' alone has no seed
    Literals are JSON objects:
      {"kind": "dirac", "at": [..]}      `at` optional, as above
      {"kind": "gauss", "spread": s}
      {"kind": "random", "seed": n}
      {"kind": "values", "re": [..], "im": [..]}  flat lists of one
          number per element, `im` zero when absent

    In the spec `at` is a list of ints (absent for the impulse at 0),
    `spread` a float, `seed` an int, `re` and `im` equal-length flat
    float arrays.  ConfigError on a malformed field; the fit to a group
    is _parse_section's."""
    spec = token
    if isinstance(token, str):
        kind, colon, arg = token.partition(":")
        if kind not in _TOKEN_FIELDS:
            raise ConfigError(f"unknown signal kind {kind!r} in token {token!r}")
        if colon and not arg:
            raise ConfigError(f"empty argument in signal token {token!r}")
        spec = {"kind": kind}
        if arg:
            spec[_TOKEN_FIELDS[kind]] = arg.split(",") if kind == "dirac" else arg
        elif kind == "gauss":
            spec["spread"] = 1.0
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"signal literal must be an object with a 'kind', got {spec!r}")
    kind = spec["kind"]
    if kind == "dirac":
        at = spec.get("at")
        if at is None:
            return {"kind": "dirac"}
        if not isinstance(at, (list, tuple)):
            raise ConfigError(f"bad dirac position {at!r}: expected a list of integers")
        try:
            return {"kind": "dirac", "at": [config_int(c) for c in at]}
        except ConfigError as exc:
            raise ConfigError(f"bad dirac position {at!r}: {exc}") from exc
    if kind == "gauss":
        if "spread" not in spec:
            raise ConfigError("gauss literal needs a 'spread'")
        try:
            spread = float(spec["spread"])
            gauss(make_group((1,)), spread)  # gauss's own check of the spread
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad gauss spread {spec['spread']!r}: {exc}") from exc
        return {"kind": "gauss", "spread": spread}
    if kind == "random":
        if "seed" not in spec:
            raise ConfigError("random literal needs a 'seed'")
        try:
            return {"kind": "random", "seed": config_int(spec["seed"], 0)}
        except ConfigError as exc:
            raise ConfigError(f"bad random seed: {exc}") from exc
    if kind == "values":
        if "re" not in spec:
            raise ConfigError("values literal needs 're'")
        try:
            re = np.asarray(spec["re"], dtype=float)
            im = np.asarray(spec.get("im", np.zeros_like(re)), dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad values literal: {exc}") from exc
        if re.ndim != 1 or im.ndim != 1:
            raise ConfigError("'re' and 'im' must be flat lists of numbers")
        if re.shape != im.shape:
            raise ConfigError("'re' and 'im' must have equal length")
        return {"kind": "values", "re": re, "im": im}
    raise ConfigError(f"unknown signal kind {kind!r}")


def signal_from_spec(group: Group, spec: dict) -> Signal:
    """The signal a parsed spec names on a group; ValueError when it does
    not fit (a dirac position of the wrong length, a values literal
    without one entry per element)."""
    kind = spec["kind"]
    if kind == "dirac":
        return dirac(group, spec.get("at"))
    if kind == "gauss":
        return gauss(group, spec["spread"])
    if kind == "random":
        return random_signal(group, spec["seed"])
    return Signal(group, spec["re"] + 1j * spec["im"])


def _real_window(token) -> dict:
    """A window token or literal whose values are real, as the mpq
    domination bound needs."""
    spec = parse_signal_token(token)
    if spec["kind"] == "random" or np.any(spec.get("im", 0.0)):
        raise ConfigError(f"must be real for the domination bound, got {token!r}")
    return spec


def parse_exponent(token) -> float:
    """An exponent in [1, inf]: a number or a numeric string such as
    '1.5' or 'inf' (float's spelling); require_exponent refuses a boolean."""
    try:
        value = float(token) if isinstance(token, str) else token
        require_exponent(value)
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad exponent {token!r}: {exc}") from exc


def _exponent_token(p) -> str:
    if p == math.inf:
        return "inf"
    if float(p).is_integer():
        return str(int(p))
    return format(float(p), ".17g")


def _integer(minimum: int):
    return lambda value: config_int(value, minimum)


def _stages(value) -> int:
    """A stage count >= 1 whose pc net's last spread, 2 * 0.5**(stages - 1),
    passes gauss's check; ldexp, unlike **, takes any int exponent."""
    stages = config_int(value, 1)
    try:
        gauss(make_group((1,)), math.ldexp(2.0, 1 - stages))
    except ValueError as exc:
        raise ConfigError(f"too many stages for the pc net's spreads: {exc}") from exc
    return stages


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


# suite -> key -> Key.  Checks that tie keys together (a literal fits its
# group, the lattice steps divide it) are _parse_section's.  Every sweep
# list takes at least one entry: an empty sweep would grade nothing.
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
        "stages": Key(4, _stages, help="number of stages"),
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

# The options every run takes besides a config: the seed of the suites'
# random operators and the tolerance of the checks.
OPTIONS = {
    "seed": Key(0, _integer(0), help="seed of the kernel, mpq and regnet random operators"),
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


def _unit_energy(g: Signal) -> Signal:
    """g / ||g||_2.  WindowError when g is identically zero or its
    energy overflows to inf or underflows to 0; a NaN window passes."""
    require_window(g)
    energy = l2_norm(g)
    if math.isinf(energy):
        raise WindowError("window energy overflows")
    if energy == 0:
        raise WindowError("window energy underflows")
    return Signal(g.group, g.values / energy)


def _normalized_gauss(group: Group) -> Signal:
    return _unit_energy(gauss(group, 1.0))


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
                m1, m2, m4, minf = mod_norms(sig, window, (1, 2, 4, math.inf))
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
        w1, w2, w3 = (_normalized_gauss(grp) for grp in chain[:3])
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
        w = _normalized_gauss(grp)
        two_path_defects = []
        for _ in range(count):
            op = _random_kernel(rng, grp, grp)
            direct = operator_m1_norm(op, w, w)
            lifted = m1_norm(kernel_signal(op), tensor(w, w))
            two_path_defects.append(abs(direct - lifted) / max(1.0, direct))
        res.grade("bnorm_two_paths", f"6->6 x{count}", np.max(two_path_defects), tol)
        f1 = random_signal(grp, rng)
        f2 = random_signal(grp, rng)
        product = m1_norm(f1, w) * m1_norm(f2, w)
        direct = operator_m1_norm(rank_one(f1, f2), w, w)
        res.grade(
            "bnorm_rank_one",
            "6->6",
            abs(direct - product) / max(1.0, product),
            tol,
        )

    if "expand" in checks:
        grp = make_group((6,))
        window = gauss(grp, 1.0)  # tensor_expand's projective_m1 window
        for kind in ("random", "rank_one"):
            if kind == "random":
                op = _random_kernel(rng, grp, grp)
            else:
                op = rank_one(random_signal(grp, rng), random_signal(grp, rng))
            exp = tensor_expand(op, 1e-12)
            res.grade(
                "expand_recon", f"6->6 {kind} rank={exp.rank}", exp.max_error, tol * 100
            )
            bound_gap = operator_m1_norm(op, window, window)
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
    lattice = make_lattice(grp, cfg["a"], cfg["b"])
    system = GaborSystem(window, lattice)

    lower, upper = frame_bounds(system)
    res.summary.update(
        {
            "group": _group_token(grp.orders),
            "lower_bound": lower,
            "upper_bound": upper,
            # S is Hermitian with spectrum in [A, B]: ||S - I||_2 off the bounds
            "s_minus_identity": max(abs(lower - 1.0), abs(upper - 1.0)),
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

    # partial sum k minus the full sum is minus the tail past point k,
    # walked back by one elementwise rank-one add per point, with its image
    # of the probe; no matrix product, so no BLAS thread count moves a row
    atoms = phase_atoms(window, *lattice.nodes)
    weight = system.weight
    coeffs = np.sum(probes[-1].values * atoms.conj(), axis=1) * (weight * float(grp.weight))
    tail = np.zeros((grp.order, grp.order), dtype=complex)
    image = np.zeros(grp.order, dtype=complex)
    rows = []
    for k in range(lattice.size, 0, -1):
        rows.append((k, float(np.max(np.abs(tail))), l2_norm(Signal(grp, image))))
        tail += np.outer(atoms[k - 1].conj() * weight, atoms[k - 1])
        image += coeffs[k - 1] * atoms[k - 1]
    rows.reverse()
    # after the last add the tail is the dense frame operator: its route
    # against the spectrum route that made the dual
    full = KernelOperator(grp, grp, tail)
    inverts = l2_norm(full.apply(dual) - window) / max(1.0, l2_norm(window))
    res.grade("dual_inverts_frame", detail, inverts, tol * 100)
    res.tables["frames.csv"] = (
        ("subset_size", "kernel_defect", "probe_defect"),
        rows,
    )
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
    return GaborSystem(_unit_energy(dirac(grp)), lattice)


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


def run_regnet(cfg: dict, seed: int, tol: float) -> SuiteResult:
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
    res.tables["convergence.csv"] = (
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
        sub = run_regnet(sub_cfg, seed, tol)
        res.tables[filename] = sub.tables["convergence.csv"]
        res.failures.extend(sub.failures)
        res.checks.extend(sub.checks)
        res.summary[construction] = sub.summary
    return res


# ---------------------------------------------------------------------------
# mpq suite


def run_mpq(cfg: dict, seed: int, tol: float) -> SuiteResult:
    res = SuiteResult("mpq")
    grp = make_group(cfg["group"])
    g1 = _unit_energy(signal_from_spec(grp, cfg["window"]))
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
    """One suite's section of a merged config, parsed, then checked where
    its keys tie together: every signal literal fits each of its groups
    and the frames lattice steps divide the frames group.  This is where
    a config is judged; no runner raises ConfigError."""
    section = parse_keys(SCHEMA[name], config[name], prefix=f"{name}.")
    literals = []
    if name == "norms":
        literals = [
            (f"norms.{key}", orders, spec)
            for orders in section["groups"]
            for key in ("windows", "signals")
            for _, spec in section[key]
        ]
    elif name in ("frames", "mpq"):
        literals = [(f"{name}.window", section["group"], section["window"])]
    for key, orders, spec in literals:
        try:
            # a tiny gauss spread overflows to a 0 entry, as in the runner
            with np.errstate(over="ignore"):
                signal_from_spec(make_group(orders), spec)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if name == "frames":
        grp = make_group(section["group"])
        for key, steps in (("a", (section["a"], 1)), ("b", (1, section["b"]))):
            try:
                make_lattice(grp, *steps)
            except LatticeError as exc:
                raise ConfigError(f"frames.{key}: bad frames lattice: {exc}") from exc
    return section


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


def run_suite(name: str, config: dict, seed: int, tol: float, out_dir=None) -> SuiteResult:
    """Parse the suite's section of a merged config, then run the suite.
    A given out_dir is made in between, as in run_all."""
    if name not in _RUNNERS:
        raise ConfigError(f"unknown suite {name!r}; expected one of {list(SUITE_ORDER)}")
    section = _parse_section(config, name)
    if out_dir is not None:
        _report_dir(out_dir)
    return _graded(name, _RUNNERS[name], section, seed, tol)


def run_all(config: dict, seed: int, tol: float, out_dir=None) -> list:
    """Run every suite in SUITE_ORDER (regnet in its three standard
    configurations), after every section of the config has parsed.  A
    given out_dir is made after the parse and before the first suite
    runs, so a report directory that cannot be made fails at once
    (ConfigError).
    """
    sections = {name: _parse_section(config, name) for name in SUITE_ORDER}
    if out_dir is not None:
        _report_dir(out_dir)
    runners = {**_RUNNERS, "regnet": _run_regnet_all}
    return [_graded(name, runners[name], sections[name], seed, tol) for name in SUITE_ORDER]


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


def _unwritable(out: Path, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write report to {out}: {exc.strerror or exc}")


def _report_dir(out_dir) -> Path:
    """Make the report directory and its parents; ConfigError when it
    cannot be made (an existing file, or a path through one)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out, exc) from exc
    return out


def write_results(out_dir, results, seed: int, tol: float) -> Path:
    """Write every table as CSV plus one summary.json; returns the
    summary path.  Output is a pure function of (config, seed, tol).
    ConfigError when the directory cannot be made or written."""
    out = _report_dir(out_dir)
    payload = {
        "seed": int(seed),
        "tol": float(tol),
        "suites": {r.name: _jsonable(r.summary) for r in results},
        "failures": [f for r in results for f in r.failures],
    }
    summary_path = out / "summary.json"
    try:
        for result in results:
            for filename, (header, rows) in result.tables.items():
                with open(out / filename, "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(header)
                    for row in rows:
                        writer.writerow([_format_cell(v) for v in row])
        summary_path.write_text(
            json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n",
            encoding="utf-8",
        )
    except OSError as exc:
        raise _unwritable(out, exc) from exc
    return summary_path
