import json
import math

import numpy as np
import pytest

from tfkit import kernels, modspaces, regnets, suites
from tfkit.errors import ConfigError
from tfkit.groups import make_group
from tfkit.kernels import operator_pairing_table
from tfkit.regnets import check_regularizing, pc_net, standard_probes
from tfkit.signals import Signal, gauss, l2_norm
from tfkit.suites import (
    DEFAULTS,
    SUITE_ORDER,
    SuiteResult,
    load_config,
    merge_config,
    parse_exponent,
    parse_group_token,
    parse_signal_token,
    run_all,
    run_suite,
    suite_rng,
    write_results,
)


# ---------------------------------------------------------------------------
# configuration plumbing


def test_load_config_reports_parse_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "norms": oops\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(bad)
    assert "line 2" in str(info.value)
    assert "column" in str(info.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(tmp_path / "absent.json")
    assert "cannot read" in str(info.value)


def test_load_config_rejects_non_object_root(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_merge_config_empty_gives_defaults():
    merged = merge_config({})
    assert merged == DEFAULTS
    merged["norms"]["groups"].append([99])
    assert DEFAULTS["norms"]["groups"][-1] != [99]  # deep copy


def test_merge_config_applies_overrides():
    merged = merge_config({"frames": {"a": 4}})
    assert merged["frames"]["a"] == 4
    assert merged["frames"]["b"] == DEFAULTS["frames"]["b"]


def test_merge_config_rejects_unknown_section():
    with pytest.raises(ConfigError) as info:
        merge_config({"nrms": {}})
    assert "unknown config section" in str(info.value)


def test_merge_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as info:
        merge_config({"frames": {"lattice": 2}})
    assert "unknown key" in str(info.value)


def test_merge_config_rejects_non_object_section():
    with pytest.raises(ConfigError):
        merge_config({"frames": 7})


def test_parse_group_token():
    assert parse_group_token("2x3") == (2, 3)
    assert parse_group_token([8]) == (8,)
    assert parse_group_token((5, 7)) == (5, 7)
    with pytest.raises(ConfigError):
        parse_group_token("ax3")
    with pytest.raises(ConfigError):
        parse_group_token(7)
    for bad in ([], "", [0], [2, True], [2.5]):
        with pytest.raises(ConfigError):
            parse_group_token(bad)


def test_parse_signal_token():
    assert parse_signal_token("dirac") == {"kind": "dirac"}
    assert parse_signal_token("dirac:3") == {"kind": "dirac", "at": [3]}
    assert parse_signal_token("dirac:1,2") == {"kind": "dirac", "at": [1, 2]}
    assert parse_signal_token("gauss:0.5") == {"kind": "gauss", "spread": 0.5}
    assert parse_signal_token("gauss") == {"kind": "gauss", "spread": 1.0}
    assert parse_signal_token("random:7") == {"kind": "random", "seed": 7}
    spec = {"kind": "gauss", "spread": 2.0}
    assert parse_signal_token(spec) is spec
    with pytest.raises(ConfigError):
        parse_signal_token("random")
    with pytest.raises(ConfigError):
        parse_signal_token("blur:1")
    with pytest.raises(ConfigError):
        parse_signal_token(42)
    for bad in ("gauss:1e-300", "gauss:x", "dirac:x", {"kind": "gauss"}):
        with pytest.raises(ConfigError):
            parse_signal_token(bad)


def test_parse_exponent():
    assert parse_exponent("inf") == math.inf
    assert parse_exponent("Infinity") == math.inf
    assert parse_exponent(2) == 2.0
    assert parse_exponent("1.5") == 1.5
    with pytest.raises(ConfigError):
        parse_exponent("abc")
    with pytest.raises(ConfigError):
        parse_exponent(0.5)
    for bad in (True, [2], None, "nan"):
        with pytest.raises(ConfigError):
            parse_exponent(bad)


def test_suite_rng_streams_are_stable_and_distinct():
    a = suite_rng(7, "norms").random(4)
    b = suite_rng(7, "norms").random(4)
    c = suite_rng(7, "kernel").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# individual suites against the default configuration


def run_default(name, **overrides):
    config = merge_config({})
    config[name].update(overrides)
    return run_suite(name, config, seed=0, tol=1e-8)


def test_norms_suite_passes_defaults():
    res = run_default("norms")
    assert res.failures == []
    header, rows = res.tables["norms.csv"]
    assert header == (
        "group",
        "window_id",
        "signal_id",
        "s0_conv",
        "m1",
        "m2",
        "m4",
        "minf",
    )
    assert len(rows) == 3 * 2 * 4
    assert res.summary["max_conv_defect"] <= 1e-10
    assert res.summary["max_energy_defect"] <= 1e-10


def test_kernel_suite_passes_defaults():
    res = run_default("kernel")
    assert res.failures == []
    header, rows = res.tables["kernel.csv"]
    assert header == ("check", "detail", "value", "threshold", "status")
    assert all(row[-1] == "pass" for row in rows)
    assert res.summary["submultiplicativity_ratio"] > 0


def test_kernel_suite_single_check():
    res = run_default("kernel", op="trace")
    checks = {row[0] for row in res.tables["kernel.csv"][1]}
    assert checks == {"trace_cyclic", "trace_rank_one"}


def test_kernel_suite_rejects_unknown_check():
    with pytest.raises(ConfigError):
        run_default("kernel", op="transmogrify")


def test_frames_suite_passes_defaults():
    res = run_default("frames")
    assert res.failures == []
    header, rows = res.tables["frames.csv"]
    assert header == ("subset_size", "kernel_defect", "probe_defect")
    assert len(rows) == 16  # (8/2) * (8/2) lattice points
    assert rows[-1][1] <= 1e-10  # full subset reproduces the frame operator
    for key in ("lower_bound", "upper_bound", "s_minus_identity", "frame_rep_defect"):
        assert key in res.summary


def test_frames_suite_flags_non_frame():
    res = run_default("frames", b=4)
    assert len(res.failures) == 1
    assert "not a frame" in res.failures[0]
    assert "frames.csv" not in res.tables
    assert "lower_bound" in res.summary


def test_regnet_suite_passes_defaults():
    res = run_default("regnet")
    assert res.failures == []
    header, rows = res.tables["convergence.csv"]
    assert header == ("stage", "m1_err", "weak_err", "b_norm", "m1_opnorm", "minf_opnorm")
    assert len(rows) == 4
    errs = [row[1] for row in rows]
    assert errs[-1] <= 1e-10
    assert all(later <= earlier * (1 + 1e-9) + 1e-15 for earlier, later in zip(errs, errs[1:]))
    assert res.summary["certificate"] is True


@pytest.mark.parametrize("construction,target", [("loc", "fourier"), ("gabor", "identity")])
def test_regnet_suite_other_constructions(construction, target):
    res = run_default("regnet", construction=construction, target=target)
    assert res.failures == []
    assert res.summary["final_m1_err"] <= 1e-10


def test_regnet_suite_validates_config():
    with pytest.raises(ConfigError):
        run_default("regnet", construction="smooth")
    with pytest.raises(ConfigError):
        run_default("regnet", target="laplace")
    with pytest.raises(ConfigError):
        run_default("regnet", stages=0)


def test_mpq_suite_passes_defaults():
    res = run_default("mpq")
    assert res.failures == []
    header, rows = res.tables["mpq.csv"]
    assert header == ("operator_id", "p", "q", "condition", "empirical", "ratio")
    assert len(rows) == 4 * 3 * 3
    assert res.summary["worst_ratio"] <= 1 + 1e-9
    assert set(res.summary["identity_gap"]) == {"4", "8", "16"}
    for entry in res.summary["identity_gap"].values():
        assert entry["empirical"] == pytest.approx(1.0, rel=1e-10)


def test_mpq_suite_grades_the_identity_gap_per_order():
    res = run_default("mpq")
    gaps = [c for c in res.checks if c[0] == "identity_gap"]
    assert [c[1] for c in gaps] == ["order=4", "order=8", "order=16"]
    assert all(c[-1] == "pass" for c in gaps)


def test_grade_passes_only_value_at_most_threshold():
    res = SuiteResult("demo")
    res.grade("even", "x", 1.0, 1.0)
    res.grade("over", "y", 2.0, 1.0)
    res.grade("nan", "z", math.nan, math.inf)
    assert [c[-1] for c in res.checks] == ["pass", "fail", "fail"]
    assert res.checks[0] == ("even", "x", 1.0, 1.0, "pass")
    assert res.failures == [
        "demo: over [y]: 2.000e+00 > 1.000e+00",
        "demo: nan [z]: nan > inf",
    ]


def test_suite_that_grades_nothing_fails(monkeypatch):
    def silent(cfg, seed, tol):
        return SuiteResult("norms")

    monkeypatch.setitem(suites._RUNNERS, "norms", silent)
    res = run_suite("norms", merge_config({}), seed=0, tol=1e-8)
    assert res.failures == ["norms: no check was graded"]


def test_mpq_suite_rejects_complex_window():
    with pytest.raises(ConfigError):
        run_default(
            "mpq",
            window={"kind": "values", "re": [1, 0, 0, 0], "im": [0, 1, 0, 0]},
            group=[4],
        )


def test_each_operator_phase_table_is_built_once(monkeypatch):
    builds = []

    def counting_table(op, g1, g2):
        builds.append(op)
        return operator_pairing_table(op, g1, g2)

    monkeypatch.setattr(modspaces, "operator_pairing_table", counting_table)
    monkeypatch.setattr(regnets, "operator_pairing_table", counting_table)
    # operator_m1_norm's binding
    monkeypatch.setattr(kernels, "operator_pairing_table", counting_table)
    run_default("mpq")
    # one table per operator of mpq.csv, one per identity-gap order
    assert len(builds) == 4 + len(DEFAULTS["mpq"]["gap_orders"])
    builds.clear()
    run_default("regnet")
    # one per sandwiched stage (b_norm and both induced norms), one per
    # stage of the net's certificate
    assert len(builds) == 2 * DEFAULTS["regnet"]["stages"]
    builds.clear()
    g = make_group((8,))
    window = gauss(g, 1.0)
    window = Signal(g, window.values / l2_norm(window))
    net = pc_net(g, (2.0, 1.0, 0.5))
    check_regularizing(net, standard_probes(g, 1), window, 1e-10)
    assert builds == list(net.stages)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_window_error_in_run_all_is_the_suites_failing_row(monkeypatch, threads):
    monkeypatch.setenv("TFKIT_THREADS", threads)
    config = merge_config({"frames": {"window": {"kind": "values", "re": [0] * 8}}})
    results = run_all(config, seed=0, tol=1e-8)
    assert [r.failures for r in results] == [
        [], [], ["frames: window is identically zero"], [], []
    ]


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ConfigError):
        run_suite("spectra", merge_config({}), 0, 1e-8)


# ---------------------------------------------------------------------------
# the full battery and its reports


def test_run_all_order_and_tables():
    results = run_all(merge_config({}), seed=0, tol=1e-8)
    assert [r.name for r in results] == list(SUITE_ORDER)
    regnet = results[3]
    assert set(regnet.tables) == {"regnet_pc.csv", "regnet_loc.csv", "regnet_gabor.csv"}
    assert all(r.failures == [] for r in results)


@pytest.mark.parametrize(
    "overrides",
    [
        {"mpq": {"p": ["x"]}},
        # `all` runs its own constructions, but the key must still parse
        {"regnet": {"construction": "bogus"}},
        # signal literals are checked without their group
        {"mpq": {"window": {"kind": "gauss", "spread": "x"}}},
        {"mpq": {"window": "random:1"}},
    ],
)
def test_run_all_parses_every_section_before_running_any(monkeypatch, overrides):
    calls = []

    def counting(runner):
        def run(*args, **kwargs):
            calls.append(runner.__name__)
            return runner(*args, **kwargs)

        return run

    for name, runner in suites._RUNNERS.items():
        monkeypatch.setitem(suites._RUNNERS, name, counting(runner))
    monkeypatch.setattr(suites, "_run_regnet_all", counting(suites._run_regnet_all))
    with pytest.raises(ConfigError) as info:
        run_all(merge_config(overrides), seed=0, tol=1e-8)
    assert calls == []
    ((section, keys),) = overrides.items()
    assert str(info.value).startswith(f"{section}.{next(iter(keys))}: ")
    run_suite("frames", merge_config({}), seed=0, tol=1e-8)
    assert calls == ["run_frames"]  # the counters do see a run


def test_run_all_rejects_bad_thread_setting(monkeypatch):
    monkeypatch.setenv("TFKIT_THREADS", "many")
    with pytest.raises(ConfigError):
        run_all(merge_config({}), seed=0, tol=1e-8)


def _write_tree(tmp_path, name, monkeypatch=None, threads=None):
    if monkeypatch is not None and threads is not None:
        monkeypatch.setenv("TFKIT_THREADS", str(threads))
    results = run_all(merge_config({}), seed=3, tol=1e-8)
    out = tmp_path / name
    write_results(out, results, seed=3, tol=1e-8)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_reports_are_reproducible(tmp_path):
    first = _write_tree(tmp_path, "one")
    second = _write_tree(tmp_path, "two")
    assert first == second


def test_reports_independent_of_thread_count(tmp_path, monkeypatch):
    serial = _write_tree(tmp_path, "serial", monkeypatch, threads=1)
    threaded = _write_tree(tmp_path, "threaded", monkeypatch, threads=4)
    assert serial == threaded


def test_write_results_formats(tmp_path):
    res = SuiteResult(
        "norms",
        tables={"t.csv": (("a", "b"), [(1, 0.1), ("x", 2.0)])},
        summary={"value": 0.1, "flag": True, "n": np.int64(3)},
        failures=["norms: broken"],
    )
    write_results(tmp_path, [res], seed=5, tol=1e-8)
    raw = (tmp_path / "t.csv").read_bytes()
    assert raw == b"a,b\r\n1,0.10000000000000001\r\nx,2\r\n"
    text = (tmp_path / "summary.json").read_text(encoding="utf-8")
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["seed"] == 5
    assert payload["failures"] == ["norms: broken"]
    assert payload["suites"]["norms"] == {"value": 0.1, "flag": True, "n": 3}
    # keys are written sorted, so the serialization is canonical
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
