import json
import math

import numpy as np
import pytest

from tfkit import frames, kernels, modspaces, regnets, suites, transform
from tfkit.errors import ConfigError
from tfkit.frames import GaborSystem, partial_frame_sum
from tfkit.groups import make_group, make_lattice
from tfkit.kernels import operator_phase_sums
from tfkit.regnets import check_regularizing, pc_net, standard_probes
from tfkit.signals import Signal, dirac, gauss, l2_norm, random_signal
from tfkit.suites import (
    DEFAULTS,
    SUITE_ORDER,
    SuiteResult,
    config_int,
    load_config,
    merge_config,
    parse_exponent,
    parse_group_token,
    parse_signal_token,
    run_all,
    run_suite,
    signal_from_spec,
    suite_rng,
    write_results,
)

from oracles import frame_operator


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
    assert parse_signal_token(spec) == {"kind": "gauss", "spread": 2.0}
    with pytest.raises(ConfigError):
        parse_signal_token("random")
    with pytest.raises(ConfigError):
        parse_signal_token("blur:1")
    with pytest.raises(ConfigError):
        parse_signal_token(42)
    for bad in ("gauss:1e-300", "gauss:x", "dirac:x", {"kind": "gauss"}):
        with pytest.raises(ConfigError):
            parse_signal_token(bad)


def test_signal_from_spec():
    # a literal is parsed and fitted to its group in the config stage
    def parsed(literal):
        return signal_from_spec(g, parse_signal_token(literal))

    g = make_group((8,))
    assert np.array_equal(parsed({"kind": "dirac"}).values, dirac(g).values)
    assert np.array_equal(parsed({"kind": "dirac", "at": [3]}).values, dirac(g, (3,)).values)
    assert np.array_equal(
        parsed({"kind": "gauss", "spread": 0.5}).values, gauss(g, 0.5).values
    )
    assert np.array_equal(
        parsed({"kind": "random", "seed": 3}).values, random_signal(g, 3).values
    )
    lit = parsed({"kind": "values", "re": list(range(8))})
    assert lit.values[5] == 5.0
    both = parsed({"kind": "values", "re": [0] * 8, "im": [1] * 8})
    assert both.values[0] == 1j
    for bad in [
        {"kind": "nope"},
        {"kind": "gauss"},
        {"kind": "gauss", "spread": -1},
        {"kind": "random"},
        {"kind": "values"},
        {"kind": "values", "re": [1, 2]},
        {"kind": "values", "re": [1] * 8, "im": [1] * 4},
        {"kind": "dirac", "at": 3},
        {"kind": "dirac", "at": [1, 2]},
        {},
        {"kind": "gauss", "spread": "x"},
        {"kind": "gauss", "spread": None},
        {"kind": "random", "seed": "x"},
        {"kind": "random", "seed": 1.5},
        {"kind": "random", "seed": -1},
        {"kind": "random", "seed": True},
        {"kind": "values", "re": "ab"},
        {"kind": "values", "re": [1] * 8, "im": ["x"] * 8},
        {"kind": "gauss", "spread": 1e-300},
        {"kind": "dirac", "at": [1.5]},
        {"kind": "dirac", "at": "3"},
    ]:
        config = merge_config({"norms": {"groups": [[8]], "windows": [bad]}})
        with pytest.raises(ConfigError) as info:
            run_suite("norms", config, seed=0, tol=1e-8)
        assert str(info.value).startswith("norms.windows: ")


def test_a_tiny_gauss_spread_fits_without_an_overflow_warning():
    # the fit check builds the window; exp(-pi d^2 / spread^2) overflows
    # the quotient to -inf, a 0 entry, and RuntimeWarnings are errors here
    config = merge_config(
        {"norms": {"groups": [[8]], "windows": ["gauss:1e-160"], "signals": ["dirac"]}}
    )
    assert run_suite("norms", config, seed=0, tol=1e-8).failures == []


def test_config_int():
    assert config_int(3) == 3
    assert config_int("7", 0) == 7
    assert config_int(2.0, 1) == 2
    assert config_int(0, 0) == 0
    g = make_group((8,))
    assert np.array_equal(
        signal_from_spec(g, parse_signal_token({"kind": "random", "seed": 3.0})).values,
        random_signal(g, 3).values,
    )
    for bad, minimum in [
        (True, None),
        (1.5, None),
        (math.inf, None),
        (math.nan, None),
        ("x", None),
        (None, None),
        ([1], None),
        (-1, 0),
        ("0", 1),
    ]:
        with pytest.raises(ConfigError):
            config_int(bad, minimum)


def test_parse_exponent():
    assert parse_exponent("inf") == math.inf
    assert parse_exponent("Infinity") == math.inf
    assert parse_exponent(2) == 2.0
    assert parse_exponent("1.5") == 1.5
    with pytest.raises(ConfigError):
        parse_exponent("abc")
    with pytest.raises(ConfigError):
        parse_exponent(0.5)
    for bad in (True, np.True_, [2], None, "nan", 10**400):
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


@pytest.mark.parametrize(
    "orders, a, b", [((8,), 2, 2), ((2, 6), 1, 2), ((12,), 3, 2), ((1, 8), 1, 1)]
)
def test_frames_sweep_rows_are_partial_sums_minus_the_frame_operator(orders, a, b):
    # the oracle: each prefix's dense partial sum against the dense full sum
    res = run_default("frames", group=list(orders), a=a, b=b)
    grp = make_group(orders)
    system = GaborSystem(gauss(grp, 1.0), make_lattice(grp, a, b))
    probe = standard_probes(grp, DEFAULTS["frames"]["probe_seed"])[-1]
    full = frame_operator(system)
    image = full.apply(probe)
    kernel_scale, probe_scale = np.max(np.abs(full.kernel)), l2_norm(image)
    _, rows = res.tables["frames.csv"]
    assert [row[0] for row in rows] == list(range(1, system.lattice.size + 1))
    for k, kernel_defect, probe_defect in rows:
        partial = partial_frame_sum(system, k)
        expected = np.max(np.abs(partial.kernel - full.kernel))
        assert abs(kernel_defect - expected) <= 1e-14 * kernel_scale
        expected = l2_norm(partial.apply(probe) - image)
        assert abs(probe_defect - expected) <= 1e-14 * probe_scale
    assert res.summary["final_partial_defect"] == rows[-1][1] == 0.0


def test_frames_suite_grades_dual_against_dense_frame_operator(monkeypatch):
    def inverts_row(res):
        (row,) = [row for row in res.checks if row[0] == "dual_inverts_frame"]
        return row

    assert inverts_row(run_default("frames"))[-1] == "pass"
    # a dual off by one part in 10^3 no longer inverts the dense S
    exact = suites.canonical_dual
    monkeypatch.setattr(suites, "canonical_dual", lambda system: exact(system) * 1.001)
    assert inverts_row(run_default("frames"))[-1] == "fail"


def test_frames_suite_computes_the_canonical_dual_once(monkeypatch):
    # its own check and each probe's expansion read the system's one dual
    powers = []
    power = frames._frame_power

    def counting(system, exponent):
        powers.append(exponent)
        return power(system, exponent)

    monkeypatch.setattr(frames, "_frame_power", counting)
    res = run_default("frames")
    assert res.failures == []
    assert powers == [-1.0]


def test_frames_suite_fails_on_a_non_finite_frame_kernel(monkeypatch):
    # dual_inverts_frame is the suite's one check on the dense frame
    # operator, the sweep's sum of the atoms' rank-one terms: NaN atoms
    # must fail it
    def nan_atoms(window, times, freqs):
        return np.full((len(times) * len(freqs), window.group.order), np.nan, dtype=complex)

    monkeypatch.setattr(suites, "phase_atoms", nan_atoms)
    res = run_default("frames")
    assert [row[0] for row in res.checks if row[-1] == "fail"] == ["dual_inverts_frame"]
    assert len(res.failures) == 1


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


@pytest.mark.parametrize(
    "construction,target", [("loc", "fourier"), ("gabor", "identity"), ("pc", "random")]
)
def test_regnet_suite_other_constructions(construction, target):
    res = run_default("regnet", construction=construction, target=target)
    assert res.failures == []
    assert res.summary["final_m1_err"] <= 1e-10


def test_regnet_random_target_follows_the_seed():
    config = merge_config({})
    config["regnet"].update(target="random")

    def table(seed):
        return run_suite("regnet", config, seed=seed, tol=1e-8).tables["convergence.csv"]

    assert table(0) == table(0)
    assert table(0) != table(1)


def test_regnet_suite_validates_config():
    with pytest.raises(ConfigError):
        run_default("regnet", construction="smooth")
    with pytest.raises(ConfigError):
        run_default("regnet", target="laplace")
    with pytest.raises(ConfigError):
        run_default("regnet", stages=0)


def test_regnet_stages_stop_where_the_last_pc_spread_squares_to_zero():
    # spreads 2 * 0.5**j: at 540 stages the last one's square underflows;
    # a huge count fails in the parser, before any spread list is built
    stages = suites.SCHEMA["regnet"]["stages"].parse
    assert stages(539) == 539
    for bad in (540, 10**9, "1" + "0" * 400):
        with pytest.raises(ConfigError, match="too many stages"):
            stages(bad)


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
    # counts passes of the streamed phase table, kernels.operator_phase_sums
    passes = []

    def counting_pass(op, g1, g2, ps=()):
        passes.append(op)
        return operator_phase_sums(op, g1, g2, ps)

    monkeypatch.setattr(modspaces, "operator_phase_sums", counting_pass)
    monkeypatch.setattr(regnets, "operator_phase_sums", counting_pass)
    # operator_m1_norm's binding
    monkeypatch.setattr(kernels, "operator_phase_sums", counting_pass)
    run_default("mpq")
    # one pass per operator of mpq.csv, one per identity-gap order
    assert len(passes) == 4 + len(DEFAULTS["mpq"]["gap_orders"])
    passes.clear()
    run_default("regnet")
    # one per sandwiched stage (b_norm and both induced norms), one per
    # stage of the net's certificate
    assert len(passes) == 2 * DEFAULTS["regnet"]["stages"]
    passes.clear()
    g = make_group((8,))
    window = gauss(g, 1.0)
    window = Signal(g, window.values / l2_norm(window))
    net = pc_net(g, (2.0, 1.0, 0.5))
    check_regularizing(net, standard_probes(g, 1), window, 1e-10)
    assert passes == list(net.stages)


def test_repeated_operator_inputs_run_no_second_pass(monkeypatch):
    # requests of operator_phase_sums against passes of kernels._phase_pass:
    # the gabor/identity sandwich stages at Z/32 equal the net's stages, and
    # the identity gap at order 32 asks for the grid's identity pass at (2,)
    requests, passes = [], []
    request, phase_pass = operator_phase_sums, kernels._phase_pass

    def counting_request(op, g1, g2, ps=()):
        requests.append(op)
        return request(op, g1, g2, ps)

    def counting_pass(op, g1, g2, ps):
        passes.append(op)
        return phase_pass(op, g1, g2, ps)

    for module in (modspaces, regnets, kernels):
        monkeypatch.setattr(module, "operator_phase_sums", counting_request)
    monkeypatch.setattr(kernels, "_phase_pass", counting_pass)
    run_default("regnet", group=[32], construction="gabor", target="identity")
    assert len(requests) - len(passes) == 4
    requests.clear()
    passes.clear()
    kernels._memo.clear()
    run_default("mpq", group=[32], gap_orders=[8, 16, 32])
    assert len(requests) - len(passes) == 1


# TFKIT_THREADS is ignored now that the suites run serially; setting it
# must not change the failing row
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
        # signal literals are checked in the config stage
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


def test_norms_row_builds_two_bilinear_tables(monkeypatch):
    # one table for m1, m2, m4 and minf, one for the conv-route oracle
    calls = []
    pairing_rows = transform.pairing_rows

    def counting(*args, **kwargs):
        calls.append(1)
        return pairing_rows(*args, **kwargs)

    monkeypatch.setattr(transform, "pairing_rows", counting)
    res = run_suite("norms", merge_config({"norms": {"groups": [[8], [2, 3]]}}), 0, 1e-8)
    assert res.failures == []
    assert len(calls) == 2 * res.summary["rows"] > 0


def _write_tree(tmp_path, name):
    results = run_all(merge_config({}), seed=3, tol=1e-8)
    out = tmp_path / name
    write_results(out, results, seed=3, tol=1e-8)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_reports_are_reproducible(tmp_path):
    first = _write_tree(tmp_path, "one")
    second = _write_tree(tmp_path, "two")
    assert first == second


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
