import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tfkit.cli import build_parser, main
from tfkit.suites import DEFAULTS


def read_tree(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_parser_requires_a_suite():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["spectra"])


def test_norms_suite_exits_zero(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["norms", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "suite norms:" in captured.out
    assert "summary:" in captured.out
    assert sorted(p.name for p in out.iterdir()) == ["norms.csv", "summary.json"]


def test_kernel_single_check_flag(tmp_path):
    out = tmp_path / "report"
    assert main(["kernel", "--op", "trace", "--out", str(out)]) == 0
    text = (out / "kernel.csv").read_text(encoding="utf-8")
    assert "trace_cyclic" in text
    assert "apply" not in text


def test_frames_flags_reach_the_suite(tmp_path):
    out = tmp_path / "report"
    assert main(["frames", "--group", "2x3", "--a", "1", "--b", "1", "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert payload["suites"]["frames"]["group"] == "2x3"
    assert payload["suites"]["frames"]["lattice_size"] == 36


def test_failing_suite_exits_one(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["frames", "--a", "2", "--b", "4", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "failing rows:" in captured.out
    assert "not a frame" in captured.out
    payload = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert payload["failures"]
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


def test_regnet_flags(tmp_path):
    out = tmp_path / "report"
    code = main(
        [
            "regnet",
            "--construction",
            "loc",
            "--target",
            "fourier",
            "--stages",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = (out / "convergence.csv").read_text(encoding="utf-8")
    assert text.count("loc[") == 3


def test_mpq_exponent_flags(tmp_path):
    out = tmp_path / "report"
    assert main(["mpq", "--p", "1", "--q", "inf", "--out", str(out)]) == 0
    lines = (out / "mpq.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "operator_id,p,q,condition,empirical,ratio"
    assert len(lines) == 1 + 4  # one exponent pair for each of the four operators
    assert all(line.split(",")[1:3] == ["1", "inf"] for line in lines[1:])


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n  "norms": oops\n}\n', encoding="utf-8")
    assert main(["norms", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("tfkit: config parse error at line 2")


def test_unknown_config_section_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"nrms": {}}\n', encoding="utf-8")
    assert main(["norms", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "unknown config section" in capsys.readouterr().err


def test_config_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"frames": {"a": 1, "b": 1}}\n', encoding="utf-8")
    out = tmp_path / "report"
    assert main(["frames", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert payload["suites"]["frames"]["lattice_size"] == 64


def test_all_writes_every_table(tmp_path):
    out = tmp_path / "report"
    assert main(["all", "--seed", "7", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "frames.csv",
        "kernel.csv",
        "mpq.csv",
        "norms.csv",
        "regnet_gabor.csv",
        "regnet_loc.csv",
        "regnet_pc.csv",
        "summary.json",
    ]


def test_all_is_byte_reproducible(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    assert main(["all", "--seed", "7", "--out", str(first)]) == 0
    assert main(["all", "--seed", "7", "--out", str(second)]) == 0
    assert read_tree(first) == read_tree(second)


def test_seed_changes_random_content(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["kernel", "--seed", "1", "--out", str(a)]) == 0
    assert main(["kernel", "--seed", "2", "--out", str(b)]) == 0
    assert (a / "kernel.csv").read_bytes() != (b / "kernel.csv").read_bytes()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["frames", "--a", "3"], None),
        (["frames", "--group", "0"], None),
        (["frames", "--group", "2x0"], None),
        (["frames", "--window", "gauss:abc"], None),
        (["frames", "--window", "dirac:x"], None),
        (["kernel"], {"kernel": {"count": "x"}}),
        (["frames"], {"frames": {"a": "x"}}),
        (["norms"], {"norms": {"groups": [[2.7]]}}),
        (["kernel"], {"kernel": {"op": "apply", "count": 2.5}}),
        (["kernel"], {"kernel": {"op": "apply", "count": True}}),
        (["regnet"], {"regnet": {"stages": 2.9}}),
        (["mpq"], {"mpq": {"gap_orders": [4.5]}}),
        (["kernel"], {"kernel": {"op": "apply", "count": math.inf}}),
        (["norms"], {"norms": {"groups": 8}}),
        (["mpq"], {"mpq": {"p": 1}}),
        (["kernel"], {"kernel": {"pairs": 5}}),
        (["mpq"], {"mpq": {"gap_orders": 8}}),
        (["kernel"], {"kernel": {"chain": [[8], [5]]}}),
        (["frames"], {"frames": {"probe_seed": -1}}),
        (["frames", "--window", "random:-1"], None),
        (["frames", "--a", "x"], None),
        (["regnet", "--stages", "x"], None),
        (["kernel", "--op", "bogus"], None),
        (["frames"], {"frames": {"window": {"kind": "gauss", "spread": "x"}}}),
        (["norms"], {"norms": {"signals": [{"kind": "random", "seed": 1.5}]}}),
        (["kernel", "--seed", "-1"], None),
        (["norms", "--tol", "nan"], None),
        (["norms", "--tol", "0"], None),
        (["kernel", "--tol", "inf"], None),
        (["kernel"], {"kernel": {"count": 0}}),
        (["mpq"], {"mpq": {"probe_count": -1}}),
        (["norms"], {"norms": {"windows": ["gauss:1e-300"]}}),
        (["mpq"], {"mpq": {"p": []}}),
        (["norms"], {"norms": {"groups": []}}),
        (["kernel"], {"kernel": {"pairs": []}}),
    ],
)
def test_malformed_flag_or_config_exits_two_with_one_line(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tfkit: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_nan_rows_fail_and_the_summary_stays_strict_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # an all-zero window normalizes to NaN everywhere
    zero = {"kind": "values", "re": [0] * 8}
    cfg.write_text(json.dumps({"mpq": {"window": zero}}), encoding="utf-8")
    out = tmp_path / "report"
    assert main(["mpq", "--config", str(cfg), "--out", str(out)]) == 1
    out_text = capsys.readouterr().out
    assert "failing rows:\n  mpq: ratio [rank_one p=1 q=1]: nan > " in out_text

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    text = (out / "summary.json").read_text(encoding="utf-8")
    payload = json.loads(text, parse_constant=reject)
    assert payload["suites"]["mpq"]["worst_ratio"] == "nan"
    assert len(payload["failures"]) == 4 * 3 * 3


@pytest.mark.parametrize(
    "suite, overrides, message",
    [
        ("frames", {"window": {"kind": "values", "re": [0] * 8}}, "window is identically zero"),
        # the S - I norm's SVD would not converge on this frame matrix
        ("frames", {"window": {"kind": "values", "re": [1e308] * 8}}, "not finite"),
        ("mpq", {"window": {"kind": "values", "re": [1e200] + [0] * 7}}, "overflows"),
        (
            "norms",
            {"groups": [[8]], "windows": [{"kind": "values", "re": [0] * 8}]},
            "window is identically zero",
        ),
    ],
)
def test_hostile_window_is_a_failing_row(tmp_path, capsys, suite, overrides, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({suite: overrides}), encoding="utf-8")
    out = tmp_path / "report"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([suite, "--config", str(cfg), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert f"failing rows:\n  {suite}: " in captured.out
    assert message in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_thread_count_below_one_exits_two_with_one_line(
    tmp_path, capsys, monkeypatch, threads
):
    monkeypatch.setenv("TFKIT_THREADS", threads)
    assert main(["all", "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tfkit: TFKIT_THREADS")
    assert err.count("\n") == 1


_FUZZ_KEYS = [(suite, key) for suite, keys in DEFAULTS.items() for key in keys]
# Every value here that a key accepts keeps its suite small (orders <= 12,
# counts and stages <= 12), so each example runs in well under a second.
_FUZZ_VALUES = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([0.5, 2.0, -1.5, math.inf, math.nan]),
    st.sampled_from(
        ["", "x", "inf", "2x3", "12", "dirac", "gauss:1.0", "random:3", "random:-1",
         "trace", "loc", "fourier"]
    ),
    st.none(),
    st.booleans(),
    st.sampled_from(
        [[], [2, 3], [[2], [3]], [[2, 3]], [[1], [2], [3], [2]], [[[2], [3]]],
         ["2x3"], ["dirac", "random:1"], [1, "inf"], [[2, "x"]], [[[]]]]
    ),
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(target=st.sampled_from(_FUZZ_KEYS), value=_FUZZ_VALUES)
def test_fuzzed_config_key_keeps_the_exit_contract(tmp_path, capsys, target, value):
    suite, key = target
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({suite: {key: value}}), encoding="utf-8")
    code = main([suite, "--config", str(cfg), "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert captured.err.startswith("tfkit: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert (code == 1) == ("failing rows:" in captured.out)
