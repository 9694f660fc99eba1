import json
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT, child_env
from run import dir_digest
from tracer import op_metrics, self_times, split_ops

WORKER = str(BENCH / "worker.py")


def span(name, layer, start, end, parent=-1, op=1, note=None):
    return (name, layer, start, end, parent, op, note)


def test_self_time_subtracts_children():
    spans = [
        span("main", "cli", 0.0, 10.0),
        span("a", "frames", 1.0, 4.0, parent=0),
        span("b", "groups", 2.0, 3.0, parent=1),
        span("c", "frames", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_takes_the_union_of_overlapping_children():
    # Children from two threads may overlap; covered time counts once,
    # and a child outside its parent's interval is clipped to it.
    spans = [
        span("p", "suites", 0.0, 10.0),
        span("x", "kernels", 1.0, 5.0, parent=0),
        span("y", "kernels", 3.0, 7.0, parent=0),
        span("z", "kernels", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_self_times_add_up_to_the_root_span():
    spans = [
        span("main", "cli", 0.0, 8.0),
        span("run_all", "suites", 0.5, 7.5, parent=0),
        span("frame_operator", "frames", 1.0, 3.0, parent=1, note="k1"),
        span("gabor_atoms", "frames", 1.5, 2.5, parent=2, note=64),
        span("frame_operator", "frames", 4.0, 5.0, parent=1, note="k1"),
        span("gabor_atoms", "frames", 4.2, 4.7, parent=4, note=64),
    ]
    m = op_metrics(spans, [3, 1])
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total == pytest.approx(8.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["suites.self_s"] == pytest.approx(4.0)
    assert m["frames.self_s"] == pytest.approx(3.0)
    assert m["frames.calls"] == 4
    assert m["frames.frame_operators"] == 2
    assert m["frames.frame_operator_unique_ratio"] == 0.5
    assert m["frames.atom_rows"] == 128
    assert m["groups.table_cache_hit_ratio"] == 0.75
    assert m["kernels.phase_table_unique_ratio"] == 0.0


def test_split_ops_reindexes_parents():
    spans = [
        span("a", "frames", 0.0, 2.0, op=1),
        span("b", "frames", 3.0, 6.0, op=2),
        span("c", "groups", 4.0, 5.0, parent=1, op=2),
    ]
    per_op = split_ops(spans)
    assert [s[0] for s in per_op[2]] == ["b", "c"]
    assert per_op[2][1][4] == 0
    assert self_times(per_op[2]) == pytest.approx([2.0, 1.0])


def test_split_ops_cuts_parents_in_another_op():
    spans = [
        span("session", "frames", 0.0, 9.0, op=-1),
        span("frame_bounds", "frames", 1.0, 2.0, parent=0, op=3),
    ]
    per_op = split_ops(spans)
    assert per_op[3][0][4] == -1


def _install_report():
    code = (
        "import json, sys; sys.path.insert(0, %r)\n"
        "from tracer import Tracer\n"
        "import tfkit, tfkit.frames, tfkit.regnets, tfkit.groups, tfkit.cli\n"
        "orig = tfkit.frames.frame_bounds\n"
        "n = Tracer().install()\n"
        "print(json.dumps({'n': n,\n"
        "  'frames': tfkit.frames.frame_bounds is not orig,\n"
        "  'consumer': tfkit.regnets.frame_bounds is tfkit.frames.frame_bounds,\n"
        "  'namespace': tfkit.frame_bounds is tfkit.frames.frame_bounds,\n"
        "  'class': tfkit.GaborSystem is tfkit.frames.GaborSystem\n"
        "    and not hasattr(tfkit.GaborSystem, '__wrapped__'),\n"
        "  'cache': hasattr(tfkit.groups.character_table, '__wrapped__'),\n"
        "  'cli': hasattr(tfkit.cli.main, '__wrapped__')}))\n" % str(BENCH)
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_install_wraps_every_binding_but_not_classes():
    report = _install_report()
    assert report.pop("n") > 100
    assert all(report.values()), report


def _report(tmp_path, name, *extra):
    out = tmp_path / name
    subprocess.run(
        [sys.executable, WORKER, "report", *extra, "--", "all", "--seed", "0", "--out", str(out)],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
    )
    return out


def test_tracer_is_transparent(tmp_path):
    plain = _report(tmp_path, "plain")
    traced = _report(tmp_path, "traced", "--trace-out", str(tmp_path / "t.json"), "--op-id", "1")
    assert dir_digest(plain) == dir_digest(traced)
    spans = json.loads((tmp_path / "t.json").read_text())["spans"]
    assert spans and all(s[5] == 1 for s in spans)


def _distinct(spans, *names):
    return len({json.dumps(s[6][0] if isinstance(s[6], list) else s[6])
                for s in spans if s[0] in names})


def test_report_large_counts(tmp_path):
    spec = json.loads((BENCH / "workloads.json").read_text())["workloads"]["report-large"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(spec["config"]))
    trace = tmp_path / "t.json"
    _report(tmp_path, "out", "--trace-out", str(trace), "--op-id", "1")  # warm pyc
    subprocess.run(
        [sys.executable, WORKER, "report", "--trace-out", str(trace), "--op-id", "1", "--",
         "all", "--config", str(config), "--seed", "3", "--out", str(tmp_path / "large")],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
    )
    data = json.loads(trace.read_text())
    spans = split_ops(data["spans"])[1]
    m = op_metrics(spans, data["cache"]["1"])
    lifts = ("induced_m1_norm", "induced_minf_norm", "induced_m1_to_minf_norm")
    assert (m["kernels.phase_tables"], _distinct(spans, "operator_pairing_table")) == (70, 36)
    assert (m["modspaces.conditions"], _distinct(spans, "mixed_norm_condition")) == (39, 6)
    assert (m["regnets.lift_tables"], _distinct(spans, *lifts)) == (48, 20)
    assert m["frames.partial_sums"] == 260
    assert m["signals.convolve_calls"] == 2560


def test_gabor_design_counts(tmp_path):
    out = tmp_path / "session.json"
    subprocess.run(
        [sys.executable, WORKER, "gabor", "--seed", "5", "--seconds", "0.001",
         "--out", str(out), "--trace"],
        cwd=ROOT, env=child_env(), check=True,
    )
    data = json.loads(out.read_text())
    assert data["ops"] and all(op["error"] is None for op in data["ops"])
    per_op = split_ops(data["spans"])
    for index in (op["index"] for op in data["ops"]):
        m = op_metrics(per_op[index], data["cache"][str(index)])
        assert m["frames.frame_operators"] == 4
        assert m["frames.frame_operator_unique_ratio"] == 0.5
        assert m["kernels.phase_tables"] == 0
