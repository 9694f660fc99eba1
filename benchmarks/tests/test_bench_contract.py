import json
import subprocess
import sys

from conftest import BENCH, ROOT
from run import END_TO_END_UNITS, PER_LAYER_UNITS
from stats import check_name

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())["workloads"]


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        check_name(m["name"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: spec["why"] for name, spec in WORKLOADS.items()
    }


def test_every_workload_names_a_reference_job():
    from reference import JOBS

    nominal = json.loads((BENCH / "workloads.json").read_text())["reference"]["nominal_s"]
    assert set(nominal) == set(JOBS)
    assert all(seconds > 0 for seconds in nominal.values())
    for spec in WORKLOADS.values():
        assert spec["reference"] in JOBS


def test_refuses_to_run_without_tfkit_source(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "report-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
