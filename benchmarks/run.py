"""tfkit benchmark: one command, three workloads.

    python3 benchmarks/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout; tfkit is imported from its src/.  Each
workload is a closed loop with one client: the next op starts when the
previous one ends, and ops started before T seconds are up run to the
end.  Every op's output is checked; a failed check is a failed op.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (see README.md).  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import check_name, scaled_times, tail_percentile  # noqa: E402
from tracer import LAYERS, op_metrics, split_ops  # noqa: E402
from worker import load_workloads, op_seeds, write_report_config  # noqa: E402

WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.py"
NOMINAL_S = load_workloads()["reference"]["nominal_s"]
# The first fresh interpreters of a series start measurably slower than
# the rest (here 0.27 s falling to 0.16 s), so the first few are discarded.
SETUP_DISCARD = 2
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "groups.table_cache_hit_ratio": "ratio",
            "signals.convolve_calls": "count",
            "transform.table_calls": "count",
            "transform.conv_norm_calls": "count",
            "kernels.phase_tables": "count",
            "kernels.phase_table_mb": "MB",
            "kernels.phase_table_unique_ratio": "ratio",
            "regnets.lift_tables": "count",
            "regnets.lift_unique_ratio": "ratio",
            "modspaces.conditions": "count",
            "frames.frame_operators": "count",
            "frames.frame_operator_unique_ratio": "ratio",
            "frames.atom_rows": "count",
            "frames.partial_sums": "count",
            "suites.write_s": "s",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


PER_LAYER_UNITS = _per_layer_units()


@dataclass
class Child:
    seconds: float
    code: int
    rss_mb: float
    ready_s: float
    stderr: str


@dataclass
class Op:
    seconds: float
    error: str
    digest: str
    rss_mb: float
    traced: bool = False
    metrics: dict = None


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def blas_threads() -> str:
    """Threads the bundled OpenBLAS will use, asked of the library."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown (OPENBLAS_NUM_THREADS=%s)" % os.environ.get("OPENBLAS_NUM_THREADS")


def environment(root: Path, args, nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    src = hashlib.sha256()
    for f in sorted((root / "src" / "tfkit").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
        f"({blas.get('openblas configuration', '')})".strip(),
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "TFKIT_THREADS": os.environ.get("TFKIT_THREADS", "unset"),
        "commit": commit,
        "tfkit_source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    def __init__(self, root: Path, args, spec: dict, work: Path, env: dict):
        self.root = root
        self.args = args
        self.spec = spec
        self.work = work
        self.env = env
        self.hard_deadline = time.perf_counter() + RUN_LIMIT_S
        self.digests = {}  # tfkit seed or gabor op index -> digest
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.notes = []
        self.config = write_report_config(spec, work) if spec["kind"] == "report" else None
        self._ops = 0
        # Reference job times around the timed ops (see reference.py);
        # a traced run has none and reports its op times unscaled.
        self.ref_seconds = None

    # -- children -----------------------------------------------------

    def spawn(self, argv, env=None, ready=False, script=WORKER) -> Child:
        """Run one child to its end; kill it at the run's hard deadline."""
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(script), *argv],
                cwd=self.root,
                env=self.env if env is None else env,
                stdout=subprocess.PIPE if ready else subprocess.DEVNULL,
                stderr=err,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            ready_s = float("nan")
            try:
                if ready:
                    line = proc.stdout.readline()
                    if line.strip() == b"ready":
                        ready_s = time.perf_counter() - start
                    proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
            finally:
                timer.cancel()
                timer.join()
                if proc.stdout is not None:
                    proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip()
        tail = tail.splitlines()[-1] if tail else ""
        return Child(seconds, proc.returncode, usage.ru_maxrss / 1024.0, ready_s, tail)

    def out_of_time(self) -> bool:
        return time.perf_counter() > self.hard_deadline

    # -- checks ------------------------------------------------------

    def same_digest(self, key, digest: str, what: str):
        """None, or why digest differs from the first one seen for key."""
        first = self.digests.setdefault(key, digest)
        if first != digest:
            return f"{what} digest differs from an earlier op with the same input"
        return None

    def count(self, error) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            self.failures.append(error)

    # -- report workloads ---------------------------------------------

    def report_op(self, tfkit_seed: int, traced: bool, threads=None) -> Op:
        self._ops += 1
        out = self.work / f"op{self._ops}"
        trace_file = self.work / f"trace{self._ops}.json"
        argv = ["report"]
        if traced:
            argv += ["--trace-out", str(trace_file), "--op-id", str(self._ops)]
        argv += ["--", "all", "--seed", str(tfkit_seed), "--out", str(out)]
        if self.config is not None:
            argv += ["--config", str(self.config)]
        env = None
        if threads is not None:
            env = dict(self.env, TFKIT_THREADS=str(threads))
        child = self.spawn(argv, env=env)
        error = digest = None
        metrics = None
        if child.code != 0:
            error = f"seed {tfkit_seed}: exit {child.code}: {child.stderr}"
        else:
            try:
                summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
                if summary["failures"]:
                    error = f"seed {tfkit_seed}: failing rows: {summary['failures'][0]}"
                digest = dir_digest(out)
                if traced:
                    data = json.loads(trace_file.read_text(encoding="utf-8"))
                    spans = split_ops(data["spans"])[self._ops]
                    metrics = op_metrics(spans, data["cache"][str(self._ops)])
            except (OSError, ValueError, KeyError) as exc:
                error = f"seed {tfkit_seed}: unreadable output: {exc!r}"
        shutil.rmtree(out, ignore_errors=True)
        trace_file.unlink(missing_ok=True)
        return Op(child.seconds, error, digest, child.rss_mb, traced, metrics)

    def thread_check(self) -> None:
        """Once per run: a report-default digest is the same under
        TFKIT_THREADS=1 and 2."""
        config, self.config = self.config, None
        seed = op_seeds("report-default", self.args.seed, 1)[0]
        ops = [self.report_op(seed, False, threads=n) for n in (1, 2)]
        self.config = config
        error = ops[0].error or ops[1].error
        if not error and ops[0].digest != ops[1].digest:
            error = "report-default digest differs between TFKIT_THREADS=1 and 2"
        self.count(error)
        self.notes.append(
            "threads_check: report-default seed %d, TFKIT_THREADS=1 %.3f s, "
            "TFKIT_THREADS=2 %.3f s, digests %s"
            % (seed, ops[0].seconds, ops[1].seconds, "equal" if not error else "FAIL")
        )

    def reference_seconds(self, job: str) -> float:
        child = self.spawn([job], script=REFERENCE)
        if child.code != 0:
            raise RuntimeError(f"reference job failed: exit {child.code}: {child.stderr}")
        return child.seconds

    def report_loop(self) -> list:
        seeds = op_seeds(self.args.workload, self.args.seed, load_workloads()["op_seeds"])
        warm = self.report_op(seeds[0], False)  # neither timed nor counted
        if warm.digest is not None and warm.error is None:
            self.digests[seeds[0]] = warm.digest
        if not self.args.trace:
            self.ref_seconds = [self.reference_seconds(self.spec["reference"])]
        ops = []
        least = 2 if self.args.trace else 1  # a traced run needs both kinds of op
        deadline = time.perf_counter() + self.args.seconds
        while (time.perf_counter() < deadline or len(ops) < least) and not self.out_of_time():
            i = len(ops)
            seed = seeds[i % len(seeds)]
            op = self.report_op(seed, traced=bool(self.args.trace) and i % 2 == 0)
            if op.error is None:
                op.error = self.same_digest(seed, op.digest, f"seed {seed}: report")
            self.count(op.error)
            ops.append(op)
            if self.ref_seconds is not None:
                self.ref_seconds.append(self.reference_seconds(self.spec["reference"]))
        return ops

    # -- gabor-design -------------------------------------------------

    def gabor_session(self, seconds: float, traced: bool) -> list:
        out = self.work / f"session{int(traced)}.json"
        argv = ["gabor", "--seed", str(self.args.seed), "--seconds", str(seconds)]
        argv += ["--out", str(out)] + (["--trace"] if traced else [])
        if not self.args.trace:
            argv.append("--reference")
        child = self.spawn(argv)
        if child.code != 0 or not out.is_file():
            self.count(f"gabor-design session: exit {child.code}: {child.stderr}")
            return []
        data = json.loads(out.read_text(encoding="utf-8"))
        per_op = split_ops(data["spans"]) if traced else {}
        if not self.args.trace:
            self.ref_seconds = data["ref_seconds"]
        ops = []
        for rec in data["ops"][1:]:  # op 0 is the warm-up
            error = rec["error"]
            if error is None:
                error = self.same_digest(rec["index"], rec["digest"], "gabor-design op")
            self.count(error)
            metrics = None
            if traced:
                index = rec["index"]
                metrics = op_metrics(per_op.get(index, []), data["cache"][str(index)])
            ops.append(Op(rec["seconds"], error, rec["digest"], child.rss_mb, traced, metrics))
        return ops

    def gabor_loop(self) -> list:
        if not self.args.trace:
            return self.gabor_session(self.args.seconds, False)
        half = self.args.seconds / 2.0
        return self.gabor_session(half, False) + self.gabor_session(half, True)

    # -- run ----------------------------------------------------------

    def setup_seconds(self) -> float:
        times, refs = [], [self.reference_seconds("startup")]
        for _ in range(SETUP_DISCARD + SETUP_REPEATS):
            argv = ["setup", "--workload", self.args.workload, "--seed", str(self.args.seed)]
            child = self.spawn(argv + ["--work", str(self.work)], ready=True)
            if child.code != 0 or math.isnan(child.ready_s):
                raise RuntimeError(f"set-up failed: exit {child.code}: {child.stderr}")
            times.append(child.ready_s)
            refs.append(self.reference_seconds("startup"))
        scaled = scaled_times(times, refs, NOMINAL_S["startup"])
        self.notes.append(
            f"setup: measured p50 {median(times[SETUP_DISCARD:]):.4f} s, reference startup "
            f"p50 {median(refs):.4f} s"
        )
        return median(scaled[SETUP_DISCARD:])

    def run(self) -> dict:
        self.thread_check()
        setup_s = None if self.args.trace else self.setup_seconds()
        ops = self.report_loop() if self.spec["kind"] == "report" else self.gabor_loop()
        timed = [op for op in ops if not op.traced]
        if not timed:
            raise RuntimeError("no op completed: " + "; ".join(self.failures[:3]))
        secs = [op.seconds for op in timed]
        if self.ref_seconds is not None:
            job = self.spec["reference"]
            nominal = NOMINAL_S[job]
            self.notes.append(
                f"timing: op times scaled to reference job {job} at {nominal} s; measured "
                f"op p50 {median(secs):.4f} s, reference p50 {median(self.ref_seconds):.4f} s "
                f"over {len(self.ref_seconds)} runs"
            )
            secs = scaled_times(secs, self.ref_seconds, nominal)
        if not self.args.trace:
            tail, pct, beyond = tail_percentile(secs)
            self.notes.append(f"op_tail_s: p{pct} of {len(secs)} ops, {beyond} samples beyond it")
            return {
                "ops_per_s": len(secs) / sum(secs),
                "op_p50_s": median(secs),
                "op_tail_s": tail,
                "peak_rss_mb": max(op.rss_mb for op in timed),
                "setup_s": setup_s,
            }
        traced = [op for op in ops if op.traced and op.metrics is not None]
        if not traced:
            raise RuntimeError("no traced op completed: " + "; ".join(self.failures[:3]))
        # median_low picks one op's value, so counts stay whole numbers.
        metrics = {
            name: median_low(op.metrics[name] for op in traced)
            for name in traced[0].metrics
        }
        traced_p50 = median(op.seconds for op in traced)
        metrics["trace.overhead_ratio"] = traced_p50 / median(secs)
        self.notes.append(
            f"trace: {len(traced)} traced ops (p50 {traced_p50:.4f} s) "
            f"vs {len(secs)} untraced (p50 {median(secs):.4f} s)"
        )
        return metrics


def child_env(root: Path) -> dict:
    """The environment every child gets: the checkout's src/ first on
    PYTHONPATH, TFKIT_THREADS unset, BLAS on one thread.

    One client runs at a time, so a second BLAS thread would only wait
    for the host to schedule it on the other core: with two threads on a
    2-vCPU machine gabor-design's 30-second medians spread by 0.18 run to
    run, with one by 0.07 (README.md, "Timing").
    """
    env = dict(os.environ)
    env.pop("TFKIT_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_ENV:
        env[var] = "1"
    return env


def main(argv=None) -> int:
    workloads = load_workloads()["workloads"]
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "tfkit" / "__init__.py").is_file():
        print(
            "run.py: no tfkit source at src/tfkit; run from the root of a tfkit checkout",
            file=sys.stderr,
        )
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env(root)
    os.environ.pop("TFKIT_THREADS", None)
    for var in BLAS_ENV:  # before numpy is imported here, for the record
        os.environ[var] = env[var]
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(root, args, workloads[args.workload], work, env)
        try:
            metrics = bench.run()
        except RuntimeError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print("env " + json.dumps(environment(root, args, nproc), sort_keys=True))
    for note in bench.notes:
        print(note)
    for message in bench.failures:
        print(f"failed: {message}")
    error_rate = bench.failed / bench.attempted
    print(f"metric error_rate = {error_rate:.6g} ratio ({bench.failed}/{bench.attempted})")
    result = {}
    for name, value in metrics.items():
        check_name(name)
        result[name] = {"value": value, "unit": units[name]}
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
