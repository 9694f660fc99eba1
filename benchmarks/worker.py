"""Child processes of the benchmark, and the workload inputs they share
with the driver.

    worker.py setup  --workload W --seed S --work DIR
        import tfkit, build the workload's inputs, print "ready", exit.
    worker.py report [--trace-out FILE --op-id I] -- <tfkit arguments>
        one `tfkit ...` process; with --trace-out the tracer is installed
        before tfkit.cli.main runs and its spans are written to FILE.
    worker.py gabor  --seed S --seconds T --out FILE [--trace | --reference]
        one gabor-design session: op 0 is the warm-up, then a closed loop
        of ops for T seconds; per-op times, checks and digests (and spans
        with --trace) are written to FILE.  With --reference the
        workload's reference job runs after op 0 and after each timed op,
        and its times are written too.

The driver puts the checkout's src/ first on PYTHONPATH, so `tfkit` is
always the one under test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def op_seeds(workload: str, seed: int, count: int) -> list:
    """The few tfkit seeds a report workload's ops rotate through."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def write_report_config(spec: dict, work: Path):
    """The workload's --config file, or None for the built-in defaults."""
    if spec["config"] is None:
        return None
    path = work / "config.json"
    path.write_text(json.dumps(spec["config"], sort_keys=True), encoding="utf-8")
    return path


def gabor_problem(spec: dict, seed: int, index: int) -> tuple:
    """(window spread, probe seed) of gabor-design op `index`."""
    rng = random.Random(f"gabor-design:{seed}:{index}")
    u = 2.0 * rng.random() - 1.0
    spread = math.sqrt(spec["order"]) * (1.0 + spec["spread_jitter"] * u)
    return spread, rng.randrange(2**31)


class GaborSession:
    """The gabor-design inputs and op, built on one imported tfkit."""

    def __init__(self, spec: dict, seed: int):
        import tfkit

        self.tk = tfkit
        self.spec = spec
        self.seed = seed
        self.group = tfkit.make_group([spec["order"]])
        self.lattice = tfkit.make_lattice(
            self.group, spec["time_step"], spec["freq_step"]
        )

    def inputs(self, index: int) -> tuple:
        spread, probe_seed = gabor_problem(self.spec, self.seed, index)
        tk = self.tk
        system = tk.GaborSystem(tk.gauss(self.group, spread), self.lattice)
        return system, tk.random_signal(self.group, probe_seed)

    def run(self, system, probe) -> tuple:
        """The timed calls: bounds, tight window, expand and synthesize
        the probe, bounds of the tight system."""
        tk = self.tk
        bounds = tk.frame_bounds(system)
        tight = tk.tight_window(system)
        coeffs = tk.atomic_expand(probe, system)
        rebuilt = tk.gabor_synthesize(system, coeffs)
        tight_bounds = tk.frame_bounds(tk.GaborSystem(tight, self.lattice))
        return bounds, tight, coeffs, rebuilt, tight_bounds

    def check(self, probe, outputs) -> tuple:
        """(failure message or None, digest of the outputs)."""
        import numpy as np

        bounds, tight, coeffs, rebuilt, tight_bounds = outputs
        h = hashlib.sha256()
        h.update(repr(bounds + tight_bounds).encode())
        for a in (tight.values, coeffs, rebuilt.values):
            h.update(np.ascontiguousarray(a).tobytes())
        f = probe.values
        error = float(np.linalg.norm(rebuilt.values - f))
        limit = self.spec["reconstruction_tol"] * max(1.0, float(np.linalg.norm(f)))
        if not bounds[0] > 0:
            return f"not a frame: bounds {bounds}", h.hexdigest()
        if not error <= limit:
            return f"probe reconstruction error {error:.3e} > {limit:.3e}", h.hexdigest()
        tol = self.spec["tight_tol"]
        if not all(abs(b - 1.0) <= tol for b in tight_bounds):
            return f"tight system bounds {tight_bounds} not within {tol} of 1", h.hexdigest()
        return None, h.hexdigest()


def _setup(args) -> int:
    import tfkit  # noqa: F401

    spec = load_workloads()["workloads"][args.workload]
    if spec["kind"] == "report":
        write_report_config(spec, Path(args.work))
    else:
        GaborSession(spec, args.seed).inputs(1)
    print("ready", flush=True)
    return 0


def _report(args) -> int:
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_op(args.op_id)
    import tfkit.cli

    try:
        code = tfkit.cli.main(args.tfkit_args)
    finally:
        if tracer is not None:
            tracer.end_op()
            tracer.dump(args.trace_out)
    return code


def _gabor(args) -> int:
    spec = load_workloads()["workloads"]["gabor-design"]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    session = GaborSession(spec, args.seed)
    reference_job = None
    if args.reference:
        import reference

        reference_job = reference.JOBS[spec["reference"]]
    ops = []
    ref_seconds = []
    deadline = None
    index = 0
    while deadline is None or time.perf_counter() < deadline:
        system, probe = session.inputs(index)  # traced under op id -1
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter()
        try:
            outputs = session.run(system, probe)
        except Exception as exc:  # a failed op is counted, the loop goes on
            outputs = None
            message = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        digest = None
        if outputs is not None:
            message, digest = session.check(probe, outputs)
        ops.append(
            {"index": index, "seconds": seconds, "error": message, "digest": digest}
        )
        if deadline is None:  # op 0 was the warm-up; the clock starts now
            deadline = time.perf_counter() + args.seconds
        if reference_job is not None:
            start = time.perf_counter()
            reference_job()
            ref_seconds.append(time.perf_counter() - start)
        index += 1
    result = {"ops": ops, "ref_seconds": ref_seconds}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["cache"] = tracer.cache
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    subs = parser.add_subparsers(dest="mode", required=True)
    sub = subs.add_parser("setup")
    sub.add_argument("--workload", required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--work", required=True)
    sub = subs.add_parser("report")
    sub.add_argument("--trace-out", default=None)
    sub.add_argument("--op-id", type=int, default=0)
    sub.add_argument("tfkit_args", nargs=argparse.REMAINDER)
    sub = subs.add_parser("gabor")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--seconds", type=float, required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--trace", action="store_true")
    sub.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "report" and args.tfkit_args[:1] == ["--"]:
        args.tfkit_args = args.tfkit_args[1:]
    return {"setup": _setup, "report": _report, "gabor": _gabor}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
