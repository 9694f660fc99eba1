import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


def child_env() -> dict:
    """Environment for a worker process importing tfkit from this checkout."""
    env = dict(os.environ)
    env.pop("TFKIT_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env
