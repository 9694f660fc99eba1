import threading

import hypothesis
import pytest

from tfkit import kernels, transform

hypothesis.settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_stored_operator_passes():
    # each test starts with an empty memo of operator_phase_sums, so a
    # test that patches a chunk or block constant runs the pass it checks
    kernels._memo.clear()


@pytest.fixture
def helper_fills(monkeypatch):
    """Force transform.pairing_mags's two-thread split on, whatever the
    CPU count, and record the name of the thread that fills each half:
    "MainThread" for the caller, "tfkit-pairing" for the helper."""
    fills = []

    def spying(*args):
        fills.append(threading.current_thread().name)
        fill(*args)

    fill = transform._fill_mags
    monkeypatch.setattr(transform, "_many_cpus", lambda: True)
    monkeypatch.setattr(transform, "_fill_mags", spying)
    return fills
