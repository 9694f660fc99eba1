import hypothesis
import pytest

from tfkit import kernels

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
