import math
import random

import pytest

from stats import check_name, scaled_times, tail_percentile


def test_tail_with_few_samples_is_the_max():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100, 0)
    assert tail_percentile(list(range(10))) == (9, 100, 0)


def test_tail_at_eleven_samples_leaves_ten_beyond():
    xs = [float(i) for i in range(11)]
    assert tail_percentile(xs) == (0.0, 9, 10)


def test_tail_at_sixty_samples_is_p83():
    xs = [float(i) for i in range(60)]
    value, p, beyond = tail_percentile(xs)
    assert (p, beyond) == (83, 10)
    assert value == 49.0


@pytest.mark.parametrize("n", [11, 12, 19, 20, 37, 99, 100, 101, 1000])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    xs = random.Random(n).sample(range(10 * n), n)
    value, p, beyond = tail_percentile(xs)
    ranked = sorted(xs)
    rank = math.ceil(p * n / 100)
    assert value == ranked[rank - 1]
    assert beyond == n - rank >= 10
    assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        tail_percentile([])


@pytest.mark.parametrize(
    "name",
    ["op_p50_s", "kernels.phase_table_mb", "report-large", "9lives", "a" * 64],
)
def test_good_metric_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize(
    "name",
    ["", "_x", ".x", "a b", "x/y", "x:y", "ops/s", "é", "a" * 65, None, 3],
)
def test_bad_metric_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_scaled_times_use_the_reference_on_either_side():
    # op 0 sits between references 0.2 and 0.4, op 1 between 0.4 and 0.4.
    assert scaled_times([1.0, 2.0], [0.2, 0.4, 0.4], 0.3) == pytest.approx([1.0, 1.5])


def test_scaled_times_cancel_a_shared_drift():
    ops = [0.5, 0.5, 0.5]
    refs = [0.3, 0.3, 0.3, 0.3]
    slow = scaled_times([t * 1.4 for t in ops], [r * 1.4 for r in refs], 0.3)
    assert slow == pytest.approx(scaled_times(ops, refs, 0.3))
    assert slow == pytest.approx(ops)


def test_scaled_times_need_one_reference_more_than_ops():
    with pytest.raises(ValueError):
        scaled_times([1.0, 2.0], [0.3, 0.3], 0.3)
