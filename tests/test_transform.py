import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfkit import transform
from tfkit.errors import GroupMismatchError, WindowError
from tfkit.frames import GaborSystem
from tfkit.groups import PhasePoint, character_table, make_group, make_lattice
from tfkit.signals import (
    Signal,
    constant,
    convolve,
    dirac,
    gauss,
    involute,
    l1_norm,
    l2_norm,
    modulate,
    random_signal,
    tf_shift,
)
from tfkit.transform import (
    PhaseTable,
    analysis,
    m1_norm,
    mod_norm,
    mod_norm_conv,
    mod_norms,
    pairing_mags,
    pairing_rows,
    pairing_table,
    phase_atoms,
    phase_points,
    require_exponent,
    stft,
    stft_invert,
    synthesis,
    weighted_pnorm,
    window_equivalence_ratio,
)

from oracles import gabor_atoms, naive_char, node_row_synthesis

ORDERS = st.sampled_from([(2,), (3,), (6,), (2, 3)])


def naive_stft(window, s):
    """V[x, w] = sum_t weight * s(t) conj(w(t) g(t - x))."""
    g = window.group
    els = g.elements()
    wt = float(g.weight)
    out = np.zeros((g.order, g.order), dtype=complex)
    for ix, x in enumerate(els):
        for iw, w in enumerate(els):
            acc = 0j
            for it, t in enumerate(els):
                atom = naive_char(g, t, w) * window.values[g.index(g.add(t, g.neg(x)))]
                acc += s.values[it] * atom.conjugate()
            out[ix, iw] = acc * wt
    return out


def naive_pairing(window, s):
    """B[x, w] = sum_t weight * w(t) g(t - x) s(t)   (no conjugation)."""
    g = window.group
    els = g.elements()
    wt = float(g.weight)
    out = np.zeros((g.order, g.order), dtype=complex)
    for ix, x in enumerate(els):
        for iw, w in enumerate(els):
            acc = 0j
            for it, t in enumerate(els):
                atom = naive_char(g, t, w) * window.values[g.index(g.add(t, g.neg(x)))]
                acc += s.values[it] * atom
            out[ix, iw] = acc * wt
    return out


def test_phase_table_validation():
    g = make_group((4,))
    with pytest.raises(ValueError):
        PhaseTable(g, np.zeros((4, 3)))
    table = PhaseTable(g, np.zeros((4, 4)))
    assert table.phase_weight == pytest.approx(0.25)


def test_phase_points_enumeration():
    g = make_group((2,))
    pts = phase_points(g)
    assert pts == [
        PhasePoint((0,), (0,)),
        PhasePoint((0,), (1,)),
        PhasePoint((1,), (0,)),
        PhasePoint((1,), (1,)),
    ]


def test_zero_window_rejected():
    g = make_group((4,))
    zero = Signal(g, np.zeros(4))
    with pytest.raises(WindowError):
        stft(zero, dirac(g))
    with pytest.raises(WindowError):
        mod_norm(dirac(g), zero, 1)


def test_group_mismatch_rejected():
    a = make_group((4,))
    b = make_group((5,))
    with pytest.raises(GroupMismatchError):
        stft(dirac(a), dirac(b))
    # the dual of Z/4 has the same order and another Haar weight
    for lattice in (make_lattice(b, 1, 1), make_lattice(a.dual(), 1, 1)):
        with pytest.raises(GroupMismatchError):
            synthesis(dirac(a), lattice, np.ones(lattice.size))
        with pytest.raises(GroupMismatchError):
            analysis(dirac(a), lattice, dirac(lattice.group))
    with pytest.raises(GroupMismatchError):
        analysis(dirac(a), make_lattice(a, 1, 1), dirac(a.dual()))


def test_stft_matches_direct_sum():
    for orders in [(6,), (2, 3)]:
        g = make_group(orders)
        win = random_signal(g, 1)
        s = random_signal(g, 2)
        fast = stft(win, s).values
        slow = naive_stft(win, s)
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_pairing_table_matches_direct_sum():
    for orders in [(6,), (2, 3)]:
        g = make_group(orders)
        win = random_signal(g, 3)
        s = random_signal(g, 4)
        fast = pairing_table(win, s).values
        slow = naive_pairing(win, s)
        assert np.max(np.abs(fast - slow)) < 1e-12


@given(st.data())
def test_stft_inversion(data):
    g = make_group(data.draw(ORDERS))
    win = random_signal(g, data.draw(st.integers(0, 5)))
    s = random_signal(g, data.draw(st.integers(6, 11)))
    back = stft_invert(win, stft(win, s))
    assert np.max(np.abs(back.values - s.values)) < 1e-10


def test_stft_inversion_on_basis():
    g = make_group((8,))
    win = gauss(g, 1.0)
    for k in range(8):
        e = dirac(g, (k,))
        back = stft_invert(win, stft(win, e))
        assert np.max(np.abs(back.values - e.values)) < 1e-12


def test_energy_identity():
    """sum of |stft|^2 with the phase weight = ||f||^2 ||g||^2."""
    g = make_group((2, 3))
    win = random_signal(g, 1)
    s = random_signal(g, 2)
    table = stft(win, s)
    total = float(np.sum(np.abs(table.values) ** 2) * table.phase_weight)
    assert total == pytest.approx((l2_norm(s) * l2_norm(win)) ** 2, rel=1e-12)


def test_mod_norm_exponent_validation():
    g = make_group((4,))
    with pytest.raises(ValueError):
        mod_norm(dirac(g), gauss(g, 1.0), 0.5)


def test_require_exponent_takes_one_to_infinity_and_fails_nan():
    for p in (1, 1.5, 2, 1e300, math.inf):
        require_exponent(p)
    for bad in (0.5, 0, -1, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^exponent must be in \[1, inf\], got "):
            require_exponent(bad)
    # True >= 1 held, so a bool passed as the exponent 1
    for bad in (True, np.True_, "2", None):
        with pytest.raises(TypeError, match=r"^an exponent must be a real number, got "):
            require_exponent(bad)


def test_mod_norms_from_table():
    g = make_group((6,))
    win = gauss(g, 1.0)
    s = random_signal(g, 5)
    mags = np.abs(naive_pairing(win, s))
    wp = float(g.weight * g.dual_weight)
    for p in (1, 2, 4):
        want = (np.sum(mags**p) * wp) ** (1.0 / p)
        assert mod_norm(s, win, p) == pytest.approx(want, rel=1e-12)
    assert mod_norm(s, win, math.inf) == pytest.approx(mags.max(), rel=1e-12)


def test_m2_equals_energy():
    g = make_group((8,))
    win = random_signal(g, 1)
    s = random_signal(g, 2)
    assert mod_norm(s, win, 2) == pytest.approx(l2_norm(s) * l2_norm(win), rel=1e-12)


def test_frozen_values():
    # hand-checkable: impulse window and impulse signal on Z/2
    g2 = make_group((2,))
    assert m1_norm(dirac(g2), dirac(g2)) == pytest.approx(1.0, abs=1e-15)
    # frozen against a direct triple-sum oracle run
    g8 = make_group((8,))
    win = gauss(g8, 1.0)
    s = random_signal(g8, 1)
    assert m1_norm(s, win) == pytest.approx(6.331315826314121, rel=1e-12)
    assert mod_norm(s, win, math.inf) == pytest.approx(1.474290355708497, rel=1e-12)


def test_conv_route_equals_reflected_window_route():
    """The convolution form of the time-frequency l1 size equals the m1
    norm against the reflected window, exactly."""
    for orders in [(6,), (2, 3), (8,)]:
        g = make_group(orders)
        win = random_signal(g, 7)
        s = random_signal(g, 8)
        lhs = mod_norm_conv(s, win)
        rhs = m1_norm(s, involute(win))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def loop_mod_norm_conv(s, window):
    """One convolution per modulation, summed in enumeration order."""
    g = s.group
    total = 0.0
    for w in g.elements():
        total += l1_norm(convolve(modulate(s, w), window))
    return float(total * float(g.dual_weight))


# the row sums go through blocks of 2^15 // |G| rows: one block up to
# Z/128, 8 blocks on Z/512, and a short last block on Z/16 x Z/40 (12
# blocks of 51 rows, then 28)
@pytest.mark.parametrize(
    "orders", [(64,), (128,), (8, 16), (12,), (2, 3), (1,), (512,), (16, 40)]
)
def test_conv_route_is_the_convolution_loop_bit_for_bit(orders):
    g = make_group(orders)
    for seed in range(3):
        s, win = random_signal(g, seed), random_signal(g, seed + 10)
        assert mod_norm_conv(s, win) == loop_mod_norm_conv(s, win)


def test_conv_route_works_in_one_table_sized_array():
    # Z/512 with the character table cached: the modulations, their
    # spectra, the products and the convolutions share one 4 MiB array;
    # the route with four such arrays peaked at 16 MiB
    g = make_group((512,))
    s, win = random_signal(g, 0), gauss(g, 8.0)
    character_table(g)
    tracemalloc.start()
    try:
        mod_norm_conv(s, win)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


def test_conv_route_is_equivalent_for_symmetric_windows():
    # gauss is symmetric, so the two routes agree on the nose
    g = make_group((8,))
    win = gauss(g, 1.0)
    s = random_signal(g, 9)
    assert mod_norm_conv(s, win) == pytest.approx(m1_norm(s, win), rel=1e-12)


def test_window_equivalence_ratio():
    g = make_group((8,))
    g1 = gauss(g, 1.0)
    g2 = gauss(g, 0.5)
    probes = [random_signal(g, k) for k in range(6)] + [dirac(g), constant(g)]
    lo, hi = window_equivalence_ratio(g1, g2, probes)
    assert 0 < lo <= hi
    # swapping windows inverts the bracket
    lo2, hi2 = window_equivalence_ratio(g2, g1, probes)
    assert lo2 == pytest.approx(1.0 / hi, rel=1e-10)
    assert hi2 == pytest.approx(1.0 / lo, rel=1e-10)


def test_window_equivalence_ratio_rejects_all_zero():
    g = make_group((4,))
    with pytest.warns(UserWarning), pytest.raises(ValueError):
        window_equivalence_ratio(gauss(g, 1.0), gauss(g, 0.5), [Signal(g, np.zeros(4))])


def test_window_equivalence_ratio_skips_zero_probes():
    g = make_group((4,))
    probes = [Signal(g, np.zeros(4)), random_signal(g, 1)]
    with pytest.warns(UserWarning):
        lo, hi = window_equivalence_ratio(gauss(g, 1.0), gauss(g, 0.5), probes)
    assert 0 < lo <= hi


def _complex_window(grp, seed):
    return random_signal(grp, seed) + gauss(grp, 1.0)


@pytest.mark.parametrize("orders", [(12,), (2, 3), (1, 4), (4, 1, 2)])
def test_phase_points_are_every_pair_of_elements(orders):
    g = make_group(orders)
    elems = g.elements()
    pts = phase_points(g)
    assert pts == [PhasePoint(x, w) for x in elems for w in elems]
    assert all(type(c) is int for p in pts for c in p.x + p.w)


def test_phase_atoms_rows_are_tf_shifts_in_table_order():
    grp = make_group((2, 3))
    window = _complex_window(grp, 11)
    atoms = phase_atoms(window)
    assert atoms.shape == (grp.order**2, grp.order)
    for row, point in zip(atoms, phase_points(grp)):
        np.testing.assert_allclose(row, tf_shift(window, point).values, rtol=0, atol=1e-14)


def test_phase_atoms_subset_matches_full_rows_and_gabor_atoms():
    grp = make_group((2, 6))
    window = _complex_window(grp, 12)
    lattice = make_lattice(grp, (1, 2), (2, 3))
    points = lattice.points()
    # node indices in first-seen order, independent of lattice.nodes
    times = list(dict.fromkeys(grp.index(x) for x, _ in points))
    freqs = list(dict.fromkeys(grp.index(w) for _, w in points))
    rows = [grp.index(x) * grp.order + grp.index(w) for x, w in points]
    subset = phase_atoms(window, times, freqs)
    np.testing.assert_array_equal(subset, phase_atoms(window)[rows])
    np.testing.assert_array_equal(subset, gabor_atoms(GaborSystem(window, lattice)))


def test_row_readers_leave_no_character_table_behind():
    # Z/2048: the whole character table is 67 MB, and once cached it stays
    g = make_group((2048,))
    f = random_signal(g, 3)
    window = gauss(g, 16.0)
    before = character_table.cache_info()
    tracemalloc.start()
    try:
        modulate(f, (5,))
        phase_atoms(window, [0, 64], np.arange(0, 2048, 256))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert character_table.cache_info() == before
    assert held < 1 << 20


@pytest.mark.parametrize("orders", [(8,), (2, 3)])
def test_pairing_rows_match_pairing_table_row_by_row(orders):
    grp = make_group(orders)
    window = _complex_window(grp, 13)
    rows = np.stack([random_signal(grp, 20 + j).values for j in range(4)])
    tables = pairing_rows(window, rows)
    assert tables.shape == (4, grp.order**2)
    for j, row in enumerate(rows):
        expected = pairing_table(window, Signal(grp, row)).values.ravel()
        np.testing.assert_allclose(tables[j], expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("orders", [(8,), (2, 3), (1,), (182,)])
@pytest.mark.parametrize("real", [True, False])
def test_pairing_mags_are_the_magnitudes_of_pairing_rows(monkeypatch, orders, real):
    # real and complex windows, finite and non-finite rows; a block of
    # 3 |G| entries holds one row (three at |G| = 1), one of 2 |G|^2 holds
    # two and leaves the fifth row alone, and at |G| = 182 one row's |G|^2
    # is more than 2^15
    grp = make_group(orders)
    window = gauss(grp, 1.0) if real else _complex_window(grp, 13)
    rows = np.stack([random_signal(grp, 20 + j).values for j in range(5)])
    for bad in (None, math.inf, math.nan):
        # an inf entry times a zero gives NaN in the complex product
        if bad is not None:
            rows[2, -1] = bad
        with np.errstate(invalid="ignore"):
            want = np.abs(pairing_rows(window, rows))
            for block in (2**15, 3 * grp.order, 2 * grp.order**2):
                monkeypatch.setattr(transform, "_BLOCK_ENTRIES", block)
                out = np.full((5, grp.order**2), -1.0)
                assert pairing_mags(window, rows, out) is out
                assert np.array_equal(out, want, equal_nan=True)
    with pytest.raises(ValueError):
        pairing_mags(window, rows, np.empty((5, 2 * grp.order**2))[:, ::2])


def _split_rows(grp, count, seed, bad=False):
    rows = np.stack([random_signal(grp, seed + j).values for j in range(count)])
    if bad:
        # an inf in the helper's half, a NaN in the caller's
        rows[-1, 3], rows[1, -1] = math.inf, math.nan
    return rows


# name -> (window, rows) of one pairing_mags call that spans at least four
# full blocks of the default budget, so that it splits
SPLIT_CASES = {
    "odd-rows-16": lambda: (gauss(make_group((16,)), 2.0), _split_rows(make_group((16,)), 513, 1)),
    # one chunk of a Z/24 -> Z/28 pass: 13 time nodes of 24 rows each
    "chunk-24-28": lambda: (gauss(make_group((28,)), 2.5), _split_rows(make_group((28,)), 13 * 24, 2)),
    # the dual group's Haar weight is 1/64
    "dual-4x16": lambda: (
        gauss(make_group((4, 16)).dual(), 2.5),
        _split_rows(make_group((4, 16)).dual(), 33, 3),
    ),
    "complex-window-10": lambda: (
        _complex_window(make_group((10,)), 4),
        _split_rows(make_group((10,)), 4 * 327 + 1, 5),
    ),
    "inf-nan-rows-32": lambda: (gauss(make_group((32,)), 3.0), _split_rows(make_group((32,)), 129, 6, True)),
}


@pytest.mark.parametrize("name", list(SPLIT_CASES))
def test_split_pairing_mags_have_the_bits_of_one_thread(monkeypatch, helper_fills, name):
    window, rows = SPLIT_CASES[name]()
    n = window.group.order
    with np.errstate(invalid="ignore"):
        monkeypatch.setattr(transform, "_many_cpus", lambda: False)
        one = pairing_mags(window, rows, np.empty((len(rows), n * n)))
        assert helper_fills == ["MainThread"]
        monkeypatch.setattr(transform, "_many_cpus", lambda: True)
        two = pairing_mags(window, rows, np.full((len(rows), n * n), -1.0))
        assert sorted(helper_fills[1:]) == ["MainThread", "tfkit-pairing"]
        want = np.abs(pairing_rows(window, rows))
    assert np.array_equal(two, one, equal_nan=True)
    assert np.array_equal(two, want, equal_nan=True)


def test_short_calls_and_one_cpu_stay_on_the_callers_thread(monkeypatch, helper_fills):
    # Z/32 has 32 rows per block: 127 rows are under four blocks; with one
    # CPU even 128 rows stay on the caller's thread
    grp = make_group((32,))
    window = gauss(grp, 3.0)
    pairing_mags(window, _split_rows(grp, 127, 7), np.empty((127, 32 * 32)))
    assert helper_fills == ["MainThread"]
    pairing_mags(window, _split_rows(grp, 128, 7), np.empty((128, 32 * 32)))
    assert sorted(helper_fills[1:]) == ["MainThread", "tfkit-pairing"]
    monkeypatch.setattr(transform, "_many_cpus", lambda: False)
    pairing_mags(window, _split_rows(grp, 128, 7), np.empty((128, 32 * 32)))
    assert helper_fills[3:] == ["MainThread"]


def test_a_row_over_half_the_budget_is_never_split(helper_fills):
    # Z/160: one row's |G|^2 is more than half the 2^15 budget, so a block
    # holds one row, and a block on each thread would double it
    grp = make_group((160,))
    pairing_mags(gauss(grp, 8.0), _split_rows(grp, 8, 8), np.empty((8, 160 * 160)))
    assert helper_fills == ["MainThread"]


@pytest.mark.parametrize("failing", ["tfkit-pairing", "MainThread"])
def test_an_error_in_either_half_reaches_the_caller_after_both_stop(monkeypatch, failing):
    # the half that does not fail is slow and notes when it ends; the
    # error must arrive after that note, and the helper must serve the
    # next call
    grp = make_group((32,))
    window, rows = gauss(grp, 3.0), _split_rows(grp, 128, 9)
    fill, ended = transform._fill_mags, []

    def failing_half(*args):
        name = threading.current_thread().name
        if name == failing:
            raise RuntimeError(f"{name} failed")
        time.sleep(0.05)
        fill(*args)
        ended.append(name)

    monkeypatch.setattr(transform, "_many_cpus", lambda: True)
    monkeypatch.setattr(transform, "_fill_mags", failing_half)
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        pairing_mags(window, rows, np.empty((128, 32 * 32)))
    assert ended == [{"MainThread": "tfkit-pairing", "tfkit-pairing": "MainThread"}[failing]]
    monkeypatch.setattr(transform, "_fill_mags", fill)
    out = pairing_mags(window, rows, np.empty((128, 32 * 32)))
    assert np.array_equal(out, np.abs(pairing_rows(window, rows)))


def test_the_helper_keeps_no_array_of_a_finished_call(helper_fills):
    # a view the helper held while it waits for its next job would keep
    # the pass's chunk, 2 MB at Z/64, alive into the next pass
    grp = make_group((32,))
    out = np.empty((128, 32 * 32))
    pairing_mags(gauss(grp, 3.0), _split_rows(grp, 128, 11), out)
    assert "tfkit-pairing" in helper_fills
    gone = weakref.ref(out)
    del out
    assert gone() is None


def test_concurrent_callers_share_the_one_helper(monkeypatch):
    # more calling threads than CPUs, switching often: every call queues
    # its half on the one helper thread and must still get its own bits
    grp = make_group((16,))
    window = gauss(grp, 2.0)
    calls = [_split_rows(grp, 4 * 128 + j, 10 + j) for j in range(6)]
    want = [np.abs(pairing_rows(window, rows)) for rows in calls]
    monkeypatch.setattr(transform, "_many_cpus", lambda: True)
    got, errors = [None] * len(calls), []

    def call(j):
        try:
            for _ in range(3):
                got[j] = pairing_mags(window, calls[j], np.empty((len(calls[j]), 16 * 16)))
        except Exception as error:
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(j,)) for j in range(len(calls))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert [t.name for t in threading.enumerate()].count("tfkit-pairing") == 1


def test_weighted_pnorm_reduces_whole_array_or_one_axis():
    mags = np.abs(random_signal(make_group((12,)), 5).values).reshape(3, 4)
    assert weighted_pnorm(mags, 0.5, 2) == pytest.approx(math.sqrt(0.5 * np.sum(mags**2)))
    assert weighted_pnorm(mags, 0.5, math.inf) == mags.max()
    np.testing.assert_allclose(weighted_pnorm(mags, 2.0, 1, axis=0), 2.0 * mags.sum(axis=0))
    np.testing.assert_array_equal(weighted_pnorm(mags, 2.0, math.inf, axis=1), mags.max(axis=1))


@pytest.mark.parametrize("orders", [(8,), (2, 3), (12,)])
def test_mod_norms_read_every_order_off_one_table(monkeypatch, orders):
    grp = make_group(orders)
    window, s = _complex_window(grp, 14), random_signal(grp, 15)
    ps = (1, 1.5, 2, 4, math.inf)
    tables = []

    def counting(*args):
        tables.append(args)
        return pairing_rows(*args)

    monkeypatch.setattr(transform, "pairing_rows", counting)
    norms = mod_norms(s, window, ps)
    assert len(tables) == 1
    mags = np.abs(pairing_table(window, s).values)
    for p, norm in zip(ps, norms):
        assert norm == mod_norm(s, window, p) == float(weighted_pnorm(mags, grp.phase_weight, p))
    # every order is checked before the table is built
    for bad in (0.5, math.nan):
        tables.clear()
        with pytest.raises(ValueError):
            mod_norms(s, window, (1, bad))
        assert tables == []


@st.composite
def _dgt_cases(draw):
    # 1-3 cyclic factors, |G| <= 36, optionally the dual (Haar weight
    # 1/|G|); steps that divide the orders, so that p_j > 1 occurs (Z/12
    # with a = b = 3 has p = 3); real or complex windows
    orders = [draw(st.integers(1, 12))]
    while len(orders) < 3 and 36 // math.prod(orders) > 1 and draw(st.booleans()):
        orders.append(draw(st.integers(1, min(12, 36 // math.prod(orders)))))
    grp = make_group(orders)
    grp = grp.dual() if draw(st.booleans()) else grp

    def steps():
        divisors = ([d for d in range(1, n + 1) if n % d == 0] for n in orders)
        return tuple(draw(st.sampled_from(ds)) for ds in divisors)

    lattice = make_lattice(grp, steps(), steps())
    seed = draw(st.integers(0, 2**16))
    values = random_signal(grp, seed).values
    window = Signal(grp, values.real + 1.0 if draw(st.booleans()) else values + 1.0)
    return window, lattice, seed


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_dgt_cases())
def test_dgt_pair_matches_dense_atoms_and_the_whole_table(case):
    # analysis and synthesis against the tf_shift atoms on the drawn
    # lattice; at unit steps, analysis against stft and synthesis against
    # the former whole-table route (node_row_synthesis on every node)
    window, lattice, seed = case
    grp = window.group
    f = random_signal(grp, seed + 1)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(lattice.size) + 1j * rng.standard_normal(lattice.size)
    atoms = gabor_atoms(GaborSystem(window, lattice))
    _assert_close(analysis(window, lattice, f), (atoms.conj() @ f.values) * float(grp.weight))
    _assert_close(synthesis(window, lattice, coeffs), coeffs @ atoms)
    unit = make_lattice(grp, 1, 1)
    _assert_close(analysis(window, unit, f), stft(window, f).values.ravel())
    shape = (grp.order, grp.order)
    table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = node_row_synthesis(GaborSystem(window, unit), table)
    _assert_close(synthesis(window, unit, table), want)


def _round_trip(values, axes, out=None):
    # the character sum as the normalized inverse FFT times n
    sums = np.fft.ifftn(values, axes=axes, out=out)
    sums *= math.prod(values.shape[a] for a in axes)
    return sums


# (orders, dual, time step, frequency step): power-of-two orders, where
# the sum is the unnormalized inverse FFT, then orders where it is the
# round trip itself
CHARACTER_SUM_CASES = [
    ((32,), False, 4, 4),
    ((8, 16), False, (2, 4), (4, 2)),
    ((2, 2, 16), False, (1, 2, 4), (2, 1, 4)),
    ((8, 16), True, 2, 2),  # Haar weight 1/|G|
    ((24,), False, 4, 4),
    ((2, 3), False, 1, 1),
]


@pytest.mark.parametrize("orders, dual, a, b", CHARACTER_SUM_CASES)
def test_character_sums_have_the_bits_of_the_round_trip(monkeypatch, orders, dual, a, b):
    grp = make_group(orders).dual() if dual else make_group(orders)
    window = _complex_window(grp, 3)
    lattice = make_lattice(grp, a, b)
    rows = np.stack([random_signal(grp, 40 + j).values for j in range(3)])
    f = random_signal(grp, 50)
    rng = np.random.default_rng(51)
    coeffs = rng.standard_normal(lattice.size) + 1j * rng.standard_normal(lattice.size)

    def outputs():
        return (
            pairing_rows(window, rows),
            analysis(window, lattice, f),
            synthesis(window, lattice, coeffs),
        )

    got = outputs()
    monkeypatch.setattr(transform, "_character_sum", _round_trip)
    for new, old in zip(got, outputs()):
        assert np.array_equal(new, old)


def test_stft_invert_makes_one_table_sized_array():
    # Z/1024: the table is 16 MiB of complex values, and the inversion
    # makes one more array that size (its character sums); a copy of the
    # shift matrix or its product with the sums would be 16 MiB each
    g = make_group((1024,))
    window = gauss(g, 8.0)
    table = stft(window, random_signal(g, 0))
    tracemalloc.start()
    try:
        stft_invert(window, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20
