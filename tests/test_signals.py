import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfkit.errors import GroupMismatchError
from tfkit.groups import PhasePoint, character_table, make_group
from tfkit.signals import (
    Signal,
    constant,
    convolve,
    dirac,
    fft_axes,
    fourier,
    gauss,
    inner,
    inv_fourier,
    involute,
    l1_norm,
    l2_norm,
    modulate,
    pair_bilinear,
    pointwise,
    random_signal,
    shift_matrix,
    shift_windows,
    sup_norm,
    tensor,
    tf_shift,
    translate,
)

from oracles import naive_char

ORDERS = st.sampled_from([(2,), (3,), (8,), (2, 3), (4, 2)])


def naive_fourier(f):
    """Direct DFT: F(w) = weight * sum_x conj(w(x)) f(x), on the dual."""
    g = f.group
    els = g.elements()
    out = np.zeros(g.order, dtype=complex)
    for iw, w in enumerate(els):
        out[iw] = float(g.weight) * sum(
            naive_char(g, x, w).conjugate() * f.values[ix] for ix, x in enumerate(els)
        )
    return Signal(g.dual(), out)


def naive_convolve(f, h):
    g = f.group
    els = g.elements()
    out = np.zeros(g.order, dtype=complex)
    for iy, y in enumerate(els):
        out[iy] = float(g.weight) * sum(
            f.values[ix] * h.values[g.index(g.add(y, g.neg(x)))]
            for ix, x in enumerate(els)
        )
    return Signal(g, out)


def test_signal_validation_and_immutability():
    g = make_group((4,))
    with pytest.raises(ValueError):
        Signal(g, np.zeros(3))
    s = dirac(g)
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_dirac_constant_gauss():
    g = make_group((2, 3))
    d = dirac(g, (1, 2))
    assert d.values[g.index((1, 2))] == 1.0
    assert np.sum(np.abs(d.values)) == 1.0
    c = constant(g, 2.5)
    assert np.all(c.values == 2.5)
    bell = gauss(g, 1.0)
    assert bell.values[0] == 1.0  # peak at the origin
    assert np.all(bell.values.real > 0)
    assert np.max(np.abs(bell.values.imag)) == 0.0


def test_gauss_spread_whose_square_underflows_is_rejected():
    g = make_group((8,))
    for bad in (1e-300, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            gauss(g, bad)
    assert np.all(np.isfinite(gauss(g, 1e-150).values))
    # the square overflows, and the bump is 1 everywhere
    assert np.array_equal(gauss(g, 1e200).values, np.ones(8))


def test_gauss_is_symmetric():
    g = make_group((8,))
    bell = gauss(g, 0.7)
    vals = bell.values
    for x in range(1, 8):
        assert vals[x] == pytest.approx(vals[(-x) % 8], abs=0)


def test_arithmetic_and_group_mismatch():
    g = make_group((4,))
    h = make_group((5,))
    s = random_signal(g, 0)
    t = random_signal(g, 1)
    assert np.allclose((s + t).values, s.values + t.values)
    assert np.allclose((s - t).values, s.values - t.values)
    assert np.allclose((2.0 * s).values, 2.0 * s.values)
    assert np.allclose((-s).values, -s.values)
    with pytest.raises(GroupMismatchError):
        s + random_signal(h, 0)


def test_random_signal_is_reproducible():
    g = make_group((8,))
    assert np.array_equal(random_signal(g, 7).values, random_signal(g, 7).values)
    assert not np.array_equal(random_signal(g, 7).values, random_signal(g, 8).values)


@pytest.mark.parametrize(
    "orders", [(2, 3), (12,), (1, 4), (4, 1, 2)], ids=["2x3", "12", "1x4", "4x1x2"]
)
def test_translate_modulate_match_definitions(orders):
    g = make_group(orders)
    s = random_signal(g, 3)
    els = g.elements()
    for x in els:
        shifted = translate(s, x)
        for it, t in enumerate(els):
            assert shifted.values[it] == s.values[g.index(g.add(t, g.neg(x)))]
        modded = modulate(s, x)
        for it, t in enumerate(els):
            assert modded.values[it] == pytest.approx(
                naive_char(g, t, x) * s.values[it], rel=1e-14
            )


def test_modulations_are_the_modulated_signals():
    # transform.mod_norm_conv reads every modulation off this product
    for orders in [(8,), (2, 3), (3, 1, 4)]:
        g = make_group(orders)
        s = random_signal(g, 4)
        rows = character_table(g) * s.values
        assert rows.shape == (g.order, g.order)
        for row, w in zip(rows, g.elements()):
            assert np.array_equal(row, modulate(s, w).values)


@given(st.data())
def test_tf_shift_composition_phase(data):
    """pi(x1, w1) pi(x2, w2) = w2(-x1) pi(x1 + x2, w1 + w2)."""
    g = make_group(data.draw(ORDERS))
    s = random_signal(g, data.draw(st.integers(0, 10)))
    x1 = tuple(data.draw(st.integers(0, n - 1)) for n in g.orders)
    w1 = tuple(data.draw(st.integers(0, n - 1)) for n in g.orders)
    x2 = tuple(data.draw(st.integers(0, n - 1)) for n in g.orders)
    w2 = tuple(data.draw(st.integers(0, n - 1)) for n in g.orders)
    lhs = tf_shift(tf_shift(s, PhasePoint(x2, w2)), PhasePoint(x1, w1))
    phase = naive_char(g, g.neg(x1), w2)
    rhs = phase * tf_shift(s, PhasePoint(g.add(x1, x2), g.add(w1, w2)))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


@given(st.data())
def test_tf_shift_round_trip(data):
    g = make_group(data.draw(ORDERS))
    s = random_signal(g, data.draw(st.integers(0, 10)))
    x = tuple(data.draw(st.integers(0, n - 1)) for n in g.orders)
    w = tuple(data.draw(st.integers(0, n - 1)) for n in g.orders)
    point = PhasePoint(x, w)
    back = tf_shift(tf_shift(s, point), PhasePoint(g.neg(x), g.neg(w)))
    phase = naive_char(g, x, w).conjugate()
    assert np.max(np.abs(phase * back.values - s.values)) < 1e-12


def test_fourier_matches_direct_dft():
    for orders in [(8,), (5,), (2, 3)]:
        g = make_group(orders)
        s = random_signal(g, 11)
        fast = fourier(s)
        slow = naive_fourier(s)
        assert fast.group == g.dual()
        assert np.max(np.abs(fast.values - slow.values)) < 1e-12


@pytest.mark.parametrize(
    "shape, axes",
    [((12,), (0,)), ((5, 8), (1,)), ((3, 4, 6), (1, 2)), ((2, 3, 4), (0, 1, 2)), ((7, 1), (0,))],
    ids=str,
)
@pytest.mark.parametrize("norm", [None, "forward"])
def test_fft_axes_has_the_bits_of_fftn(shape, axes, norm):
    # one axis is the pocketfft call fftn makes per axis, with or
    # without out=
    rng = np.random.default_rng(3)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for inverse, route in ((False, np.fft.fftn), (True, np.fft.ifftn)):
        want = route(values, axes=axes, norm=norm).tobytes()
        assert fft_axes(values, axes, inverse, norm).tobytes() == want
        out = np.empty_like(values)
        assert fft_axes(values, iter(axes), inverse, norm, out=out) is out
        assert out.tobytes() == want
        work = values.copy()
        fft_axes(work, axes, inverse, norm, out=work)
        assert work.tobytes() == want


@pytest.mark.parametrize("orders", [(8,), (5,), (512,), (2, 3), (4, 1, 6)])
@pytest.mark.parametrize("dual", [False, True], ids=["group", "dual"])
def test_fourier_has_the_bits_of_fftn(orders, dual):
    g = make_group(orders)
    g = g.dual() if dual else g
    s = random_signal(g, 11)
    spec = np.fft.fftn(s.grid()) * float(g.weight)
    assert fourier(s).values.tobytes() == spec.ravel().tobytes()
    back = np.fft.ifftn(np.reshape(spec, g.orders)) * (float(g.dual_weight) * g.order)
    assert inv_fourier(fourier(s)).values.tobytes() == back.ravel().tobytes()


def test_fourier_inverse_round_trip_and_plancherel():
    g = make_group((2, 3))
    s = random_signal(g, 4)
    back = inv_fourier(fourier(s))
    assert back.group == g
    assert np.max(np.abs(back.values - s.values)) < 1e-12
    assert l2_norm(fourier(s)) == pytest.approx(l2_norm(s), rel=1e-12)


def test_fourier_exchanges_translation_and_modulation():
    g = make_group((8,))
    s = random_signal(g, 5)
    lhs = fourier(translate(s, (3,)))
    rhs = modulate(fourier(s), g.neg((3,)))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


def test_convolve_matches_direct_sum():
    for orders in [(6,), (2, 3)]:
        g = make_group(orders)
        f = random_signal(g, 1)
        h = random_signal(g, 2)
        fast = convolve(f, h)
        slow = naive_convolve(f, h)
        assert np.max(np.abs(fast.values - slow.values)) < 1e-12


def test_convolution_with_dirac_is_identity():
    g = make_group((7,))
    s = random_signal(g, 9)
    # counting weight: dirac at 0 is the convolution unit
    out = convolve(s, dirac(g))
    assert np.max(np.abs(out.values - s.values)) < 1e-12


INDEX_ORDERS = [(5,), (2, 3), (1, 4), (4, 1, 2)]


def test_involute_is_an_involution():
    for orders in INDEX_ORDERS:
        g = make_group(orders)
        s = random_signal(g, 6)
        assert np.array_equal(involute(involute(s)).values, s.values)
        els = g.elements()
        flipped = involute(s)
        for ix, x in enumerate(els):
            assert flipped.values[ix] == s.values[g.index(g.neg(x))]


@pytest.mark.parametrize("orders", INDEX_ORDERS)
def test_shift_matrix_rows_are_translates(orders):
    g = make_group(orders)
    s = random_signal(g, 3)
    rows = shift_matrix(s)
    assert rows.shape == (g.order, g.order)
    for ix, x in enumerate(g.elements()):
        assert np.array_equal(rows[ix], translate(s, x).values)


@pytest.mark.parametrize("orders", INDEX_ORDERS)
def test_shift_matrix_builds_only_the_asked_rows(orders):
    g = make_group(orders)
    s = random_signal(g, 4)
    full = shift_matrix(s)
    times = [g.order - 1, 0, g.order // 2, 0]
    for asked in (times, np.array(times), slice(1, None, 2)):
        assert np.array_equal(shift_matrix(s, asked), full[asked])


@pytest.mark.parametrize("orders", INDEX_ORDERS)
def test_shift_windows_view_every_translate(orders):
    g = make_group(orders)
    s = random_signal(g, 5)
    windows = shift_windows(s)
    assert not windows.flags.writeable
    axes = tuple(range(g.nfactors))
    for x in g.elements():
        # the window starting at n - x per factor is T_x s
        want = np.roll(s.grid(), x, axis=axes)
        assert np.array_equal(windows[tuple(n - c for n, c in zip(g.orders, x))], want)


def test_shift_rows_and_involute_keep_no_group_squared_table():
    # Z/2048: an index table over all pairs would be 33.6 MB of int64.
    s = random_signal(make_group((2048,)), 6)
    tracemalloc.start()
    try:
        shift_matrix(s, [0, 5])
        involute(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pairings():
    g = make_group((5,))
    f = random_signal(g, 1)
    s = random_signal(g, 2)
    direct = float(g.weight) * np.sum(f.values * s.values)
    assert pair_bilinear(f, s) == pytest.approx(direct, rel=1e-14)
    assert pair_bilinear(f, s) == pytest.approx(pair_bilinear(s, f), rel=1e-14)
    assert inner(f, s) == pytest.approx(
        float(g.weight) * np.sum(f.values * s.values.conj()), rel=1e-14
    )
    assert inner(f, f).imag == pytest.approx(0.0, abs=1e-14)


def test_norms_on_known_signals():
    g = make_group((4,))
    d = dirac(g)
    assert l1_norm(d) == 1.0
    assert l2_norm(d) == 1.0
    assert sup_norm(d) == 1.0
    dual = g.dual()
    dd = dirac(dual)
    assert l1_norm(dd) == pytest.approx(0.25, abs=0)
    assert l2_norm(dd) == pytest.approx(0.5, abs=0)


def test_tensor_lives_on_the_product():
    a = make_group((2,))
    b = make_group((3,))
    f = random_signal(a, 1)
    h = random_signal(b, 2)
    t = tensor(f, h)
    assert t.group.orders == (2, 3)
    for i in range(2):
        for j in range(3):
            assert t.values[t.group.index((i, j))] == pytest.approx(
                f.values[i] * h.values[j], rel=1e-14
            )
    assert l2_norm(t) == pytest.approx(l2_norm(f) * l2_norm(h), rel=1e-12)


def test_pointwise_product():
    g = make_group((6,))
    f = random_signal(g, 1)
    h = random_signal(g, 2)
    assert np.array_equal(pointwise(f, h).values, f.values * h.values)
