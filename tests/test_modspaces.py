import math
import tracemalloc

import numpy as np
import pytest

from tfkit import kernels
from tfkit.errors import GroupMismatchError, WindowError
from tfkit.groups import make_group
from tfkit.kernels import (
    KernelOperator,
    fourier_operator,
    identity_operator,
    operator_m1_norm,
    operator_minf_norm,
    rank_one,
)
from tfkit.modspaces import (
    conjugate_exponent,
    empirical_mpq_opnorms,
    mpq_bounds,
    stft_probes,
)
from tfkit.regnets import induced_norms
from tfkit.signals import Signal, gauss, l2_norm, random_signal
from tfkit.transform import mod_norm

from oracles import (
    fourier_induced_norms,
    fourier_mpq_bounds,
    identity_induced_norms,
    identity_mpq_bounds,
    normalized_gauss,
    operator_pairing_table,
)

EXPONENTS = (1, 2, math.inf)
# tracemalloc peak of one streamed pass at order 64: its float chunk of
# |B| (2 MB), raised in place for the last finite p != 1, and the complex
# block (512 KB); the pass with a complex chunk peaked at 8.2 MB
PASS_PEAK_BYTES = 3.5 * 2**20


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def operator_zoo(g):
    rng = np.random.Generator(np.random.PCG64(99))
    k = rng.standard_normal((g.order, g.order)) + 1j * rng.standard_normal(
        (g.order, g.order)
    )
    return {
        "rank_one": rank_one(random_signal(g, 1), random_signal(g, 2)),
        "identity": identity_operator(g),
        "random": KernelOperator(g, g, k),
    }


# ---------------------------------------------------------------------------
# exponent arithmetic


def test_conjugate_exponent_values():
    assert conjugate_exponent(1) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2) == pytest.approx(2.0)
    assert conjugate_exponent(4) == pytest.approx(4.0 / 3.0)
    assert conjugate_exponent(conjugate_exponent(3.0)) == pytest.approx(3.0)


def test_conjugate_exponent_rejects_bad_values():
    for bad in (0.5, 0, -1, math.nan):
        with pytest.raises(ValueError):
            conjugate_exponent(bad)


def test_mixed_norm_rejects_bad_exponents():
    g = make_group((4,))
    w = normalized_gauss(g)
    op = identity_operator(g)
    with pytest.raises(ValueError):
        mpq_bounds(op, w, w, [1, 0.5], [2])
    with pytest.raises(ValueError):
        mpq_bounds(op, w, w, [2], [math.inf, 0.5])


# ---------------------------------------------------------------------------
# corners of the mixed-norm grid coincide with the operator norms


def test_mixed_norm_corners_match_operator_norms():
    g = make_group((6,))
    w1, w2 = normalized_gauss(g), normalized_gauss(g, 0.7)
    for op in operator_zoo(g).values():
        bounds = mpq_bounds(op, w1, w2, [1, 2, math.inf], [1, 2, math.inf])
        assert bounds[0, 0] == pytest.approx(operator_m1_norm(op, w1, w2), rel=1e-13)
        assert bounds[-1, -1] == pytest.approx(operator_minf_norm(op, w1, w2), rel=1e-13)


def test_mixed_norms_interpolate_between_corners():
    g = make_group((6,))
    w = normalized_gauss(g)
    op = operator_zoo(g)["random"]
    exponents = (1, 1.5, 2, 4, math.inf)
    values = np.diag(mpq_bounds(op, w, w, exponents, exponents))
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier * (1 + 1e-12)


def test_mpq_bounds_fold_window_energy():
    g = make_group((6,))
    w = gauss(g, 1.0)  # deliberately unnormalized
    op = operator_zoo(g)["random"]
    mags = np.abs(operator_pairing_table(op, w, w))
    wp = g.phase_weight
    ps, qs = (1, 3, math.inf), (2, math.inf)
    bounds = mpq_bounds(op, w, w, ps, qs)
    assert bounds.shape == (3, 2)
    for i, p in enumerate(ps):
        inner = mags.max(axis=0) if p == math.inf else (wp * (mags**p).sum(axis=0)) ** (1 / p)
        for j, q in enumerate(qs):
            outer = inner.max() if q == math.inf else (wp * (inner**q).sum()) ** (1 / q)
            assert bounds[i, j] == pytest.approx(outer / l2_norm(w) ** 2, rel=1e-13)


def test_mpq_bounds_reject_zero_window_before_the_pass(monkeypatch):
    # the pass checks both windows before its first chunk, so mpq_bounds
    # and the operator norms read a zero g1 or g2 alike
    g = make_group((6,))
    op, zero, win = identity_operator(g), Signal(g, np.zeros(6)), gauss(g, 1.0)
    chunks = []
    monkeypatch.setattr(kernels, "pairing_rows", lambda *a, **k: chunks.append(1))
    for g1, g2 in ((zero, win), (win, zero)):
        with pytest.raises(WindowError):
            mpq_bounds(op, g1, g2, [2], [2])
        with pytest.raises(WindowError):
            operator_m1_norm(op, g1, g2)
        with pytest.raises(WindowError):
            operator_minf_norm(op, g1, g2)
    assert chunks == []


@pytest.mark.parametrize("dom_orders, cod_orders", [((64,), (64,)), ((8, 8), (4, 16))])
def test_two_two_condition_is_moyals_closed_form(dom_orders, cod_orders):
    # Moyal's identity makes the (2, 2) table norm ||g1|| ||g2|| ||K||_HS,
    # with ||K||_HS^2 = sum |K|^2 w1 w2; the full table would take 256 MB
    # here, while the streamed pass holds one 2 MB float chunk of |B|.  The
    # real kernel with real windows takes the pass's half-row route.
    dom, cod = make_group(dom_orders), make_group(cod_orders).dual()
    rng = np.random.default_rng(5)
    shape = (dom.order, cod.order)
    real = rng.standard_normal(shape)
    g2 = gauss(cod, 3.0)
    for kernel, g1 in (
        (real + 1j * rng.standard_normal(shape), random_signal(dom, 1) + gauss(dom, 2.0)),
        (real, gauss(dom, 2.0)),
    ):
        op = KernelOperator(dom, cod, kernel)
        hs = math.sqrt(np.sum(np.abs(op.kernel) ** 2) * float(dom.weight) * float(cod.weight))
        bounds, peak = traced_peak(lambda: mpq_bounds(op, g1, g2, [2], [2]))
        assert bounds[0, 0] == pytest.approx(l2_norm(g2) * hs / l2_norm(g1), rel=1e-13)
        assert peak < PASS_PEAK_BYTES


def test_one_pass_holds_no_complex_chunk():
    # at Z/64 a chunk is one time node, 2^18 entries of B: 4 MB as complex
    # values, 2 MB as the float |B| the pass keeps; the real kernel keeps
    # 33 of the 64 rows of each time node
    g = make_group((64,))
    rng = np.random.default_rng(7)
    real = rng.standard_normal((64, 64))
    w = normalized_gauss(g, 3.0)
    for kernel in (real + 1j * rng.standard_normal((64, 64)), real):
        op = KernelOperator(g, g, kernel)
        _, peak = traced_peak(lambda: induced_norms(op, w))
        assert peak < PASS_PEAK_BYTES
        _, peak = traced_peak(lambda: mpq_bounds(op, w, w, [1, 2, math.inf], [2]))
        assert peak < PASS_PEAK_BYTES


def test_extra_finite_exponents_hold_one_power_chunk():
    # each finite p != 1 but the last is summed from a |B|**p temporary of
    # one chunk (2 MB at Z/64), freed before the next
    g = make_group((64,))
    rng = np.random.default_rng(7)
    op = KernelOperator(g, g, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    w = normalized_gauss(g, 3.0)
    _, peak = traced_peak(lambda: mpq_bounds(op, w, w, [1, 1.5, 2, 3, math.inf], [2]))
    assert peak < PASS_PEAK_BYTES + 2 * 2**20


@pytest.mark.parametrize("orders", [(64,), (8, 8)])
def test_identity_conditions_have_their_closed_form(orders):
    # |B| of the identity is one |G| x |G| table read along shifted
    # diagonals (oracles.identity_mpq_bounds), so the nine conditions and
    # the induced norms are known at orders the dense table cannot reach;
    # the identity kernel is real, so the pass takes its half-row route
    g = make_group(orders)
    op = identity_operator(g)
    g1, g2 = gauss(g, 3.0), gauss(g, 2.0)  # unnormalized, unequal
    bounds = mpq_bounds(op, g1, g2, EXPONENTS, EXPONENTS)
    np.testing.assert_allclose(bounds, identity_mpq_bounds(g1, g2, EXPONENTS, EXPONENTS), rtol=1e-13)
    got = induced_norms(op, g2)
    want = identity_induced_norms(g2)
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=1e-13)


@pytest.mark.parametrize("orders", [(64,), (8, 8)])
def test_fourier_operator_conditions_have_their_closed_form(orders):
    # |B| of the Fourier operator is one table on dual(G) read along
    # shifted diagonals (oracles.fourier_mpq_bounds); its kernel and g1
    # are complex, so the pass takes every row
    g = make_group(orders)
    op = fourier_operator(g)
    chirp = np.exp(2j * np.pi * np.random.default_rng(4).random(g.order))
    g1 = Signal(g, gauss(g, 3.0).values * chirp)
    g2 = gauss(g.dual(), 2.0)
    bounds = mpq_bounds(op, g1, g2, EXPONENTS, EXPONENTS)
    np.testing.assert_allclose(bounds, fourier_mpq_bounds(g1, g2, EXPONENTS, EXPONENTS), rtol=1e-13)
    got = induced_norms(op, g1, g2)
    want = fourier_induced_norms(g1, g2)
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=1e-13)


# ---------------------------------------------------------------------------
# domination of the empirical norm


def test_condition_dominates_empirical_norm():
    g = make_group((8,))
    w = normalized_gauss(g)
    probes = stft_probes(g, w, 202, count=3) + [random_signal(g, 11)]
    worst = 0.0
    for name, op in operator_zoo(g).items():
        bounds = mpq_bounds(op, w, w, EXPONENTS, EXPONENTS)
        observations = empirical_mpq_opnorms(op, w, w, EXPONENTS, EXPONENTS, probes)
        for i, p in enumerate(EXPONENTS):
            for j, q in enumerate(EXPONENTS):
                bound = bounds[i, j]
                observed = observations[i, j]
                assert observed <= bound * (1 + 1e-9), (name, p, q)
                worst = max(worst, observed / bound)
    assert worst <= 1 + 1e-9


def test_condition_dominates_for_fourier_kernel():
    g = make_group((8,))
    w1 = normalized_gauss(g)
    w2 = normalized_gauss(g.dual())
    op = fourier_operator(g)
    probes = stft_probes(g, w1, 404, count=3)
    bounds = mpq_bounds(op, w1, w2, EXPONENTS, EXPONENTS)
    observations = empirical_mpq_opnorms(op, w1, w2, EXPONENTS, EXPONENTS, probes)
    for i, p in enumerate(EXPONENTS):
        for j, q in enumerate(EXPONENTS):
            bound = bounds[i, j]
            observed = observations[i, j]
            assert observed <= bound * (1 + 1e-9)


def test_identity_gap_at_p_equals_q_equals_two():
    # the weighted (2,2) table norm of the identity is sqrt(order) for a
    # unit window, while the observed operator norm is exactly 1: the
    # domination bound is honest but far from tight here
    for n in (4, 8, 16):
        g = make_group((n,))
        w = normalized_gauss(g)
        op = identity_operator(g)
        cond = mpq_bounds(op, w, w, [2], [2])[0, 0]
        assert cond == pytest.approx(math.sqrt(n), rel=1e-10)
        probes = stft_probes(g, w, 7, count=3)
        observed = empirical_mpq_opnorms(op, w, w, [2], [2], probes)[0, 0]
        assert observed == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# probes


def test_stft_probes_are_deterministic():
    g = make_group((8,))
    w = normalized_gauss(g)
    a = stft_probes(g, w, 5)
    b = stft_probes(g, w, 5)
    assert len(a) == 4
    for f, h in zip(a, b):
        assert np.array_equal(f.values, h.values)
    different = stft_probes(g, w, 6)
    assert not np.array_equal(a[0].values, different[0].values)


def test_stft_probes_reject_foreign_window():
    g = make_group((8,))
    with pytest.raises(GroupMismatchError):
        stft_probes(g, normalized_gauss(make_group((6,))), 5)


def test_empirical_grid_is_the_per_pair_probe_maximum():
    # the definition, one (p, q) pair at a time: a dead probe is skipped
    # and the grid entry is the largest modulation-norm ratio, bit for bit
    g = make_group((8,))
    w1, w2 = normalized_gauss(g), normalized_gauss(g, 1.5)
    dead = Signal(g, np.zeros(8))
    probes = [dead] + stft_probes(g, w1, 3, count=2) + [random_signal(g, 4)]
    op = operator_zoo(g)["random"]
    grid = empirical_mpq_opnorms(op, w1, w2, EXPONENTS, (1, 3, math.inf), probes)
    assert grid.shape == (3, 3)
    for i, p in enumerate(EXPONENTS):
        for j, q in enumerate((1, 3, math.inf)):
            ratios = [
                mod_norm(op.apply(s), w2, q) / mod_norm(s, w1, conjugate_exponent(p))
                for s in probes[1:]
            ]
            assert grid[i, j] == max(ratios)


def test_empirical_grid_rejects_a_bad_exponent():
    g = make_group((8,))
    w = normalized_gauss(g)
    probes = [random_signal(g, 1)]
    for ps, qs in (([0.5], [2]), ([2], [0.5])):
        with pytest.raises(ValueError):
            empirical_mpq_opnorms(identity_operator(g), w, w, ps, qs, probes)


def test_empirical_norm_rejects_foreign_probe():
    g = make_group((8,))
    w = normalized_gauss(g)
    with pytest.raises(GroupMismatchError):
        empirical_mpq_opnorms(
            identity_operator(g), w, w, [2], [2], [random_signal(make_group((6,)), 1)]
        )


def test_empirical_norm_needs_a_live_probe():
    g = make_group((8,))
    w = normalized_gauss(g)
    dead = Signal(g, np.zeros(8))
    with pytest.raises(ValueError):
        empirical_mpq_opnorms(identity_operator(g), w, w, [2], [2], [dead])
