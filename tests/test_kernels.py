import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfkit import kernels, transform
from tfkit.errors import GroupMismatchError, WindowError
from tfkit.groups import make_group, product_group
from tfkit.kernels import (
    KernelOperator,
    TensorExpansion,
    bilinear_form,
    compose,
    fourier_operator,
    identity_operator,
    inv_fourier_operator,
    kernel_from_operator,
    kernel_signal,
    operator_m1_norm,
    operator_matrix,
    operator_minf_norm,
    operator_phase_sums,
    rank_one,
    tensor_expand,
    weak_reconstruct,
)
from tfkit.signals import (
    Signal,
    dirac,
    fourier,
    gauss,
    inner,
    l2_norm,
    pair_bilinear,
    random_signal,
    tensor,
)
from tfkit.transform import m1_norm, mod_norm, pairing_mags, pairing_rows

from oracles import (
    chunked_phase_sums,
    naive_char,
    operator_pairing_table,
    random_operator,
    weak_reconstruction,
)

GROUP_PAIRS = [((8,), (8,)), ((5,), (7,)), ((2, 3), (4,))]


def naive_apply(op, s):
    """(T s)(y) = sum_x weight * K(x, y) s(x), straight double loop."""
    out = np.zeros(op.codomain.order, dtype=complex)
    for y in range(op.codomain.order):
        acc = 0j
        for x in range(op.domain.order):
            acc += op.kernel[x, y] * s.values[x]
        out[y] = acc * float(op.domain.weight)
    return out


def naive_pairing_table(op, g1, g2):
    """B[nu1, nu2] = (pi(nu2) g2, T pi(nu1) g1) by direct summation."""

    def shifted(grp, window, x, w):
        els = grp.elements()
        return np.array(
            [
                naive_char(grp, t, w) * window.values[grp.index(grp.add(t, grp.neg(x)))]
                for t in els
            ]
        )

    G1, G2 = op.domain, op.codomain
    n1, n2 = G1.order, G2.order
    out = np.zeros((n1 * n1, n2 * n2), dtype=complex)
    for i1, x1 in enumerate(G1.elements()):
        for j1, w1 in enumerate(G1.elements()):
            image = naive_apply(op, Signal(G1, shifted(G1, g1, x1, w1)))
            for i2, x2 in enumerate(G2.elements()):
                for j2, w2 in enumerate(G2.elements()):
                    a2 = shifted(G2, g2, x2, w2)
                    out[i1 * n1 + j1, i2 * n2 + j2] = np.sum(a2 * image) * float(
                        G2.weight
                    )
    return out


# ---------------------------------------------------------------------------
# kernel <-> operator round trips


@pytest.mark.parametrize("orders1,orders2", GROUP_PAIRS)
def test_kernel_operator_roundtrip(orders1, orders2):
    g1, g2 = make_group(orders1), make_group(orders2)
    op = random_operator(g1, g2, 42)
    rebuilt = kernel_from_operator(op.apply, g1)
    assert rebuilt.domain == g1 and rebuilt.codomain == g2
    assert np.max(np.abs(rebuilt.kernel - op.kernel)) < 1e-12


def test_kernel_rows_are_point_mass_images():
    g = make_group((6,))
    op = random_operator(g, g, 3)
    mass = np.zeros(6, dtype=complex)
    mass[2] = 1.0 / float(g.weight)
    image = op.apply(Signal(g, mass))
    assert np.allclose(image.values, op.kernel[2], atol=1e-12)


def test_kernel_from_operator_rejects_bad_probe():
    g = make_group((4,))
    with pytest.raises(TypeError):
        kernel_from_operator(lambda s: s.values, g)
    sink = [make_group((4,)), make_group((5,))]
    with pytest.raises(GroupMismatchError):
        kernel_from_operator(lambda s: dirac(sink[s.values.argmax() % 2]), g)


def test_kernel_array_is_read_only():
    g = make_group((4,))
    op = identity_operator(g)
    with pytest.raises(ValueError):
        op.kernel[0, 0] = 5.0


def test_apply_rejects_wrong_group():
    op = identity_operator(make_group((4,)))
    with pytest.raises(GroupMismatchError):
        op.apply(dirac(make_group((5,))))


@pytest.mark.parametrize("orders1,orders2", GROUP_PAIRS)
def test_apply_matches_naive_sum(orders1, orders2):
    g1, g2 = make_group(orders1), make_group(orders2)
    op = random_operator(g1, g2, 7)
    s = random_signal(g1, 11)
    assert np.allclose(op.apply(s).values, naive_apply(op, s), atol=1e-12)


def test_identity_operator_is_identity():
    for orders in [(5,), (2, 3)]:
        g = make_group(orders)
        s = random_signal(g, 1)
        assert np.allclose(identity_operator(g).apply(s).values, s.values, atol=1e-14)


# ---------------------------------------------------------------------------
# composition


def test_compose_matches_sequential_apply():
    g1, g2, g3 = make_group((5,)), make_group((6,)), make_group((4,))
    a = random_operator(g1, g2, 1)
    b = random_operator(g2, g3, 2)
    chain = compose(a, b)
    s = random_signal(g1, 9)
    assert np.allclose(
        chain.apply(s).values, b.apply(a.apply(s)).values, atol=1e-12
    )


def test_compose_matches_dense_matmul():
    g1, g2, g3 = make_group((5,)), make_group((6,)), make_group((4,))
    a = random_operator(g1, g2, 1)
    b = random_operator(g2, g3, 2)
    m = operator_matrix(compose(a, b))
    assert np.allclose(m, operator_matrix(b) @ operator_matrix(a), atol=1e-12)


def test_compose_is_associative():
    g = make_group((8,))
    ops = [random_operator(g, g, seed) for seed in (1, 2, 3)]
    left = compose(compose(ops[0], ops[1]), ops[2])
    right = compose(ops[0], compose(ops[1], ops[2]))
    scale = max(np.max(np.abs(left.kernel)), 1.0)
    assert np.max(np.abs(left.kernel - right.kernel)) < 1e-10 * scale


def test_compose_rejects_mismatched_chain():
    a = identity_operator(make_group((4,)))
    b = identity_operator(make_group((5,)))
    with pytest.raises(GroupMismatchError):
        compose(a, b)


# ---------------------------------------------------------------------------
# trace


def test_trace_is_weighted_diagonal_sum():
    g = make_group((6,))
    op = random_operator(g, g, 5)
    # same accumulation, bitwise equal
    assert op.trace() == complex(np.sum(np.diag(op.kernel))) * float(g.weight)
    # independent loop, equal to the last couple of ulps
    direct = sum(op.kernel[i, i] for i in range(6)) * float(g.weight)
    assert op.trace() == pytest.approx(direct, rel=1e-14)


def test_trace_frozen_value():
    # seeded complex kernel on Z/6; expected value computed by an
    # independent diagonal loop and frozen here
    g = make_group((6,))
    op = random_operator(g, g, 1234)
    assert op.trace() == pytest.approx(
        -2.341091945001841 + 3.1583420978199004j, rel=1e-12
    )


def test_trace_cyclicity():
    g1, g2 = make_group((6,)), make_group((4,))
    a = random_operator(g1, g2, 21)
    b = random_operator(g2, g1, 22)
    t1 = compose(a, b).trace()
    t2 = compose(b, a).trace()
    assert abs(t1 - t2) < 1e-10 * max(abs(t1), 1.0)


def test_trace_needs_endomorphism():
    op = random_operator(make_group((4,)), make_group((5,)), 1)
    with pytest.raises(GroupMismatchError):
        op.trace()


def test_rank_one_trace_is_bilinear_pairing():
    g = make_group((2, 3))
    f1, f2 = random_signal(g, 31), random_signal(g, 32)
    op = rank_one(f1, f2)
    assert op.trace() == pytest.approx(pair_bilinear(f1, f2), rel=1e-12)


def test_rank_one_applies_as_pair_then_scale():
    g1, g2 = make_group((5,)), make_group((3,))
    f1, f2 = random_signal(g1, 1), random_signal(g2, 2)
    s = random_signal(g1, 3)
    got = rank_one(f1, f2).apply(s)
    want = pair_bilinear(f1, s) * f2.values
    assert np.allclose(got.values, want, atol=1e-12)


# ---------------------------------------------------------------------------
# duality: transpose and adjoint


@given(seed=st.integers(0, 100))
def test_transpose_duality(seed):
    g1, g2 = make_group((4,)), make_group((3,))
    op = random_operator(g1, g2, seed)
    s1, s2 = random_signal(g1, seed + 1), random_signal(g2, seed + 2)
    lhs = bilinear_form(op, s1, s2)
    rhs = bilinear_form(op.transpose(), s2, s1)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@given(seed=st.integers(0, 100))
def test_adjoint_duality(seed):
    g1, g2 = make_group((4,)), make_group((3,))
    op = random_operator(g1, g2, seed)
    s1, s2 = random_signal(g1, seed + 1), random_signal(g2, seed + 2)
    lhs = inner(op.apply(s1), s2)
    rhs = inner(s1, op.adjoint().apply(s2))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_bilinear_form_is_pairing_of_kernel_against_tensor():
    g1, g2 = make_group((4,)), make_group((6,))
    op = random_operator(g1, g2, 8)
    s1, s2 = random_signal(g1, 1), random_signal(g2, 2)
    lhs = bilinear_form(op, s1, s2)
    rhs = pair_bilinear(kernel_signal(op), tensor(s1, s2))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert lhs == pytest.approx(pair_bilinear(op.apply(s1), s2), rel=1e-12)


def test_bilinear_form_rejects_mismatch():
    g1, g2 = make_group((4,)), make_group((6,))
    op = random_operator(g1, g2, 8)
    with pytest.raises(GroupMismatchError):
        bilinear_form(op, dirac(g2), dirac(g2))


# ---------------------------------------------------------------------------
# Fourier kernels


@pytest.mark.parametrize("orders", [(8,), (5,), (2, 3)])
def test_fourier_operator_applies_the_transform(orders):
    g = make_group(orders)
    s = random_signal(g, 13)
    assert np.allclose(
        fourier_operator(g).apply(s).values, fourier(s).values, atol=1e-12
    )


def test_inv_fourier_operator_inverts():
    g = make_group((2, 3))
    s = random_signal(g, 14)
    roundtrip = inv_fourier_operator(g).apply(fourier_operator(g).apply(s))
    assert np.allclose(roundtrip.values, s.values, atol=1e-12)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_fourier_then_inverse_is_identity_kernel(n):
    g = make_group((n,))
    chain = compose(fourier_operator(g), inv_fourier_operator(g))
    want = identity_operator(g).kernel
    assert np.max(np.abs(chain.kernel - want)) < 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# kernel as a signal on the product group


def test_kernel_signal_layout():
    g1, g2 = make_group((3,)), make_group((4,))
    op = random_operator(g1, g2, 2)
    ks = kernel_signal(op)
    assert ks.group == product_group(g1, g2)
    big = ks.group
    for x in range(3):
        for y in range(4):
            assert ks.values[big.index((x, y))] == op.kernel[x, y]


def test_operator_matrix_acts_on_value_vectors():
    g1, g2 = make_group((5,)), make_group((3,))
    op = random_operator(g1, g2, 17)
    s = random_signal(g1, 4)
    assert np.allclose(
        operator_matrix(op) @ s.values, op.apply(s).values, atol=1e-13
    )


# ---------------------------------------------------------------------------
# phase-space pairing tables and operator norms


@pytest.mark.parametrize("orders1,orders2", [((3,), (2,)), ((4,), (4,)), ((2, 2), (3,))])
def test_operator_pairing_table_matches_direct_sums(orders1, orders2):
    g1, g2 = make_group(orders1), make_group(orders2)
    op = random_operator(g1, g2, 23)
    w1, w2 = gauss(g1, 1.0), gauss(g2, 1.0)
    table = operator_pairing_table(op, w1, w2)
    oracle = naive_pairing_table(op, w1, w2)
    assert table.shape == oracle.shape
    assert np.max(np.abs(table - oracle)) < 1e-10 * max(np.max(np.abs(oracle)), 1.0)


def test_operator_pairing_table_rejects_mismatched_windows():
    # the streamed table checks its windows before it reads the kernel
    g1, g2 = make_group((3,)), make_group((2,))
    op = random_operator(g1, g2, 1)
    with pytest.raises(GroupMismatchError):
        operator_phase_sums(op, gauss(g2, 1.0), gauss(g2, 1.0))
    with pytest.raises(GroupMismatchError):
        operator_phase_sums(op, gauss(g1, 1.0), gauss(g1, 1.0))


PASS_EXPONENTS = (1, 2, 3.5, math.inf)


def assert_sums_reduce_the_table(sums, op, table, ps):
    mags = np.abs(table)
    weights = op.domain.phase_weight * op.codomain.phase_weight
    assert sums.m1 == pytest.approx(np.sum(mags) * weights, rel=1e-13)
    assert sums.peak == pytest.approx(np.max(mags), rel=1e-13)
    assert sums.row_peak == pytest.approx(np.max(np.sum(mags, axis=1)), rel=1e-13)
    assert len(sums.col_powers) == len(ps)
    for got, p in zip(sums.col_powers, ps):
        want = np.max(mags, axis=0) if p == math.inf else np.sum(mags**p, axis=0)
        np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize(
    "orders1,orders2",
    [((8,), (8,)), ((6,), (2, 3)), ((12,), (8,)), ((2, 4), (3, 4)), ((1,), (5,)), ((5,), (1,))],
)
def test_phase_sums_reduce_the_full_table(orders1, orders2):
    g1, g2 = make_group(orders1), make_group(orders2)
    op = random_operator(g1, g2, 31)
    w1 = random_signal(g1, 5) + gauss(g1, 1.0)  # complex
    w2 = gauss(g2, 1.5)
    sums = operator_phase_sums(op, w1, w2, PASS_EXPONENTS)
    assert_sums_reduce_the_table(sums, op, operator_pairing_table(op, w1, w2), PASS_EXPONENTS)
    assert sums.m1 == operator_m1_norm(op, w1, w2)
    assert sums.peak == operator_minf_norm(op, w1, w2)


def test_phase_sums_with_a_ragged_last_chunk(monkeypatch):
    # chunks of two time nodes walk Z/5 as 2 + 2 + 1; the Fourier
    # operator's codomain carries a non-unit Haar weight
    g = make_group((5,))
    op = fourier_operator(g)
    w1 = random_signal(g, 8) + gauss(g, 1.0)
    w2 = gauss(g.dual(), 1.0)
    whole = operator_phase_sums(op, w1, w2, PASS_EXPONENTS)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 2 * 5 * 25)
    kernels._memo.clear()  # so the same input runs the pass again
    chunked = operator_phase_sums(op, w1, w2, PASS_EXPONENTS)
    assert_sums_reduce_the_table(chunked, op, operator_pairing_table(op, w1, w2), PASS_EXPONENTS)
    assert chunked.m1 == pytest.approx(whole.m1, rel=1e-14)
    assert chunked.peak == whole.peak
    for got, want in zip(chunked.col_powers, whole.col_powers):
        np.testing.assert_allclose(got, want, rtol=1e-14)


def assert_same_bits(got, want):
    # every field equal, NaN where the oracle has NaN
    for name in ("m1", "peak", "row_peak"):
        a, b = getattr(got, name), getattr(want, name)
        assert a == b or (math.isnan(a) and math.isnan(b)), name
    assert len(got.col_powers) == len(want.col_powers)
    for a, b in zip(got.col_powers, want.col_powers):
        assert np.array_equal(a, b, equal_nan=True)


BIT_EXPONENTS = (1, 2, 3, 1.5, math.inf)


def _real_case(orders1, orders2, ps, seed, dual=False):
    g1, g2 = make_group(orders1), make_group(orders2)
    g2 = g2.dual() if dual else g2
    return random_operator(g1, g2, seed), gauss(g1, 2.0), gauss(g2, 2.5), ps


def _complex_g2_case():
    g1, g2 = make_group((12,)), make_group((10,))
    w2 = random_signal(g2, 7) + gauss(g2, 1.0)
    return random_operator(g1, g2, 8), gauss(g1, 1.0), w2, BIT_EXPONENTS


def _inf_kernel_case():
    op, g1, g2, ps = _real_case((6,), (8,), BIT_EXPONENTS, 9)
    kernel = op.kernel.copy()
    kernel[2, 5] = math.inf
    return KernelOperator(op.domain, op.codomain, kernel), g1, g2, ps


def _nan_window_case():
    op, g1, g2, ps = _real_case((6,), (8,), BIT_EXPONENTS, 10)
    values = g2.values.copy()
    values[3] = math.nan
    return op, g1, Signal(g2.group, values), ps


# name -> (operator, g1, g2, ps) of one bit-oracle case
BIT_CASES = {
    "real-32": lambda: _real_case((32,), (32,), (1, 2, math.inf), 3),
    "real-32-no-p": lambda: _real_case((32,), (32,), (), 3),
    "chunks-24-28": lambda: _real_case((24,), (28,), BIT_EXPONENTS, 4),
    "factors-4x6-24": lambda: _real_case((4, 6), (24,), BIT_EXPONENTS, 5),
    "dual-weight": lambda: _real_case((8, 8), (4, 16), (2, math.inf), 6, dual=True),
    "complex-g2": _complex_g2_case,
    "inf-kernel": _inf_kernel_case,
    "nan-window": _nan_window_case,
    "order-1-to-5": lambda: _real_case((1,), (5,), BIT_EXPONENTS, 11),
    "order-5-to-1": lambda: _real_case((5,), (1,), BIT_EXPONENTS, 11),
    "order-1-to-1": lambda: _real_case((1,), (1,), BIT_EXPONENTS, 11),
    # finite p after inf and after 1; the second 2 raises the chunk in place
    "reordered-exponents": lambda: _real_case((24,), (28,), (math.inf, 3, 1, 2, 2), 12),
}


@pytest.mark.parametrize("name", list(BIT_CASES))
def test_phase_sums_have_the_bits_of_the_complex_chunk_pass(name):
    op, g1, g2, ps = BIT_CASES[name]()
    with np.errstate(invalid="ignore"):
        assert_same_bits(operator_phase_sums(op, g1, g2, ps), chunked_phase_sums(op, g1, g2, ps))


@pytest.mark.parametrize("name", ["chunks-24-28", "complex-g2", "order-5-to-1"])
def test_phase_sums_keep_their_bits_at_any_block_size(monkeypatch, name):
    # blocks of 5 |G2| entries hold one row each (five at |G2| = 1); the
    # chunks stay the same
    op, g1, g2, ps = BIT_CASES[name]()
    monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 5 * g2.group.order)
    assert_same_bits(operator_phase_sums(op, g1, g2, ps), chunked_phase_sums(op, g1, g2, ps))


@st.composite
def _fuzz_groups(draw):
    # 1-3 cyclic factors of orders 1-12, primes included, |G| <= 24 so
    # that a pass holds at most 24^4 entries; optionally the dual, whose
    # Haar weight is 1/|G|
    orders = [draw(st.integers(1, 12))]
    while len(orders) < 3 and 24 // math.prod(orders) > 1 and draw(st.booleans()):
        orders.append(draw(st.integers(1, min(12, 24 // math.prod(orders)))))
    grp = make_group(orders)
    return grp.dual() if draw(st.booleans()) else grp


@st.composite
def _fuzz_windows(draw, grp):
    # real, complex or one-hot, never identically zero
    kind = draw(st.sampled_from(["real", "complex", "one-hot"]))
    if kind == "one-hot":
        return dirac(grp, grp.coords(draw(st.integers(0, grp.order - 1))))
    values = random_signal(grp, draw(st.integers(0, 2**16))).values
    values = values.real + 1.0 if kind == "real" else values + 1.0
    return Signal(grp, values)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_core_keeps_both_routes_bitwise(data):
    # the streamed routes against their whole-array oracles, bit for bit:
    # pairing_mags against np.abs(pairing_rows) at the default block and
    # at blocks of 3 |G2| entries, one row each, with an optional inf or
    # NaN in the rows; the pass of a complex kernel against
    # chunked_phase_sums
    g1, g2 = data.draw(_fuzz_groups()), data.draw(_fuzz_groups())
    w1, w2 = data.draw(_fuzz_windows(g1)), data.draw(_fuzz_windows(g2))
    seed = data.draw(st.integers(0, 2**16))
    rows = np.stack([random_signal(g2, seed + j).values for j in range(3)])
    bad = data.draw(st.sampled_from([None, math.inf, -math.inf, math.nan]))
    if bad is not None:
        rows[data.draw(st.integers(0, 2)), data.draw(st.integers(0, g2.order - 1))] = bad
    with np.errstate(invalid="ignore"):
        want = np.abs(pairing_rows(w2, rows))
        for block in (transform._BLOCK_ENTRIES, 3 * g2.order):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(transform, "_BLOCK_ENTRIES", block)
                out = pairing_mags(w2, rows, np.empty((len(rows), g2.order**2)))
            assert np.array_equal(out, want, equal_nan=True)
    op = random_operator(g1, g2, seed)
    ps = data.draw(st.lists(st.sampled_from([1, 1.5, 2, 3, math.inf]), max_size=4))
    kernels._memo.clear()  # a repeated example runs the pass too
    assert_same_bits(operator_phase_sums(op, w1, w2, ps), chunked_phase_sums(op, w1, w2, ps))


def _mirror_case(orders1, orders2, ps, seed, dual=False):
    # a real kernel with real windows: the half-row route of the pass
    g1, g2 = make_group(orders1), make_group(orders2)
    g2 = g2.dual() if dual else g2
    rng = np.random.Generator(np.random.PCG64(seed))
    op = KernelOperator(g1, g2, rng.standard_normal((g1.order, g2.order)))
    return op, gauss(g1, 2.0), gauss(g2, 2.5), ps


# name -> (operator, g1, g2, ps) of one real case; Z/n has the self-
# conjugate frequencies 0 and n/2 at even n and 0 alone at odd n
MIRROR_CASES = {
    "even-32": lambda: _mirror_case((32,), (32,), (1, 2, math.inf), 3),
    "odd-15-9": lambda: _mirror_case((15,), (9,), BIT_EXPONENTS, 13),
    "chunks-24-28": lambda: _mirror_case((24,), (28,), BIT_EXPONENTS, 4),
    "factors-4x6-24": lambda: _mirror_case((4, 6), (24,), BIT_EXPONENTS, 5),
    "dual-weight": lambda: _mirror_case((8, 8), (4, 16), (2, math.inf), 6, dual=True),
    "order-1-to-5": lambda: _mirror_case((1,), (5,), BIT_EXPONENTS, 11),
    "order-5-to-1": lambda: _mirror_case((5,), (1,), BIT_EXPONENTS, 11),
    "order-1-to-1": lambda: _mirror_case((1,), (1,), BIT_EXPONENTS, 11),
    "reordered-exponents": lambda: _mirror_case((24,), (28,), (math.inf, 3, 1, 2, 2), 12),
}


def assert_close_sums(got, want, rel):
    for name in ("m1", "peak", "row_peak"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=rel), name
    assert len(got.col_powers) == len(want.col_powers)
    for a, b in zip(got.col_powers, want.col_powers):
        np.testing.assert_allclose(a, b, rtol=rel)


@pytest.mark.parametrize("name", list(MIRROR_CASES))
def test_real_phase_sums_mirror_half_the_rows(name):
    # a mirrored row is not bitwise the row the full pass computes, so
    # the sums agree to rounding, not to the bit
    op, g1, g2, ps = MIRROR_CASES[name]()
    assert_close_sums(operator_phase_sums(op, g1, g2, ps), chunked_phase_sums(op, g1, g2, ps), 1e-14)


def test_real_phase_sums_with_a_cut_chunk(monkeypatch):
    # chunks of five time nodes walk Z/12 as 5 + 5 + 2
    op, g1, g2, ps = _mirror_case((12,), (10,), BIT_EXPONENTS, 14)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 5 * 12 * 100)
    assert_close_sums(operator_phase_sums(op, g1, g2, ps), chunked_phase_sums(op, g1, g2, ps), 1e-14)


def _count_mag_rows(monkeypatch):
    counted = []

    def counting(window, rows, out):
        counted.append(len(rows))
        return pairing_mags(window, rows, out)

    monkeypatch.setattr(kernels, "pairing_mags", counting)
    return counted


@pytest.mark.parametrize(
    "kind, rows",
    [("real", 32 * 17), ("complex", 32 * 32), ("inf", 32 * 32), ("complex-window", 32 * 32)],
)
def test_only_real_finite_passes_skip_the_mirrored_rows(monkeypatch, kind, rows):
    # Z/32 has the self-conjugate frequencies 0 and 16 and 15 pairs
    # {w, -w}; any complex or non-finite input takes every row
    op, g1, g2, ps = _mirror_case((32,), (32,), (1,), 3)
    kernel = op.kernel.copy()
    if kind == "complex":
        kernel[0, 1] += 1j
    elif kind == "inf":
        kernel[2, 5] = math.inf
    elif kind == "complex-window":
        g1 = g1 + Signal(g1.group, 1j * dirac(g1.group).values)
    counted = _count_mag_rows(monkeypatch)
    with np.errstate(invalid="ignore"):
        operator_phase_sums(KernelOperator(op.domain, op.codomain, kernel), g1, g2, ps)
    assert sum(counted) == rows


@pytest.mark.parametrize("p", [0.5, 0, math.nan, -1])
def test_phase_sums_reject_an_exponent_below_one_before_the_pass(monkeypatch, p):
    g = make_group((6,))
    op, w = identity_operator(g), gauss(g, 1.0)
    chunks = []
    monkeypatch.setattr(kernels, "pairing_rows", lambda *a, **k: chunks.append(1))
    with pytest.raises(ValueError):
        operator_phase_sums(op, w, w, (2, p))
    assert chunks == []


def _count_passes(monkeypatch):
    passes = []
    real = kernels._phase_pass

    def counting(op, g1, g2, ps):
        passes.append(ps)
        return real(op, g1, g2, ps)

    monkeypatch.setattr(kernels, "_phase_pass", counting)
    return passes


def _z32_case(kind):
    # the mpq identity pass, or a complex kernel that takes every row
    g = make_group((32,))
    op = identity_operator(g) if kind == "identity" else random_operator(g, g, 17)
    return op, gauss(g, 2.0), gauss(g, 2.5)


@pytest.mark.parametrize("kind", ["identity", "complex"])
@pytest.mark.parametrize(
    "first, then", [((1, 2, math.inf), (2,)), ((1, 1.5, math.inf), (math.inf, 1))]
)
def test_a_stored_pass_serves_a_subset_of_its_exponents(monkeypatch, kind, first, then):
    op, g1, g2 = _z32_case(kind)
    passes = _count_passes(monkeypatch)
    operator_phase_sums(op, g1, g2, first)
    served = operator_phase_sums(op, g1, g2, then)
    assert operator_m1_norm(op, g1, g2) == served.m1  # ps = (), served too
    assert passes == [first]
    kernels._memo.clear()
    fresh = operator_phase_sums(op, g1, g2, then)
    assert passes == [first, then]
    for name in ("m1", "peak", "row_peak"):
        assert getattr(served, name) == getattr(fresh, name), name
    assert len(served.col_powers) == len(then)
    for a, b in zip(served.col_powers, fresh.col_powers):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("orders, dual", [((4, 8), False), ((32,), True)])
def test_equal_bytes_on_other_groups_run_their_own_pass(monkeypatch, orders, dual):
    # Z/32 against Z/4 x Z/8, and against its dual, whose weights differ
    op, g1, g2 = _z32_case("complex")
    grp = make_group(orders).dual() if dual else make_group(orders)
    moved = KernelOperator(grp, grp, op.kernel)
    w1, w2 = Signal(grp, g1.values), Signal(grp, g2.values)
    passes = _count_passes(monkeypatch)
    first = operator_phase_sums(op, g1, g2, (1, 2))
    got = operator_phase_sums(moved, w1, w2, (1, 2))
    assert len(passes) == 2
    assert got.m1 != first.m1
    kernels._memo.clear()
    assert_same_bits(got, operator_phase_sums(moved, w1, w2, (1, 2)))


def test_a_changed_window_entry_runs_a_new_pass(monkeypatch):
    op, g1, g2 = _z32_case("complex")
    values = g2.values.copy()
    values[5] += 2**-40
    passes = _count_passes(monkeypatch)
    operator_phase_sums(op, g1, g2, (1,))
    operator_phase_sums(op, g1, Signal(g2.group, values), (1,))
    operator_phase_sums(op, Signal(g1.group, values), g2, (1,))
    assert len(passes) == 3


def test_stored_column_sums_are_read_only():
    op, g1, g2 = _z32_case("identity")
    fresh = operator_phase_sums(op, g1, g2, (1, 2, math.inf))
    served = operator_phase_sums(op, g1, g2, (2,))
    for acc in (*fresh.col_powers, *served.col_powers):
        with pytest.raises(ValueError):
            acc[0] = 1.0


def test_a_stored_input_is_still_checked_before_the_lookup():
    op, g1, g2 = _z32_case("identity")
    operator_phase_sums(op, g1, g2, (1, 2))
    with pytest.raises(ValueError):
        operator_phase_sums(op, g1, g2, (2, 0.5))
    with pytest.raises(WindowError):
        operator_phase_sums(op, g1, Signal(g2.group, np.zeros(32)), (2,))
    with pytest.raises(GroupMismatchError):
        operator_phase_sums(op, g1, gauss(g2.group.dual(), 2.5), (2,))


def test_the_memo_keeps_its_bound(monkeypatch):
    g = make_group((4,))
    ops = [random_operator(g, g, seed) for seed in range(kernels._MEMO_ENTRIES + 1)]
    w = gauss(g, 1.0)
    passes = _count_passes(monkeypatch)
    for op in ops:
        operator_phase_sums(op, w, w, (1,))
    assert len(kernels._memo) == kernels._MEMO_ENTRIES
    operator_phase_sums(ops[-1], w, w, (1,))  # the newest is kept
    assert len(passes) == len(ops)
    operator_phase_sums(ops[0], w, w, (1,))  # the oldest has left
    assert len(passes) == len(ops) + 1


@pytest.mark.parametrize("case", ["inf-window", "inf-kernel"])
def test_non_finite_passes_give_nan_fields_without_a_warning(case):
    # pyproject makes a RuntimeWarning an error; no np.errstate here
    if case == "inf-kernel":
        op, g1, g2, ps = _inf_kernel_case()
    else:
        op, g1, g2, ps = _real_case((6,), (8,), BIT_EXPONENTS, 9)
        g2 = Signal(g2.group, np.full(8, math.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums = operator_phase_sums(op, g1, g2, ps)
    assert math.isnan(sums.m1) and math.isnan(sums.peak) and math.isnan(sums.row_peak)
    assert all(np.isnan(acc).all() for acc in sums.col_powers)


def test_operator_m1_norm_equals_kernel_signal_route():
    # the same number two ways: phase-space table of the operator versus
    # the modulation norm of its kernel as a signal on the product group,
    # against the tensor window
    g = make_group((6,))
    op = random_operator(g, g, 29)
    w1 = gauss(g, 1.0)
    w2 = gauss(g, 0.7)
    direct = operator_m1_norm(op, w1, w2)
    via_signal = m1_norm(kernel_signal(op), tensor(w1, w2))
    assert direct == pytest.approx(via_signal, rel=1e-10)


def test_operator_minf_norm_equals_kernel_signal_route():
    g = make_group((6,))
    op = random_operator(g, g, 29)
    w1 = gauss(g, 1.0)
    w2 = gauss(g, 0.7)
    direct = operator_minf_norm(op, w1, w2)
    via_signal = mod_norm(kernel_signal(op), tensor(w1, w2), math.inf)
    assert direct == pytest.approx(via_signal, rel=1e-10)


def test_operator_m1_norm_frozen_identity_value():
    # identity on Z/4 against the unit-spread normalized window; value
    # computed once by the quadruple direct sum and frozen
    g = make_group((4,))
    w = gauss(g, 1.0)
    wn = Signal(g, w.values / l2_norm(w))
    assert operator_m1_norm(identity_operator(g), wn, wn) == pytest.approx(
        4.408315478008188, rel=1e-12
    )


def test_rank_one_norm_factorizes():
    g1, g2 = make_group((5,)), make_group((4,))
    f1, f2 = random_signal(g1, 41), random_signal(g2, 42)
    w1, w2 = gauss(g1, 1.0), gauss(g2, 1.0)
    got = operator_m1_norm(rank_one(f1, f2), w1, w2)
    want = m1_norm(f1, w1) * m1_norm(f2, w2)
    assert got == pytest.approx(want, rel=1e-10)


def test_operator_norm_tensor_multiplicativity():
    # rank-one operators with product windows: both m1 and sup norms
    # split as products over the factors
    g1, g2 = make_group((4,)), make_group((3,))
    f1, f2 = random_signal(g1, 1), random_signal(g2, 2)
    h1, h2 = random_signal(g1, 3), random_signal(g2, 4)
    w1, w2 = gauss(g1, 1.0), gauss(g2, 1.0)
    a = rank_one(f1, f2)
    b = rank_one(h1, h2)
    big = rank_one(tensor(f1, h1), tensor(f2, h2))
    got = operator_m1_norm(big, tensor(w1, w1), tensor(w2, w2))
    want = operator_m1_norm(a, w1, w2) * operator_m1_norm(b, w1, w2)
    assert got == pytest.approx(want, rel=1e-10)
    got_inf = operator_minf_norm(big, tensor(w1, w1), tensor(w2, w2))
    want_inf = operator_minf_norm(a, w1, w2) * operator_minf_norm(b, w1, w2)
    assert got_inf == pytest.approx(want_inf, rel=1e-10)


def test_submultiplicative_composition_bound():
    # ||compose(a, b)||_m1 <= C ||a||_m1 ||b||_m1 with the constant
    # depending only on the middle window; here we just confirm the
    # two-sided finiteness and record the observed ratio is bounded
    g = make_group((6,))
    w = gauss(g, 1.0)
    wn = Signal(g, w.values / l2_norm(w))
    ratios = []
    for seed in range(10):
        a = random_operator(g, g, 2 * seed)
        b = random_operator(g, g, 2 * seed + 1)
        num = operator_m1_norm(compose(a, b), wn, wn)
        den = operator_m1_norm(a, wn, wn) * operator_m1_norm(b, wn, wn)
        ratios.append(num / den)
    assert max(ratios) < 10.0


# ---------------------------------------------------------------------------
# rank-one expansion by singular values


def test_tensor_expand_reconstructs():
    g1, g2 = make_group((5,)), make_group((4,))
    op = random_operator(g1, g2, 55)
    exp = tensor_expand(op, 0.0)
    assert isinstance(exp, TensorExpansion)
    assert exp.max_error < 1e-12 * np.max(np.abs(op.kernel))
    rebuilt = np.zeros_like(op.kernel)
    for f1, f2 in zip(exp.left, exp.right):
        rebuilt += np.outer(f1.values, f2.values)
    assert np.max(np.abs(rebuilt - op.kernel)) < 1e-12 * np.max(np.abs(op.kernel))


def test_tensor_expand_rank_one_has_rank_one():
    g = make_group((6,))
    op = rank_one(random_signal(g, 1), random_signal(g, 2))
    exp = tensor_expand(op, 1e-10)
    assert exp.rank == 1
    assert len(exp.singular_values) == 1


def test_tensor_expand_projective_bound_dominates():
    g = make_group((6,))
    op = random_operator(g, g, 77)
    w = gauss(g, 1.0)  # the window pair of the projective bound
    exp = tensor_expand(op, 0.0)
    direct = operator_m1_norm(op, w, w)
    assert exp.projective_m1 >= direct - 1e-10 * direct


@pytest.mark.parametrize("tol", [0.0, 1e-8, math.inf])
def test_tensor_expand_of_the_zero_kernel_is_empty(tol):
    g1, g2 = make_group((3,)), make_group((2, 2))
    exp = tensor_expand(KernelOperator(g1, g2, np.zeros((3, 4))), tol)
    assert exp.rank == 0
    assert exp.singular_values == ()
    assert exp.max_error == 0.0
    assert exp.projective_m1 == 0.0


def test_tensor_expand_rejects_negative_tol():
    g = make_group((4,))
    for tol in (-1.0, math.nan):  # a NaN tolerance is no tolerance either
        with pytest.raises(ValueError):
            tensor_expand(identity_operator(g), tol)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_tensor_expand_rejects_a_non_finite_kernel(bad):
    # checked before the SVD: such a kernel has no decomposition
    g = make_group((4,))
    kernel = np.array(random_operator(g, g, 5).kernel)
    kernel[1, 2] = bad
    with pytest.raises(ValueError, match="finite kernel"):
        tensor_expand(KernelOperator(g, g, kernel), 1e-12)


# ---------------------------------------------------------------------------
# weak reconstruction from the action on shifted windows


@pytest.mark.parametrize("orders1,orders2", GROUP_PAIRS)
def test_weak_reconstruct_matches_apply(orders1, orders2):
    g1, g2 = make_group(orders1), make_group(orders2)
    op = random_operator(g1, g2, 61)
    w = gauss(g1, 1.0)
    s = random_signal(g1, 62)
    got = weak_reconstruct(op, w, s)
    want = op.apply(s)
    scale = max(np.max(np.abs(want.values)), 1.0)
    assert np.max(np.abs(got.values - want.values)) < 1e-10 * scale


@pytest.mark.parametrize("orders1,orders2", GROUP_PAIRS)
def test_weak_reconstruct_matches_dense_weak_form(orders1, orders2):
    # T applied to the synthesis against the sum over the atom images
    g1, g2 = make_group(orders1), make_group(orders2)
    op = random_operator(g1, g2, 61)
    w = gauss(g1, 1.0)
    s = random_signal(g1, 62)
    got = weak_reconstruct(op, w, s)
    want = weak_reconstruction(op, w, s)
    scale = max(np.max(np.abs(want.values)), 1.0)
    assert np.max(np.abs(got.values - want.values)) < 1e-12 * scale


def test_weak_reconstruct_rejects_mismatch():
    g1, g2 = make_group((4,)), make_group((5,))
    op = random_operator(g1, g2, 1)
    with pytest.raises(GroupMismatchError):
        weak_reconstruct(op, gauss(g2, 1.0), dirac(g1))
