import cmath
import math

import numpy as np
import pytest

from tfkit.errors import FrameError, GroupMismatchError, LatticeError
from tfkit.frames import (
    GaborSystem,
    atomic_expand,
    atomic_operator_expand,
    canonical_dual,
    frame_bounds,
    frame_operator,
    gabor_atoms,
    gabor_synthesize,
    partial_frame_sum,
    synthesize_operator_expansion,
    tight_window,
)
from tfkit.groups import make_group, make_lattice
from tfkit.kernels import KernelOperator, identity_operator, operator_matrix, rank_one
from tfkit.signals import Signal, dirac, gauss, inner, l2_norm, random_signal, tensor


def naive_char(group, x, w):
    phase = 0.0
    for xi, wi, n in zip(x, w, group.orders):
        phase += (xi % n) * (wi % n) / n
    return cmath.exp(2j * math.pi * phase)


def naive_atom(window, point):
    g = window.group
    x, w = point
    return np.array(
        [
            naive_char(g, t, w) * window.values[g.index(g.add(t, g.neg(x)))]
            for t in g.elements()
        ]
    )


def onb_system(grp):
    """Critically sampled translates of the normalized impulse: an
    orthonormal basis on any group, with exact unit frame bounds."""
    lattice = make_lattice(grp, 1, grp.orders, weighting="index")
    impulse = dirac(grp)
    unit = Signal(grp, impulse.values / l2_norm(impulse))
    return GaborSystem(unit, lattice)


# ---------------------------------------------------------------------------
# system construction


def test_system_rejects_group_mismatch():
    g, h = make_group((8,)), make_group((6,))
    with pytest.raises(GroupMismatchError):
        GaborSystem(gauss(g, 1.0), make_lattice(h, 2, 2))


def test_system_rejects_zero_window():
    g = make_group((8,))
    with pytest.raises(FrameError) as info:
        GaborSystem(Signal(g, np.zeros(8)), make_lattice(g, 2, 2))
    assert info.value.bounds == (0.0, 0.0)


def test_atoms_are_shifted_windows_time_major():
    g = make_group((6,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 3, 2))
    atoms = gabor_atoms(system)
    points = system.lattice.points()
    assert atoms.shape == (len(points), 6) == (6, 6)
    for row, point in zip(atoms, points):
        assert np.allclose(row, naive_atom(system.window, point), atol=1e-12)


def test_atoms_substitute_window_checks_group():
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 2))
    with pytest.raises(GroupMismatchError):
        gabor_atoms(system, gauss(make_group((6,)), 1.0))


# ---------------------------------------------------------------------------
# frame bounds


@pytest.mark.parametrize("orders", [(8,), (5,), (2, 3)])
def test_full_lattice_bounds_are_window_energy(orders):
    g = make_group(orders)
    for window in (gauss(g, 1.0), random_signal(g, 3)):
        system = GaborSystem(window, make_lattice(g, 1, 1))
        a, b = frame_bounds(system)
        energy = l2_norm(window) ** 2
        assert a == pytest.approx(energy, rel=1e-10)
        assert b == pytest.approx(energy, rel=1e-10)


def test_full_lattice_dual_is_rescaled_window():
    g = make_group((8,))
    window = gauss(g, 1.0)
    system = GaborSystem(window, make_lattice(g, 1, 1))
    dual = canonical_dual(system)
    assert np.allclose(dual.values, window.values / l2_norm(window) ** 2, atol=1e-12)


def test_frozen_bounds_z8_gauss_2_by_2():
    # eigenvalue extremes computed once by assembling the frame matrix
    # with naive character loops; frozen here
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 2))
    a, b = frame_bounds(system)
    assert a == pytest.approx(0.0018674427316625497, rel=1e-9)
    assert b == pytest.approx(0.5000000000243235, rel=1e-9)


def test_onb_system_bounds_are_exactly_one():
    for orders in [(4,), (2, 3)]:
        grp = make_group(orders)
        assert frame_bounds(onb_system(grp)) == (1.0, 1.0)
        # on the dual group the impulse is renormalized by sqrt(order),
        # so the bounds are unit only to machine precision
        a, b = frame_bounds(onb_system(grp.dual()))
        assert a == pytest.approx(1.0, rel=1e-12)
        assert b == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("design", [canonical_dual, tight_window], ids=lambda f: f.__name__)
def test_non_frame_raises_with_bounds(design):
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 4))
    with pytest.raises(FrameError) as info:
        design(system)
    a, b = info.value.bounds
    assert a < 1e-10 * b


@pytest.mark.parametrize(
    "design", [frame_bounds, canonical_dual, tight_window], ids=lambda f: f.__name__
)
def test_overflowing_frame_matrix_raises(design):
    # the Gram products of 1e308 overflow: the block eigenvalues are NaN
    g = make_group((8,))
    system = GaborSystem(Signal(g, np.full(8, 1e308)), make_lattice(g, 2, 2))
    with pytest.raises(FrameError) as info, np.errstate(all="ignore"):
        design(system)
    assert np.isnan(info.value.bounds).all()


# ---------------------------------------------------------------------------
# the block route against the dense frame matrix


def dense_frame_matrix(system):
    return operator_matrix(frame_operator(system))


# (orders, time step, freq step, window, weighting); freq step 1 gives
# 1 x 1 blocks, freq step n a single block holding the whole matrix
BLOCK_CASES = [
    ((24,), 4, 3, "gauss:3.0", "ambient"),
    ((12, 8), (3, 2), (2, 2), "gauss:2.0", "ambient"),
    ((12,), 2, 3, "random:5", "index"),
    ((10,), 2, 1, "gauss:1.5", "ambient"),
    ((10,), 1, 10, "random:6", "ambient"),
]


def block_case_system(orders, a, b, window, weighting):
    g = make_group(orders)
    kind, arg = window.split(":")
    win = gauss(g, float(arg)) if kind == "gauss" else random_signal(g, int(arg))
    return GaborSystem(win, make_lattice(g, a, b, weighting=weighting))


@pytest.mark.parametrize("case", BLOCK_CASES, ids=lambda c: f"{c[0]}-{c[3]}-{c[4]}")
def test_block_bounds_match_dense_spectrum(case):
    system = block_case_system(*case)
    evals = np.linalg.eigvalsh(dense_frame_matrix(system))
    a, b = frame_bounds(system)
    assert a == pytest.approx(evals[0], rel=1e-12)
    assert b == pytest.approx(evals[-1], rel=1e-12)


@pytest.mark.parametrize("case", BLOCK_CASES, ids=lambda c: f"{c[0]}-{c[3]}-{c[4]}")
def test_block_dual_matches_dense_solve(case):
    system = block_case_system(*case)
    expected = np.linalg.solve(dense_frame_matrix(system), system.window.values)
    dual = canonical_dual(system)
    scale = np.max(np.abs(expected))
    assert np.allclose(dual.values, expected, rtol=0, atol=1e-10 * scale)


@pytest.mark.parametrize("case", BLOCK_CASES, ids=lambda c: f"{c[0]}-{c[3]}-{c[4]}")
def test_block_tight_window_matches_dense_inverse_root(case):
    system = block_case_system(*case)
    evals, vecs = np.linalg.eigh(dense_frame_matrix(system))
    expected = (vecs * evals**-0.5) @ vecs.conj().T @ system.window.values
    tight = tight_window(system)
    scale = np.max(np.abs(expected))
    assert np.allclose(tight.values, expected, rtol=0, atol=1e-10 * scale)


@pytest.mark.parametrize("design", [canonical_dual, tight_window], ids=lambda f: f.__name__)
def test_non_frame_bounds_are_the_dense_extremes(design):
    # 4 time by 2 frequency nodes: 8 atoms cannot span the 12 dimensions
    g = make_group((12,))
    system = GaborSystem(random_signal(g, 3), make_lattice(g, 3, 6))
    evals = np.linalg.eigvalsh(dense_frame_matrix(system))
    with pytest.raises(FrameError) as info:
        design(system)
    a, b = info.value.bounds
    assert b == pytest.approx(evals[-1], rel=1e-12)
    assert a == pytest.approx(evals[0], abs=1e-12 * evals[-1])
    assert a < 1e-10 * b


# ---------------------------------------------------------------------------
# expansion and reconstruction


def test_expand_then_synthesize_reconstructs():
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 2))
    for seed in range(5):
        f = random_signal(g, seed)
        coeffs = atomic_expand(f, system)
        rebuilt = gabor_synthesize(system, coeffs)
        assert np.max(np.abs(rebuilt.values - f.values)) < 1e-9 * l2_norm(f)


def test_expand_rejects_wrong_group():
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 2))
    with pytest.raises(GroupMismatchError):
        atomic_expand(dirac(make_group((6,))), system)


def test_synthesize_rejects_wrong_count():
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 2))
    with pytest.raises(ValueError):
        gabor_synthesize(system, np.ones(5))


def test_tight_window_gives_unit_bounds():
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 2))
    tight = tight_window(system)
    a, b = frame_bounds(GaborSystem(tight, system.lattice))
    assert a == pytest.approx(1.0, abs=1e-10)
    assert b == pytest.approx(1.0, abs=1e-10)


def test_tight_window_parseval_energy():
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 2))
    tight_system = GaborSystem(tight_window(system), system.lattice)
    atoms = gabor_atoms(tight_system)
    f = random_signal(g, 12)
    total = sum(
        tight_system.weight * abs(inner(f, Signal(g, row))) ** 2 for row in atoms
    )
    assert total == pytest.approx(l2_norm(f) ** 2, rel=1e-10)


# ---------------------------------------------------------------------------
# partial sums


def test_partial_sum_full_subset_is_frame_operator():
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 2))
    full = partial_frame_sum(system, system.lattice.size)
    assert np.allclose(full.kernel, frame_operator(system).kernel, atol=1e-13)


@pytest.mark.parametrize(
    "orders, a, b, cuts",
    [((8,), 2, 2, (1, 5, 16)), ((2, 6), (1, 2), (2, 3), range(1, 13))],
    ids=["z8", "z2x6"],
)
def test_partial_sum_quadratic_form_identity(orders, a, b, cuts):
    # <S_k f, f> equals the weighted coefficient energy over the first k
    # lattice points, in lattice.points() order on every factor layout
    g = make_group(orders)
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, a, b))
    points = system.lattice.points()
    f = random_signal(g, 7)
    for cut in cuts:
        subset = points[:cut]
        quad = inner(partial_frame_sum(system, cut).apply(f), f)
        direct = sum(
            system.weight * abs(inner(f, Signal(g, naive_atom(system.window, p)))) ** 2
            for p in subset
        )
        assert quad == pytest.approx(direct, rel=1e-10)
        assert abs(quad.imag) < 1e-12 * max(abs(quad), 1.0)


def test_partial_sum_tail_identity():
    # the defect <(S - S_N) f, f> is exactly the skipped coefficient mass
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 2))
    points = system.lattice.points()
    f = random_signal(g, 8)
    subset, rest = points[:6], points[6:]
    defect = inner(
        frame_operator(system).apply(f), f
    ) - inner(partial_frame_sum(system, len(subset)).apply(f), f)
    tail = sum(
        system.weight * abs(inner(f, Signal(g, naive_atom(system.window, p)))) ** 2
        for p in rest
    )
    assert defect == pytest.approx(tail, rel=1e-9)


def test_onb_partial_sums_obey_pythagoras_exactly():
    grp = make_group((4,))
    system = onb_system(grp)
    points = system.lattice.points()
    f = random_signal(grp, 5)
    running = 0.0
    for cut in range(1, len(points) + 1):
        quad = inner(partial_frame_sum(system, cut).apply(f), f)
        running += system.weight * abs(inner(f, Signal(grp, naive_atom(system.window, points[cut - 1])))) ** 2
        assert quad.real == pytest.approx(running, rel=1e-12)
    assert running == pytest.approx(l2_norm(f) ** 2, rel=1e-12)


def test_partial_sum_rejects_counts_off_the_lattice():
    # a slice would silently clamp size + 1 to the full sum and read -1
    # as "all but the last point"
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 2))
    assert system.lattice.size == 16
    for count in (0, -1, 17):
        with pytest.raises(LatticeError):
            partial_frame_sum(system, count)


# ---------------------------------------------------------------------------
# operator expansion over shifted prototypes


def _expand_setup(seed=91):
    g = make_group((4,))
    window = gauss(g, 1.0)
    prototype = rank_one(window, window)
    lat = make_lattice(g, 1, 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return g, prototype, lat, KernelOperator(g, g, k)


def test_operator_expand_roundtrip():
    g, prototype, lat, op = _expand_setup()
    expansion = atomic_operator_expand(op, prototype, (lat, lat))
    assert expansion.kernel_error < 1e-9
    rebuilt = synthesize_operator_expansion(prototype, expansion)
    assert np.max(np.abs(rebuilt.kernel - op.kernel)) < 1e-9 * np.max(
        np.abs(op.kernel)
    )


def test_operator_expand_coefficients_carry_domain_phase():
    g, prototype, lat, op = _expand_setup()
    expansion = atomic_operator_expand(op, prototype, (lat, lat))
    assert np.allclose(
        np.abs(expansion.coefficients), np.abs(expansion.kernel_coefficients)
    )
    for c, k, nu1 in zip(
        expansion.coefficients, expansion.kernel_coefficients, expansion.domain_points
    ):
        phase = naive_char(g, nu1.x, nu1.w)
        assert c == pytest.approx(k * phase, rel=1e-12, abs=1e-12)
    assert expansion.coefficient_l1 > 0


def test_operator_expand_identity_has_small_error():
    g, prototype, lat, _ = _expand_setup()
    expansion = atomic_operator_expand(identity_operator(g), prototype, (lat, lat))
    assert expansion.kernel_error < 1e-9
    rebuilt = synthesize_operator_expansion(prototype, expansion)
    assert np.max(np.abs(rebuilt.kernel - identity_operator(g).kernel)) < 1e-9


def test_operator_expand_rejects_mismatches():
    g, prototype, lat, op = _expand_setup()
    other = make_group((6,))
    with pytest.raises(GroupMismatchError):
        atomic_operator_expand(op, identity_operator(other), (lat, lat))
    with pytest.raises(GroupMismatchError):
        atomic_operator_expand(op, prototype, (make_lattice(other, 1, 1), lat))


def test_operator_expand_needs_frame_prototype():
    g, _, lat, op = _expand_setup()
    # a rank-one prototype whose kernel window cannot tile the sparse
    # product lattice: the induced system is not a frame
    sparse = make_lattice(g, 2, 2)
    spiky = rank_one(dirac(g), dirac(g))
    with pytest.raises(FrameError) as info:
        atomic_operator_expand(op, spiky, (sparse, sparse))
    a, b = info.value.bounds
    assert a < 1e-10 * b
