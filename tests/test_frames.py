import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfkit import frames, signals, transform
from tfkit.errors import FrameError, GroupMismatchError, LatticeError
from tfkit.frames import (
    GaborSystem,
    atomic_expand,
    atomic_operator_expand,
    canonical_dual,
    frame_bounds,
    gabor_synthesize,
    partial_frame_sum,
    tight_window,
)
from tfkit.groups import make_group, make_lattice
from tfkit.kernels import KernelOperator, identity_operator, operator_matrix, rank_one
from tfkit.signals import Signal, dirac, gauss, inner, l2_norm, random_signal, tensor
from tfkit.transform import phase_atoms, stft, stft_invert

from oracles import (
    dual_atom_coefficients,
    eigh_zak_design,
    frame_operator,
    gabor_atoms,
    gabor_synthesis,
    naive_char,
    node_row_coefficients,
    node_row_synthesis,
    onb_system,
    random_operator,
    synthesize_operator_expansion,
    walnut_spectrum,
)


def naive_atom(window, point):
    g = window.group
    x, w = point
    return np.array(
        [
            naive_char(g, t, w) * window.values[g.index(g.add(t, g.neg(x)))]
            for t in g.elements()
        ]
    )


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


def test_partial_sums_build_only_their_own_atoms(monkeypatch):
    g = make_group((12,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 3, 4))
    nfreqs = len(system.lattice.nodes[1])
    asked = []

    def counting_atoms(window, times, freqs):
        asked.append(len(times))
        return phase_atoms(window, times, freqs)

    monkeypatch.setattr(frames, "phase_atoms", counting_atoms)
    for count in range(1, system.lattice.size + 1):
        kernel = partial_frame_sum(system, count).kernel
        # only the time nodes the first count points sit on
        assert asked[-1] == math.ceil(count / nfreqs)
        atoms = gabor_atoms(system)[:count]
        assert np.array_equal(kernel, (atoms.conj().T @ atoms) * system.weight)
    # and the system keeps none of them
    assert not hasattr(system, "atoms")
    assert not any(isinstance(v, np.ndarray) for v in vars(system).values())


def test_designs_read_one_spectrum_per_system(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0, "solve": 0}
    shapes = []

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            shapes.append(np.shape(args[0]))
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    g = make_group((12,))
    f = random_signal(g, 4)
    # Z/12 with b = 3 has 3 x 3 Walnut blocks; n / (a b) is 2 at a = 2,
    # so the Zak-domain matrices are 1 x 1 and are their own spectrum (no
    # eigen-solve), and 4/3 at a = 3, so 3 x 3 (one batched eigh)
    for a, size, eighs in ((2, 1, 0), (3, 3, 1)):
        system = GaborSystem(gauss(g, 2.0), make_lattice(g, a, 3))
        calls.update(dict.fromkeys(calls, 0))
        shapes.clear()
        frame_bounds(system)
        canonical_dual(system)
        tight_window(system)
        atomic_expand(f, system)
        atomic_expand(f, system)
        assert calls == {"eigh": eighs, "eigvalsh": 0, "solve": 0}
        assert [shape[-2:] for shape in shapes] == [(size, size)] * eighs
        assert system.spectrum[1].shape[-2:] == (size, size)


def test_spectrum_is_read_only():
    g = make_group((12,))
    system = GaborSystem(gauss(g, 2.0), make_lattice(g, 2, 3))
    spectrum = system.spectrum
    assert system.spectrum is spectrum
    for arr in spectrum:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0


def test_systems_on_one_lattice_share_its_zak_split():
    g = make_group((12,))
    lattice = make_lattice(g, 3, 3)
    one = GaborSystem(gauss(g, 2.0), lattice)
    two = GaborSystem(random_signal(g, 1), lattice)
    assert one.spectrum[2] is two.spectrum[2] is lattice.zak_split[2]


def test_spectrum_builds_no_shift_matrix(monkeypatch):
    def refused(*args):
        raise AssertionError("shift_matrix called")

    # frames imports no shift_matrix; refuse the name wherever it is bound
    assert not hasattr(frames, "shift_matrix")
    for module in (signals, transform, frames):
        monkeypatch.setattr(module, "shift_matrix", refused, raising=False)
    designs = (((12,), 3, 3), ((6, 10), (2, 2), (3, 2)), ((4, 1, 6), (2, 1, 2), (1, 1, 2)))
    for orders, a, b in designs:
        g = make_group(orders)
        system = GaborSystem(gauss(g, 1.0), make_lattice(g, a, b))
        frame_bounds(system)
        tight_window(system)


def test_spectrum_keeps_no_lattice_by_group_array():
    # Z/4096 with a = 64, b = 32: a copy of the window's shifts at the 64
    # time nodes would be 4 MiB of complex values; the lattice is fresh,
    # so its Zak split is built inside the traced call
    g = make_group((4096,))
    system = GaborSystem(gauss(g, 90.0), make_lattice(g, 64, 32))
    tracemalloc.start()
    try:
        system.spectrum
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    # the Gram products of 1e308 overflow: the spectrum refuses to decompose
    g = make_group((8,))
    system = GaborSystem(Signal(g, np.full(8, 1e308)), make_lattice(g, 2, 2))
    with pytest.raises(FrameError) as info, np.errstate(all="ignore"):
        design(system)
    assert np.isnan(info.value.bounds).all()


NON_FINITE_WINDOWS = {
    "all-inf": np.full(8, np.inf),
    "one-nan": np.where(np.arange(8) == 3, np.nan, 1.0),
    "1e308": np.full(8, 1e308),
}


@pytest.mark.parametrize("window", NON_FINITE_WINDOWS)
@pytest.mark.parametrize(
    "design", [frame_bounds, canonical_dual, tight_window], ids=lambda f: f.__name__
)
def test_non_finite_window_raises_without_a_warning(design, window):
    # no errstate here: a RuntimeWarning from the spectrum's products or
    # FFT would be raised instead of the FrameError
    g = make_group((8,))
    system = GaborSystem(Signal(g, NON_FINITE_WINDOWS[window]), make_lattice(g, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FrameError) as info:
            design(system)
    assert np.isnan(info.value.bounds).all()


# ---------------------------------------------------------------------------
# the block route against the dense frame matrix


def dense_frame_matrix(system):
    return operator_matrix(frame_operator(system))


# (orders, time step, freq step, window, weighting); freq step 1 gives
# 1 x 1 Walnut blocks, freq step n a single block holding the whole
# matrix.  The first five have p = 1 on every factor (the Zak-domain
# matrices are 1 x 1); then p = 3, p = 2, p = (3, 1) and a Z/1 factor.
BLOCK_CASES = [
    ((24,), 4, 3, "gauss:3.0", "ambient"),
    ((12, 8), (3, 2), (2, 2), "gauss:2.0", "ambient"),
    ((12,), 2, 3, "random:5", "index"),
    ((10,), 2, 1, "gauss:1.5", "ambient"),
    ((10,), 1, 10, "random:6", "ambient"),
    ((12,), 3, 3, "gauss:2.0", "ambient"),
    ((60,), 4, 6, "random:7", "index"),
    ((12, 8), (3, 2), (3, 2), "gauss:1.5", "ambient"),
    ((1, 8), (1, 2), (1, 2), "random:8", "ambient"),
]


def block_case_system(orders, a, b, window, weighting):
    g = make_group(orders)
    kind, arg = window.split(":")
    win = gauss(g, float(arg)) if kind == "gauss" else random_signal(g, int(arg))
    return GaborSystem(win, make_lattice(g, a, b, weighting=weighting))


def case_id(case):
    return f"{case[0]}-{case[3]}-{case[4]}"


# and the benchmark's Gabor design: Z/512, a = b = 16, gauss(sqrt(512))
GABOR_DESIGN_CASE = ((512,), 16, 16, f"gauss:{math.sqrt(512)!r}", "ambient")


@pytest.mark.parametrize("case", BLOCK_CASES + [GABOR_DESIGN_CASE], ids=case_id)
def test_zak_spectrum_matches_walnut_blocks(case):
    system = block_case_system(*case)
    zak = np.sort(system.spectrum[0].ravel())
    walnut = np.sort(walnut_spectrum(system)[0].ravel())
    assert zak.shape == walnut.shape == (system.group.order,)
    assert np.max(np.abs(zak - walnut)) <= 1e-12 * np.max(np.abs(walnut))


@st.composite
def _zak_cases(draw):
    # 1-3 cyclic factors, |G| <= 36, optionally the dual (Haar weight
    # 1/|G|); steps that divide the orders.  In about a third of the cases
    # one factor gets p > 1 (its time step does not divide n / b), in the
    # rest every p is 1; real or complex windows
    orders = [draw(st.integers(1, 12))]
    while len(orders) < 3 and 36 // math.prod(orders) > 1 and draw(st.booleans()):
        orders.append(draw(st.integers(1, min(12, 36 // math.prod(orders)))))
    grp = make_group(orders)
    grp = grp.dual() if draw(st.booleans()) else grp
    wide = [j for j, n in enumerate(orders) if n > 1]
    widen = draw(st.sampled_from(wide)) if wide and draw(st.integers(0, 2)) == 1 else None
    time_step, freq_step = [], []
    for j, n in enumerate(orders):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        b = draw(st.sampled_from(divisors[1:] if j == widen else divisors))
        steps = [a for a in divisors if ((n // b) % a != 0) == (j == widen)]
        time_step.append(draw(st.sampled_from(steps)))
        freq_step.append(b)
    seed = draw(st.integers(0, 2**16))
    values = random_signal(grp, seed).values
    window = Signal(grp, values.real + 1.0 if draw(st.booleans()) else values + 1.0)
    return GaborSystem(window, make_lattice(grp, time_step, freq_step))


def assert_bits_of_eigh_route(system):
    """The spectrum, bounds, dual and tight window byte for byte against
    the eigh route with np.fft.fftn and ifftn (oracles.eigh_zak_design),
    or the same FrameError on both routes."""
    evals, vecs, bounds, dual, tight = eigh_zak_design(system)
    assert system.spectrum[0].tobytes() == evals.tobytes()
    assert system.spectrum[1].shape == vecs.shape
    assert np.array(frame_bounds(system)).tobytes() == np.array(bounds).tobytes()
    for design, want in ((canonical_dual, dual), (tight_window, tight)):
        try:
            got = design(system).values
        except FrameError as error:
            assert error.bounds == bounds
            continue
        assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_zak_cases())
def test_drawn_zak_spectrum_matches_walnut_and_dense_designs(system):
    # the eigenvalues against the Walnut blocks at the tolerance of
    # test_zak_spectrum_matches_walnut_blocks; the dual and the tight window
    # against dense solves where the frame is well conditioned, and refused
    # with FrameError, never LinAlgError, where it is singular
    zak = np.sort(system.spectrum[0].ravel())
    walnut = np.sort(walnut_spectrum(system)[0].ravel())
    assert np.max(np.abs(zak - walnut)) <= 1e-12 * np.max(np.abs(walnut))
    if system.spectrum[2].shape[-1] == 1:
        # P = 1 reads the diagonal where the eigh route decomposed it
        assert_bits_of_eigh_route(system)
    dense = dense_frame_matrix(system)
    evals, vecs = np.linalg.eigh(dense)
    well = evals[0] >= 1e-5 * evals[-1]
    for design in (canonical_dual, tight_window):
        try:
            got = design(system).values
        except FrameError:
            assert not well
            continue
        assert evals[0] >= 1e-12 * evals[-1]
        if well:
            g = system.window.values
            if design is canonical_dual:
                want = np.linalg.solve(dense, g)
            else:
                want = (vecs * evals**-0.5) @ vecs.conj().T @ g
            assert np.allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))


@pytest.mark.parametrize("case", BLOCK_CASES, ids=case_id)
def test_block_bounds_match_dense_spectrum(case):
    system = block_case_system(*case)
    evals = np.linalg.eigvalsh(dense_frame_matrix(system))
    a, b = frame_bounds(system)
    assert a == pytest.approx(evals[0], rel=1e-12)
    assert b == pytest.approx(evals[-1], rel=1e-12)


@pytest.mark.parametrize("case", BLOCK_CASES, ids=case_id)
def test_block_dual_matches_dense_solve(case):
    system = block_case_system(*case)
    expected = np.linalg.solve(dense_frame_matrix(system), system.window.values)
    dual = canonical_dual(system)
    scale = np.max(np.abs(expected))
    assert np.allclose(dual.values, expected, rtol=0, atol=1e-10 * scale)


@pytest.mark.parametrize("case", BLOCK_CASES, ids=case_id)
def test_block_tight_window_matches_dense_inverse_root(case):
    system = block_case_system(*case)
    evals, vecs = np.linalg.eigh(dense_frame_matrix(system))
    expected = (vecs * evals**-0.5) @ vecs.conj().T @ system.window.values
    tight = tight_window(system)
    scale = np.max(np.abs(expected))
    assert np.allclose(tight.values, expected, rtol=0, atol=1e-10 * scale)


@pytest.mark.parametrize("case", BLOCK_CASES, ids=case_id)
def test_bounds_give_dense_distance_to_identity(case):
    # run_frames' s_minus_identity: S is Hermitian with spectrum in [A, B]
    system = block_case_system(*case)
    smat = dense_frame_matrix(system)
    expected = np.linalg.norm(smat - np.eye(len(smat)), 2)
    a, b = frame_bounds(system)
    assert max(abs(a - 1.0), abs(b - 1.0)) == pytest.approx(expected, rel=1e-12)


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


# Z/8 with a = b = 2, two factors, a Z/1 factor, a non-square lattice,
# p_j > 1 (Z/12 with a = b = 3, the Z/10 factor with a = 2, b = 2), three
# factors, the dual group's Haar weight, and complex windows
GABOR_SYSTEMS = pytest.mark.parametrize(
    "orders, a, b, window",
    [
        ((8,), 2, 2, "gauss"),
        ((2, 6), (1, 2), (2, 3), "gauss"),
        ((1, 8), (1, 2), (1, 2), "gauss"),
        ((12,), 3, 2, "complex"),
        ((12,), 3, 3, "gauss"),
        ((6, 10), (2, 2), (3, 2), "gauss"),
        ((4, 1, 6), (2, 1, 2), (1, 1, 2), "gauss"),
        ((12,), 3, 3, "dual"),
        ((2, 6), (1, 2), (2, 3), "dual"),
        ((4, 6), (2, 2), (1, 3), "complex"),
    ],
)


def make_system(orders, a, b, window):
    g = make_group(orders)
    if window == "dual":
        g = g.dual()
    h = random_signal(g, 4) if window == "complex" else gauss(g, 1.0)
    return GaborSystem(h, make_lattice(g, a, b))


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@GABOR_SYSTEMS
def test_zak_designs_keep_the_bits_of_the_eigh_route(orders, a, b, window):
    # P = 1 (half of these systems) skips eigh and the two basis changes;
    # every P goes through the one-axis FFT dispatch on one factor
    system = make_system(orders, a, b, window)
    assert_bits_of_eigh_route(system)
    vecs = system.spectrum[1]
    if vecs.shape[-1] == 1:
        assert vecs.dtype == complex and np.all(vecs == 1)


@GABOR_SYSTEMS
def test_expand_matches_dense_dual_atoms(orders, a, b, window):
    # and the former route off whole rows of the bilinear table
    system = make_system(orders, a, b, window)
    g = system.group
    for seed in range(3):
        f = random_signal(g, seed)
        got = atomic_expand(f, system)
        assert got.shape == (system.lattice.size,)
        assert_close(got, dual_atom_coefficients(f, system))
        assert_close(got, node_row_coefficients(f, system))


@GABOR_SYSTEMS
def test_synthesize_matches_dense_atoms(orders, a, b, window):
    # and the former route off whole zero-filled rows
    system = make_system(orders, a, b, window)
    rng = np.random.default_rng(7)
    size = system.lattice.size
    for _ in range(3):
        coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        got = gabor_synthesize(system, coeffs).values
        assert_close(got, gabor_synthesis(system, coeffs))
        assert_close(got, node_row_synthesis(system, coeffs))


def test_expand_and_synthesize_keep_no_lattice_by_group_array():
    # Z/4096 with a = 64, b = 32: an array over the 64 time nodes and the
    # whole group would be 4 MB of complex values.
    g = make_group((4096,))
    system = GaborSystem(gauss(g, 90.0), make_lattice(g, 64, 32))
    system.spectrum
    f = random_signal(g, 0)
    tracemalloc.start()
    try:
        gabor_synthesize(system, atomic_expand(f, system))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_analysis_and_synthesis_build_no_atom_matrix(monkeypatch):
    builds = []

    def counting(build):
        def wrapped(*args):
            builds.append(build.__name__)
            return build(*args)

        return wrapped

    monkeypatch.setattr(frames, "phase_atoms", counting(phase_atoms))
    monkeypatch.setattr(transform, "phase_atoms", counting(phase_atoms))
    g = make_group((2, 6))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, (1, 2), (2, 3)))
    f = random_signal(g, 0)
    gabor_synthesize(system, atomic_expand(f, system))
    stft_invert(system.window, stft(system.window, f))
    assert builds == []
    assert "atoms" not in vars(system)


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


@pytest.mark.parametrize("count", [True, False, 2.5, 3.0, "3"], ids=repr)
def test_partial_sum_refuses_a_count_that_is_not_an_integer(count):
    # True would sum one point and 2.5 failed on a slice index, whose
    # message named no count
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 2, 2))
    with pytest.raises(TypeError, match=re.escape(f"count must be an integer, got {count!r}")):
        partial_frame_sum(system, count)
    assert partial_frame_sum(system, np.int64(3)).kernel.shape == (8, 8)


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


@pytest.mark.parametrize(
    "orders1, steps1, orders2, steps2",
    [
        ((2, 3), ((1, 1), (1, 3)), (4,), (2, 1)),
        ((6,), (2, 3), (2, 2), (1, 2)),
        ((6,), (1, 2), (4,), (2, 1)),
    ],
)
def test_operator_expand_phases_at_strided_product_nodes(orders1, steps1, orders2, steps2):
    # the phases are read at the product lattice's node indices i1 |G2| + i2
    g1, g2 = make_group(orders1), make_group(orders2)
    prototype = rank_one(gauss(g1, 1.0), gauss(g2, 1.0))
    lattices = (make_lattice(g1, *steps1), make_lattice(g2, *steps2))
    expansion = atomic_operator_expand(random_operator(g1, g2, 5), prototype, lattices)
    for c, k, nu1 in zip(
        expansion.coefficients, expansion.kernel_coefficients, expansion.domain_points
    ):
        assert c == pytest.approx(k * naive_char(g1, nu1.x, nu1.w), rel=1e-12, abs=1e-12)


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
