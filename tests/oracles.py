"""Dense oracles and fixtures shared by the test modules."""

import cmath
import math

import numpy as np

from tfkit.errors import GroupMismatchError
from tfkit.frames import GaborSystem, canonical_dual
from tfkit.groups import character_table, make_lattice
from tfkit.kernels import KernelOperator, PhaseSums
from tfkit.signals import Signal, dirac, fourier, gauss, l2_norm, shift_matrix, tf_shift
from tfkit.transform import node_windows, pairing_rows, pairing_table, phase_atoms, stft


def naive_char(group, x, w):
    """w(x) off the defining sum of phases, one point at a time."""
    phase = 0.0
    for xi, wi, n in zip(x, w, group.orders):
        phase += (xi % n) * (wi % n) / n
    return cmath.exp(2j * math.pi * phase)


def kronecker_characters(group):
    """The whole character table as a Kronecker product of the cyclic
    factor tables, [w_index, x_index] = w(x); the bit oracle of
    groups.character_rows, which multiplies the same factor phases in the
    same order for the rows asked."""
    table = np.ones((1, 1), dtype=complex)
    for n in group.orders:
        grid = np.outer(np.arange(n), np.arange(n))
        factor = np.exp(2j * np.pi * grid / n)
        table = np.kron(table, factor)
    return table


def random_operator(g1, g2, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    k = rng.standard_normal((g1.order, g2.order)) + 1j * rng.standard_normal(
        (g1.order, g2.order)
    )
    return KernelOperator(g1, g2, k)


def normalized_gauss(group, spread=1.0):
    g = gauss(group, spread)
    return Signal(group, g.values / l2_norm(g))


def onb_system(grp):
    """Critically sampled translates of the normalized impulse: an
    orthonormal basis on any group, with exact unit frame bounds."""
    lattice = make_lattice(grp, 1, grp.orders, weighting="index")
    impulse = dirac(grp)
    unit = Signal(grp, impulse.values / l2_norm(impulse))
    return GaborSystem(unit, lattice)


def operator_pairing_table(op, g1, g2):
    """The whole operator phase table B[nu1, nu2] = (pi(nu2) g2, T pi(nu1) g1),
    shape (|G1|^2, |G2|^2), by two passes of the batched bilinear table:
    pairing each kernel column K(., y) with pi(nu1) g1 gives
    (T pi(nu1) g1)(y), and pairing those rows with pi(nu2) g2 gives B.
    The library never holds this table; kernels.operator_phase_sums
    streams it in chunks."""
    if g1.group != op.domain or g2.group != op.codomain:
        raise GroupMismatchError("windows do not match the operator's groups")
    return pairing_rows(g2, pairing_rows(g1, op.kernel.T).T)


def chunked_phase_sums(op, g1, g2, ps=()):
    """The streamed pass over B with a whole complex chunk: pairing_rows
    in both stages, np.abs of the chunk, and |B|**p of the chunk per
    finite p, in chunks of 2^18 entries.  The bit oracle of
    kernels.operator_phase_sums, which fills one float chunk through a
    bounded complex block (transform.pairing_mags) and must reduce it in
    this order."""
    if g1.group != op.domain or g2.group != op.codomain:
        raise GroupMismatchError("windows do not match the operator's groups")
    ps = tuple(ps)
    n1, n2 = op.domain.order, op.codomain.order
    step = max(1, 2**18 // (n1 * n2 * n2))
    total, peak, row_peak = 0.0, 0.0, 0.0
    col_powers = [np.zeros(n2 * n2) for _ in ps]
    for lo in range(0, n1, step):
        half = pairing_rows(g1, op.kernel.T, slice(lo, lo + step))
        mags = np.abs(pairing_rows(g2, np.ascontiguousarray(half.T)))
        total += np.sum(mags)
        peak = np.maximum(peak, np.max(mags))
        row_peak = np.maximum(row_peak, np.max(np.sum(mags, axis=1)))
        for acc, p in zip(col_powers, ps):
            if p == math.inf:
                np.maximum(acc, np.max(mags, axis=0), out=acc)
            else:
                acc += np.sum(mags**p, axis=0)
    return PhaseSums(
        m1=float(total * op.domain.phase_weight * op.codomain.phase_weight),
        peak=float(peak),
        row_peak=float(row_peak),
        col_powers=tuple(col_powers),
    )


def _one_table_mpq_bounds(mags, g1, codomain, ps, qs):
    """The (p, q) conditions of an operator whose |B| holds every entry
    of the |G2|^2 table mags once in each column and once in each row:
    ||mags||_{p, wp1} * (wp2 |G2|^2)^(1/q) / ||g1||_2^2, with the plain
    maximum at p = inf and no factor at q = inf."""
    wp1, wp2 = g1.group.phase_weight, codomain.phase_weight
    out = np.empty((len(ps), len(qs)))
    for i, p in enumerate(ps):
        inner = np.max(mags) if p == math.inf else (wp1 * np.sum(mags**p)) ** (1 / p)
        for j, q in enumerate(qs):
            out[i, j] = inner if q == math.inf else inner * (wp2 * codomain.order**2) ** (1 / q)
    return out / l2_norm(g1) ** 2


def _one_table_induced_norms(mags, g1, codomain):
    """induced_norms of such an operator, mags read against conj g1:
    m1 = wp2 sum |P| / ||g1||_2^2, minf = wp1 sum |P| / ||g1||_2^2,
    m1_to_minf = max |P| / ||g1||_2^2, and b, the phase-space L1 size of
    B, wp1 wp2 |G1| |G2| sum |P|."""
    domain = g1.group
    wp1, wp2, energy = domain.phase_weight, codomain.phase_weight, l2_norm(g1) ** 2
    total = np.sum(mags)
    return (
        wp2 * total / energy,
        wp1 * total / energy,
        np.max(mags) / energy,
        wp1 * wp2 * domain.order * codomain.order * total,
    )


def identity_mpq_bounds(g1, g2, ps, qs):
    """mpq_bounds(identity_operator(G), g1, g2, ps, qs) in closed form.

    For the identity, B(x1, w1; x2, w2) = P[x2 - x1, w1 + w2] with
    P = pairing_table(g2, g1): substitute t -> t + x1 in the pairing.
    So every column of B holds each entry of P once.  One |G| x |G|
    table replaces the |G|^4 entries of B."""
    mags = np.abs(pairing_table(g2, g1).values)
    return _one_table_mpq_bounds(mags, g1, g2.group, ps, qs)


def identity_induced_norms(g):
    """regnets.induced_norms(identity_operator(G), g) in closed form: its
    pass reads B against (conj g, g), whose P = pairing_table(g, conj g)
    is every row and every column of B once."""
    mags = np.abs(pairing_table(g, Signal(g.group, g.values.conj())).values)
    return _one_table_induced_norms(mags, g, g.group)


def fourier_mpq_bounds(g1, g2, ps, qs):
    """mpq_bounds(fourier_operator(G), g1, g2, ps, qs) in closed form, g2
    on dual(G).

    The Fourier transform takes pi(x1, w1) g1 to a multiple of
    pi(w1, -x1) fourier(g1) by a unimodular phase, so
    |B(x1, w1; x2, w2)| = |P[x2 - w1, w2 - x1]| with
    P = pairing_table(g2, fourier(g1)) on dual(G): substitute
    t -> t + w1 in the pairing.  Every row and every column of B holds
    each entry of P once."""
    mags = np.abs(pairing_table(g2, fourier(g1)).values)
    return _one_table_mpq_bounds(mags, g1, g2.group, ps, qs)


def fourier_induced_norms(g1, g2):
    """regnets.induced_norms(fourier_operator(G), g1, g2) in closed form:
    its pass reads B against (conj g1, g2), so
    P = pairing_table(g2, fourier(conj g1))."""
    conj_hat = fourier(Signal(g1.group, g1.values.conj()))
    mags = np.abs(pairing_table(g2, conj_hat).values)
    return _one_table_induced_norms(mags, g1, g2.group)


def weak_reconstruction(op, window, s):
    """T s by its dense weak form

        ||g||_2^{-2} sum_nu phase_weight * stft(g, s)[nu] * T(pi(nu) g)

    over the images of all |G|^2 atoms: one product of the whole atom
    matrix with the kernel, O(|G|^4).  The library applies T to the
    synthesis instead (kernels.weak_reconstruct)."""
    grp = op.domain
    coeffs = stft(window, s).values.ravel()
    images = (phase_atoms(window) @ op.kernel) * float(grp.weight)  # row nu = T(pi(nu) g)
    scale = grp.phase_weight / l2_norm(window) ** 2
    return Signal(op.codomain, (coeffs @ images) * scale)


def atom_multiplier_kernel(window, mask):
    """Kernel of the Gabor multiplier f -> sum_nu phase_weight * mask[nu]
    <f, pi(nu) g> pi(nu) g over the whole atom matrix, one
    (|G| x |G|^2)(|G|^2 x |G|) product: O(|G|^4) time and |G|^3 memory.
    The library computes it by its diagonals (transform.multiplier_kernel)."""
    atoms = phase_atoms(window)
    h = mask.values.ravel()
    return ((atoms.conj() * h[:, None]).T @ atoms) * window.group.phase_weight


def gabor_atoms(system):
    """Atom matrix, one row pi(lambda) g per lattice point in
    lattice.points() order, each by tf_shift.  The library builds these
    rows only as transform.phase_atoms at the lattice.nodes indices."""
    points = system.lattice.points()
    return np.array([tf_shift(system.window, point).values for point in points])


def frame_operator(system):
    """Kernel of S by its definition,

        K(t1, t2) = sum_lambda weight * conj(atom(t1)) atom(t2)

    over every lattice point, off the tf_shift atoms; Hermitian positive
    semidefinite after weight folding.  The library builds this matrix
    only as frames.partial_frame_sum over a prefix of the points."""
    atoms = gabor_atoms(system)
    kernel = (atoms.conj().T @ atoms) * system.weight
    return KernelOperator(system.group, system.group, kernel)


def walnut_spectrum(system):
    """(evals, vecs, index): np.linalg.eigh of the weight-folded frame
    matrix M = operator_matrix(frame_operator(system)) on each coset of
    H = sum_j (n_j / b_j) Z, where it lives (the Walnut representation):
    one Hermitian |H| x |H| block per coset.  index[c] lists the elements
    of the c-th coset (shape (|G|/|H|, |H|)) and the c-th block is
    M[index[c]][:, index[c]].  The library splits each block further, in
    the Zak domain (frames.GaborSystem.spectrum)."""
    grp, lat = system.group, system.lattice
    cosets = [n // b for n, b in zip(grp.orders, lat.freq_step)]
    reps = np.indices(cosets).reshape(grp.nfactors, -1, 1)
    steps = np.indices(lat.freq_step).reshape(grp.nfactors, 1, -1)
    coords = reps + np.reshape(cosets, (-1, 1, 1)) * steps
    index = np.ravel_multi_index(tuple(coords), grp.orders)
    times, _ = lat.nodes
    cols = shift_matrix(system.window, times)[:, index].transpose(1, 0, 2)
    scale = float(lat.weight * len(index) * grp.weight)
    evals, vecs = np.linalg.eigh((cols.transpose(0, 2, 1) @ cols.conj()) * scale)
    return evals, vecs, index


def eigh_zak_design(system):
    """(evals, vecs, bounds, dual, tight) by the Zak route that decomposes
    every matrix with np.linalg.eigh, P = 1 included, with np.fft.fftn
    and ifftn over the u axes and both basis changes as stacked matmuls.
    The library reads P = 1 off the diagonal and sends each FFT through
    signals.fft_axes; both must keep these bits."""
    grp, k = system.group, system.group.nfactors
    split, order, index, scale = system.lattice.zak_split
    view = node_windows(system.window, system.lattice)[0]
    nodes = view.shape[:k]
    cols = view.reshape(nodes + split).transpose(*(k + j for j in order), *range(k))
    cols = cols.reshape(index.shape[0], -1, index.shape[-1], math.prod(nodes))
    axes = range(1, k + 1)
    strip = np.matmul(cols, cols[:, :1].conj().swapaxes(-1, -2))
    zak = np.fft.fftn(strip.reshape(index.shape + index.shape[-1:]), axes=axes)
    zak *= scale
    evals, vecs = np.linalg.eigh(zak)
    bounds = (float(np.min(evals)), float(np.max(evals)))
    powers = []
    for exponent in (-1.0, -0.5):
        coeffs = np.fft.fftn(system.window.values[index], axes=axes)
        coeffs = np.matmul(coeffs[..., None, :], vecs.conj())[..., 0, :] * evals**exponent
        coeffs = np.matmul(vecs, coeffs[..., None])[..., 0]
        out = np.empty(grp.order, dtype=complex)
        out[index] = np.fft.ifftn(coeffs, axes=axes)
        powers.append(out)
    return evals, vecs, bounds, powers[0], powers[1]


def dual_atom_coefficients(f, system):
    """The frame coefficients c_lambda = weight * <f, pi(lambda) h> against
    the canonical dual h by their dense definition: one matrix-vector
    product with the conjugated dual atom matrix, scaled by the lattice
    weight and the Haar weight.  The library folds the signal to the
    lattice's FFT length instead (transform.analysis)."""
    dual_atoms = gabor_atoms(GaborSystem(canonical_dual(system), system.lattice))
    return (dual_atoms.conj() @ f.values) * (system.weight * float(system.group.weight))


def gabor_synthesis(system, coefficients):
    """sum_lambda c_lambda pi(lambda) g by its dense definition: one
    product of the coefficients with the system's atom matrix.  The
    library sums them back at the lattice's FFT length instead
    (transform.synthesis)."""
    return coefficients @ gabor_atoms(system)


def node_row_coefficients(f, system):
    """The frame coefficients off whole rows of the bilinear table: a
    length-|G| character sum of conj(f) times the dual's shift row at each
    lattice time node (transform.pairing_rows), keeping the frequency-node
    columns.  The library folds each row to the lattice's FFT length
    instead (transform.analysis)."""
    times, freqs = system.lattice.nodes
    table = pairing_rows(canonical_dual(system), np.conj(f.values)[None, :], times)
    coeffs = np.conj(table.reshape(len(times), system.group.order)[:, freqs])
    return coeffs.ravel() * system.weight


def node_row_synthesis(system, coefficients):
    """sum_lambda c_lambda pi(lambda) g off whole rows: the coefficients
    zero-filled to an (L, |G|) array at the frequency-node columns, one
    length-|G| character sum per row, then summed against the window's
    shift rows at the time nodes.  On the unit-step lattice every node is
    kept, and this is the former whole-table synthesis of stft_invert.  The
    library sums at the lattice's FFT length instead (transform.synthesis)."""
    grp = system.group
    times, freqs = system.lattice.nodes
    rows = np.zeros((len(times), grp.order), dtype=complex)
    rows[:, freqs] = np.reshape(coefficients, (len(times), len(freqs)))
    sums = np.fft.ifftn(rows.reshape((-1,) + grp.orders), axes=range(1, grp.nfactors + 1))
    sums = sums.reshape(len(times), grp.order) * grp.order
    return np.sum(sums * shift_matrix(system.window, times), axis=0)


def _twisted_sandwich_kernel(prototype, nu1, nu2):
    """Kernel of pi(nu2) o T0 o pi~(nu1) where pi~(x, w) = E_w T_{-x}:

        K(s, z) = w2(z) * w1(s - x1) * K0(s - x1, z - x2)
    """
    g1, g2 = prototype.domain, prototype.codomain
    x1 = g1.reduce(nu1.x)
    x2 = g2.reduce(nu2.x)
    grid = prototype.kernel.reshape(g1.orders + g2.orders)
    rolled = np.roll(grid, shift=x1 + x2, axis=tuple(range(g1.nfactors + g2.nfactors)))
    row_phase = np.roll(
        character_table(g1)[g1.index(nu1.w)].reshape(g1.orders),
        shift=x1,
        axis=tuple(range(g1.nfactors)),
    ).ravel()
    col_phase = character_table(g2)[g2.index(nu2.w)]
    k = rolled.reshape(g1.order, g2.order)
    return k * row_phase[:, None] * col_phase[None, :]


def synthesize_operator_expansion(prototype, expansion):
    """Assemble sum_j c_j pi(nu2_j) o T0 o pi~(nu1_j) term by term from
    the twisted-shift kernels; an independent route from the Gabor
    synthesis that produced the coefficients (frames.atomic_operator_expand)."""
    out = np.zeros((prototype.domain.order, prototype.codomain.order), dtype=complex)
    for c, nu1, nu2 in zip(
        expansion.coefficients, expansion.domain_points, expansion.codomain_points
    ):
        out += c * _twisted_sandwich_kernel(prototype, nu1, nu2)
    return KernelOperator(prototype.domain, prototype.codomain, out)
