"""Gabor systems on separable lattices, frame bounds, duals, and the
expansion of operators in time-frequency shifts of a prototype kernel.

A system is a window plus a lattice; its atoms are pi(lambda) g over the
lattice points, and the frame operator is

    S f = sum_lambda lattice_weight * <f, pi(lambda) g> pi(lambda) g

whose kernel is sum_lambda weight * conj(atom(t1)) atom(t2).  On a
separable lattice with frequency steps b_j the weight-folded matrix is
nonzero only where t1 - t2 lies in H = sum_j (n_j / b_j) Z (the Walnut
representation), so it splits into one Hermitian |H| x |H| block per
coset of H; with time steps a_j each block is block-circulant, so an FFT
along its block index splits it further into Hermitian P x P matrices,
P = prod_j p_j with p_j the denominator of n_j / (a_j b_j) in lowest
terms (the Zak domain, Zibulski-Zeevi).  Each system builds those small
matrices off the DGT pair's node view (transform.node_windows) by
stacked matmuls, at the split its lattice computes once
(Lattice.zak_split), decomposes them once (GaborSystem.spectrum; at
P = 1 each matrix is its own eigenvalue, and no eigen-solve runs) and
keeps its canonical dual S^{-1} g (GaborSystem.dual); the bounds, the
dual and the tight window S^{-1/2} g are read off that one spectrum,
never off the dense |G| x |G| matrix, which only partial_frame_sum and
the tail of the frames suite's sweep of partial sums (suites.run_frames)
build (over every lattice point it is S; the tests keep the dense frame
operator and the Walnut-block eigen-solves as oracles).  atomic_expand
and its adjoint gabor_synthesize are transform.analysis against the dual
and transform.synthesis with the window on the system's lattice (the DGT
and IDGT), and no system keeps an atom matrix (the tests keep the dense
analysis and synthesis, and the former whole-row route through
transform.pairing_rows, as oracles).  A full lattice with the ambient
weight gives A = B = ||g||_2^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FrameError, GroupMismatchError, LatticeError, as_integer
from .groups import Group, Lattice, PhasePoint, character_rows, product_group
from .kernels import KernelOperator, kernel_signal
from .signals import Signal, fft_axes
from .transform import analysis, node_windows, phase_atoms, synthesis

__all__ = [
    "GaborSystem",
    "frame_bounds",
    "canonical_dual",
    "tight_window",
    "atomic_expand",
    "gabor_synthesize",
    "partial_frame_sum",
    "OperatorExpansion",
    "atomic_operator_expand",
]

_NONFRAME_RATIO = 1e-10


@dataclass(frozen=True)
class GaborSystem:
    """A window together with a lattice on the window's phase space."""

    window: Signal
    lattice: Lattice

    def __post_init__(self):
        if self.window.group != self.lattice.group:
            raise GroupMismatchError("window and lattice live on different groups")
        if not np.any(self.window.values):
            raise FrameError("window is identically zero", bounds=(0.0, 0.0))

    @property
    def group(self) -> Group:
        return self.window.group

    @property
    def weight(self) -> float:
        return float(self.lattice.weight)

    @cached_property
    def spectrum(self) -> tuple:
        """(evals, vecs, index): the eigendecomposition of the small
        Hermitian matrices the weight-folded frame matrix splits into in
        the Zak domain, np.linalg.eigh where P > 1; computed on first use
        and kept, read-only, since the
        bounds, the canonical dual and the tight window all read it.
        FrameError (bounds NaN), and no RuntimeWarning, when those matrices
        are not finite: a non-finite window, or products that overflow.

        Summing the characters of the frequency nodes gives the weight-folded
        M = operator_matrix(partial_frame_sum(self, lattice.size)) as

            M[t1, t2] = c * [t1 - t2 in H] * sum_x g(t1 - x) conj(g(t2 - x))

        over the time nodes x (lattice.nodes), with H = sum_j (n_j / b_j) Z
        and c the lattice weight times the number of frequency nodes (one
        per coset of H) times the Haar weight: one Hermitian block per coset
        (the Walnut representation).  Per factor write m = n / b and
        p = a / gcd(m, a), so that n / (a b) is q / p in lowest terms, and
        write the coset element r + m s with s = p u + rho, 0 <= rho < p.
        Shifting s by p shifts t1 and t2 by m p, a multiple of a, so each
        block depends on u1 - u2 only: the FFT along the u axes of its
        P = prod p_j columns at u = 0 splits it into prod (b_j / p_j)
        Hermitian P x P matrices (Zibulski-Zeevi); p = 1 gives 1 x 1 ones.

        index[c, u_1, ..., u_k, rho] is the element r_c + m (p u + rho) of
        coset c, shape (|G| / |H|, b_1 / p_1, ..., b_k / p_k, P); evals has
        the same shape and vecs one more axis of length P.  The matrix at
        [c, f_1, ..., f_k] acts on frequency f of the FFT along the u axes
        of a signal's values at index[c].  index, the axis split behind it
        and c come from lattice.zak_split, built once per lattice.

        The columns are g(t - x) at the time nodes, read off the node view
        (transform.node_windows) split like index, so no shift rows are
        copied on one factor; the sum over x of each block's columns
        against its columns at u = 0 is one stacked matmul, and the FFT
        along the u axes goes through signals.fft_axes.

        At P = 1 (index.shape[-1] == 1, read off lattice.zak_split) the
        1 x 1 matrices need no eigen-solve: evals is their real part and
        vecs is ones, read-only, in the shapes eigh gives.  These are the
        bits of eigh there, whose LAPACK routine (zheevd) returns exactly
        that for a 1 x 1 matrix before any scaling; a non-finite matrix
        has raised FrameError before.
        """
        k = self.group.nfactors
        split, order, index, scale = self.lattice.zak_split
        view = node_windows(self.window, self.lattice)[0]
        nodes = view.shape[:k]
        # (|G| / |H|, prod b_j / p_j, P, L): the node axes last; a view on
        # one factor, one L x |G| copy where several node axes merge
        cols = view.reshape(nodes + split).transpose(*(k + j for j in order), *range(k))
        cols = cols.reshape(index.shape[0], -1, index.shape[-1], math.prod(nodes))
        with np.errstate(over="ignore", invalid="ignore"):
            strip = np.matmul(cols, cols[:, :1].conj().swapaxes(-1, -2))
            zak = fft_axes(strip.reshape(index.shape + index.shape[-1:]), range(1, k + 1))
            zak *= scale
        if not np.isfinite(zak).all():
            raise FrameError("frame matrix is not finite", bounds=(math.nan, math.nan))
        if index.shape[-1] == 1:
            evals, vecs = zak.real[..., 0].copy(), np.ones(zak.shape, dtype=complex)
        else:
            evals, vecs = np.linalg.eigh(zak)
        for arr in (evals, vecs):
            arr.flags.writeable = False
        return evals, vecs, index

    @cached_property
    def dual(self) -> Signal:
        """S^{-1} g off the spectrum, computed on first use and kept, read-only,
        for canonical_dual and atomic_expand; FrameError for non-frames."""
        return _frame_power(self, -1.0)


def frame_bounds(system: GaborSystem) -> tuple:
    """(A, B): extreme eigenvalues of the weight-folded frame matrix, read
    off system.spectrum; FrameError when they are not finite."""
    evals = system.spectrum[0]
    a, b = float(np.min(evals)), float(np.max(evals))
    if not np.isfinite([a, b]).all():
        raise FrameError(
            f"frame matrix is not finite: bounds A={a:.3e}, B={b:.3e}", bounds=(a, b)
        )
    return (a, b)


def _frame_power(system: GaborSystem, exponent: float) -> Signal:
    """S^exponent g off system.spectrum: the FFT along the u axes of the
    window's values at index, V Lambda^exponent V^H at each frequency as
    two stacked matmuls, and the inverse FFT back, both through
    signals.fft_axes; raises FrameError (with bounds) for non-frames.  At
    P = 1, where V is ones and no eigen-solve ran, the coefficients are
    multiplied by Lambda^exponent alone, with no matmul."""
    a, b = frame_bounds(system)
    if not (b > 0 and a >= _NONFRAME_RATIO * b):
        raise FrameError(
            f"system is not a frame: bounds A={a:.3e}, B={b:.3e}", bounds=(a, b)
        )
    evals, vecs, index = system.spectrum
    axes = range(1, system.group.nfactors + 1)
    coeffs = fft_axes(system.window.values[index], axes)
    if index.shape[-1] == 1:
        coeffs *= evals**exponent
    else:
        coeffs = np.matmul(coeffs[..., None, :], vecs.conj())[..., 0, :] * evals**exponent
        coeffs = np.matmul(vecs, coeffs[..., None])[..., 0]
    out = np.empty(system.group.order, dtype=complex)
    out[index] = fft_axes(coeffs, axes, inverse=True)
    return Signal(system.group, out)


def canonical_dual(system: GaborSystem) -> Signal:
    """h = S^{-1} g; raises FrameError (with bounds) for non-frames."""
    return system.dual


def tight_window(system: GaborSystem) -> Signal:
    """S^{-1/2} g: the same lattice with this window is Parseval; raises
    FrameError (with bounds) for non-frames."""
    return _frame_power(system, -0.5)


def atomic_expand(f: Signal, system: GaborSystem) -> np.ndarray:
    """Frame coefficients c_lambda = weight * <f, pi(lambda) h> against the
    canonical dual h, aligned with lattice.points(): transform.analysis
    times the lattice weight.  Synthesizing the system's own atoms with
    these coefficients returns f exactly."""
    return analysis(canonical_dual(system), system.lattice, f) * system.weight


def gabor_synthesize(system: GaborSystem, coefficients: np.ndarray) -> Signal:
    """sum_lambda c_lambda pi(lambda) g, the coefficients aligned with
    lattice.points(): transform.synthesis on the system's lattice."""
    size = system.lattice.size
    if np.size(coefficients) != size:
        raise ValueError(f"got {np.size(coefficients)} coefficients for {size} lattice points")
    return Signal(system.group, synthesis(system.window, system.lattice, coefficients))


def partial_frame_sum(system: GaborSystem, count: int) -> KernelOperator:
    """The truncated frame operator over the first count lattice points,
    in lattice.points() order.

    Kernel: sum over those points of weight * conj(atom(t1)) atom(t2),
    off their atoms only.  TypeError, naming the count, unless it is an
    integer (a bool is not); LatticeError unless 1 <= count <= lattice.size.
    """
    size = system.lattice.size
    count = as_integer(count, "a partial sum count")
    if not 1 <= count <= size:
        raise LatticeError(f"partial sum of {count} points on a {size}-point lattice")
    times, freqs = system.lattice.nodes
    atoms = phase_atoms(system.window, times[: (count - 1) // len(freqs) + 1], freqs)[:count]
    k = (atoms.conj().T @ atoms) * system.weight
    return KernelOperator(system.group, system.group, k)


@dataclass(frozen=True)
class OperatorExpansion:
    """Expansion of an operator over shifted copies of a prototype:

        T = sum_j c_j * pi(nu2_j) o T0 o pi~(nu1_j)

    where pi~(x, w) = E_w T_{-x} is the domain-side twisted shift.  The
    coefficients carry the phase fold w1(x1) relating the operator form
    to the plain Gabor expansion of the kernel (kernel_coefficients).
    """

    domain_points: tuple
    codomain_points: tuple
    coefficients: np.ndarray
    kernel_coefficients: np.ndarray
    system: GaborSystem
    kernel_error: float

    @property
    def coefficient_l1(self) -> float:
        return float(np.sum(np.abs(self.coefficients)))


def atomic_operator_expand(
    op: KernelOperator, prototype: KernelOperator, lattices
) -> OperatorExpansion:
    """Expand op over time-frequency shifted copies of the prototype.

    lattices is a pair (domain lattice, codomain lattice); their product
    is the lattice of the Gabor system on the product group whose window
    is the prototype's kernel.  That system must be a frame (FrameError
    otherwise, carrying the computed bounds).
    """
    lat1, lat2 = lattices
    if op.domain != prototype.domain or op.codomain != prototype.codomain:
        raise GroupMismatchError("prototype must act between the same groups as op")
    if lat1.group != op.domain or lat2.group != op.codomain:
        raise GroupMismatchError("lattices must live on the operator's groups")
    big = product_group(op.domain, op.codomain)
    lattice = Lattice(
        big,
        lat1.time_step + lat2.time_step,
        lat1.freq_step + lat2.freq_step,
        lat1.weight * lat2.weight,
    )
    system = GaborSystem(kernel_signal(prototype), lattice)
    kernel_coeffs = atomic_expand(kernel_signal(op), system)
    rebuilt = gabor_synthesize(system, kernel_coeffs)
    kernel_error = float(np.max(np.abs(rebuilt.values - op.kernel.ravel())))
    k1 = op.domain.nfactors
    points = lattice.points()
    # w1(x1) at every lattice point: an index i of G1 x G2 is
    # i1 * |G2| + i2, and the points run time-major
    times, freqs = lattice.nodes
    n2 = op.codomain.order
    phases = character_rows(op.domain, freqs // n2)[:, times // n2].T.ravel()
    return OperatorExpansion(
        domain_points=tuple(PhasePoint(x[:k1], w[:k1]) for x, w in points),
        codomain_points=tuple(PhasePoint(x[k1:], w[k1:]) for x, w in points),
        coefficients=kernel_coeffs * phases,
        kernel_coefficients=kernel_coeffs,
        system=system,
        kernel_error=kernel_error,
    )
