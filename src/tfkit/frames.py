"""Gabor systems on separable lattices, frame bounds, duals, and the
expansion of operators in time-frequency shifts of a prototype kernel.

A system is a window plus a lattice; its atoms are pi(lambda) g over the
lattice points, and the frame operator is

    S f = sum_lambda lattice_weight * <f, pi(lambda) g> pi(lambda) g

whose kernel is sum_lambda weight * conj(atom(t1)) atom(t2).  On a
separable lattice with frequency steps b_j the weight-folded matrix is
nonzero only where t1 - t2 lies in H = sum_j (n_j / b_j) Z (the Walnut
representation), so it splits into one Hermitian |H| x |H| block per
coset of H.  Bounds, the canonical dual and the tight window are read
off those blocks, never off the dense |G| x |G| matrix, which only the
public frame_operator and partial_frame_sum build (the tests keep the
dense eigen-solves as oracles).  A full lattice with the ambient weight
gives A = B = ||g||_2^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameError, GroupMismatchError, LatticeError
from .groups import (
    Group,
    Lattice,
    PhasePoint,
    character_table,
    character_value,
    product_group,
)
from .kernels import KernelOperator, kernel_signal
from .signals import Signal, shift_matrix
from .transform import phase_atoms

__all__ = [
    "GaborSystem",
    "gabor_atoms",
    "frame_operator",
    "frame_bounds",
    "canonical_dual",
    "tight_window",
    "atomic_expand",
    "gabor_synthesize",
    "partial_frame_sum",
    "OperatorExpansion",
    "atomic_operator_expand",
    "synthesize_operator_expansion",
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


def gabor_atoms(system: GaborSystem, window: Signal = None) -> np.ndarray:
    """Atom matrix, row per lattice point (time-major): pi(lambda) g.

    An alternative window (e.g. a dual) may be substituted for the
    system's own.
    """
    g = system.window if window is None else window
    if g.group != system.group:
        raise GroupMismatchError("substitute window lives on the wrong group")
    grp, lat = system.group, system.lattice
    times = [grp.index(p) for p in lat.side_nodes(lat.time_step)]
    freqs = [grp.index(p) for p in lat.side_nodes(lat.freq_step)]
    return phase_atoms(g, times, freqs)


def _accumulated_kernel(system: GaborSystem, atoms: np.ndarray) -> KernelOperator:
    k = (atoms.conj().T @ atoms) * system.weight
    return KernelOperator(system.group, system.group, k)


def frame_operator(system: GaborSystem) -> KernelOperator:
    """Kernel of S: K(t1, t2) = sum_lambda weight conj(atom(t1)) atom(t2).

    Hermitian positive semidefinite after weight folding.
    """
    return _accumulated_kernel(system, gabor_atoms(system))


def _walnut_blocks(system: GaborSystem) -> tuple:
    """(blocks, index): the weight-folded frame matrix restricted to the
    cosets of H = sum_j (n_j / b_j) Z, where it lives.

    index[c] lists the elements of the c-th coset (shape (|G|/|H|, |H|))
    and blocks[c] = M[index[c]][:, index[c]] for the weight-folded
    M = operator_matrix(frame_operator(system)).  Summing the characters
    of the frequency nodes gives

        M[t1, t2] = c * [t1 - t2 in H] * sum_x g(t1 - x) conj(g(t2 - x))

    over the time nodes x, with c the lattice weight times the number of
    frequency nodes (one per coset) times the Haar weight.
    """
    grp, lat = system.group, system.lattice
    cosets = [n // b for n, b in zip(grp.orders, lat.freq_step)]
    reps = np.indices(cosets).reshape(grp.nfactors, -1, 1)
    steps = np.indices(lat.freq_step).reshape(grp.nfactors, 1, -1)
    coords = reps + np.reshape(cosets, (-1, 1, 1)) * steps
    index = np.ravel_multi_index(tuple(coords), grp.orders)
    times = [grp.index(p) for p in lat.side_nodes(lat.time_step)]
    cols = shift_matrix(system.window)[times][:, index].transpose(1, 0, 2)
    scale = float(lat.weight * len(index) * grp.weight)
    return (cols.transpose(0, 2, 1) @ cols.conj()) * scale, index


def frame_bounds(system: GaborSystem) -> tuple:
    """(A, B): extreme eigenvalues of the weight-folded frame matrix,
    taken over its Walnut blocks; FrameError when they are not finite."""
    evals = np.linalg.eigvalsh(_walnut_blocks(system)[0])
    a, b = float(np.min(evals)), float(np.max(evals))
    if not np.isfinite([a, b]).all():
        raise FrameError(
            f"frame matrix is not finite: bounds A={a:.3e}, B={b:.3e}", bounds=(a, b)
        )
    return (a, b)


def _require_frame(evals: np.ndarray) -> None:
    """FrameError unless the frame matrix's eigenvalues bound a frame; a
    NaN bound is no frame."""
    a, b = float(np.min(evals)), float(np.max(evals))
    if not (b > 0 and a >= _NONFRAME_RATIO * b):
        raise FrameError(
            f"system is not a frame: bounds A={a:.3e}, B={b:.3e}", bounds=(a, b)
        )


def canonical_dual(system: GaborSystem) -> Signal:
    """h = S^{-1} g, solved block by block; raises FrameError (with
    bounds) for non-frames."""
    blocks, index = _walnut_blocks(system)
    _require_frame(np.linalg.eigvalsh(blocks))
    out = np.empty(system.group.order, dtype=complex)
    out[index] = np.linalg.solve(blocks, system.window.values[index][..., None])[..., 0]
    return Signal(system.group, out)


def tight_window(system: GaborSystem) -> Signal:
    """S^{-1/2} g, by an inverse square root per block: the same lattice
    with this window is Parseval; raises FrameError (with bounds) for
    non-frames."""
    blocks, index = _walnut_blocks(system)
    evals, vecs = np.linalg.eigh(blocks)
    _require_frame(evals)
    inv_sqrt = (vecs * evals[:, None, :] ** -0.5) @ vecs.conj().transpose(0, 2, 1)
    out = np.empty(system.group.order, dtype=complex)
    out[index] = (inv_sqrt @ system.window.values[index][..., None])[..., 0]
    return Signal(system.group, out)


def atomic_expand(f: Signal, system: GaborSystem) -> np.ndarray:
    """Frame coefficients c_lambda = weight * <f, pi(lambda) h> against the
    canonical dual h, aligned with lattice.points().  Synthesizing the
    system's own atoms with these coefficients returns f exactly."""
    if f.group != system.group:
        raise GroupMismatchError("signal lives on the wrong group")
    dual_atoms = gabor_atoms(system, canonical_dual(system))
    w_haar = float(system.group.weight)
    return (dual_atoms.conj() @ f.values) * (system.weight * w_haar)


def gabor_synthesize(system: GaborSystem, coefficients: np.ndarray) -> Signal:
    """sum_lambda c_lambda pi(lambda) g."""
    atoms = gabor_atoms(system)
    coefficients = np.asarray(coefficients, dtype=complex).reshape(-1)
    if coefficients.size != atoms.shape[0]:
        raise ValueError(
            f"got {coefficients.size} coefficients for {atoms.shape[0]} lattice points"
        )
    return Signal(system.group, coefficients @ atoms)


def partial_frame_sum(system: GaborSystem, count: int) -> KernelOperator:
    """The truncated frame operator over the first count lattice points,
    in lattice.points() order.

    Kernel: sum over those points of weight * conj(atom(t1)) atom(t2).
    LatticeError unless 1 <= count <= lattice.size.
    """
    size = system.lattice.size
    if not 1 <= count <= size:
        raise LatticeError(f"partial sum of {count} points on a {size}-point lattice")
    return _accumulated_kernel(system, gabor_atoms(system)[:count])


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
    nu1 = []
    nu2 = []
    phases = np.empty(len(kernel_coeffs), dtype=complex)
    for j, (x, w) in enumerate(lattice.points()):
        x1, x2 = x[:k1], x[k1:]
        w1, w2 = w[:k1], w[k1:]
        nu1.append(PhasePoint(x1, w1))
        nu2.append(PhasePoint(x2, w2))
        phases[j] = character_value(op.domain, x1, w1)
    return OperatorExpansion(
        domain_points=tuple(nu1),
        codomain_points=tuple(nu2),
        coefficients=kernel_coeffs * phases,
        kernel_coefficients=kernel_coeffs,
        system=system,
        kernel_error=kernel_error,
    )


def _twisted_sandwich_kernel(
    prototype: KernelOperator, nu1: PhasePoint, nu2: PhasePoint
) -> np.ndarray:
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


def synthesize_operator_expansion(
    prototype: KernelOperator, expansion: OperatorExpansion
) -> KernelOperator:
    """Assemble sum_j c_j pi(nu2_j) o T0 o pi~(nu1_j) term by term from
    the twisted-shift kernels; an independent route from the Gabor
    synthesis that produced the coefficients."""
    out = np.zeros((prototype.domain.order, prototype.codomain.order), dtype=complex)
    for c, nu1, nu2 in zip(
        expansion.coefficients, expansion.domain_points, expansion.codomain_points
    ):
        out += c * _twisted_sandwich_kernel(prototype, nu1, nu2)
    return KernelOperator(prototype.domain, prototype.codomain, out)
