"""Dense oracles shared by the test modules."""

from tfkit.errors import GroupMismatchError
from tfkit.frames import GaborSystem, canonical_dual, gabor_atoms
from tfkit.transform import pairing_rows


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


def dual_atom_coefficients(f, system):
    """The frame coefficients c_lambda = weight * <f, pi(lambda) h> against
    the canonical dual h by their dense definition: one matrix-vector
    product with the conjugated dual atom matrix, scaled by the lattice
    weight and the Haar weight.  The library reads them off
    transform.pairing_rows instead."""
    dual_atoms = gabor_atoms(GaborSystem(canonical_dual(system), system.lattice))
    return (dual_atoms.conj() @ f.values) * (system.weight * float(system.group.weight))
