"""Operators between signal spaces, stored as kernels.

An operator T from signals on G1 to signals on G2 is represented by its
kernel K on G1 x G2, with no Haar weight folded into the stored values:

    K(x, y) = (T delta_x)(y)

where delta_x is the point mass (the unit impulse divided by the Haar
weight, so that (f, delta_x) = f(x)).  Application folds the weight:

    (T s)(y) = sum_x weight_G1 * K(x, y) * s(x)

Because the kernel is itself a signal on the product group, every norm
and expansion defined for signals applies verbatim to operators; the
operator-level phase-space norms at the bottom of this module are the
bridge the tests cross in both directions.

Those norms, and those of regnets and modspaces, reduce the operator
phase table B[nu1, nu2] = (pi(nu2) g2, T pi(nu1) g1), the kernel's own
time-frequency table on G1 x G2 (the kernel theorem).  It has
|G1|^2 |G2|^2 entries and is never held whole: operator_phase_sums
streams it in chunks of domain time nodes into a PhaseSums record of
O(|G2|^2) floats.  A chunk is held only as |B|, one float array of about
2^18 entries that the pass allocates once; transform.pairing_mags fills
it through one complex block of whole rows, 2^15 entries or one row's
|G2|^2 when that is longer, so the complex B of a chunk never exists.
On more than one CPU, a call of at least four full blocks fills the
second half of its rows on one helper thread while the caller fills the
first, each half through its own half of the one block.  Every
reduction runs on the caller's thread, in one fixed order over the
whole chunk, so the sums depend neither on the block sizes nor on the
thread count.  When the kernel and both windows are real and finite,
|B| is symmetric under (w1, w2) -> (-w1, -w2), and the pass computes
only half of the rows.

operator_phase_sums runs that pass once per distinct input.  It keeps
the last _MEMO_ENTRIES (8) passes, keyed on the four groups and the
bytes of the kernel and both windows, and serves a request whose
exponents are all stored with no pass; the regnet suite's sandwich
stages that equal their net's stages, and the mpq identity gap that
equals the grid's identity operator, are served so.  The column sums it
hands out are read-only, since a later request may get the same arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GroupMismatchError
from .groups import Group, character_table, negation_index, product_group
from .signals import Signal, gauss
from .transform import (
    m1_norm,
    pairing_mags,
    pairing_rows,
    require_exponent,
    require_window,
    stft,
    stft_invert,
)

__all__ = [
    "KernelOperator",
    "compose",
    "bilinear_form",
    "rank_one",
    "kernel_from_operator",
    "identity_operator",
    "fourier_operator",
    "inv_fourier_operator",
    "kernel_signal",
    "operator_matrix",
    "PhaseSums",
    "operator_phase_sums",
    "operator_m1_norm",
    "operator_minf_norm",
    "TensorExpansion",
    "tensor_expand",
    "weak_reconstruct",
]


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """An operator held as its kernel array, shaped (|G1|, |G2|)."""

    domain: Group
    codomain: Group
    kernel: np.ndarray

    def __post_init__(self):
        k = np.array(self.kernel, dtype=complex).reshape(
            self.domain.order, self.codomain.order
        )
        k.flags.writeable = False
        object.__setattr__(self, "kernel", k)

    def apply(self, s: Signal) -> Signal:
        """(T s)(y) = sum_x weight * K(x, y) s(x)."""
        if s.group != self.domain:
            raise GroupMismatchError(
                f"operator domain is {self.domain}, signal lives on {s.group}"
            )
        return Signal(self.codomain, (s.values @ self.kernel) * float(self.domain.weight))

    __call__ = apply

    def trace(self) -> complex:
        """sum_x weight * K(x, x); needs domain == codomain."""
        if self.domain != self.codomain:
            raise GroupMismatchError("trace needs an endomorphism")
        return complex(np.trace(self.kernel) * float(self.domain.weight))

    def transpose(self) -> "KernelOperator":
        """Argument swap K(y, x); the transpose in the bilinear duality,
        not the L2 adjoint."""
        return KernelOperator(self.codomain, self.domain, self.kernel.T)

    def adjoint(self) -> "KernelOperator":
        """L2 adjoint: kernel conj(K(x, y)) with arguments swapped."""
        return KernelOperator(self.codomain, self.domain, self.kernel.conj().T)

    def __repr__(self):
        return f"KernelOperator({self.domain} -> {self.codomain})"


def compose(first: KernelOperator, second: KernelOperator) -> KernelOperator:
    """The operator 'apply first, then second'.

    Kernel: K(x, z) = sum_y weight_mid * K1(x, y) K2(y, z).  Matches
    second.apply(first.apply(s)) exactly (dense matrix product oracle in
    the tests).
    """
    if first.codomain != second.domain:
        raise GroupMismatchError(
            f"cannot chain {first.codomain} -> into -> {second.domain}"
        )
    k = (first.kernel @ second.kernel) * float(first.codomain.weight)
    return KernelOperator(first.domain, second.codomain, k)


def bilinear_form(op: KernelOperator, s1: Signal, s2: Signal) -> complex:
    """(K, s1 tensor s2) = (T s1, s2); symmetric route via transpose."""
    if s1.group != op.domain or s2.group != op.codomain:
        raise GroupMismatchError("bilinear_form arguments do not match the operator")
    w = float(op.domain.weight) * float(op.codomain.weight)
    return complex((s1.values @ op.kernel @ s2.values) * w)


def rank_one(f1: Signal, f2: Signal) -> KernelOperator:
    """The operator s -> (f1, s) * f2, with kernel f1 tensor f2."""
    return KernelOperator(f1.group, f2.group, np.outer(f1.values, f2.values))


def kernel_from_operator(probe: Callable[[Signal], Signal], domain: Group) -> KernelOperator:
    """Recover the kernel of a black-box linear map by point-mass probing:
    row x of the kernel is probe(delta_x)."""
    w = float(domain.weight)
    rows = []
    codomain = None
    for i in range(domain.order):
        vals = np.zeros(domain.order, dtype=complex)
        vals[i] = 1.0 / w
        out = probe(Signal(domain, vals))
        if not isinstance(out, Signal):
            raise TypeError(f"probe returned {type(out).__name__}, expected Signal")
        if codomain is None:
            codomain = out.group
        elif out.group != codomain:
            raise GroupMismatchError("probe outputs live on inconsistent groups")
        rows.append(out.values)
    return KernelOperator(domain, codomain, np.stack(rows))


def identity_operator(group: Group) -> KernelOperator:
    """Kernel delta(x - y) / weight, so that application is the identity."""
    k = np.eye(group.order, dtype=complex) / float(group.weight)
    return KernelOperator(group, group, k)


def fourier_operator(group: Group) -> KernelOperator:
    """The Fourier transform as a kernel on G x dual(G): K(x, w) = conj(w(x)),
    independent of the Haar normalization."""
    return KernelOperator(group, group.dual(), character_table(group).conj().T)


def inv_fourier_operator(group: Group) -> KernelOperator:
    """The inverse transform as a kernel on dual(G) x G: K(w, x) = w(x).

    Composing fourier_operator and inv_fourier_operator collapses the
    character sum sum_w w(y - x) to a point mass at y = x: the identity
    kernel.
    """
    return KernelOperator(group.dual(), group, character_table(group))


def kernel_signal(op: KernelOperator) -> Signal:
    """The kernel as a signal on the product group G1 x G2."""
    return Signal(product_group(op.domain, op.codomain), op.kernel.ravel())


def operator_matrix(op: KernelOperator) -> np.ndarray:
    """Weight-folded matrix acting on value vectors: M[y, x] = weight * K(x, y)."""
    return op.kernel.T * float(op.domain.weight)


# Entries of B per chunk of domain time nodes (at least one node), 2^18.
# The chunk is one float array of |B|, 2 MB, which the pass allocates once
# and transform.pairing_mags fills through its one 512 KB complex block,
# on one thread or, for a long call on more than one CPU, split between
# the caller and one helper thread.  It fixes the summation order, and so
# the report bytes; it never depends on the thread count.
_CHUNK_ENTRIES = 2**18

# Distinct inputs whose passes operator_phase_sums keeps, 8; the oldest
# leaves first, and its key's kernel and window bytes with it.  In
# report-large a repeated input comes 4 or 5 requests after the pass it
# repeats.
_MEMO_ENTRIES = 8
# (groups, kernel and window bytes) -> (m1, peak, row_peak, {p: columns})
_memo = {}


@dataclass(frozen=True, eq=False)
class PhaseSums:
    """Reductions of |B| for the operator phase table
    B[nu1, nu2] = (pi(nu2) g2, T pi(nu1) g1), nu1 over the domain's phase
    space (rows), nu2 over the codomain's (columns):

        m1          sum of |B| times both phase weights, the phase-space
                    L1 size
        peak        max |B|
        row_peak    max over nu1 of the row sum over nu2
        col_powers  per requested p, column sums over nu1 of |B|^p, or
                    the column maxima at p = inf (length |G2|^2 each)

    Every maximum is np.maximum, so a NaN entry of B stays NaN.  When the
    kernel and both windows are real and finite, the fields come from
    half the rows (see operator_phase_sums) and may differ from the sums
    over every row in their last digits.  The col_powers arrays are
    read-only: operator_phase_sums may hand the same arrays to a later
    request for the same input.
    """

    m1: float
    peak: float
    row_peak: float
    col_powers: tuple


def _row_plan(op: KernelOperator, g1: Signal, g2: Signal) -> tuple:
    """(freqs, n_self, cols): the domain frequencies w1 whose rows the pass
    computes, how many of them stand for themselves alone, and the column
    permutation of the mirrored rows.

    When the kernel and both windows are real and finite, conjugation
    commutes with T and maps pi(x, w) g to pi(x, -w) g, so
    |B(x1, -w1; x2, w2)| = |B(x1, w1; x2, -w2)|: the row of -w1 is the
    row of w1 with its columns permuted by cols, (x2, w2) -> (x2, -w2).
    freqs then lists the n_self self-conjugate frequencies (w = -w)
    first, then one w of each pair {w, -w}.  Otherwise it is
    (None, |G1|, None): every row, each counted once.
    """
    arrays = (op.kernel, g1.values, g2.values)
    if any(np.any(a.imag) or not np.isfinite(a).all() for a in arrays):
        return None, op.domain.order, None
    neg1 = negation_index(op.domain)
    index = np.arange(op.domain.order)
    fixed = np.flatnonzero(neg1 == index)
    freqs = np.concatenate([fixed, np.flatnonzero(index < neg1)])
    n2 = op.codomain.order
    cols = (np.arange(n2)[:, None] * n2 + negation_index(op.codomain)).ravel()
    return freqs, len(fixed), cols


def _fold_columns(combine, reduce, acc, part, once, cols):
    """Fold the column reductions of the chunk rows part into acc: the
    first `once` rows count once; each later row stands for itself and
    for its mirror, whose columns are the row's permuted by cols."""
    combine(acc, reduce(part[:once], axis=0), out=acc)
    if once < len(part):
        paired = reduce(part[once:], axis=0)
        combine(acc, paired, out=acc)
        combine(acc, paired[cols], out=acc)


def operator_phase_sums(op: KernelOperator, g1: Signal, g2: Signal, ps=()) -> PhaseSums:
    """The reductions of B, one chunked pass per distinct input; see
    PhaseSums for what it returns.

    The last _MEMO_ENTRIES passes are kept, keyed on the four groups
    (op.domain, op.codomain, g1.group, g2.group) and the bytes of the
    kernel and both windows.  A request for stored exponents only is
    served from its entry with no pass; otherwise the pass runs on the ps
    asked for and their column sums join the entry.  A pass's fields for
    one p have the same bits whatever other exponents it is asked for, so
    a served result is == to a fresh one.

    ValueError unless every p is in [1, inf], and WindowError when g1 or
    g2 is identically zero, both before the lookup.  The pass runs under
    np.errstate(invalid="ignore", over="ignore"): an inf or NaN input
    gives the NaN fields PhaseSums documents, and NumPy warns of nothing.
    """
    if g1.group != op.domain or g2.group != op.codomain:
        raise GroupMismatchError("windows do not match the operator's groups")
    require_window(g1)
    require_window(g2)
    ps = tuple(ps)
    for p in ps:
        require_exponent(p)
    key = (op.domain, op.codomain, g1.group, g2.group)
    key += (op.kernel.tobytes(), g1.values.tobytes(), g2.values.tobytes())
    entry = _memo.get(key)
    if entry is None or not all(p in entry[3] for p in ps):
        with np.errstate(invalid="ignore", over="ignore"):
            fresh = _phase_pass(op, g1, g2, ps)
        if entry is None:
            entry = _memo[key] = (fresh.m1, fresh.peak, fresh.row_peak, {})
            if len(_memo) > _MEMO_ENTRIES:
                del _memo[next(iter(_memo))]
        entry[3].update(zip(ps, fresh.col_powers))
    m1, peak, row_peak, cols = entry
    return PhaseSums(m1, peak, row_peak, tuple(cols[p] for p in ps))


def _phase_pass(op: KernelOperator, g1: Signal, g2: Signal, ps: tuple) -> PhaseSums:
    """One chunked pass over B, on inputs operator_phase_sums has checked;
    its col_powers are read-only.

    Each chunk of domain time nodes x1 takes the two batched bilinear
    tables of the full table, restricted to those x1:

        half[t, (x1, w1)]     = (pi(x1, w1) g1, K(., t))
        B[(x1, w1), (x2, w2)] = (pi(x2, w2) g2, half[., (x1, w1)])

    so B comes out in the table's own layout, by the same arithmetic as
    the rows tests/oracles.py builds whole; only the order of the sums
    differs.  The second stage is transform.pairing_mags, which writes
    |B| into the pass's one float chunk array through one 512 KB complex
    block, on one or two threads; it gives the bits np.abs of the chunk's
    complex B would give.
    The sums, maxima and row sums read the chunk array whole; p = 1 sums
    its columns directly, and a finite p != 1 adds
    np.sum(|B|**p, axis=0), the expression of the oracle.  The last such
    p raises the chunk in place, since nothing reads it afterwards; each
    earlier one holds a |B|**p chunk while it is summed.

    When the kernel, g1 and g2 are all real and finite, the second stage
    runs only on the rows (x1, w1) with w1 self-conjugate or the first of
    its pair {w1, -w1}, about half of them, ordered by w1 (_row_plan).
    A paired row stands for its mirror too: m1 counts it twice, its
    maximum and sum are its mirror's, and its column sums are added once
    as they are and once permuted by (x2, w2) -> (x2, -w2).  No mirrored
    row is built.  Any other input, a complex value, an inf or a NaN,
    takes every row in the table's own layout.
    """
    n1, n2 = op.domain.order, op.codomain.order
    step = max(1, _CHUNK_ENTRIES // (n1 * n2 * n2))
    freqs, n_self, cols = _row_plan(op, g1, g2)
    chunk = np.empty((min(step, n1) * (n1 if freqs is None else len(freqs)), n2 * n2))
    total, peak, row_peak = 0.0, 0.0, 0.0
    col_powers = [np.zeros(n2 * n2) for _ in ps]
    powered = [(acc, p) for acc, p in zip(col_powers, ps) if 1 < p < math.inf]
    for lo in range(0, n1, step):
        half = pairing_rows(g1, op.kernel.T, slice(lo, lo + step))
        nx = half.shape[1] // n1
        if freqs is None:
            rows = half.T
        else:
            # rows (w1, x1) for w1 in freqs, C order, as pairing_mags reads them
            rows = np.take(half.reshape(n2, nx, n1).T, freqs, axis=0).reshape(-1, n2)
        mags = pairing_mags(g2, rows, chunk[: len(rows)])
        once = n_self * nx  # every row off the mirror route
        total += np.sum(mags[:once]) + 2 * np.sum(mags[once:])
        peak = np.maximum(peak, np.max(mags))
        row_peak = np.maximum(row_peak, np.max(np.sum(mags, axis=1)))
        for acc, p in zip(col_powers, ps):
            if p == math.inf:
                _fold_columns(np.maximum, np.max, acc, mags, once, cols)
            elif p == 1:
                _fold_columns(np.add, np.sum, acc, mags, once, cols)
        for acc, p in powered[:-1]:
            _fold_columns(np.add, np.sum, acc, mags**p, once, cols)
        if powered:
            # nothing reads the chunk after the last power and the refill
            # overwrites it, so it is raised in place, with no temporary
            acc, p = powered[-1]
            mags **= p
            _fold_columns(np.add, np.sum, acc, mags, once, cols)
    for acc in col_powers:
        acc.flags.writeable = False
    return PhaseSums(
        m1=float(total * op.domain.phase_weight * op.codomain.phase_weight),
        peak=float(peak),
        row_peak=float(row_peak),
        col_powers=tuple(col_powers),
    )


def operator_m1_norm(op: KernelOperator, g1: Signal, g2: Signal) -> float:
    """Phase-space L1 size of the operator against a window pair:

        integral over (nu1, nu2) of |(pi(nu2) g2, T pi(nu1) g1)|

    Finite for every kernel at finite scale; equals the m1 norm of the
    kernel signal with window tensor(g1, g2), which the tests check as a
    second, independent code path.
    """
    return operator_phase_sums(op, g1, g2).m1


def operator_minf_norm(op: KernelOperator, g1: Signal, g2: Signal) -> float:
    """Supremum counterpart: max |(pi(nu2) g2, T pi(nu1) g1)|; equals the
    sup modulation norm of the kernel signal with the tensor window."""
    return operator_phase_sums(op, g1, g2).peak


@dataclass(frozen=True)
class TensorExpansion:
    """Rank-one decomposition T = sum_j rank_one(left[j], right[j])."""

    left: tuple
    right: tuple
    singular_values: tuple
    max_error: float
    projective_m1: float

    @property
    def rank(self) -> int:
        return len(self.left)


def tensor_expand(op: KernelOperator, tol: float) -> TensorExpansion:
    """Split a kernel into rank-one tensors by singular value decomposition.

    Keeps singular triples with sigma_j > tol * sigma_max (absolute
    cutoff on the scale of the kernel).  The weight is folded so that
    the kernel equals sum_j outer(left_j, right_j) with no extra factor;
    max_error reports the sup-norm reconstruction defect.  projective_m1
    is sum_j m1(left_j) * m1(right_j) against gauss(., 1.0) on each side
    (any nonzero window gives an equivalent norm), a finite upper bound
    certificate for the kernel's own m1 norm.  ValueError on a negative
    or NaN tol and, before the SVD, on a kernel with an inf or NaN entry,
    which has no singular value decomposition.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if not np.isfinite(op.kernel).all():
        raise ValueError("tensor_expand needs a finite kernel")
    u, sing, vh = np.linalg.svd(op.kernel)
    # a group has order >= 1, so sing[0] exists; at sing[0] == 0 (the zero
    # kernel) nothing passes, even at tol = inf, where the cutoff is NaN
    with np.errstate(invalid="ignore"):
        keep = sing > tol * sing[0]
    left = []
    right = []
    kept = []
    for j in np.nonzero(keep)[0]:
        left.append(Signal(op.domain, sing[j] * u[:, j]))
        right.append(Signal(op.codomain, vh[j, :]))
        kept.append(float(sing[j]))
    rec = np.zeros_like(op.kernel)
    for f1, f2 in zip(left, right):
        rec = rec + np.outer(f1.values, f2.values)
    max_error = float(np.max(np.abs(op.kernel - rec)))
    g1, g2 = gauss(op.domain, 1.0), gauss(op.codomain, 1.0)
    projective = sum(m1_norm(f1, g1) * m1_norm(f2, g2) for f1, f2 in zip(left, right))
    return TensorExpansion(
        left=tuple(left),
        right=tuple(right),
        singular_values=tuple(kept),
        max_error=max_error,
        projective_m1=float(projective),
    )


def weak_reconstruct(op: KernelOperator, window: Signal, s: Signal) -> Signal:
    """Rebuild T s from the action of T on time-frequency shifts of one
    window:

        T s = ||g||_2^{-2} sum_nu phase_weight * stft(g, s)[nu] * T(pi(nu) g)

    T is linear, so the sum equals T applied to the synthesis
    ||g||_2^{-2} sum_nu phase_weight * stft(g, s)[nu] * pi(nu) g, which
    is stft_invert(g, stft(g, s)); no atom matrix or image T(pi(nu) g)
    is formed.  Exact at finite scale; the tests compare against apply
    and against the dense sum over the images.
    """
    if window.group != op.domain or s.group != op.domain:
        raise GroupMismatchError("window and signal must live on the operator domain")
    return op.apply(stft_invert(window, stft(window, s)))
