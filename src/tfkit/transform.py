"""Short-time Fourier transform, phase-space tables, and modulation norms.

The phase-space core the other modules build on lives here: the atom
matrix phase_atoms, the batched bilinear table pairing_rows, its
magnitude reader pairing_mags, the Gabor analysis and synthesis on a
lattice, and the weighted p-norm weighted_pnorm.  pairing_rows is the
forward analysis over whole phase-space rows: the STFT is read off it,
stft(g, s) as conj(pairing_table(g, conj(s))), and so is the first stage
of the operator pass at a subset of time nodes.  pairing_mags writes
|pairing_rows| into a float array the caller owns, through one bounded
complex block, on the caller's thread and, for long calls on more than
one CPU, one helper thread; the operator phase sums read the second
stage of their pass off it.  Both share one product and character sum
(_pairing_block).  Every character sum here, in the pairing and in the
DGT pair, is one helper, _character_sum: the unnormalized inverse FFT,
which pocketfft computes directly when the transformed size is a power
of two and as the normalized inverse times n elsewhere.
analysis and its adjoint synthesis are the DGT pair (Sondergaard, JFAA
18, 2012) at the lattice's FFT length, with no L x |G| array.  The whole
phase space is the lattice with unit steps: the inversion formula
(stft_invert) is synthesis on it, and the frame expansions
(frames.atomic_expand, gabor_synthesize) are the same pair.
multiplier_kernel computes the kernel of a Gabor multiplier by its
diagonals, off the same shift view, with no atom matrix.  phase_atoms
builds the character rows of the frequencies it is asked for
(groups.character_rows); only mod_norm_conv, which needs every
modulation, reads the whole cached groups.character_table.

A phase table is a function on G x dual(G), stored as an (|G|, |G|)
array indexed [time, frequency] in enumeration order.  Two tables are
produced here and must not be mixed up:

  stft(g, s)[x, w]          = <s, pi(x,w) g>        (sesquilinear)
  pairing_table(g, s)[x, w] = (pi(x,w) g, s)        (bilinear)

The modulation norms integrate the bilinear table:

  mod_norm(s, g, p) = ( sum_nu phase_weight * |(pi(nu) g, s)|^p )^(1/p)

with the supremum at p = inf; mod_norms reads any number of orders off
one table, and every modulation norm in the package goes through it.
The sesquilinear table is the one the inversion formula wants:

  s = ||g||_2^{-2} sum_nu phase_weight * stft(g,s)[nu] * pi(nu) g

and both identities are exact at finite scale.

Everything runs on the factor-wise FFT; the tests keep direct
triple-sum oracles alongside.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import queue
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GroupMismatchError, WindowError
from .groups import (
    Group,
    Lattice,
    character_rows,
    character_table,
    element_coords,
    make_lattice,
    negation_index,
)
from .signals import Signal, fft_axes, fourier, l2_norm, same_group, shift_matrix, shift_windows

__all__ = [
    "PhaseTable",
    "phase_points",
    "require_window",
    "require_exponent",
    "phase_atoms",
    "pairing_rows",
    "pairing_mags",
    "node_windows",
    "analysis",
    "synthesis",
    "multiplier_kernel",
    "weighted_pnorm",
    "stft",
    "stft_invert",
    "pairing_table",
    "mod_norms",
    "mod_norm",
    "m1_norm",
    "mod_norm_conv",
    "window_equivalence_ratio",
]


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """A function on the phase space of `group`, shaped [time, frequency]."""

    group: Group
    values: np.ndarray

    def __post_init__(self):
        n = self.group.order
        vals = np.array(self.values, dtype=complex).reshape(n, n)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def phase_weight(self) -> float:
        """Per-point weight of the phase space."""
        return self.group.phase_weight


def phase_points(group: Group) -> list:
    """Phase-space points in table order (time-major): the points of the
    full lattice."""
    return make_lattice(group, 1, 1).points()


def require_window(g: Signal):
    """WindowError when g is identically zero; a NaN window passes."""
    if not np.any(g.values):
        raise WindowError("window is identically zero")


def require_exponent(p):
    """TypeError unless p is a real number, not a bool; ValueError unless
    it is in [1, inf], which a NaN is not."""
    if isinstance(p, (bool, np.bool_)) or not isinstance(p, numbers.Real):
        raise TypeError(f"an exponent must be a real number, got {p!r}")
    if not p >= 1:
        raise ValueError(f"exponent must be in [1, inf], got {p}")


def phase_atoms(window: Signal, times=slice(None), freqs=slice(None)) -> np.ndarray:
    """Atom matrix, one row pi(x, w) window per phase point, time-major;
    times and freqs optionally restrict x and w to index subsets, and
    only the shift and character rows of those subsets are built."""
    shifts = shift_matrix(window, times)
    chars = character_rows(window.group, freqs)
    return (shifts[:, None, :] * chars[None, :, :]).reshape(-1, window.group.order)


def _character_sum(values: np.ndarray, axes: tuple, out=None) -> np.ndarray:
    """sum_m values[m] exp(2 pi i m.k / n) over the given axes, n the
    product of their lengths: the unnormalized inverse FFT, into out when
    one is given (out= needs NumPy 2); returns it.

    When n is a power of two, pocketfft is asked for the unnormalized
    inverse (norm="forward").  Anywhere else the sum is the normalized
    inverse times n, whose rounding the reports pin.  Scaling by a power
    of two is exact, so both give the same bits except in gradual
    underflow: where a component of the scaled transform is subnormal
    (below n times 2.2e-308), the round trip loses bits and this sum
    keeps them.  On Z/128, rows of size 1e-300 against a unit-scale
    window move 64 of 2^21 entries, each of size below 2e-315.  Both go
    through the package's one FFT dispatch, signals.fft_axes."""
    n = math.prod(values.shape[a] for a in axes)
    if n & (n - 1) == 0:
        return fft_axes(values, axes, inverse=True, norm="forward", out=out)
    sums = fft_axes(values, axes, inverse=True, out=out)
    sums *= n
    return sums


def _pairing_block(rows: np.ndarray, shifts: np.ndarray, tables: np.ndarray, group: Group):
    """Bilinear tables of rows against shift rows, written into the
    complex tables shaped (len(rows), len(shifts), |G|): the product
    tables[j, x] = rows[j] * shifts[x], then the character sum along the
    last axis and the Haar weight, in place, since a fresh FFT output per
    pairing_mags block costs about as much again.  The product is a
    broadcast copy of the rows multiplied in place by the shifts: the
    same rows[j] * shifts[x] per entry, through one 128 KB ufunc buffer
    where the broadcast multiply of both holds two.  rows and shifts are
    complex; the weight multiply is skipped at weight 1, where it is
    exact."""
    tables[...] = rows[:, None, :]
    np.multiply(tables, shifts, out=tables)
    shaped = tables.reshape((-1,) + group.orders)
    _character_sum(shaped, tuple(range(1, group.nfactors + 1)), out=shaped)
    if group.weight != 1:
        tables *= float(group.weight)


def pairing_rows(window: Signal, rows: np.ndarray, times=slice(None)) -> np.ndarray:
    """Bilinear tables of a stack of value rows, time-major like
    phase_points: out[j, (x, w)] = (pi(x,w) window, rows[j]); times
    optionally restricts x to an index subset, as in phase_atoms."""
    shifts = shift_matrix(window, times)
    tables = np.empty((len(rows),) + shifts.shape, dtype=complex)
    _pairing_block(rows, shifts, tables, window.group)
    return tables.reshape(len(rows), -1)


# Complex entries of the one block of a pairing_mags call, 2^15 (512 KB),
# or one row's |G|^2 when that is longer.  A call split between two
# threads gives each thread half of that block, so the split holds no
# more complex memory.  Each FFT row sees the same arithmetic in any block
# and on either thread, so the bits do not depend on it.
_BLOCK_ENTRIES = 2**15


def pairing_mags(window: Signal, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|pairing_rows(window, rows)| written into out, a C-contiguous
    float array of len(rows) x |G|^2 entries that the caller owns;
    returns out.

    The shift rows are built once, and the tables go through one complex
    block of whole rows, at most _BLOCK_ENTRIES entries or one row's |G|^2
    when that is longer, so no complex array the size of out is made.
    When the process may run on more than one CPU (_many_cpus) and the
    call spans at least four full blocks of two rows or more, the rows are
    split in two at their middle: one helper thread (_helper) fills the
    second half through the second half of the block while the caller
    fills the first half through the first.  NumPy releases the GIL in
    the product, the FFT and np.abs.  The caller allocates the block, so
    the helper allocates no large array of its own.  Each block is the
    product, character sum and weight of pairing_rows, so out holds the
    bits of np.abs(pairing_rows(window, rows)) on either route.
    """
    if not out.flags.c_contiguous:
        raise ValueError("pairing_mags writes into a C-contiguous out")
    grp, n = window.group, window.group.order
    # C order, since every block reads the rows one at a time
    rows = np.ascontiguousarray(rows, dtype=complex)
    shifts = shift_matrix(window)
    per_row = max(1, _BLOCK_ENTRIES // n**2)
    block = np.empty((min(per_row, len(rows)), n, n), dtype=complex)
    mags = out.reshape(len(rows), n, n)
    if per_row < 2 or len(rows) < 4 * per_row or not _many_cpus():
        _fill_mags(rows, shifts, mags, block, grp)
        return out
    mid, per_half = len(rows) // 2, per_row // 2
    # the helper runs in a copy of the caller's context, which holds
    # NumPy's np.errstate
    reply = queue.SimpleQueue()
    job = (rows[mid:], shifts, mags[mid:], block[per_half : 2 * per_half], grp)
    _helper().put((contextvars.copy_context(), job, reply))
    try:
        _fill_mags(rows[:mid], shifts, mags[:mid], block[:per_half], grp)
    finally:
        error = reply.get()  # the helper's half has stopped
    if error is not None:
        raise error
    return out


def _fill_mags(
    rows: np.ndarray, shifts: np.ndarray, mags: np.ndarray, block: np.ndarray, group: Group
):
    """|tables| of the complex rows against the shift rows written into
    mags, shaped (len(rows), |G|, |G|), len(block) rows at a time through
    the complex block, shaped (rows, |G|, |G|)."""
    step = len(block)
    for lo in range(0, len(rows), step):
        part = mags[lo : lo + step]
        tables = block[: len(part)]
        _pairing_block(rows[lo : lo + step], shifts, tables, group)
        np.abs(tables, out=part)


def _many_cpus() -> bool:
    """Whether this process may run on more than one CPU: its affinity
    mask where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


# pid -> the job queue of pairing_mags's helper thread in that process
_helpers = {}


def _helper() -> queue.SimpleQueue:
    """The job queue of pairing_mags's one helper thread, a daemon thread
    started on first use and kept for the life of the process.  It is
    keyed on the pid, so a forked child, where the parent's thread does
    not exist, starts its own; of two first callers, only the one whose
    queue dict.setdefault stores starts a thread."""
    pid = os.getpid()
    jobs = _helpers.get(pid)
    if jobs is None:
        fresh = queue.SimpleQueue()
        jobs = _helpers.setdefault(pid, fresh)
        if jobs is fresh:
            threading.Thread(target=_serve, args=(jobs,), name="tfkit-pairing", daemon=True).start()
    return jobs


def _serve(jobs: queue.SimpleQueue):
    """The helper thread: each job (context, _fill_mags arguments, reply)
    runs in its context, and its reply is the error it raised or None.
    The job is dropped before the reply: held while the thread waits for
    the next one, its views would keep the caller's block and the pass's
    chunk alive past their call."""
    while True:
        context, job, reply = jobs.get()
        error = None
        try:
            context.run(_fill_mags, *job)
        except BaseException as caught:
            error = caught
        del context, job
        reply.put(error)
        del reply, error


def node_windows(window: Signal, lattice: Lattice) -> tuple:
    """T_x window at every time node x of the lattice as one read-only
    view of signals.shift_windows, with its einsum labels; the DGT pair
    and frames.GaborSystem.spectrum read it.

    The start axes are sliced from n_j down with step -a_j (the window
    that starts at n - x is T_x g), and each factor axis n_j is split into
    (b_j, M_j), M_j = n_j / b_j, so entry [i, beta, mu] is
    window(beta M + mu - a i): shape (L_1, ..., L_k, b_1, M_1, ..., b_k, M_k).
    Returns (view, nodes, split, freqs), the labels of the node axes, of
    the split factor axes and of the M axes, whose characters at the
    frequency nodes w_j = b_j f_j are exp(2 pi i f_j mu_j / M_j)."""
    grp, k = window.group, window.group.nfactors
    if lattice.group != grp:
        raise GroupMismatchError("window and lattice live on different groups")
    starts = tuple(slice(n, 0, -a) for n, a in zip(grp.orders, lattice.time_step))
    dims = tuple(d for n, b in zip(grp.orders, lattice.freq_step) for d in (b, n // b))
    view = shift_windows(window)[starts]
    view = view.reshape(view.shape[:k] + dims, copy=False)
    # labels: time nodes 0..k-1, b_j axes k..2k-1, M_j axes 2k..3k-1
    nodes, freqs = list(range(k)), list(range(2 * k, 3 * k))
    split = [d for j in range(k) for d in (k + j, 2 * k + j)]
    return view, nodes, split, freqs


def analysis(window: Signal, lattice: Lattice, f: Signal) -> np.ndarray:
    """<f, pi(lambda) window> times the Haar weight at every lattice point,
    aligned with lattice.points(); stft(window, f) at unit steps.

    conj(f), split like the node view (node_windows), is summed against
    it over the b_j axes, folding it to (L..., M...); the character sum
    over the M axes (_character_sum) is then the one at the frequency
    nodes.  No L x |G| array, here or in synthesis."""
    same_group(window, f)
    grp, k = window.group, window.group.nfactors
    shifts, nodes, split, freqs = node_windows(window, lattice)
    folded = np.einsum(
        shifts, nodes + split, np.conj(f.values).reshape(shifts.shape[k:]), split, nodes + freqs
    )
    table = _character_sum(folded, tuple(range(k, 2 * k)))
    if grp.weight != 1:
        table *= float(grp.weight)
    return np.conj(table).ravel()


def synthesis(window: Signal, lattice: Lattice, coefficients: np.ndarray) -> np.ndarray:
    """sum_lambda c_lambda pi(lambda) window, the coefficients aligned with
    lattice.points(); the transpose of analysis for the Haar pairing.

    The character sum over the M axes of the (L..., M...) coefficients
    (_character_sum) gives sum_w c[x, w] w(t) on the split axes, summed
    against the node view (node_windows) over the time nodes."""
    k = window.group.nfactors
    shifts, nodes, split, freqs = node_windows(window, lattice)
    table = np.reshape(coefficients, shifts.shape[:k] + shifts.shape[k + 1 :: 2])
    # out= spares a multi-factor ifftn its second table-sized array
    sums = _character_sum(table, tuple(range(k, 2 * k)), out=np.empty(table.shape, complex))
    return np.einsum(shifts, nodes + split, sums, nodes + freqs, split).ravel()


def multiplier_kernel(window: Signal, mask: PhaseTable) -> np.ndarray:
    """Kernel k[s, t] of the Gabor multiplier

        f -> sum_nu phase_weight * mask[nu] <f, pi(nu) g> pi(nu) g,

    (T f)(t) = sum_s weight * k[s, t] f(s), computed by its diagonals
    d = t - s (the Kohn-Nirenberg route of Feichtinger, Hampejs and
    Kracher, "Approximation of matrices by Gabor multipliers", IEEE SPL
    11, 2004):

        k[s, s + d] = phase_weight * sum_x conj g(s - x) g(s + d - x) hv[x, d]

    with hv[x, d] = sum_w mask[x, w] w(d), one character sum over the
    mask's frequency axes (_character_sum).  For each d the sum over x is
    a cyclic convolution over the factor axes, of hv[., d] with
    a_d(u) = conj g(u) g(u + d), whose factors g(u + d) are the shift
    view's (signals.shift_windows); both go through FFTs over the time
    axes.  O(|G|^2 log |G|) time and O(|G|^2) memory, no atom matrix and
    no matrix product.

    The kernel is real in exact arithmetic when the window is real and
    mask[x, -w] = conj mask[x, w], as for a real mask symmetric in w (a
    box); both are checked on the input, and then its imaginary part is
    stored as exactly 0.  Otherwise the kernel is complex.  An inf or NaN
    mask entry gives NaN entries (regnets.localization_net refuses it
    first)."""
    grp, k = window.group, window.group.nfactors
    if mask.group != grp:
        raise GroupMismatchError("mask and window live on different groups")
    times = tuple(range(k))
    # hv[x, d], then its FFT over x, in place
    spread = _character_sum(mask.values.reshape(grp.orders * 2), tuple(range(k, 2 * k)))
    fft_axes(spread, times, out=spread)
    # a[u, d] = conj g(u) g(u + d): the shift view at starts u
    ahead = shift_windows(window)[tuple(slice(0, n) for n in grp.orders)]
    spread *= fft_axes(ahead * np.conj(window.grid()).reshape(grp.orders + (1,) * k), times)
    diagonals = fft_axes(spread, times, inverse=True, out=spread).reshape(grp.order, grp.order)
    # k[s, t] = diagonals[s, t - s]
    coords = element_coords(grp)
    lags = (coords[:, None, :] - coords[:, :, None]) % np.reshape(grp.orders, (-1, 1, 1))
    kernel = np.take_along_axis(diagonals, np.ravel_multi_index(tuple(lags), grp.orders), axis=1)
    kernel *= grp.phase_weight
    values = mask.values
    if not np.any(window.values.imag) and np.array_equal(
        values[:, negation_index(grp)], np.conj(values)
    ):
        kernel.imag = 0.0
    return kernel


def weighted_pnorm(mags: np.ndarray, weight: float, p, axis=None):
    """(sum weight * mags^p)^(1/p) along axis (all entries by default);
    the plain maximum at p = inf."""
    if p == math.inf:
        return np.max(mags, axis=axis)
    return (np.sum(mags**p, axis=axis) * weight) ** (1.0 / p)


def stft(window: Signal, s: Signal) -> PhaseTable:
    """Sesquilinear short-time Fourier transform <s, pi(x,w) window>.

    Entry [x, w] = sum_t weight * s(t) * conj(window(t-x)) * conj(w(t)),
    the conjugate of the bilinear table (pi(x,w) window, conj s).
    """
    same_group(window, s)
    require_window(window)
    table = pairing_rows(window, np.conj(s.values)[None, :])
    return PhaseTable(window.group, np.conj(table))


def pairing_table(window: Signal, s: Signal) -> PhaseTable:
    """Bilinear table (pi(x,w) window, s); no conjugation anywhere.

    Entry [x, w] = sum_t weight * window(t-x) * s(t) * w(t).
    """
    same_group(window, s)
    require_window(window)
    return PhaseTable(window.group, pairing_rows(window, s.values[None, :]))


def stft_invert(window: Signal, table: PhaseTable) -> Signal:
    """Resynthesize from an stft table, synthesis at unit steps:

        f = ||g||_2^{-2} sum_nu phase_weight * table[nu] * pi(nu) g
    """
    require_window(window)
    g = window.group
    if table.group != g:
        raise GroupMismatchError("table and window live on different groups")
    norm_sq = l2_norm(window) ** 2
    back = synthesis(window, make_lattice(g, 1, 1), table.values)
    return Signal(g, back * (table.phase_weight / norm_sq))


def mod_norms(s: Signal, window: Signal, ps) -> list:
    """Modulation norms of s against the given window, one per order p in
    ps, each in [1, inf] (ValueError before any table is built): one
    bilinear table, reduced by weighted_pnorm once per p."""
    for p in ps:
        require_exponent(p)
    mags = np.abs(pairing_table(window, s).values)
    return [float(weighted_pnorm(mags, window.group.phase_weight, p)) for p in ps]


def mod_norm(s: Signal, window: Signal, p) -> float:
    """Modulation norm of order p in [1, inf] against the given window."""
    return mod_norms(s, window, [p])[0]


def m1_norm(s: Signal, window: Signal) -> float:
    return mod_norm(s, window, 1)


def mod_norm_conv(s: Signal, window: Signal) -> float:
    """The same kind of time-frequency size, computed through
    convolutions instead of phase tables:

        sum_w dual_weight * || (E_w s) * window ||_1

    Equals m1_norm(s, involute(window)) exactly, which the tests check;
    callers comparing it against m1_norm with one shared window should
    expect equivalence (bounded ratio), not equality.
    """
    same_group(s, window)
    require_window(window)
    g = s.group
    axes = tuple(range(1, g.nfactors + 1))
    # all modulations E_w s through one batched FFT, each step in place in
    # one |G| x |G| working array
    work = (character_table(g) * s.values).reshape((-1,) + g.orders)
    fft_axes(work, axes, out=work)
    work *= float(g.weight)
    work *= fourier(window).values.reshape(g.orders)
    fft_axes(work, axes, inverse=True, out=work)
    work *= float(g.dual_weight) * g.order
    # each row's l1 sum is np.sum of its |values| along one contiguous
    # row, as for the row alone; |values| go through one float buffer of
    # at most _BLOCK_ENTRIES entries (one row where a row is longer), not
    # into work.real, whose overlap with work makes np.abs copy its input
    rows = work.reshape(g.order, -1)
    step = max(1, _BLOCK_ENTRIES // g.order)
    buf = np.empty((min(step, g.order), g.order))
    total = 0.0
    for lo in range(0, g.order, step):
        part = buf[: min(step, g.order - lo)]
        np.abs(rows[lo : lo + step], out=part)
        for value in np.sum(part, axis=1) * float(g.weight):
            total += float(value)
    return float(total * float(g.dual_weight))


def window_equivalence_ratio(g1: Signal, g2: Signal, probes) -> tuple:
    """Range (lo, hi) of m1_norm(f, g1) / m1_norm(f, g2) over the probes.

    Probes that vanish identically are skipped with a warning.  Any two
    usable windows produce ratios in a bounded positive range; equal
    windows give exactly (1, 1).
    """
    require_window(g1)
    require_window(g2)
    ratios = []
    skipped = 0
    for f in probes:
        n1 = mod_norm(f, g1, 1)
        n2 = mod_norm(f, g2, 1)
        if n1 == 0.0 and n2 == 0.0:
            skipped += 1
            continue
        ratios.append(n1 / n2)
    if skipped:
        warnings.warn(f"skipped {skipped} zero probe(s)", stacklevel=2)
    if not ratios:
        raise ValueError("all probes were zero")
    return (min(ratios), max(ratios))
