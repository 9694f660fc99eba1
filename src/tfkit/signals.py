"""Signals on a finite abelian group and the operations tying them to
the group structure: shifts, modulations, Fourier transform,
convolution, pairings, and tensor products.

Two pairings are kept strictly apart.  The bilinear pairing

    (f, s) = sum_t weight * f(t) * s(t)

has no conjugation, is symmetric, and is the duality at work in every
weak identity in this package.  The sesquilinear inner product

    <f, g> = (f, conj(g))

is the L2 form.  Conflating them silently breaks the reconstruction
identities, so every call site here names the one it means.

All value arrays are complex128, flat in the group's lexicographic
enumeration order, and frozen (read-only) once constructed.  Shifts and
modulations build the rows asked: modulate reads one character row off
groups.character_rows.  Every FFT in the package goes through one
dispatch, fft_axes, the only place that names np.fft.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GroupMismatchError
from .groups import (
    Group,
    PhasePoint,
    character_rows,
    element_coords,
    negation_index,
    product_group,
    wrap_distance,
)

__all__ = [
    "Signal",
    "dirac",
    "constant",
    "gauss",
    "random_signal",
    "periodized_sqdist",
    "translate",
    "shift_windows",
    "shift_matrix",
    "modulate",
    "tf_shift",
    "fft_axes",
    "fourier",
    "inv_fourier",
    "convolve",
    "pointwise",
    "involute",
    "pair_bilinear",
    "same_group",
    "inner",
    "l1_norm",
    "l2_norm",
    "sup_norm",
    "tensor",
]


@dataclass(frozen=True, eq=False)
class Signal:
    """A complex function on a group, stored as a flat read-only array."""

    group: Group
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex).reshape(-1)
        if vals.size != self.group.order:
            raise ValueError(
                f"expected {self.group.order} values for {self.group}, got {vals.size}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def grid(self) -> np.ndarray:
        """Values reshaped to the factor grid (read-only view)."""
        return self.values.reshape(self.group.orders)

    def __add__(self, other: "Signal") -> "Signal":
        same_group(self, other)
        return Signal(self.group, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        same_group(self, other)
        return Signal(self.group, self.values - other.values)

    def __mul__(self, scalar) -> "Signal":
        return Signal(self.group, self.values * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Signal":
        return Signal(self.group, -self.values)

    def __repr__(self):
        return f"Signal({self.group}, {self.values!r})"


def same_group(a: Signal, b: Signal):
    """GroupMismatchError unless both signals live on one group."""
    if a.group != b.group:
        raise GroupMismatchError(f"signals live on {a.group} and {b.group}")


def dirac(group: Group, at=None) -> Signal:
    """Unit impulse: 1 at the given element (default: identity), else 0."""
    vals = np.zeros(group.order, dtype=complex)
    idx = 0 if at is None else group.index(at)
    vals[idx] = 1.0
    return Signal(group, vals)


def constant(group: Group, value=1.0) -> Signal:
    return Signal(group, np.full(group.order, complex(value)))


def periodized_sqdist(group: Group) -> np.ndarray:
    """d(t, 0)^2 with the wrap-around distance per factor, flat order."""
    return np.sum(wrap_distance(group) ** 2, axis=0, dtype=float)


def gauss(group: Group, spread: float) -> Signal:
    """Periodized Gaussian bump exp(-pi d(t,0)^2 / spread^2).  ValueError
    unless spread > 0 and spread^2 does not underflow to 0 (a zero square
    would fill the bump with NaN)."""
    if not spread > 0:
        raise ValueError(f"spread must be positive, got {spread}")
    try:
        square = spread**2
    except OverflowError:  # float ** raises here; the bump is 1 everywhere
        square = math.inf
    if not square > 0:
        raise ValueError(f"the square of spread {spread} underflows to 0")
    return Signal(group, np.exp(-np.pi * periodized_sqdist(group) / square))


def random_signal(group: Group, seed) -> Signal:
    """Complex Gaussian noise from the seeded PCG64 stream.

    The generator is named and platform independent, so equal seeds give
    byte-equal signals everywhere; no OS entropy is consulted.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(
        np.random.PCG64(seed)
    )
    re = rng.standard_normal(group.order)
    im = rng.standard_normal(group.order)
    return Signal(group, re + 1j * im)


def translate(f: Signal, x) -> Signal:
    """(T_x f)(t) = f(t - x), the row of x in shift_matrix."""
    return Signal(f.group, shift_matrix(f, [f.group.index(x)])[0])


def shift_windows(g: Signal) -> np.ndarray:
    """Every translate of g as one read-only strided view: g is tiled
    twice along each factor, and entry [s, t] (k start axes of length
    n_j + 1, then the factor axes) is the tiling at s + t, so the window
    that starts at s = n - x per factor is T_x g.  The tiling, 2^k |G|
    values, is the only copy made."""
    grp = g.group
    tiled = g.values.reshape(grp.orders)
    for axis in range(grp.nfactors):
        tiled = np.concatenate((tiled, tiled), axis=axis)
    starts = tuple(n + 1 for n in grp.orders)
    windows = np.ndarray(starts + grp.orders, tiled.dtype, tiled, strides=tiled.strides * 2)
    windows.flags.writeable = False
    return windows


def shift_matrix(g: Signal, times=slice(None)) -> np.ndarray:
    """Translates of g as rows: row x is T_x g, i.e. row_x(t) = g(t - x),
    for every x, or for the index subset times (a slice, list or index
    array), copied off shift_windows, so memory is
    O(rows x |G| + 2^k |G|) and no index table is built."""
    grp = g.group
    starts = tuple(np.reshape(grp.orders, (-1, 1)) - element_coords(grp)[:, times])
    return shift_windows(g)[starts].reshape(-1, grp.order)


def modulate(f: Signal, w) -> Signal:
    """(E_w f)(t) = w(t) f(t), off the one character row of w."""
    g = f.group
    return Signal(g, character_rows(g, [g.index(w)])[0] * f.values)


def tf_shift(f: Signal, point) -> Signal:
    """Time-frequency shift pi(x, w) = E_w T_x.

    Composition picks up a phase: pi(x1,w1) pi(x2,w2) equals
    w2(-x1) * pi(x1+x2, w1+w2).
    """
    if not isinstance(point, PhasePoint):
        point = PhasePoint(tuple(point[0]), tuple(point[1]))
    return modulate(translate(f, point.x), point.w)


def fft_axes(values: np.ndarray, axes, inverse: bool = False, norm=None, out=None) -> np.ndarray:
    """The FFT (or, with inverse, the inverse FFT) of values over the
    given axes, with NumPy's norm and out= (out= needs NumPy 2); the one
    FFT dispatch of the package.

    One axis goes straight to np.fft.fft or np.fft.ifft: np.fft.fftn makes
    that same pocketfft call once per axis, after cooking its arguments in
    Python, so both give the same bits and the direct call skips the
    cooking.  Several axes go to np.fft.fftn or np.fft.ifftn."""
    axes = tuple(axes)
    if len(axes) == 1:
        one = np.fft.ifft if inverse else np.fft.fft
        return one(values, axis=axes[0], norm=norm, out=out)
    many = np.fft.ifftn if inverse else np.fft.fftn
    return many(values, axes=axes, norm=norm, out=out)


def fourier(f: Signal) -> Signal:
    """Fourier transform onto the dual group.

    fhat(w) = sum_t weight * f(t) * conj(w(t)), computed with the
    factor-wise FFT (fft_axes); the tests keep an O(N^2) direct-sum oracle.
    """
    g = f.group
    spec = fft_axes(f.grid(), range(g.nfactors)) * float(g.weight)
    return Signal(g.dual(), spec.ravel())


def inv_fourier(f: Signal) -> Signal:
    """Inverse transform; exact because weight * dual_weight * |G| = 1.

    The argument lives on some dual group H; the result lives on H.dual()
    (the double dual, i.e. the original group) with values
    sum_w H.weight * f(w) * w(x).
    """
    h = f.group
    vals = fft_axes(f.grid(), range(h.nfactors), inverse=True) * (float(h.weight) * h.order)
    return Signal(h.dual(), vals.ravel())


def convolve(f: Signal, g: Signal) -> Signal:
    """(f * g)(t) = sum_s weight * f(s) g(t - s).

    Computed through the Fourier transform, where the stated Haar
    weights make the convolution theorem exact: fourier(f * g) =
    pointwise(fourier(f), fourier(g)).
    """
    same_group(f, g)
    return inv_fourier(pointwise(fourier(f), fourier(g)))


def pointwise(f: Signal, g: Signal) -> Signal:
    same_group(f, g)
    return Signal(f.group, f.values * g.values)


def involute(f: Signal) -> Signal:
    """f(-t), gathered through groups.negation_index; applying it twice
    gives the original signal back."""
    return Signal(f.group, f.values[negation_index(f.group)])


def pair_bilinear(f: Signal, s: Signal) -> complex:
    """Bilinear duality pairing (f, s) = sum weight * f * s; symmetric."""
    same_group(f, s)
    return complex(np.sum(f.values * s.values) * float(f.group.weight))


def inner(f: Signal, g: Signal) -> complex:
    """L2 inner product <f, g> = (f, conj g), antilinear in g."""
    same_group(f, g)
    return complex(np.vdot(g.values, f.values) * float(f.group.weight))


def l1_norm(f: Signal) -> float:
    return float(np.sum(np.abs(f.values)) * float(f.group.weight))


def l2_norm(f: Signal) -> float:
    return float(math.sqrt(max(inner(f, f).real, 0.0)))


def sup_norm(f: Signal) -> float:
    return float(np.max(np.abs(f.values)))


def tensor(f: Signal, g: Signal) -> Signal:
    """(f tensor g)(s, t) = f(s) g(t) on the product group."""
    return Signal(
        product_group(f.group, g.group), np.outer(f.values, g.values).ravel()
    )
