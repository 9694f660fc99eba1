"""Finite abelian groups, their duals, and time-frequency phase space.

Every group is a product of cyclic factors Z/n1 x ... x Z/nk.  Elements
are integer coordinate tuples reduced componentwise mod n_j, enumerated
lexicographically (last coordinate fastest).  The dual group is
identified with the same coordinate grid through the pairing

    w(x) = exp(2 pi i sum_j x_j w_j / n_j)

character_rows is the one place this is computed, as a product over the
factors, for the dual elements asked; character_table caches all of it.

Haar measure is a constant per-point weight.  A group always carries the
pair (weight, dual_weight) tied by

    weight * dual_weight * |G| = 1

which is exactly the normalization that makes Fourier inversion an
identity rather than an approximation.  The default is counting measure
on the group and |G|^{-1} times counting measure on the dual.  Weights
are stored as exact rationals so the constraint is checked without
rounding.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import LatticeError, as_integer, as_integers

__all__ = [
    "Group",
    "PhasePoint",
    "Lattice",
    "make_group",
    "product_group",
    "phase_space",
    "character_rows",
    "character_table",
    "element_coords",
    "negation_index",
    "wrap_distance",
    "make_lattice",
]


class PhasePoint(NamedTuple):
    """A point (x, w) of the phase space G x dual(G)."""

    x: tuple
    w: tuple


def _as_coords(coords) -> tuple:
    if isinstance(coords, PhasePoint):
        raise TypeError("expected group coordinates, got a phase point")
    return as_integers(coords, "coordinates", "a coordinate")


def _as_weight(value, what: str, error: type) -> Fraction:
    """A Haar or lattice weight as a Fraction: TypeError on a bool, string or
    non-number, error unless it is finite and positive; both name it."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a number, got {value!r}")
    if not 0 < value < math.inf:
        raise error(f"{what} must be finite and positive, got {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class Group:
    """A finite abelian group with a fixed Haar normalization.

    orders      : cyclic factor sizes (n1, ..., nk), integers, each >= 1
    weight      : Haar weight per point of the group
    dual_weight : Haar weight per point of the dual group

    Orders, coordinates and element indices meet errors.as_integer, and
    a bare order or coordinate where a sequence belongs is named by
    errors.as_integers; both weights meet _as_weight: a finite positive
    real, not a bool or string.
    """

    orders: tuple
    weight: Fraction
    dual_weight: Fraction

    def __post_init__(self):
        orders = as_integers(self.orders, "group orders", "a group order")
        if not orders:
            raise ValueError("a group needs at least one cyclic factor")
        if any(n < 1 for n in orders):
            raise ValueError(f"factor sizes must be positive, got {orders}")
        object.__setattr__(self, "orders", orders)
        w = _as_weight(self.weight, "a Haar weight", ValueError)
        dw = _as_weight(self.dual_weight, "a dual Haar weight", ValueError)
        if w * dw * self.order != 1:
            raise ValueError(
                f"weight * dual_weight * |G| must equal 1, got {w} * {dw} * {self.order}"
            )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "dual_weight", dw)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def nfactors(self) -> int:
        return len(self.orders)

    @property
    def phase_weight(self) -> float:
        """Per-point weight of the phase space G x dual(G), as a float."""
        return float(self.weight * self.dual_weight)

    def dual(self) -> "Group":
        """The dual group: same coordinate grid, Haar weights swapped."""
        return Group(self.orders, self.dual_weight, self.weight)

    def reduce(self, coords) -> tuple:
        """Canonical representative: componentwise mod n_j.

        Negative integers are accepted and mean group inverses, so
        reduce((-1,)) on Z/8 is (7,).
        """
        coords = _as_coords(coords)
        if len(coords) != self.nfactors:
            raise ValueError(
                f"expected {self.nfactors} coordinates for orders {self.orders}, "
                f"got {len(coords)}"
            )
        return tuple(c % n for c, n in zip(coords, self.orders))

    def add(self, a, b) -> tuple:
        return tuple((x + y) % n for x, y, n in zip(self.reduce(a), self.reduce(b), self.orders))

    def neg(self, a) -> tuple:
        return tuple((-x) % n for x, n in zip(self.reduce(a), self.orders))

    def index(self, coords) -> int:
        """Position of an element in the lexicographic enumeration, NumPy's
        C order of the factor grid."""
        return int(np.ravel_multi_index(self.reduce(coords), self.orders))

    def coords(self, index) -> tuple:
        index = as_integer(index, "an element index")
        if not 0 <= index < self.order:
            raise ValueError(f"index {index} out of range for group of order {self.order}")
        return tuple(int(c) for c in np.unravel_index(index, self.orders))

    def elements(self) -> list:
        """All elements in enumeration order."""
        return [tuple(c) for c in element_coords(self).T.tolist()]

    def __repr__(self):
        parts = " x ".join(f"Z/{n}" for n in self.orders)
        return f"Group({parts}, weight={self.weight}, dual_weight={self.dual_weight})"


def make_group(orders: Sequence[int]) -> Group:
    """Group with the default normalization: counting measure on G.  The
    orders are judged by as_integers before the dual weight is formed; the
    max leaves a zero or negative order to Group's own check."""
    orders = as_integers(orders, "group orders", "a group order")
    return Group(orders, Fraction(1), Fraction(1, max(1, math.prod(orders))))


def product_group(a: Group, b: Group) -> Group:
    """Direct product; Haar weights multiply."""
    return Group(a.orders + b.orders, a.weight * b.weight, a.dual_weight * b.dual_weight)


def phase_space(g: Group) -> Group:
    """The group G x dual(G) with per-point weight = weight * dual_weight.

    With the default normalization the phase space of a group of order N
    has N^2 points of weight 1/N each, and is self-dual.
    """
    w = g.weight * g.dual_weight
    return Group(g.orders + g.orders, w, Fraction(1) / (Fraction(g.order) ** 2 * w))


def element_coords(group: Group) -> np.ndarray:
    """Coordinates of every element, shape (nfactors, |G|): column i is
    group.coords(i).  Shift, negation and lattice-node indices and the
    character rows are built from this grid for the rows asked; only
    character_table keeps a |G| x |G| array."""
    return np.indices(group.orders).reshape(group.nfactors, group.order)


def negation_index(group: Group) -> np.ndarray:
    """Enumeration index of -t for every element t, in enumeration order:
    the negated coordinates, raveled with wrap-around."""
    return np.ravel_multi_index(tuple(-element_coords(group)), group.orders, mode="wrap")


def character_rows(group: Group, freqs=slice(None)) -> np.ndarray:
    """Character rows of the dual elements at the enumeration indices
    freqs (a slice or an index array), [row, x_index] = w(x).

    Per factor the phase of w_j at x_j is exp((2 pi i)(w_j x_j) / n_j);
    the factors are multiplied in enumeration order, starting from ones,
    so each row has the bits of the same row of the whole table.  Only
    the rows asked are built.
    """
    coords = element_coords(group)
    dual_coords = coords[:, freqs]
    rows = np.ones((dual_coords.shape[1], group.order), dtype=complex)
    for w, x, n in zip(dual_coords, coords, group.orders):
        factor = np.exp(2j * np.pi * np.outer(w, np.arange(n)) / n)
        rows *= factor[:, x]
    return rows


@lru_cache(maxsize=64)
def character_table(group: Group) -> np.ndarray:
    """All of character_rows, [w_index, x_index] = w(x): read-only and
    cached, for the callers that need every row."""
    table = character_rows(group)
    table.flags.writeable = False
    return table


def wrap_distance(group: Group) -> np.ndarray:
    """Wrap-around distance to 0 per factor, min(c, n - c), shaped like
    element_coords."""
    coords = element_coords(group)
    return np.minimum(coords, np.reshape(group.orders, (-1, 1)) - coords)


def _broadcast_step(group: Group, step) -> tuple:
    """One integer step per factor, a single integer standing for all;
    LatticeError on a step as_integer refuses, rather than truncating it."""
    steps = tuple(step) if isinstance(step, Iterable) else (step,) * group.nfactors
    try:
        step = tuple(as_integer(s, "a lattice step") for s in steps)
    except TypeError:
        raise LatticeError(f"lattice steps must be integers, got {step!r}") from None
    if len(step) != group.nfactors:
        raise LatticeError(
            f"need one step per factor ({group.nfactors}), got {len(step)}"
        )
    return step


@dataclass(frozen=True)
class Lattice:
    """A separable subgroup of the phase space: time steps a_j, frequency
    steps b_j, each dividing the factor order, plus a per-point weight.

    Points are enumerated time-major (all frequencies for the first time
    node, then the next time node, ...), lexicographically within each
    side.  Steps meet errors.as_integer and the weight _as_weight.
    """

    group: Group
    time_step: tuple
    freq_step: tuple
    weight: Fraction

    def __post_init__(self):
        ts = _broadcast_step(self.group, self.time_step)
        fs = _broadcast_step(self.group, self.freq_step)
        for name, steps in (("time", ts), ("freq", fs)):
            for s, n in zip(steps, self.group.orders):
                if s < 1 or n % s != 0:
                    raise LatticeError(
                        f"{name} step {s} does not divide factor order {n}"
                    )
        object.__setattr__(self, "time_step", ts)
        object.__setattr__(self, "freq_step", fs)
        w = _as_weight(self.weight, "a lattice weight", LatticeError)
        object.__setattr__(self, "weight", w)

    @property
    def size(self) -> int:
        times, freqs = self.nodes
        return len(times) * len(freqs)

    @property
    def index_in_phase_space(self) -> int:
        return self.group.order ** 2 // self.size

    @cached_property
    def nodes(self) -> tuple:
        """(times, freqs): enumeration indices of the time nodes and of the
        frequency nodes, the elements whose coordinates are multiples of
        the steps, in enumeration order; computed on first use and kept,
        read-only."""
        coords = element_coords(self.group)
        out = tuple(
            np.flatnonzero(np.all(coords % np.reshape(steps, (-1, 1)) == 0, axis=0))
            for steps in (self.time_step, self.freq_step)
        )
        for arr in out:
            arr.flags.writeable = False
        return out

    @cached_property
    def zak_split(self) -> tuple:
        """(split, order, index, scale): the Zak-domain split that
        frames.GaborSystem.spectrum reads; computed on first use and kept,
        index read-only.

        Per factor m = n / b and p = a / gcd(m, a): coordinate
        r + m (p u + rho) splits into the axes (u, rho, r) of lengths
        split = (b / p, p, m), and order moves them to (r_1..r_k,
        u_1..u_k, rho_1..rho_k).  index is arange(|G|) split and moved,
        shape (prod m_j, b_1 / p_1, ..., b_k / p_k, prod p_j); scale is
        the lattice weight times prod m_j times the Haar weight."""
        grp, k = self.group, self.group.nfactors
        cosets = [n // b for n, b in zip(grp.orders, self.freq_step)]
        periods = [a // math.gcd(m, a) for m, a in zip(cosets, self.time_step)]
        blocks = [b // p for b, p in zip(self.freq_step, periods)]
        split = tuple(d for dims in zip(blocks, periods, cosets) for d in dims)
        order = (*range(2, 3 * k, 3), *range(0, 3 * k, 3), *range(1, 3 * k, 3))
        shape = (math.prod(cosets), *blocks, math.prod(periods))
        index = np.arange(grp.order).reshape(split).transpose(order).reshape(shape)
        index.flags.writeable = False
        return split, order, index, float(self.weight * shape[0] * grp.weight)

    def points(self) -> list:
        """All lattice points as PhasePoint tuples, time-major."""
        els = self.group.elements()
        times, freqs = ([els[i] for i in side] for side in self.nodes)
        return [PhasePoint(x, w) for x in times for w in freqs]

    def contains(self, point: PhasePoint) -> bool:
        times, freqs = self.nodes
        x, w = self.group.index(point.x), self.group.index(point.w)
        return x in times and w in freqs


def make_lattice(group: Group, time_step, freq_step, weighting: str = "ambient") -> Lattice:
    """Build a lattice with one of the two supported weight conventions.

    weighting="ambient" gives every lattice point the ambient per-point
    phase-space weight (the default), "index" multiplies that by the
    subgroup index [G x dual(G) : lattice].
    """
    ambient = group.weight * group.dual_weight
    lat = Lattice(group, time_step, freq_step, ambient)
    if weighting == "ambient":
        return lat
    if weighting == "index":
        return Lattice(group, time_step, freq_step, ambient * lat.index_in_phase_space)
    raise LatticeError(f"unknown weighting {weighting!r}, expected 'ambient' or 'index'")
