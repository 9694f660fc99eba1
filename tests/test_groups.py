import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfkit.errors import LatticeError
from tfkit.groups import (
    Group,
    Lattice,
    PhasePoint,
    character_rows,
    character_table,
    element_coords,
    make_group,
    make_lattice,
    negation_index,
    phase_space,
    product_group,
    wrap_distance,
)

from oracles import kronecker_characters

ORDERS = st.sampled_from([(2,), (3,), (8,), (2, 3), (4, 2), (2, 2, 2)])


def coords_for(group, data):
    return tuple(
        data.draw(st.integers(min_value=-2 * n, max_value=2 * n)) for n in group.orders
    )


def test_make_group_basics():
    g = make_group((2, 3))
    assert g.order == 6
    assert g.nfactors == 2
    assert g.weight == 1
    assert g.dual_weight == Fraction(1, 6)
    assert g.weight * g.dual_weight * g.order == 1


def test_group_validation():
    with pytest.raises(ValueError):
        make_group(())
    with pytest.raises(ValueError):
        make_group((0, 3))
    with pytest.raises(ValueError):
        Group((4,), Fraction(1), Fraction(1, 3))
    with pytest.raises(ValueError):
        Group((4,), Fraction(-1), Fraction(-1, 4))


def test_dual_swaps_weights_and_is_involutive():
    g = make_group((5,))
    d = g.dual()
    assert d.weight == Fraction(1, 5)
    assert d.dual_weight == 1
    assert d.dual() == g


def test_reduce_negatives_and_arity():
    g = make_group((8,))
    assert g.reduce((-1,)) == (7,)
    assert g.reduce((9,)) == (1,)
    with pytest.raises(ValueError):
        g.reduce((1, 2))
    with pytest.raises(TypeError):
        g.reduce(PhasePoint((1,), (2,)))


@pytest.mark.parametrize(
    "orders",
    [(2, 3, 2), (12,), (2, 3), (1, 4), (4, 1, 2)],
    ids=["2x3x2", "12", "2x3", "1x4", "4x1x2"],
)
def test_index_coords_roundtrip(orders):
    g = make_group(orders)
    els = g.elements()
    assert len(els) == g.order
    for i, x in enumerate(els):
        assert type(x) is tuple and all(type(c) is int for c in x)
        assert g.coords(i) == x and g.index(x) == i
        assert type(g.index(x)) is int and all(type(c) is int for c in g.coords(i))
    # lexicographic: last coordinate varies fastest
    assert els == list(itertools.product(*map(range, orders)))
    with pytest.raises(ValueError, match="out of range"):
        g.coords(g.order)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.index((2.7,)),
        lambda g: g.reduce((np.float64(3.0),)),
        lambda g: g.coords(2.5),
        lambda g: g.coords(np.float64(2.0)),
    ],
    ids=["index", "reduce", "coords", "coords-integral-float"],
)
def test_fractional_coordinates_are_refused_not_truncated(call):
    with pytest.raises(TypeError):
        call(make_group((8,)))


@pytest.mark.parametrize(
    "time_step",
    [(2.5,), 2.5, 2.0, (np.float64(2.0),), "2"],
    ids=["tuple-2.5", "2.5", "2.0", "tuple-float64", "string"],
)
def test_fractional_lattice_steps_are_refused_not_truncated(time_step):
    g = make_group((8,))
    with pytest.raises(LatticeError, match="must be integers"):
        make_lattice(g, time_step, 1)
    with pytest.raises(LatticeError, match="must be integers"):
        make_lattice(g, 1, time_step)
    # integers of any integer type still broadcast or pass per factor
    assert make_lattice(g, np.int64(2), [np.int32(4)]).time_step == (2,)


@pytest.mark.parametrize(
    "step",
    [True, False, (True, 2), [2, False], np.True_],
    ids=["True", "False", "tuple-True", "list-False", "np.True_"],
)
def test_boolean_lattice_steps_are_refused_not_converted(step):
    # operator.index(True) is 1, so True built a unit-step lattice, as
    # group orders did before they refused booleans
    g = make_group((8, 4))
    message = re.escape(f"lattice steps must be integers, got {step!r}")
    with pytest.raises(LatticeError, match=message):
        make_lattice(g, step, 1)
    with pytest.raises(LatticeError, match=message):
        make_lattice(g, 1, step)


@pytest.mark.parametrize(
    "orders",
    [(8.5,), ("8",), (True,), (8.0,), (np.float64(8.0),), ("8", "2")],
    ids=["8.5", "string", "bool", "8.0", "float64", "strings"],
)
def test_fractional_orders_are_refused_not_truncated(orders):
    # Group's own message, naming the order, never the weight's arithmetic
    with pytest.raises(TypeError, match=f"must be an integer, got {re.escape(repr(orders[0]))}"):
        make_group(orders)
    with pytest.raises(TypeError, match="must be an integer"):
        Group((2.9,), 1, Fraction(1, 2))
    # integers of any integer type still build
    g = make_group((np.int64(8), np.int32(3)))
    assert g.orders == (8, 3)
    assert all(type(n) is int for n in g.orders)
    assert g.dual_weight == Fraction(1, 24)


@given(st.data())
def test_group_laws(data):
    g = make_group(data.draw(ORDERS))
    a = coords_for(g, data)
    b = coords_for(g, data)
    assert g.add(a, g.neg(a)) == tuple(0 for _ in g.orders)
    assert g.add(a, b) == g.add(b, a)
    assert g.neg(g.neg(a)) == g.reduce(a)


def char(g, x, w):
    """w(x), read off the character row of w."""
    return character_rows(g, [g.index(w)])[0, g.index(x)]


@given(st.data())
def test_character_is_a_bicharacter(data):
    g = make_group(data.draw(ORDERS))
    x = coords_for(g, data)
    y = coords_for(g, data)
    w = coords_for(g, data)
    lhs = char(g, g.add(x, y), w)
    rhs = char(g, x, w) * char(g, y, w)
    assert abs(lhs - rhs) < 1e-12
    # symmetric in the two slots
    assert abs(char(g, x, w) - char(g, w, x)) < 1e-12


def test_character_values_are_roots_of_unity():
    g = make_group((8,))
    z = char(g, (1,), (1,))
    assert abs(z - np.exp(2j * np.pi / 8)) < 1e-15
    assert abs(char(g, (4,), (2,)) - 1.0) < 1e-15  # 8 | 4*2


@pytest.mark.parametrize("orders", [(12,), (2, 3), (1, 4), (4, 1, 2), (128,)])
def test_character_rows_are_the_kronecker_table_bit_for_bit(orders):
    g = make_group(orders)
    want = kronecker_characters(g)
    assert np.array_equal(character_rows(g), want)
    assert np.array_equal(character_table(g), want)
    assert np.array_equal(character_rows(g, slice(1, None, 3)), want[1::3])
    picked = np.arange(g.order)[::-5]
    assert np.array_equal(character_rows(g, picked), want[picked])


def test_character_table_rows_are_orthogonal():
    g = make_group((2, 3))
    tab = character_table(g)
    gram = tab @ tab.conj().T
    assert np.max(np.abs(gram - g.order * np.eye(g.order))) < 1e-12


@pytest.mark.parametrize("orders", [(5,), (2, 3), (1, 4), (4, 1, 2)])
def test_element_coords_and_wrap_distance(orders):
    g = make_group(orders)
    coords = element_coords(g)
    dist = wrap_distance(g)
    assert coords.shape == dist.shape == (g.nfactors, g.order)
    for i, x in enumerate(g.elements()):
        assert tuple(coords[:, i]) == x
        assert tuple(dist[:, i]) == tuple(min(c, n - c) for c, n in zip(x, orders))


@pytest.mark.parametrize("orders", [(12,), (2, 3), (1, 4), (4, 1, 2)])
def test_negation_index_points_at_the_inverse(orders):
    g = make_group(orders)
    neg = negation_index(g)
    assert neg.shape == (g.order,)
    for i, x in enumerate(g.elements()):
        assert neg[i] == g.index(g.neg(x))
    assert np.array_equal(neg[neg], np.arange(g.order))


def test_tables_are_read_only():
    g = make_group((4,))
    with pytest.raises(ValueError):
        character_table(g)[0, 0] = 0


def test_product_group_multiplies_weights():
    a = make_group((4,))
    b = make_group((3,))
    p = product_group(a, b)
    assert p.orders == (4, 3)
    assert p.weight == 1
    assert p.dual_weight == Fraction(1, 12)
    assert p.weight * p.dual_weight * p.order == 1


def test_phase_space_is_self_dual():
    g = make_group((6,))
    ps = phase_space(g)
    assert ps.orders == (6, 6)
    assert ps.weight == Fraction(1, 6)  # weight * dual_weight of g
    assert ps.dual() == ps


def test_lattice_validation():
    g = make_group((8,))
    with pytest.raises(LatticeError):
        make_lattice(g, 3, 1)  # 3 does not divide 8
    with pytest.raises(LatticeError):
        make_lattice(g, 0, 1)
    with pytest.raises(LatticeError):
        Lattice(g, (2,), (2,), Fraction(-1))
    with pytest.raises(LatticeError):
        make_lattice(g, 2, 2, weighting="bogus")


def test_lattice_points_and_contains():
    g = make_group((4,))
    lat = make_lattice(g, 2, 2)
    pts = lat.points()
    assert lat.size == 4
    assert len(pts) == 4
    # time-major ordering
    assert pts[0] == PhasePoint((0,), (0,))
    assert pts[1] == PhasePoint((0,), (2,))
    assert pts[2] == PhasePoint((2,), (0,))
    for p in pts:
        assert lat.contains(p)
    assert not lat.contains(PhasePoint((1,), (0,)))
    assert lat.index_in_phase_space == 4


# (orders, time steps, frequency steps)
LATTICE_CASES = [
    ((12,), (3,), (4,)),
    ((12,), (1,), (12,)),
    ((2, 3), (2, 1), (1, 3)),
    ((1, 4), (1, 2), (1, 4)),
    ((4, 1, 2), (2, 1, 1), (4, 1, 2)),
    ((4, 6), (2, 3), (4, 1)),
]


def _side_nodes(group, steps):
    # oracle: the multiples of the steps by nested loops, lexicographic
    axes = [range(0, n, s) for n, s in zip(group.orders, steps)]
    nodes = [()]
    for ax in axes:
        nodes = [pre + (v,) for pre in nodes for v in ax]
    return nodes


@pytest.mark.parametrize("orders,a,b", LATTICE_CASES)
def test_lattice_nodes_are_the_multiples_of_the_steps(orders, a, b):
    g = make_group(orders)
    lat = make_lattice(g, a, b)
    for nodes, steps in zip(lat.nodes, (a, b)):
        brute = [
            g.index(x)
            for x in g.elements()
            if all(c % s == 0 for c, s in zip(x, steps))
        ]
        assert nodes.tolist() == brute
    times, freqs = lat.nodes
    assert len(times) * len(freqs) == lat.size


def test_lattice_nodes_are_computed_once_and_read_only():
    lat = make_lattice(make_group((4, 6)), (2, 3), (1, 2))
    first = lat.nodes
    second = lat.nodes
    assert all(a is b for a, b in zip(first, second))
    for nodes in first:
        with pytest.raises(ValueError):
            nodes[0] = 1


@pytest.mark.parametrize("orders,a,b", LATTICE_CASES)
def test_lattice_points_keep_the_side_node_order(orders, a, b):
    g = make_group(orders)
    lat = make_lattice(g, a, b)
    want = [PhasePoint(x, w) for x in _side_nodes(g, a) for w in _side_nodes(g, b)]
    pts = lat.points()
    assert pts == want
    assert all(type(c) is int for p in pts for c in p.x + p.w)


def test_lattice_weightings():
    g = make_group((8,))
    ambient = make_lattice(g, 2, 2)
    assert ambient.weight == g.weight * g.dual_weight
    indexed = make_lattice(g, 2, 2, weighting="index")
    assert indexed.weight == ambient.weight * ambient.index_in_phase_space
    full = make_lattice(g, 1, 1, weighting="index")
    assert full.weight == g.weight * g.dual_weight
