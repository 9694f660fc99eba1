"""The argument contract: every integer, weight, count and exponent
argument refuses a hostile value with a TypeError or a ValueError (the
tfkit.errors types included) whose message names the value, and never
with an OverflowError or by succeeding on a bool."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tfkit.errors import as_integer
from tfkit.frames import GaborSystem, partial_frame_sum
from tfkit.groups import Group, Lattice, make_group, make_lattice
from tfkit.modspaces import stft_probes
from tfkit.signals import dirac, gauss, translate
from tfkit.transform import mod_norms

G = make_group((8,))
WINDOW = gauss(G, 1.0)
SYSTEM = GaborSystem(WINDOW, make_lattice(G, 2, 2))

VALUES = {
    "True": True,
    "np.True_": np.True_,
    "2.0": 2.0,
    "np.float64(2)": np.float64(2),
    "'2'": "2",
    "None": None,
    "inf": math.inf,
    "nan": math.nan,
    "0": 0,
    "-1": -1,
}
INTEGERS = ("0", "-1")  # integers a coordinate may be: -1 means the inverse
REALS = ("2.0", "np.float64(2)")

# argument -> (call with the value, names of the values it accepts)
ARGUMENTS = {
    "make_group orders": (lambda v: make_group((v,)), ()),
    "Group orders": (lambda v: Group((v,), 1, 1), ()),
    "make_group bare orders": (lambda v: make_group(v), ()),
    "Group bare orders": (lambda v: Group(v, 1, 1), ()),
    "Group.reduce coordinates": (lambda v: G.reduce((v,)), INTEGERS),
    "Group.reduce bare coordinates": (lambda v: G.reduce(v), ()),
    "Group.index coordinates": (lambda v: G.index((v,)), INTEGERS),
    "dirac at": (lambda v: dirac(G, at=(v,)), INTEGERS),
    "translate coordinates": (lambda v: translate(WINDOW, (v,)), INTEGERS),
    "Group.coords index": (lambda v: G.coords(v), ("0",)),
    "make_lattice time step": (lambda v: make_lattice(G, v, 1), ()),
    "make_lattice freq step": (lambda v: make_lattice(G, 1, v), ()),
    "Lattice time step": (lambda v: Lattice(G, v, 1, 1), ()),
    "Lattice freq step": (lambda v: Lattice(G, 1, v, 1), ()),
    # order 2 with the other weight 1/4, so that a weight of 2 meets
    # weight * dual_weight * |G| = 1
    "Group weight": (lambda v: Group((2,), v, Fraction(1, 4)), REALS),
    "Group dual weight": (lambda v: Group((2,), Fraction(1, 4), v), REALS),
    "Lattice weight": (lambda v: Lattice(G, 2, 2, v), REALS),
    "partial_frame_sum count": (lambda v: partial_frame_sum(SYSTEM, v), ()),
    "stft_probes count": (lambda v: stft_probes(G, WINDOW, 0, count=v), ("0",)),
    "mod_norms exponent": (lambda v: mod_norms(WINDOW, WINDOW, [v]), REALS + ("inf",)),
}

HOSTILE = [
    pytest.param(arg, name, id=f"{arg}-{name}")
    for arg, (_, accepted) in ARGUMENTS.items()
    for name in VALUES
    if name not in accepted
]
ACCEPTED = [
    pytest.param(arg, name, id=f"{arg}-{name}")
    for arg, (_, accepted) in ARGUMENTS.items()
    for name in accepted
]


@pytest.mark.parametrize("arg, name", HOSTILE)
def test_a_hostile_argument_raises_a_typed_error_naming_it(arg, name):
    call, value = ARGUMENTS[arg][0], VALUES[name]
    with pytest.raises((TypeError, ValueError)) as info:
        call(value)
    assert repr(value) in str(info.value)


@pytest.mark.parametrize("arg, name", ACCEPTED)
def test_an_accepted_argument_still_builds(arg, name):
    ARGUMENTS[arg][0](VALUES[name])


def test_as_integer_takes_any_integer_type_and_returns_an_int():
    for value in (3, np.int64(3), np.uint8(3), np.int32(3)):
        out = as_integer(value, "a count")
        assert out == 3 and type(out) is int
    with pytest.raises(TypeError, match=r"^a count must be an integer, got np\.True_$"):
        as_integer(np.True_, "a count")


@pytest.mark.parametrize("call", [lambda: make_group(8), lambda: Group(8, 1, 1)])
def test_a_bare_order_is_named_as_what_it_is(call):
    with pytest.raises(TypeError, match=r"^group orders must be an integer sequence, got 8$"):
        call()
