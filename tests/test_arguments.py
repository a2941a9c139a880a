"""One rule for the public integer arguments: levels, dimensions, indices,
sample counts, seeds, degrees, ranks, orders and moduli; and one for the
coordinates of a ``CDNumber``.

Every entry point takes an int, a numpy integer, or a float or Fraction
equal to an int, and works on the Python int it equals, so what it returns
serialises with ``json.dumps``.  A bool, a non-integral value, NaN, an
infinity, a string, None or a value outside the range raises ArgumentError.
"""

import dataclasses
import json
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

from octoplane import properties
from octoplane.algebra import (
    ArgumentError,
    CDNumber,
    TableSizeError,
    build_table,
    cd_from_json,
    cd_to_json,
)
from octoplane.projective import level_for_dim
from octoplane.topology import (
    AbelianGroup,
    CoefficientSpec,
    CWDescription,
    builtin_cw,
    cohomology,
    cohomology_profile,
    homology,
    linking_hopf_invariant,
    multiplication_bidegree,
)


class Entry(NamedTuple):
    """An integer argument of one entry point: ``name`` is how its errors
    name it, ``call`` passes its value and returns what the entry point
    gives, made JSON-ready; ``valid`` is in range, and ``below`` and
    ``above`` lie just outside it (None if unbounded)."""

    name: str
    call: Callable
    valid: int
    below: int
    above: Optional[int] = None


def _pairs(pairs):
    return [[cd_to_json(u), cd_to_json(v)] for u, v in pairs[:2]]


def _cw(cw):
    return [cw.cells, {d: cw.boundary(d) for d in cw._boundaries}]


CHECKERS = {
    "commutative": properties.check_commutative,
    "associative": properties.check_associative,
    "alternative": properties.check_alternative,
    "flexible": properties.check_flexible,
    "norm_multiplicative": properties.check_norm_multiplicative,
}


def _two_generated(level, samples, seed=0):
    return properties.check_two_generated_associativity(level, samples, seed).to_json()


def _zmod(modulus):
    return dataclasses.asdict(CoefficientSpec("Zmod", modulus))


#: RP2's cells; its one nonzero boundary, [[2]], is of degree 2.
RP2_CELLS = [("v", 0), ("a", 1), ("f", 2)]

ENTRIES = {
    "build_table": Entry("level", lambda v: build_table(v).to_json(), 2, -1, 7),
    # no tuple holds 2^63 coordinates, so level 63 is refused before any is made
    "CDNumber level": Entry("level", lambda v: cd_to_json(CDNumber(v, (1, 2))), 1, -1, 63),
    "CDNumber.zero": Entry("level", lambda v: cd_to_json(CDNumber.zero(v)), 2, -1, 63),
    "CDNumber.basis level": Entry(
        "level", lambda v: cd_to_json(CDNumber.basis(v, 1)), 2, -1, 63
    ),
    "CDNumber.from_scalar": Entry(
        "level", lambda v: cd_to_json(CDNumber.from_scalar(3, v)), 2, -1, 63
    ),
    "CDNumber.basis": Entry("basis index", lambda v: cd_to_json(CDNumber.basis(2, v)), 3, -1, 4),
    "CDNumber.embed": Entry(
        "target level", lambda v: cd_to_json(CDNumber.basis(2, 1).embed(v)), 3, 1
    ),
    "entry row": Entry("row index", lambda v: build_table(2).entry(v, 1), 3, -1, 4),
    "entry column": Entry("column index", lambda v: build_table(2).entry(1, v), 3, -1, 4),
    "cd_from_json": Entry(
        "level", lambda v: cd_to_json(cd_from_json({"level": v, "coords": [1]})), 0, -1
    ),
    **{
        f"check_{name} level": Entry("level", lambda v, c=check: c(v, 2).to_json(), 2, -1, 7)
        for name, check in CHECKERS.items()
    },
    **{
        f"check_{name} samples": Entry("samples", lambda v, c=check: c(1, v).to_json(), 2, 0)
        for name, check in CHECKERS.items()
    },
    **{
        f"check_{name} seed": Entry("seed", lambda v, c=check: c(1, 2, seed=v).to_json(), 3, -1)
        for name, check in CHECKERS.items()
    },
    "check_two_generated level": Entry("level", lambda v: _two_generated(v, 2), 2, -1, 5),
    "check_two_generated samples": Entry("samples", lambda v: _two_generated(1, v), 2, 0),
    "check_two_generated seed": Entry("seed", lambda v: _two_generated(1, 2, v), 3, -1),
    "check_division": Entry("level", lambda v: properties.check_division(v).to_json(), 4, -1, 7),
    "find_zero_divisors": Entry(
        "level", lambda v: _pairs(properties.find_zero_divisors(v)), 4, -1, 7
    ),
    "random_exact": Entry(
        "level", lambda v: cd_to_json(properties.random_exact(v, random.Random(0))), 3, -1
    ),
    "level_for_dim": Entry("dimension", level_for_dim, 8, 0, 9),
    "AbelianGroup rank": Entry("rank", lambda v: AbelianGroup(v, (2,)).to_json(), 2, -1),
    "AbelianGroup torsion": Entry(
        "torsion coefficient", lambda v: AbelianGroup(1, (v,)).to_json(), 3, 1
    ),
    "from_parts rank": Entry("rank", lambda v: AbelianGroup.from_parts(v, [2]).to_json(), 2, -1),
    "from_parts order": Entry(
        "order", lambda v: AbelianGroup.from_parts(0, [v, 4]).to_json(), 6, 0
    ),
    "CoefficientSpec": Entry("modulus", _zmod, 3, 1),
    "CWDescription cell": Entry(
        "cell dimension", lambda v: _cw(CWDescription([("v", 0), ("c", v)], {})), 2, -1
    ),
    "CWDescription boundary": Entry(
        "boundary degree", lambda v: _cw(CWDescription(RP2_CELLS, {v: [[2]]})), 2, -1
    ),
    "multiplication_bidegree level": Entry(
        "level", lambda v: multiplication_bidegree(v, 2), 2, 0, 4
    ),
    "multiplication_bidegree samples": Entry(
        "samples", lambda v: multiplication_bidegree(1, v), 2, 0
    ),
    "multiplication_bidegree seed": Entry(
        "seed", lambda v: multiplication_bidegree(1, 2, seed=v), 3, -1
    ),
    "linking_hopf_invariant seed": Entry(
        "seed", lambda v: linking_hopf_invariant(samples=1, segments=64, seed=v), 3, -1
    ),
    "homology": Entry("degree", lambda v: homology(builtin_cw("RP2"), v).to_json(), 1, -1),
    "cohomology": Entry("degree", lambda v: cohomology(builtin_cw("RP2"), v).to_json(), 2, -1),
    "linking_hopf_invariant samples": Entry(
        "samples", lambda v: linking_hopf_invariant(samples=v, segments=64), 1, 0
    ),
    "linking_hopf_invariant segments": Entry(
        "segments", lambda v: linking_hopf_invariant(samples=1, segments=v), 64, 63, 1025
    ),
}

#: Values no integer argument takes, whatever its range.
REFUSED = {
    "bool": lambda e: True,
    "numpy bool": lambda e: np.True_,
    "non-integral": lambda e: 2.5,
    "non-integral Fraction": lambda e: Fraction(7, 2),
    "nan": lambda e: math.nan,
    "inf": lambda e: math.inf,
    "string": lambda e: "3",
    "None": lambda e: None,
    "below": lambda e: e.below,
    "above": lambda e: e.above,
}

#: Integral numbers that are not Python ints; each works as the int it equals.
ACCEPTED = {
    "numpy int64": np.int64,
    "integral float": float,
    "integral Fraction": Fraction,
}


@pytest.mark.parametrize(
    "entry, kind",
    [(e, k) for e in ENTRIES for k in REFUSED if k != "above" or ENTRIES[e].above is not None],
)
def test_integer_arguments_refuse_what_is_no_integer_in_range(entry, kind):
    with pytest.raises(ArgumentError) as error:
        ENTRIES[entry].call(REFUSED[kind](ENTRIES[entry]))
    if not isinstance(error.value, TableSizeError):  # build_table's cap has its own error
        assert str(error.value).startswith(f"{ENTRIES[entry].name} must be an integer ")


@pytest.mark.parametrize("kind", ACCEPTED)
@pytest.mark.parametrize("entry", ENTRIES)
def test_integer_arguments_accept_integral_numbers_as_plain_ints(entry, kind):
    call, valid = ENTRIES[entry].call, ENTRIES[entry].valid
    payload = call(ACCEPTED[kind](valid))
    # json.dumps refuses a numpy integer, so this shows every int is a plain one
    assert json.dumps(payload) == json.dumps(call(valid))


#: Coordinates no ``CDNumber`` stores.
REFUSED_COORDINATES = {
    "bool": True,
    "numpy bool": np.True_,
    "complex": 1j,
    "numpy complex": np.complex128(1),
    "string": "1",
    "None": None,
}


@pytest.mark.parametrize("kind", REFUSED_COORDINATES)
def test_coordinates_refuse_what_is_no_real_scalar(kind):
    value = REFUSED_COORDINATES[kind]
    with pytest.raises(ArgumentError, match="coordinates must be ints, Fractions or floats"):
        CDNumber(1, (2, value))
    with pytest.raises(ArgumentError, match="coordinates must be"):
        CDNumber.from_scalar(value, 1)


def test_the_top_level_is_checked_by_its_coordinate_count():
    with pytest.raises(ArgumentError, match=f"level 62 needs {2**62} coordinates, got 2"):
        CDNumber(62, (1, 2))


def test_numpy_coordinates_are_stored_as_python_scalars():
    # int64 products would wrap: (2^40)^2 is past 2^63
    x = CDNumber(1, tuple(np.array([2**40, 3])))
    assert [type(c) for c in x.coords] == [int, int]
    assert (x * x).coords == (2**80 - 9, 3 * 2**41)
    y = CDNumber(1, (np.float64(0.5), np.float32(2.0)))
    assert [type(c) for c in y.coords] == [float, float] and y.coords == (0.5, 2.0)
    assert [type(c) for c in (x * np.float64(0.5)).coords] == [float, float]
    assert [type(c) for c in (x / np.float64(2.0)).coords] == [float, float]


#: Calls that pass a name or text argument outside what the entry point
#: takes, with the argument name its ArgumentError opens with.
REFUSED_NAMED = {
    "unknown space": (lambda: builtin_cw("OP4"), "space"),
    "unhashable space": (lambda: builtin_cw(["RP2"]), "space"),
    "coefficients None": (lambda: CoefficientSpec.parse(None), "coefficients"),
    "coefficients int": (lambda: CoefficientSpec.parse(2), "coefficients"),
    "cohomology coefficients None": (
        lambda: cohomology(builtin_cw("RP2"), 1, None), "coefficients"
    ),
    "profile coefficients text": (
        lambda: cohomology_profile(builtin_cw("RP2"), "Z"), "coefficients"
    ),
    "boundaries None": (lambda: CWDescription([("v", 0)], None), "boundaries"),
    "cells None": (lambda: CWDescription(None, {}), "cells"),
    "cell no pair": (lambda: CWDescription([("v",)], {}), "cells"),
}


@pytest.mark.parametrize("case", REFUSED_NAMED)
def test_name_and_text_arguments_refuse_unknown_values(case):
    call, name = REFUSED_NAMED[case]
    with pytest.raises(ArgumentError, match=f"^{name} must be "):
        call()


def test_scaling_refuses_a_bool():
    x = CDNumber(1, (1, 2))
    for scale in (lambda: x * True, lambda: False * x, lambda: x / True):
        with pytest.raises(ArgumentError):
            scale()
