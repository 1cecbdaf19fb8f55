"""One table of multi-indices through every public entry point that takes one.

multiindex.check_multi_index is the only place where a multi-index is
refused for its shape, length, entry type or sign, so every entry point
refuses the same multi-index with the same error type and the same text,
and reads a list as the tuple of its entries.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from jacobi_mv.closed_forms import (
    creation_power,
    family_norm_squared,
    family_polynomial,
    family_spec,
    master_omega,
    stated_omega,
)
from jacobi_mv.errors import DimensionMismatchError, InvalidIndexError
from jacobi_mv.jacobi_sequences import compute_from_functional, reconstruct_moments
from jacobi_mv.moments import atomic_functional, gaussian_functional, table_functional
from jacobi_mv.multiindex import enumerate_classes, occupation
from jacobi_mv.polyring import Polynomial

# every refusal at d = 2: (multi-index, error type, text)
REFUSED = [
    ((0, 0, 0), DimensionMismatchError, "multi-index length 3 != dimension 2"),
    ((1,), DimensionMismatchError, "multi-index length 1 != dimension 2"),
    ((1, -1), InvalidIndexError, "negative entry in multi-index (1, -1)"),
    ((True, 0), InvalidIndexError, "multi-index entry must be an integer, got True"),
    ((1.0, 0), InvalidIndexError, "multi-index entry must be an integer, got 1.0"),
    (("1", 0), InvalidIndexError, "multi-index entry must be an integer, got '1'"),
    ((Fraction(1), 0), InvalidIndexError,
     "multi-index entry must be an integer, got Fraction(1, 1)"),
    # the entry types are checked before the signs
    ((-1, 0.5), InvalidIndexError, "multi-index entry must be an integer, got 0.5"),
    (5, InvalidIndexError, "multi-index must be a sequence of integers, got 5"),
    (None, InvalidIndexError, "multi-index must be a sequence of integers, got None"),
    ("10", InvalidIndexError, "multi-index must be a sequence of integers, got '10'"),
]

_HERMITE = family_spec("hermite", d=2)
_SEQ = compute_from_functional(gaussian_functional(2), 2)
_TABLE = table_functional(2, 2, {(0, 0): 1, (1, 0): 0, (0, 1): 0})

# (name, call): call(beta) is what the entry point gives for beta at d = 2,
# each of degree at most 1 so that every bound of degree holds
ENTRY_POINTS = [
    ("gaussian moment", gaussian_functional(2).moment),
    ("atomic moment", atomic_functional([((0, 0), "1/2"), ((1, 1), "1/2")]).moment),
    ("table moment", _TABLE.moment),
    ("table_functional key", lambda beta: table_functional(2, 1, {beta: 1}).moment(beta)),
    ("reconstruct_moments", lambda beta: reconstruct_moments(_SEQ, beta)),
    ("family_polynomial", lambda beta: family_polynomial(_HERMITE, beta)),
    ("family_norm_squared", lambda beta: family_norm_squared(_HERMITE, beta)),
    ("creation_power", lambda beta: creation_power(_HERMITE, beta, 2, 1)),
    ("master_omega", lambda beta: master_omega(_HERMITE, beta)),
    ("stated_omega", lambda beta: stated_omega(_HERMITE, beta)),
    ("Polynomial", lambda beta: Polynomial(2, {beta: 1})),
    ("Polynomial.monomial", lambda beta: Polynomial.monomial(2, beta)),
    ("ClassBasis.index", lambda beta: enumerate_classes(2, 1).index(beta)),
]
_IDS = [name for name, _ in ENTRY_POINTS]


@pytest.mark.parametrize("name,call", ENTRY_POINTS, ids=_IDS)
def test_every_entry_point_refuses_in_the_gates_words(name, call):
    # before, a wrong length raised InvalidIndexError from five of these, a
    # negative table key DimensionMismatchError, and 5 or None a bare TypeError
    for beta, error, text in REFUSED:
        with pytest.raises(error) as info:
            call(beta)
        assert type(info.value) is error and str(info.value) == text, (name, beta)


# a list is no dict key, so the two entry points whose multi-indices are
# dict keys are left out
_SEQUENCE_ENTRY_POINTS = [
    entry for entry in ENTRY_POINTS if entry[0] not in ("table_functional key", "Polynomial")
]


@pytest.mark.parametrize(
    "name,call", _SEQUENCE_ENTRY_POINTS, ids=[name for name, _ in _SEQUENCE_ENTRY_POINTS]
)
def test_a_list_reads_as_its_tuple(name, call):
    for beta in ((1, 0), (0, 1)):
        assert call(list(beta)) == call(beta), (name, beta)


def test_the_small_index_validators_refuse_through_the_gates():
    # before, variable(2, True) was x1 and occupation(2, [True]) was
    # (1, 0); variable(2, 1.0) raised a bare TypeError, and ClassBasis.index
    # a bare ValueError for a class of another weight
    for call, text in (
        (lambda: Polynomial.variable(2, True), "variable index must be an integer, got True"),
        (lambda: Polynomial.variable(2, 1.0), "variable index must be an integer, got 1.0"),
        (lambda: Polynomial.variable(2, 3), "variable index 3 outside 1..2"),
        (lambda: occupation(2, [True]), "index must be an integer, got True"),
        (lambda: occupation(2, [3]), "index 3 outside 1..2"),
        (lambda: enumerate_classes(2, 2).index((1, 0)), "class (1, 0) is not of weight 2"),
    ):
        with pytest.raises(InvalidIndexError) as info:
            call()
        assert str(info.value) == text
    assert Polynomial.variable(2, 2) == Polynomial.monomial(2, (0, 1))
    assert occupation(2, [2, 1, 2]) == (1, 2)
    assert enumerate_classes(2, 2).index([1, 1]) == 1
