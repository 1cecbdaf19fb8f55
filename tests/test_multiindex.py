from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jacobi_mv.errors import InvalidDimensionError, InvalidIndexError, OutOfLatticeError
from jacobi_mv.multiindex import (
    canonical_key,
    check_index,
    class_count,
    degree,
    enumerate_classes,
    factorial_of,
    occupation,
    representative_tuple,
    shift,
)


def test_degree_and_factorial():
    assert degree((2, 0, 1)) == 3
    assert degree(()) == 0
    assert factorial_of((3, 2)) == 12
    assert factorial_of((0, 0)) == 1


def test_shift_roundtrip_and_boundary():
    assert shift((1, 2), (1, -1)) == (2, 1)
    with pytest.raises(OutOfLatticeError):
        shift((0, 0), (-1, 0))
    with pytest.raises(OutOfLatticeError):
        shift((1,), (1, 1))


def test_occupation_of_tuple():
    assert occupation(3, (1, 3, 1)) == (2, 0, 1)
    assert occupation(2, ()) == (0, 0)
    with pytest.raises(InvalidIndexError):
        occupation(2, (3,))
    with pytest.raises(InvalidDimensionError, match=r"^dimension must be a positive integer, got 0$"):
        occupation(0, ())
    # before, a bool passed as a dimension: enumerate_classes(True, 2) was ((2,),)
    for call in (
        lambda: enumerate_classes(True, 2),
        lambda: enumerate_classes(2.0, 1),
        lambda: occupation(True, ()),
    ):
        with pytest.raises(InvalidDimensionError, match="^dimension must be an integer, got"):
            call()


def test_representative_is_weakly_increasing_and_inverts_occupation():
    rep = representative_tuple((2, 0, 1))
    assert rep == (1, 1, 3)
    assert list(rep) == sorted(rep)
    assert occupation(3, rep) == (2, 0, 1)


def test_canonical_order_d2_n2():
    # the fixed order every matrix coordinate depends on
    assert enumerate_classes(2, 2).classes == ((2, 0), (1, 1), (0, 2))
    assert enumerate_classes(3, 1).classes == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_class_count_matches_enumeration():
    for d in (1, 2, 3):
        for n in range(5):
            basis = enumerate_classes(d, n)
            assert len(basis) == class_count(d, n) == math.comb(n + d - 1, d - 1)


def test_class_basis_index():
    basis = enumerate_classes(2, 3)
    for k, n_bar in enumerate(basis.classes):
        assert basis.index(n_bar) == k


@given(st.integers(1, 4), st.integers(0, 6))
def test_enumeration_sorted_unique_and_full(d, n):
    basis = enumerate_classes(d, n)
    keys = [canonical_key(c) for c in basis.classes]
    assert keys == sorted(keys)
    assert len(set(basis.classes)) == len(basis.classes)
    assert all(sum(c) == n and len(c) == d for c in basis.classes)


@given(st.lists(st.integers(1, 3), max_size=6))
def test_occupation_invariant_under_reordering(letters):
    direct = occupation(3, letters)
    assert occupation(3, sorted(letters)) == direct
    assert degree(direct) == len(letters)


def test_check_index_refuses_non_integers_and_keeps_range_messages():
    for value in (1.0, Fraction(1), "1", True, None):
        with pytest.raises(InvalidIndexError, match="must be an integer, got"):
            check_index(value, "level", 0, 3)
    with pytest.raises(InvalidIndexError, match=r"^level 4 outside 0\.\.3$"):
        check_index(4, "level", 0, 3)
    with pytest.raises(InvalidIndexError, match=r"^level 4 outside computed range 0\.\.3$"):
        check_index(4, "level", 0, 3, "computed range ")
    with pytest.raises(InvalidIndexError, match=r"^power must be an integer >= 1, got 0$"):
        check_index(0, "power", 1)
    check_index(7, "power", 1)
    check_index(0, "coordinate", 0, 0)
