from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import jacobi_mv
from jacobi_mv.errors import InvalidDimensionError, InvalidIndexError, OutOfLatticeError
from jacobi_mv import multiindex
from jacobi_mv.multiindex import (
    MEMO_ENTRIES,
    SizedMemo,
    _compositions,
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
from jacobi_mv.polyring import monomial_basis, monomials_of_degree


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


def _recursive_compositions(d, n):
    # the recursive enumeration _compositions replaced, one call per slot
    if d == 1:
        return [(n,)]
    return [
        (first,) + rest
        for first in range(n, -1, -1)
        for rest in _recursive_compositions(d - 1, n - first)
    ]


def test_compositions_keep_the_recursive_order():
    for d in range(1, 6):
        for n in range(6):
            assert _compositions(d, n) == _recursive_compositions(d, n)


def test_large_dimension_does_not_recurse_per_coordinate():
    # before, d = 1200 raised RecursionError
    basis = enumerate_classes(1200, 1)
    assert basis.classes[0] == (1,) + (0,) * 1199
    assert basis.classes[-1] == (0,) * 1199 + (1,)
    assert enumerate_classes(1200, 0).classes == ((0,) * 1200,)


def test_the_class_memo_keeps_no_basis_over_its_entry_budget():
    # 1200 classes of 1200 entries are over MEMO_ENTRIES: each call builds
    # its own, and none is kept alive for the next
    assert 1200 * 1200 > MEMO_ENTRIES
    big = enumerate_classes(1200, 1)
    again = enumerate_classes(1200, 1)
    assert again.classes == big.classes and again.classes is not big.classes
    # a small basis is still the one shared object
    assert enumerate_classes(3, 4) is enumerate_classes(3, 4)
    assert enumerate_classes(1200, 0) is enumerate_classes(1200, 0)


def test_a_sized_memo_evicts_the_least_recently_used_by_entries(monkeypatch):
    monkeypatch.setattr(multiindex, "MEMO_ENTRIES", 10)
    built = []

    def build(n):
        built.append(n)
        return tuple(range(n))

    memo = SizedMemo(build, len)
    four = memo(4)
    memo(3)
    assert memo(4) is four  # 7 entries held; 4 is now the most recent
    memo(2)  # 9 held
    memo(5)  # 14 held: the least recently used go, 3 and then 4
    memo(2), memo(5)
    assert built == [4, 3, 2, 5]
    again = memo(4)
    assert again == four and again is not four
    memo(11), memo(11)  # over the budget alone: built each time, never kept
    assert built == [4, 3, 2, 5, 4, 11, 11]


def _limit_memory():
    # the runaway enumeration appends a tuple per step; cap the child's
    # address space so a regression fails with MemoryError, not by taking
    # the machine's memory
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_a_fractional_degree_is_refused_not_enumerated_forever():
    # before, enumerate_classes(2, 2.5) never returned: _compositions waited
    # for its last slot to reach 2.5; a fresh process with a timeout and a
    # memory cap keeps a regression from stalling the suite
    for call in ("enumerate_classes(2, 2.5)", "monomials_of_degree(2, 2.5)"):
        done = subprocess.run(
            [sys.executable, "-c",
             "from jacobi_mv.errors import InvalidIndexError\n"
             "from jacobi_mv.multiindex import enumerate_classes\n"
             "from jacobi_mv.polyring import monomials_of_degree\n"
             "try:\n"
             f"    {call}\n"
             "except InvalidIndexError as exc:\n"
             "    print(exc)\n"],
            capture_output=True, text=True, timeout=30, preexec_fn=_limit_memory,
            env=dict(os.environ, PYTHONPATH=str(Path(jacobi_mv.__file__).resolve().parent.parent)),
        )
        assert (done.returncode, done.stdout) == (0, "degree must be an integer, got 2.5\n"), done.stderr


def test_bool_and_float_degrees_are_refused():
    # before, monomials_of_degree(2, True) was [(True, 0), (0, 1)] and
    # class_count(2, True) was 2; a float degree raised a bare TypeError
    for call in (
        lambda: enumerate_classes(2, True),
        lambda: monomials_of_degree(2, True),
        lambda: monomial_basis(2, True),
        lambda: class_count(2, True),
        lambda: enumerate_classes(2, 1.0),
        lambda: monomial_basis(2, 1.0),
        lambda: class_count(2, 1.0),
        lambda: enumerate_classes(2, -1.5),
    ):
        with pytest.raises(InvalidIndexError, match="^degree must be an integer, got"):
            call()
    # the dimension is still checked first, and a refused degree leaves the
    # classes of degree 1 as they are
    with pytest.raises(InvalidDimensionError):
        monomial_basis(True, 1.0)
    assert enumerate_classes(2, 1).classes == ((1, 0), (0, 1))
    assert monomials_of_degree(2, 1) == [(1, 0), (0, 1)]
