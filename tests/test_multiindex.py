from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import jacobi_mv
from jacobi_mv.errors import InvalidDimensionError, InvalidIndexError
from jacobi_mv import multiindex
from jacobi_mv.multiindex import (
    MAX_DIMENSION,
    MEMO_ENTRIES,
    SizedMemo,
    _compositions,
    canonical_key,
    check_index,
    class_count,
    degree,
    enumerate_classes,
    factorial_of,
    representative_tuple,
)
from jacobi_mv.polyring import monomial_basis


def test_degree_and_factorial():
    assert degree((2, 0, 1)) == 3
    assert degree(()) == 0
    assert factorial_of((3, 2)) == 12
    assert factorial_of((0, 0)) == 1


def test_representative_is_weakly_increasing_and_inverts_occupation():
    rep = representative_tuple((2, 0, 1))
    assert rep == (1, 1, 3)
    assert list(rep) == sorted(rep)
    # the occupation vector counts each letter of the tuple
    assert tuple(rep.count(letter) for letter in (1, 2, 3)) == (2, 0, 1)


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
    for call in ("enumerate_classes(2, 2.5)", "monomial_basis(2, 2.5)"):
        done = subprocess.run(
            [sys.executable, "-c",
             "from jacobi_mv.errors import InvalidIndexError\n"
             "from jacobi_mv.multiindex import enumerate_classes\n"
             "from jacobi_mv.polyring import monomial_basis\n"
             "try:\n"
             f"    {call}\n"
             "except InvalidIndexError as exc:\n"
             "    print(exc)\n"],
            capture_output=True, text=True, timeout=30, preexec_fn=_limit_memory,
            env=dict(os.environ, PYTHONPATH=str(Path(jacobi_mv.__file__).resolve().parent.parent)),
        )
        assert (done.returncode, done.stdout) == (0, "degree must be an integer, got 2.5\n"), done.stderr


def test_bool_and_float_degrees_are_refused():
    # before, a bool degree was enumerated as the int it is to Python and
    # class_count(2, True) was 2; a float degree raised a bare TypeError
    for call in (
        lambda: enumerate_classes(2, True),
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
    # classes of degree 1 as they are; before, a bool passed as a dimension:
    # enumerate_classes(True, 2) was ((2,),)
    with pytest.raises(InvalidDimensionError):
        monomial_basis(True, 1.0)
    for call in (lambda: enumerate_classes(True, 2), lambda: enumerate_classes(2.0, 1)):
        with pytest.raises(InvalidDimensionError, match="^dimension must be an integer, got"):
            call()
    with pytest.raises(InvalidDimensionError, match=r"^dimension must be a positive integer, got 0$"):
        enumerate_classes(0, 1)
    # class_count and monomial_basis take the gate of enumerate_classes:
    # before, class_count(0, 1) raised a bare ValueError from math.comb,
    # class_count(1.5, 1) a bare TypeError, class_count(True, 2) was 1, and
    # a negative degree gave 0 classes and an empty basis
    for call, message in (
        (lambda: class_count(0, 1), "dimension must be a positive integer, got 0"),
        (lambda: class_count(1.5, 1), "dimension must be an integer, got 1.5"),
        (lambda: class_count(True, 2), "dimension must be an integer, got True"),
    ):
        with pytest.raises(InvalidDimensionError, match=f"^{re.escape(message)}$"):
            call()
    for call in (lambda: class_count(2, -1), lambda: monomial_basis(2, -1), lambda: enumerate_classes(2, -1)):
        with pytest.raises(InvalidIndexError, match=r"^degree must be non-negative, got -1$"):
            call()
    assert enumerate_classes(2, 1).classes == ((1, 0), (0, 1))


def test_the_dimension_is_capped_before_anything_is_built(monkeypatch):
    # before, nothing bounded d: the graded index of d = 8000 at N = 0 held
    # 32 million bits of unit codes, and a family spec of d = 10^9 began a
    # tuple of 10^9 weights before any functional checked d
    import jacobi_mv.orthodecomp as orthodecomp
    from jacobi_mv.closed_forms import family_spec
    from jacobi_mv.moments import atomic_functional, gaussian_functional, table_functional
    from jacobi_mv.polyring import Polynomial

    built = []
    # the memos of the class bases and graded indexes build nothing
    monkeypatch.setattr(multiindex._class_basis, "_build", lambda *key: built.append(key))
    monkeypatch.setattr(orthodecomp._graded_index, "_build", lambda *key: built.append(key))
    cap = MAX_DIMENSION
    assert class_count(cap, 1) == cap
    assert gaussian_functional(cap).d == family_spec("hermite", d=cap).d == cap
    over = cap + 1
    for call in (
        lambda: enumerate_classes(over, 0),
        lambda: class_count(over, 0),
        lambda: monomial_basis(over, 0),
        lambda: orthodecomp.graded_index(over, 0),
        lambda: Polynomial(over, {}),
        lambda: gaussian_functional(over),
        lambda: table_functional(over, 0, {}),
        lambda: atomic_functional([((0,) * over, 1)]),
        lambda: family_spec("hermite", d=over),
        lambda: family_spec("jacobi", a=[0] * over, b=[0] * over),
        lambda: family_spec("hermite", d=10**9),
    ):
        with pytest.raises(InvalidDimensionError, match=rf"^dimension must be at most {cap}, got \d+$"):
            call()
    assert built == []
