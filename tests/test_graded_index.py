"""What every stage may assume of the graded index of a (d, N).

The degree classes of each level, the monomial basis and the moment keys
are one fixed order; these tests pin that order, and that reading it in
one call leaves nothing behind for the next.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jacobi_mv
from jacobi_mv.errors import InsufficientMomentsError
from jacobi_mv.jacobi_sequences import compute_from_functional, reconstruct_moment_table
from jacobi_mv.moments import atomic_functional, gamma_functional, table_functional
from jacobi_mv.multiindex import _compositions, canonical_key, enumerate_classes
from jacobi_mv.orthodecomp import MomentMatrix, decompose, pack
from jacobi_mv.polyring import monomial_basis

SRC = Path(jacobi_mv.__file__).resolve().parent.parent


def test_classes_are_the_sorted_compositions_and_the_basis_their_concatenation():
    for d in range(1, 5):
        levels = []
        for n in range(7):
            classes = enumerate_classes(d, n).classes
            assert classes == tuple(sorted(_compositions(d, n), key=canonical_key))
            levels.extend(classes)
            assert monomial_basis(d, n) == levels


@pytest.mark.parametrize(
    "functional",
    [gamma_functional([0]), gamma_functional([0, Fraction(1, 2)]),
     gamma_functional([1, 2, Fraction(1, 3)])],
    ids=["d1", "d2", "d3"],
)
def test_moment_matrix_codes_and_positions_invert_the_basis(functional):
    for top in range(4):
        moments = MomentMatrix(functional, top)
        basis = moments.basis
        assert list(basis) == monomial_basis(functional.d, top)
        assert moments.radix == 2 * top + 2
        assert [moments.codes[a] for a in range(len(basis))] == [
            pack(beta, 2 * top + 2) for beta in basis
        ]
        assert len(moments.position) == len(moments.code_position) == len(basis)
        for a, beta in enumerate(basis):
            assert moments.position[beta] == a
            assert moments.code_position[moments.codes[a]] == a
        # the shift by e_j: code units[j], and below the top
        # degree the creation map up[j][a], the position of basis[a] + e_j
        index, d = moments.index, functional.d
        units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        assert list(index.units) == [pack(e, 2 * top + 2) for e in units]
        assert [len(row) for row in index.up] == [index.starts[top]] * d
        for j, e in enumerate(units):
            for a in range(index.starts[top]):
                assert basis[index.up[j][a]] == tuple(b + s for b, s in zip(basis[a], e))
                assert index.codes[index.up[j][a]] == index.codes[a] + index.units[j]
        assert index.entries() == d * (len(basis) + index.starts[top])


def test_returned_lists_are_the_callers_own():
    basis = monomial_basis(2, 2)
    basis.reverse()
    basis.clear()
    assert monomial_basis(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert enumerate_classes(2, 2).classes == ((2, 0), (1, 1), (0, 2))


def _everything(functional, top):
    """Plain data of decompose, compute_from_functional and
    reconstruct_moment_table at this top level."""
    dec = decompose(functional, top)
    levels = [(lv.n, lv.monomials, lv.gram, lv.rank, lv.null_mask) for lv in dec.levels]
    forms = [(f.terms, f.denominator) for f in dec.forms]
    seq = compute_from_functional(functional, top)
    pair = [
        (
            seq.classes(n),
            seq.omega_matrix(n),
            [seq.alpha_matrix(j, n) if seq.alpha_available(j, n) else None
             for j in range(1, seq.d + 1)],
        )
        for n in range(top + 1)
    ]
    table = list(reconstruct_moment_table(seq, top).items())
    return levels, forms, pair, table


def test_a_run_is_the_same_after_another_run_at_the_same_size():
    gamma = gamma_functional([Fraction(1, 2), Fraction(2, 3)])
    atoms = atomic_functional([
        (("0", "1"), "1/5"), (("1", "-1"), "1/5"), (("2", "1/2"), "1/5"),
        (("-1/3", "2"), "1/5"), (("3", "3"), "1/5"),
    ])
    first = _everything(gamma, 4)
    between = _everything(atoms, 4)
    again = _everything(gamma, 4)
    assert again == first
    # the class bases themselves, not only their classes
    assert [p[0] for p in again[2]] == [enumerate_classes(2, n) for n in range(5)]
    # the atoms' levels past n0 = 2 are null, unlike the gamma product's
    assert [rank for _, _, _, rank, _ in between[0]] == [1, 2, 2, 0, 0]


_HOLED = (
    "from jacobi_mv.errors import InsufficientMomentsError\n"
    "from jacobi_mv.jacobi_sequences import compute_from_functional\n"
    "from jacobi_mv.moments import atomic_functional, table_functional\n"
    "from jacobi_mv.polyring import monomial_basis\n"
    "atoms = atomic_functional([(('0', '1'), '1/4'), (('1', '-1'), '1/4'),"
    " (('2', '1/2'), '1/4'), (('-1/3', '2'), '1/4')])\n"
    "table = {b: atoms.moment(b) for b in monomial_basis(2, 5) if b != (1, 2)}\n"
    "try:\n"
    "    compute_from_functional(table_functional(2, 5, table), 2)\n"
    "except InsufficientMomentsError as exc:\n"
    "    print(exc)\n"
)


def test_a_table_with_a_hole_fails_alike_after_a_success_at_its_size():
    alone = subprocess.run(
        [sys.executable, "-c", _HOLED], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert alone.returncode == 0, alone.stderr
    assert alone.stdout == "moment (1, 2) is not in the table\n"
    atoms = atomic_functional([
        (("0", "1"), "1/4"), (("1", "-1"), "1/4"), (("2", "1/2"), "1/4"), (("-1/3", "2"), "1/4"),
    ])
    full = {beta: atoms.moment(beta) for beta in monomial_basis(2, 5)}
    compute_from_functional(table_functional(2, 5, full), 2)
    del full[(1, 2)]
    with pytest.raises(InsufficientMomentsError) as raised:
        compute_from_functional(table_functional(2, 5, full), 2)
    assert str(raised.value) + "\n" == alone.stdout
