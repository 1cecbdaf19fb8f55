from __future__ import annotations

from fractions import Fraction

from hypothesis import given, strategies as st

from jacobi_mv import _linalg
from jacobi_mv._linalg import ZERO


def _m(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_and_rank():
    reduced, pivots = _linalg.rref(_m([[1, 2], [2, 4]]))
    assert pivots == [0]
    assert reduced[0] == [Fraction(1), Fraction(2)]
    assert reduced[1] == [Fraction(0), Fraction(0)]
    assert _linalg.rank(_m([[1, 2], [2, 4]])) == 1
    assert _linalg.rank(_m([[1, 0], [0, 1]])) == 2
    assert _linalg.rank([]) == 0


def test_solve_consistent_unique():
    a = _m([[2, 0], [0, 3]])
    x = _linalg.solve_consistent(a, _m([[4], [6]]))
    assert x == _m([[2], [2]])


def test_solve_consistent_underdetermined_sets_free_vars_to_zero():
    # x + y = 1 has many solutions; the deterministic choice is y = 0
    a = _m([[1, 1]])
    x = _linalg.solve_consistent(a, _m([[1]]))
    assert x == _m([[1], [0]])


def test_solve_consistent_inconsistent_returns_none():
    a = _m([[1, 1], [1, 1]])
    assert _linalg.solve_consistent(a, _m([[1], [2]])) is None
    assert _linalg.solve_consistent(_m([[0]]), _m([[1]])) is None


def test_ldlt_psd_accepts_psd_and_reports_rank():
    report = _linalg.ldlt_psd(_m([[2, 1], [1, 2]]))
    assert report.psd and report.rank == 2
    report = _linalg.ldlt_psd(_m([[1, 1], [1, 1]]))
    assert report.psd and report.rank == 1
    report = _linalg.ldlt_psd(_m([[0, 0], [0, 0]]))
    assert report.psd and report.rank == 0


def test_ldlt_psd_negative_direction_witness():
    a = _m([[1, 2], [2, 1]])  # eigenvalues 3 and -1
    report = _linalg.ldlt_psd(a)
    assert not report.psd
    v = report.witness
    value = sum(v[i] * a[i][j] * v[j] for i in range(2) for j in range(2))
    assert value < 0


def test_ldlt_psd_degenerate_off_diagonal_witness():
    # zero diagonal with nonzero off-diagonal cannot be PSD
    a = _m([[0, 1], [1, 0]])
    report = _linalg.ldlt_psd(a)
    assert not report.psd
    v = report.witness
    value = sum(v[i] * a[i][j] * v[j] for i in range(2) for j in range(2))
    assert value < 0


def test_string_matrix_round_trip():
    a = _m([[Fraction(1, 2), 0], [3, Fraction(-7, 5)]])
    strings = _linalg.to_string_matrix(a)
    assert strings == [["1/2", "0"], ["3", "-7/5"]]


def test_predicates():
    assert _linalg.is_diagonal(_m([[1, 0], [0, 5]]))
    assert not _linalg.is_diagonal(_m([[1, 1], [0, 5]]))
    assert _linalg.is_symmetric(_m([[1, 2], [2, 3]]))
    assert not _linalg.is_symmetric(_m([[1, 2], [3, 4]]))
    assert _linalg.is_zero_matrix(_m([[0, 0]]))
    assert not _linalg.is_zero_matrix(_m([[0, 1]]))


@st.composite
def _square(draw, n=3):
    return [
        [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))) for _ in range(n)]
        for _ in range(n)
    ]


@given(_square())
def test_gram_of_anything_is_psd(a):
    gram = _linalg.mat_mul(_linalg.transpose(a), a)
    report = _linalg.ldlt_psd(gram)
    assert report.psd
    assert report.rank == _linalg.rank(a)


@st.composite
def _symmetric(draw):
    """A Gram (PSD, often singular), a symmetrized square, or one with zero diagonal.

    The last kind reaches the branch of ldlt_psd that finds no nonzero pivot.
    """
    n = draw(st.integers(1, 4))
    a = draw(_square(n))
    kind = draw(st.sampled_from(["gram", "sum", "hollow"]))
    if kind == "gram":
        rows = a[: draw(st.integers(1, n))]
        return _linalg.mat_mul(_linalg.transpose(rows), rows)
    return [
        [ZERO if kind == "hollow" and i == j else a[i][j] + a[j][i] for j in range(n)]
        for i in range(n)
    ]


@given(_symmetric())
def test_ldlt_psd_certificate_on_any_symmetric_matrix(a):
    n = len(a)
    report = _linalg.ldlt_psd(a)
    if report.psd:
        assert report.rank == _linalg.rank(a)
        for mask in range(1, 2**n):
            rows = [i for i in range(n) if mask >> i & 1]
            assert _det([[a[i][j] for j in rows] for i in rows]) >= 0
    else:
        x = report.witness
        assert sum(x[i] * a[i][j] * x[j] for i in range(n) for j in range(n)) < 0


def _det(a):
    """Laplace expansion along the first row; fine for n <= 4."""
    if not a:
        return Fraction(1)
    return sum(
        (-1) ** j * a[0][j] * _det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
    )


@given(_square())
def test_solve_consistent_solves_when_it_claims_to(a):
    rhs = [[Fraction(1)], [Fraction(2)], [Fraction(0)]]
    x = _linalg.solve_consistent(a, rhs)
    if x is not None:
        assert _linalg.mat_mul(a, x) == rhs


@given(_square(), _square())
def test_transpose_of_product(a, b):
    left = _linalg.transpose(_linalg.mat_mul(a, b))
    right = _linalg.mat_mul(_linalg.transpose(b), _linalg.transpose(a))
    assert left == right
