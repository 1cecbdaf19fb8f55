from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def _dense_rref(a):
    """The Gauss-Jordan loop in Fractions, the reference for rref's integer rows."""
    m = _linalg.copy(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


@st.composite
def _sparse(draw, rows=None, cols=None):
    """A rows x cols rational matrix with at least half of its entries zero."""
    rows = rows or draw(st.integers(1, 5))
    cols = cols or draw(st.integers(1, 6))
    size = rows * cols
    zeros = draw(st.sets(st.integers(0, size - 1), min_size=(size + 1) // 2, max_size=size))
    flat = [
        ZERO if k in zeros
        else Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 5)))
        for k in range(size)
    ]
    return [flat[r * cols : (r + 1) * cols] for r in range(rows)]


_PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


@st.composite
def _dense(draw, rows=None, cols=None):
    """A matrix with no zero entry whose denominators are primes up to 97.

    The lcm of a row's denominators is large, so the integer rows of rref
    grow before their content is divided out.
    """
    rows = rows or draw(st.integers(1, 5))
    cols = cols or draw(st.integers(1, 6))
    return [
        [
            Fraction(draw(st.integers(-97, 97).filter(bool)), draw(st.sampled_from(_PRIMES)))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


@st.composite
def _deficient(draw, rows=None, cols=None):
    """A rank-deficient matrix: some rows are rational combinations of others.

    The dependent rows are placed among the independent ones in any order,
    so a pivot search meets them before, between and after their sources.
    """
    rows = rows or draw(st.integers(2, 5))
    cols = cols or draw(st.integers(1, 6))
    sources = draw(st.integers(1, rows - 1))
    base = draw(st.one_of(_sparse(sources, cols), _dense(sources, cols)))
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    columns = _linalg.transpose(base)
    combos = [
        _linalg.mat_vec(columns, draw(st.lists(coefficient, min_size=sources, max_size=sources)))
        for _ in range(rows - sources)
    ]
    order = draw(st.permutations(range(rows)))
    return [(base + combos)[i] for i in order]


def _matrices(rows=None, cols=None):
    return st.one_of(_sparse(rows, cols), _dense(rows, cols), _deficient(rows, cols))


@given(_matrices())
def test_rref_on_sparse_input_matches_the_dense_loop(a):
    reduced, pivots = _linalg.rref(a)
    assert (reduced, pivots) == _dense_rref(a)
    assert all(type(x) is Fraction for row in reduced for x in row)


@given(st.data())
def test_solve_consistent_on_sparse_input_matches_the_dense_loop(data):
    # drawing [A | B] whole makes the rank-deficient draws consistent singular systems
    n = data.draw(st.integers(1, 6))
    aug = data.draw(_matrices(cols=n + data.draw(st.integers(1, 3))))
    a = [row[:n] for row in aug]
    b = [row[n:] for row in aug]
    reduced, pivots = _dense_rref(aug)
    expected = None
    if all(p < n for p in pivots):
        expected = _linalg.zeros(n, len(b[0]))
        for r, c in enumerate(pivots):
            expected[c] = reduced[r][n:]
    assert _linalg.solve_consistent(a, b) == expected


_entries = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-20, max_value=20, max_denominator=97),
)


@given(st.lists(st.tuples(_entries, _entries), max_size=8), st.booleans())
def test_sum_of_products_is_the_normalized_exact_sum(pairs, cancel):
    if cancel:
        # every term meets its negation, so the sum is zero
        pairs = pairs + [(-x, y) for x, y in pairs]
    total = _linalg.sum_of_products(pairs)
    assert type(total) is Fraction
    assert total == sum((Fraction(x) * y for x, y in pairs), ZERO)
    assert total.denominator > 0 and gcd(total.numerator, total.denominator) == 1
    if cancel:
        assert total == 0 and total.denominator == 1
