from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from jacobi_mv import _linalg
from jacobi_mv._linalg import ONE, ZERO


def _m(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _eliminated(a):
    """_eliminate on a's primitive integer rows: its rows as Fractions, each
    pivot row scaled to 1 at its pivot, and the pivot columns."""
    m = [_linalg._primitive(nums) for nums, _ in _linalg.integer_rows(a)]
    pivots = _linalg._eliminate(m, len(m[0]) if m else 0)
    scales = [row[c] for row, c in zip(m, pivots)] + [1] * (len(m) - len(pivots))
    return [[Fraction(x, s) for x in row] for row, s in zip(m, scales)], pivots


def test_eliminate_pivots_and_rank():
    reduced, pivots = _eliminated(_m([[1, 2], [2, 4]]))
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
    # zip(*a) stops at the shortest row: a ragged or non-square a is refused
    # by its row lengths
    assert not _linalg.is_symmetric(_m([[1, 2], [2]]))
    assert not _linalg.is_symmetric(_m([[1, 2]]))
    assert _linalg.is_symmetric(tuple(map(tuple, _m([[1, 2], [2, 3]]))))


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


_MONOMIALS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@st.composite
def _atomic_gram(draw):
    """The Gram sum_t w_t v(x_t) v(x_t)^T of the monomials of degree <= 2 in
    R^2 over a few rational atoms x_t with weights w_t > 0.

    The atoms are drawn from a small set, so they repeat, and there may be
    fewer of them than monomials: many of the Grams are rank-deficient.
    """
    size = draw(st.integers(1, len(_MONOMIALS)))
    coordinate = st.sampled_from([Fraction(p, q) for p in range(-2, 3) for q in (1, 3)])
    atoms = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=7))
    weights = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in atoms]
    values = [[x**i * y**j for i, j in _MONOMIALS[:size]] for x, y in atoms]
    return [
        [sum((w * v[i] * v[k] for w, v in zip(weights, values)), ZERO) for k in range(size)]
        for i in range(size)
    ]


@settings(max_examples=60, deadline=None)
@given(_atomic_gram())
def test_rank_is_the_psd_certificate_rank_on_atomic_grams(gram):
    # rank runs _eliminate's pivot rule and ldlt_psd the symmetric one, on
    # the one shared row update
    report = _linalg.ldlt_psd(gram)
    assert report.psd
    assert _linalg.rank(gram) == report.rank == len(_dense_rref(gram)[1])


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
    """The Gauss-Jordan loop in Fractions, the reference for _eliminate's integer rows."""
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

    The lcm of a row's denominators is large, so the integer rows of
    _eliminate grow before their content is divided out.
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
def test_eliminate_on_sparse_input_matches_the_dense_loop(a):
    # the rows without a pivot are zero, as the dense loop's are
    assert _eliminated(a) == _dense_rref(a)
    assert _linalg.rank(a) == len(_dense_rref(a)[1])


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
        # an exact zero is the shared ZERO, with no Fraction built for it
        assert total is ZERO


def _congruence_ldlt(a):
    """The Fraction congruence loop with C tracked, the reference for ldlt_psd.

    M = C^T A C is reduced in place; a negative pivot at k gives the witness
    C e_k, and a remaining block with zero diagonal but an off-diagonal
    s = M[i][j] gives C(e_i -+ e_j).
    """
    n = len(a)
    m = _linalg.copy(a)
    c = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    remaining = list(range(n))
    pivots = []
    while remaining:
        k = next((i for i in remaining if m[i][i] != 0), None)
        if k is None:
            for i in remaining:
                for j in remaining:
                    if i < j and m[i][j] != 0:
                        sign = Fraction(-1) if m[i][j] > 0 else Fraction(1)
                        witness = tuple(c[r][i] + sign * c[r][j] for r in range(n))
                        return False, len(pivots), witness
            break
        pivot = m[k][k]
        if pivot < 0:
            return False, len(pivots), tuple(c[r][k] for r in range(n))
        pivots.append(pivot)
        remaining.remove(k)
        for i in remaining:
            if m[i][k] != 0:
                f = m[i][k] / pivot
                for r in range(n):
                    m[r][i] -= f * m[r][k]
                for r in range(n):
                    m[i][r] -= f * m[k][r]
                for r in range(n):
                    c[r][i] -= f * c[r][k]
    return True, len(pivots), None


_small = st.fractions(min_value=-6, max_value=6, max_denominator=30)


@st.composite
def _ldlt_inputs(draw):
    """A symmetric matrix of size <= 7 with denominators up to 30, of one kind.

    gram: a Gram of fewer rows, PSD and often singular; hollow: zero
    diagonal; negative, off-diagonal, singular: L D L^T with L unit lower
    triangular and D holding one negative entry, a trailing [[0, s], [s, 0]]
    block after positive pivots, or zeros among positive pivots; these
    reach the negative-pivot witness, the off-diagonal witness and a PSD
    rank below n.  symmetric: anything.
    """
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(
        ["gram", "hollow", "negative", "off-diagonal", "singular", "symmetric"]
    ))
    if kind == "gram":
        rows = [[draw(_small) for _ in range(n)] for _ in range(draw(st.integers(1, n)))]
        return kind, _linalg.mat_mul(_linalg.transpose(rows), rows), None
    if kind in ("hollow", "symmetric"):
        a = _linalg.zeros(n, n)
        for i in range(n):
            for j in range(i, n):
                if i != j or kind == "symmetric":
                    a[i][j] = a[j][i] = draw(_small)
        return kind, a, None
    positive = st.fractions(min_value=Fraction(1, 30), max_value=6, max_denominator=30)
    d = [draw(positive) for _ in range(n)]
    block = None
    if kind == "negative":
        d[draw(st.integers(0, n - 1))] *= -1
    elif kind == "singular":
        for k in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            d[k] = ZERO
    elif n >= 2:
        block = draw(st.integers(0, n - 2))  # pivots before it, zeros after it
        d[block] = d[block + 1] = ZERO
        for k in range(block + 2, n):
            d[k] = ZERO
    middle = _linalg.zeros(n, n)
    for k in range(n):
        middle[k][k] = d[k]
    if block is not None:
        s = draw(_small.filter(bool))
        middle[block][block + 1] = middle[block + 1][block] = s
    # below a hollow block L is the identity, so the Schur complement of
    # the pivots before it is D's trailing part itself
    mixed = n if block is None else block
    lower = [
        [ONE if i == j else draw(_small) if j < min(i, mixed) else ZERO for j in range(n)]
        for i in range(n)
    ]
    return kind, _linalg.mat_mul(_linalg.mat_mul(lower, middle), _linalg.transpose(lower)), block


@settings(max_examples=250, deadline=None)
@given(_ldlt_inputs())
def test_ldlt_psd_on_integer_rows_is_the_congruence_loop(case):
    kind, a, block = case
    report = _linalg.ldlt_psd(a)
    expected = _congruence_ldlt(a)
    assert (report.psd, report.rank, report.witness) == expected
    # the error text prints the witness: same entries, same types
    assert repr(report.witness) == repr(expected[2])
    if kind in ("gram", "singular"):
        assert report.psd
    if kind == "negative":
        assert not report.psd
    if kind == "off-diagonal" and block is not None:
        # the pivots before the block, then the witness C(e_i -+ e_j) on it
        assert (report.psd, report.rank) == (False, block)
        assert report.witness[block] == 1 and abs(report.witness[block + 1]) == 1


def test_ldlt_psd_reaches_each_witness_branch():
    # a trailing hollow block after a positive pivot: C(e_1 - e_2) with the
    # pivot part solving G[P,P] x = -G[P,k]
    lower = _m([[1, 0, 0], [Fraction(1, 2), 1, 0], [-3, 0, 1]])
    middle = _m([[2, 0, 0], [0, 0, 5], [0, 5, 0]])
    a = _linalg.mat_mul(_linalg.mat_mul(lower, middle), _linalg.transpose(lower))
    report = _linalg.ldlt_psd(a)
    assert (report.psd, report.rank, report.witness) == _congruence_ldlt(a)
    assert report.rank == 1 and report.witness[1:] == (Fraction(1), Fraction(-1))
    # a negative pivot after a positive one
    a = _m([[4, 2], [2, -1]])
    report = _linalg.ldlt_psd(a)
    assert (report.psd, report.rank, report.witness) == (False, 1, (Fraction(-1, 2), Fraction(1)))
    assert (report.psd, report.rank, report.witness) == _congruence_ldlt(a)


@given(st.data())
def test_solve_ratios_is_solve_consistent_on_integers(data):
    n = data.draw(st.integers(1, 6))
    aug = data.draw(_matrices(cols=n + data.draw(st.integers(1, 3))))
    a = [row[:n] for row in aug]
    b = [row[n:] for row in aug]
    expected = _linalg.solve_consistent(a, b)
    got = _linalg.solve_ratios(
        _linalg.integer_rows(a), [[x.as_integer_ratio() for x in row] for row in b]
    )
    if expected is None:
        assert got is None
    else:
        assert got == [[x.as_integer_ratio() for x in row] for row in expected]


@st.composite
def _diagonal_system(draw):
    """A square diagonal A of positive, negative and zero entries, as integer
    rows, and a right-hand side of 0 to 4 columns whose rows at A's zero
    entries are zero unless the system is meant to be inconsistent."""
    n = draw(st.integers(1, 6))
    entries = [draw(st.sampled_from(["positive", "negative", "zero"])) for _ in range(n)]
    diagonal = [
        ZERO if kind == "zero"
        else Fraction(draw(st.integers(1, 40)) * (-1 if kind == "negative" else 1),
                      draw(st.integers(1, 12)))
        for kind in entries
    ]
    a = [[diagonal[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    width = draw(st.integers(0, 4))
    inconsistent = draw(st.booleans())
    b = [
        [
            draw(_small) if diagonal[i] or inconsistent else ZERO
            for _ in range(width)
        ]
        for i in range(n)
    ]
    if draw(st.booleans()):
        b[draw(st.integers(0, n - 1))] = [ZERO] * width  # a zero row
    return a, b


@settings(max_examples=300, deadline=None)
@given(_diagonal_system())
def test_solve_ratios_on_a_diagonal_system_is_the_elimination(case):
    # the diagonal path gives the elimination's exact ratios, or None with it
    a, b = case
    rows = _linalg.integer_rows(a)
    ratios = [[x.as_integer_ratio() for x in row] for row in b]
    assert _linalg.is_diagonal([nums for nums, _ in rows])
    got = _linalg.solve_ratios(rows, ratios)
    assert got == _linalg._solve_eliminated(rows, ratios)
    consistent = all(a[i][i] or not any(b[i]) for i in range(len(a)))
    assert (got is not None) == consistent
    if got is not None:
        for i, row in enumerate(got):
            for k, (p, q) in enumerate(row):
                assert q > 0 and gcd(p, q) == 1
                assert a[i][i] * Fraction(p, q) == b[i][k]


def test_a_dense_matrix_is_not_taken_for_diagonal():
    assert not _linalg.is_diagonal([[1, 0], [1, 1]])
    assert not _linalg.is_diagonal([[1, 0, 0], [0, 1, 2], [0, 0, 1]])
    assert not _linalg.is_diagonal([[1, 0], [0, 1], [0, 0]])  # not square
    assert _linalg.is_diagonal([[0, 0], [0, -3]])
    # the same test on Fraction rows, as the CLI's csv check makes it
    assert _linalg.is_diagonal(_m([[Fraction(1, 2), 0], [0, 0]]))
    assert not _linalg.is_diagonal(_m([[1, 0], [Fraction(1, 3), 1]]))
    assert not _linalg.is_diagonal(_m([[1, 0, 0], [0, 1, 0]]))  # not square


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([ZERO, ONE, Fraction(-2, 3), Fraction(5, 7), Fraction(-1)]),
                min_size=1, max_size=7))
def test_ldlt_psd_on_a_diagonal_matrix_is_the_elimination(diagonal):
    # same psd, rank and witness bytes as the symmetric elimination
    n = len(diagonal)
    a = [[diagonal[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    report = _linalg.ldlt_psd(a)
    rows = [_linalg._primitive(nums) for nums, _ in _linalg.integer_rows(a)]
    expected = _linalg._ldlt_eliminated(a, rows)
    assert report == expected
    assert repr(report.witness) == repr(expected.witness)
    assert report.psd == all(x >= 0 for x in diagonal)
    assert (report.psd, report.rank, report.witness) == _congruence_ldlt(a)
    # the pivots are the nonzero diagonal entries before the first negative one
    first = next((k for k, x in enumerate(diagonal) if x < 0), n)
    assert report.pivots == tuple(k for k in range(first) if diagonal[k])


@st.composite
def _psd_system(draw):
    """A PSD matrix, an atomic Gram or the Gram of 1 to n rational rows (so
    often singular), and a right-hand side in its range: A Y for a drawn Y
    of 1 to 3 columns."""
    if draw(st.booleans()):
        a = draw(_atomic_gram())
    else:
        n = draw(st.integers(1, 6))
        rows = [[draw(_small) for _ in range(n)] for _ in range(draw(st.integers(1, n)))]
        a = _linalg.mat_mul(_linalg.transpose(rows), rows)
    width = draw(st.integers(1, 3))
    y = [[draw(_small) for _ in range(width)] for _ in a]
    return a, _linalg.mat_mul(a, y)


@settings(max_examples=150, deadline=None)
@given(_psd_system())
def test_the_solve_on_the_pivots_of_a_psd_matrix_is_the_full_solve(case):
    # on a PSD matrix the symmetric pivots are the Gauss-Jordan pivot
    # columns, and for a right-hand side in the range the solve of
    # A[P, P] on the rows P is the full solve with its free variables at 0
    a, b = case
    rows = _linalg.integer_rows(a)
    kept = [(list(nums), den) for nums, den in rows]
    report = _linalg.ldlt_psd(a, rows)
    assert rows == kept  # read, never written
    assert report == _linalg.ldlt_psd(a)
    pivots = _eliminated(a)[1]
    assert report.psd and report.pivots == tuple(pivots)
    ratios = [[x.as_integer_ratio() for x in row] for row in b]
    expected = [[(0, 1)] * len(b[0]) for _ in a]
    if pivots:
        solved = _linalg.solve_ratios(
            _linalg.principal_rows(rows, pivots), [ratios[p] for p in pivots]
        )
        for p, x in zip(pivots, solved):
            expected[p] = x
    assert _linalg.solve_ratios(rows, ratios) == expected
