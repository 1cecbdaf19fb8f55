"""Exact rational dense linear algebra.

Matrices are lists of rows of Fractions.  Everything here is tolerance-free:
a pivot is zero exactly when it equals Fraction(0), so ranks, kernels and
positive-semidefiniteness certificates are decidable.

The exact kernels work in Python integers and build a Fraction only for
each result, because Fraction arithmetic normalizes by a gcd on every
operation:

* sum_of_products: the sum of x*y over (x, y) pairs, kept as one integer
  numerator over the running lcm of the term denominators and normalized
  once at the end.  mat_mul and mat_vec use it on the nonzero entries
  only: each row of the left factor (or the vector) has its nonzero
  entries collected once, and only those are paired.  The moment
  pairings of orthodecomp do the same sum on integer columns of their own
  (orthodecomp.MomentMatrix.pair_code), so they skip the per-term conversion.
  Both return the shared ZERO for an exact zero, so no Fraction is built
  for it.

* _clear_column: the one row update, which both eliminations share.
  Each row is cleared of its denominators once; an update is
  p*row_i - f*row_r with p the pivot and f the entry to clear, both
  divided by gcd(p, f), and the new row is divided by its content.  Every
  integer row is a nonzero multiple of the row the rational loop would
  hold, so the zero entries, hence the pivots and the inconsistency test,
  are the rational loop's.  _eliminate (Gauss-Jordan) pivots on the first
  row at or below the current one with a nonzero entry in the column; its
  reduced form is unique, so what is read off the rows is the rational
  loop's byte for byte.  rank counts its pivots, and jacobi_sequences
  reads alpha off its reduced rows, made primitive from the integer rows
  that decompose kept for the level Gram (principal_rows), on copies,
  since the elimination writes rows in place.  ldlt_psd pivots on the first
  remaining nonzero diagonal entry.

The solves and the certificate built on it:

* solve_ratios: Gauss-Jordan solve of A X = B with free variables pinned
  to 0, A given as integer rows over a denominator (integer_rows) and B
  and X as integer ratios.  The augmented rows are eliminated in A's
  columns only, by _eliminate, and no Fraction is built.  The
  deterministic pivot choice makes every downstream matrix reproducible
  byte-for-byte.  Returns None when the system is inconsistent.  The
  projections of orthodecomp.decompose, the top-level solves of
  cap_operators.build and the stacked adjoint systems of the
  reconstruction ladder (jacobi_sequences) run on it, on integer rows;
  decompose's, for a positive functional, on the principal rows of a
  level Gram at its PSD pivots (principal_rows).
  A square A that is zero off its diagonal, as every level Gram of a
  product weight's moment table is, and every Omega_n of a product weight
  in the reconstruction ladder, takes no elimination: each entry of X is
  B[i][k] / A[i][i], reduced once, and a zero diagonal entry leaves its
  unknown 0 and its equation consistent only when B's row vanishes.  The
  test (is_diagonal) is C-level any() over each row's two off-diagonal
  slices, so a dense A is refused at its first row.  When a caller's
  stacked solve is refused, first_inconsistent solves its systems one at
  a time, in the caller's order, to name the first that fails.

* solve_consistent: the same solve on Fraction matrices.  It runs
  solve_ratios on A's integer rows and B's integer ratios and builds a
  Fraction only for each nonzero entry of X.  No library code calls it any
  more: it is the reference the tests compare the integer paths against,
  and the benchmark's traced linalg.solve_consistent span.

* ldlt_psd: symmetric Gaussian elimination with diagonal pivoting on
  primitive integer rows, each a positive multiple of the rational row, so
  every sign it tests is the rational Schur complement's.  It reads the
  matrix's integer rows from its caller when given (decompose forms each
  level Gram's once and keeps them), and copies them before it
  eliminates.  For a symmetric matrix it either certifies positive
  semidefiniteness (returning the exact rank and the pivots) or produces
  a witness vector x with x^T A x < 0.  On a PSD matrix the pivots are
  _eliminate's pivot columns, the first independent columns in index
  order, so a consistent solve restricted to them is the Gauss-Jordan
  solve with its free variables at 0.  The
  witness is C e_k (or C(e_i -+ e_j)) for the congruence C of the
  eliminated pivots, solved for only when the test fails.  A diagonal
  matrix is read off directly: PSD exactly when no diagonal entry is
  negative, of rank the number of nonzero ones, with the witness C e_k at
  the first negative index k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Vector = List[Fraction]
# A as integer rows over a denominator (integer_rows), and B or X as ratios
Rows = Sequence[Tuple[Sequence[int], int]]
Ratios = Sequence[Sequence[Tuple[int, int]]]
Solution = Optional[List[List[Tuple[int, int]]]]

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def copy(a: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(row) for row in a]


def transpose(a: Sequence[Sequence[Fraction]]) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    """a b, pairing each row's nonzero entries (collected once) with b's rows."""
    if a and b:
        assert len(a[0]) == len(b), "inner dimensions disagree"
    bt = transpose(b)
    out = []
    for row in a:
        support = [(k, x) for k, x in enumerate(row) if x]
        out.append([sum_of_products((col[k], x) for k, x in support) for col in bt])
    return out


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    """a v, pairing only the vector's nonzero entries, collected once."""
    support = [(k, x) for k, x in enumerate(v) if x]
    return [sum_of_products((row[k], x) for k, x in support) for row in a]


def sum_of_products(pairs: Iterable[Tuple[Fraction, Fraction]]) -> Fraction:
    """The exact sum of x*y over the pairs, as a normalized Fraction.

    Accumulates one integer numerator over the lcm of the term
    denominators seen so far; terms with a zero factor are skipped, and a
    zero sum returns the shared ZERO.
    """
    num, den = 0, 1
    for x, y in pairs:
        xn, xd = x.as_integer_ratio()
        if not xn:
            continue
        yn, yd = y.as_integer_ratio()
        if not yn:
            continue
        d = xd * yd
        if d == den:
            num += xn * yn
        else:
            g = gcd(den, d)
            num = num * (d // g) + xn * yn * (den // g)
            den = den // g * d
    return Fraction(num, den) if num else ZERO


def mat_add(a, b) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s) -> Matrix:
    return [[s * x for x in row] for row in a]


def is_symmetric(a) -> bool:
    """a is square and equals its transpose.

    One C-level comparison of its rows, as tuples, with its columns
    (zip(*a)); tuple equality takes an entry that is one object on both
    sides as equal without comparing it, so a Gram whose mirrored entries
    are shared, as decompose builds them, costs almost no Fraction
    comparison.
    """
    n = len(a)
    return all(map(n.__eq__, map(len, a))) and list(map(tuple, a)) == list(zip(*a))


def integer_rows(a: Sequence[Sequence[Fraction]]) -> List[Tuple[List[int], int]]:
    """Each row of a as integer numerators over the lcm of its denominators.

    The primitive form of a row's numerators (_primitive) is the primitive
    integer row that is a positive multiple of the row.
    """
    out = []
    for row in a:
        ratios = [x.as_integer_ratio() for x in row]
        den = _common_denominator(1, ratios)
        out.append(([p * (den // q) for p, q in ratios], den))
    return out


def principal_rows(rows: Rows, cols: Sequence[int]) -> Rows:
    """The integer rows of A[cols, cols] from A's integer rows (integer_rows),
    cols ascending: the rows themselves when cols are all of A's indices,
    so a caller that eliminates on them copies them first.

    Each row keeps its denominator, a multiple of the lcm of the entries
    kept, which every solve here takes as it takes the lcm itself.
    """
    if len(cols) == len(rows):
        return rows
    return [([nums[c] for c in cols], den) for nums, den in map(rows.__getitem__, cols)]


def _common_denominator(den: int, ratios: Iterable[Tuple[int, int]]) -> int:
    """The lcm of den and the denominators q of the (p, q) pairs.

    A loop, not math.lcm(*...): on the atomic benchmark workload the
    unpacked math.lcm call raised peak RSS by about 1 MB.
    """
    for _, q in ratios:
        if den % q:
            den = den // gcd(den, q) * q
    return den


def _primitive(row: List[int]) -> List[int]:
    content = gcd(*row)
    return [x // content for x in row] if content > 1 else row


def _ratio(p: int, q: int) -> Tuple[int, int]:
    """p/q in lowest terms with a positive denominator; q != 0."""
    g = gcd(p, q)
    if q < 0:
        g = -g
    return p // g, q // g


def _clear_column(m: List[List[int]], r: int, c: int, targets: Iterable[int]) -> None:
    """Clear column c of the target rows of m with pivot row r, in place.

    Each target i != r with f = m[i][c] nonzero becomes p*row_i - f*row_r,
    p = m[r][c] and f divided by gcd(p, f) first (Bareiss's step without
    its exact division), then _primitive.  With p > 0 each new row is a
    positive multiple of the rational row it stands for.
    """
    row = m[r]
    p = row[c]
    # the update leaves the pivot row's zeros alone
    support = [(k, x) for k, x in enumerate(row) if x]
    for i in targets:
        f = m[i][c]
        if f and i != r:
            g = gcd(p, f)
            scale, f = p // g, f // g
            target = [scale * x for x in m[i]] if scale != 1 else m[i]
            for k, x in support:
                target[k] -= f * x
            m[i] = _primitive(target)


def _eliminate(m: List[List[int]], stop: int) -> List[int]:
    """Gauss-Jordan elimination of integer rows in place; the pivot columns.

    Pivots are taken in the columns before stop, left to right, each in
    the first row at or below the current one with a nonzero entry there;
    pivot r is moved to row r and cleared from every other row
    (_clear_column).
    """
    rows = len(m)
    pivots: List[int] = []
    r = 0
    for c in range(stop):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        _clear_column(m, r, c, range(rows))
        pivots.append(c)
        r += 1
    return pivots


def is_diagonal(rows: Sequence[Sequence]) -> bool:
    """Whether the rows, of integers or Fractions, form a square matrix
    that is zero off its diagonal.  Each row is tested by C-level any() on
    its two slices, so a dense matrix is refused at its first row."""
    return len(rows) == len(rows[0]) and not any(
        any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(rows)
    )


def solve_ratios(a: Rows, b: Ratios) -> Solution:
    """solve_consistent on integers: A X = B with free variables set to 0.

    Row i of A is a[i] = (numerators, denominator), as integer_rows gives,
    and B[i][k] is the ratio b[i][k] = (p, q) with q > 0.  X[c][k] is
    returned as (p, q) in lowest terms with q > 0, (0, 1) for zero: the
    solution solve_consistent gives, with no Fraction built.  A diagonal A
    (is_diagonal) is solved row by row (_solve_diagonal); any other goes
    through _solve_eliminated.  Both give the same ratios, or both None.
    """
    if is_diagonal([nums for nums, _ in a]):
        return _solve_diagonal(a, b)
    return _solve_eliminated(a, b)


def solve_stacked(a: Rows, blocks: Sequence[Ratios]) -> Optional[List[Matrix]]:
    """Solve A X_t = B_t for every block B_t at once, the X_t as Fractions.

    The blocks are set side by side and solved by one solve_ratios; its row
    operations depend only on A, so each X_t is what its own solve gives.
    A Fraction is built only for each nonzero entry.  None when some system
    is inconsistent, [] for no blocks.
    """
    if not blocks:
        return []
    x = solve_ratios(a, [[v for b in blocks for v in b[i]] for i in range(len(a))])
    if x is None:
        return None
    out, s = [], 0
    for b in blocks:
        e = s + len(b[0])
        out.append([[Fraction(p, q) if p else ZERO for p, q in row[s:e]] for row in x])
        s = e
    return out


def _solve_diagonal(a: Rows, b: Ratios) -> Solution:
    """solve_ratios for a diagonal A: X[i][k] = B[i][k] den_i / nums_i[i],
    reduced once.  A zero diagonal entry leaves its unknown free, so 0, and
    its equation consistent only when B's row i vanishes; None otherwise.
    This is what the elimination gives: each pivot row is a multiple of its
    own row, and the rows without a pivot are the zero rows."""
    x = []
    for i, ((nums, den), ratios) in enumerate(zip(a, b)):
        g = nums[i]
        if g:
            x.append([_ratio(p * den, q * g) if p else (0, 1) for p, q in ratios])
        elif any(p for p, _ in ratios):
            return None
        else:
            x.append([(0, 1)] * len(ratios))
    return x


def _solve_eliminated(a: Rows, b: Ratios) -> Solution:
    """solve_ratios by Gauss-Jordan elimination, for any A.

    Each augmented row [A_i | B_i] is made one primitive integer row and
    eliminated in the columns of A only (_eliminate); the system is
    inconsistent, and None is returned, when a row left without a pivot has
    a nonzero entry in B.
    """
    n = len(a[0][0])
    m = []
    for (nums, den), ratios in zip(a, b):
        scale = _common_denominator(den, ratios)
        lift = scale // den
        m.append(_primitive(
            [x * lift for x in nums] + [p * (scale // q) if p else 0 for p, q in ratios]
        ))
    pivots = _eliminate(m, n)
    if any(any(row[n:]) for row in m[len(pivots):]):
        return None
    width = len(b[0]) if b else 0
    x = [[(0, 1)] * width for _ in range(n)]
    for row, c in zip(m, pivots):
        p = row[c]
        x[c] = [_ratio(v, p) if v else (0, 1) for v in row[n:]]
    return x


def rank(a: Sequence[Sequence[Fraction]]) -> int:
    """The exact rank of a: the number of _eliminate's pivots on its
    primitive integer rows."""
    if not a or not a[0]:
        return 0
    return len(_eliminate([_primitive(nums) for nums, _ in integer_rows(a)], len(a[0])))


def first_inconsistent(systems: Iterable[Tuple[object, Rows, Ratios]]) -> object:
    """The key of the first (key, a, b) that solve_ratios refuses, else None.

    The systems are solved one at a time, in the caller's order; a lazy
    iterable forms each only when it is reached.
    """
    return next((key for key, a, b in systems if solve_ratios(a, b) is None), None)


def solve_consistent(
    a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]
) -> Optional[Matrix]:
    """Solve A X = B exactly; free variables are set to 0.

    Returns the unique such X when the system is consistent, else None.
    B may have any number of columns; shapes are rows(A) x cols(B).  The
    solve is solve_ratios on A's integer rows and B's integer ratios, and
    a Fraction is built only for each nonzero entry of X.
    """
    rows = len(a)
    assert rows > 0, "solve_consistent needs at least one equation row"
    n = len(a[0])
    if len(b) != rows:
        raise AssertionError("right-hand side row count disagrees with A")
    if n == 0:
        # no unknowns: consistent iff B vanishes
        return [] if all(x == 0 for row in b for x in row) else None
    x = solve_ratios(integer_rows(a), [[v.as_integer_ratio() for v in row] for row in b])
    if x is None:
        return None
    return [[Fraction(p, q) if p else ZERO for p, q in row] for row in x]


@dataclass(frozen=True)
class PSDReport:
    """Outcome of the exact LDL^T positivity test.

    pivots are the indices eliminated, in the order they were taken, so
    rank == len(pivots); on a PSD matrix they ascend, and they are the
    pivot columns of _eliminate on it (see ldlt_psd).
    """

    psd: bool
    rank: int
    witness: Optional[tuple]  # x with x^T A x < 0 when psd is False
    pivots: Tuple[int, ...]


def ldlt_psd(a: Sequence[Sequence[Fraction]], rows: Optional[Rows] = None) -> PSDReport:
    """Certify PSD-ness of a symmetric matrix by symmetric Gaussian elimination.

    rows, when given, are a's integer rows (integer_rows), which a caller
    that keeps them for its own solves forms once; they are read, never
    written.  The pivot is the first remaining index with a nonzero
    diagonal entry; eliminating it leaves the Schur complement on the
    remaining indices.
    Each row is kept as a primitive integer row, a positive multiple of the
    rational row (integer_rows), and the remaining rows are cleared of the
    pivot column by _clear_column, whose pivot is positive here, so every
    sign read off a row is the sign of the Schur complement entry.  A negative pivot at
    index k yields the witness C e_k, where C is the congruence that
    diagonalizes the eliminated pivots: C e_k is 1 at k, 0 at the other
    indices that are not pivots, and solves G[P,P] x = -G[P,k] on the
    pivots P.  When all remaining diagonal entries are zero but some
    off-diagonal s = S[i][j] is not, C(e_i -+ e_j) is a witness since its
    quadratic value is -+2s.  The witness is formed only then.

    On a PSD matrix, a Gram of vectors v_i, the Schur diagonal at i is the
    squared norm of v_i less its projection on the pivots' vectors, and a
    zero one stays zero.  So the pivots are the first independent columns
    in index order, ascending, which are _eliminate's pivot columns;
    G[P,P] is invertible, and every column of G is a combination of G's
    columns at P.

    A diagonal matrix (is_diagonal) takes no elimination: the pivots are
    its nonzero diagonal entries in index order, so it is PSD exactly when
    none is negative, its rank is their number, and the witness is C e_k at
    the first negative index k.
    """
    n = len(a)
    assert is_symmetric(a), "ldlt_psd expects a symmetric matrix"
    m = [nums for nums, _ in (integer_rows(a) if rows is None else rows)]
    if n and is_diagonal(m):
        pivots = []
        for k, row in enumerate(m):
            if row[k] < 0:
                (witness,) = _congruence_columns(a, pivots, (k,))
                return PSDReport(False, len(pivots), tuple(witness), tuple(pivots))
            if row[k]:
                pivots.append(k)
        return PSDReport(True, len(pivots), None, tuple(pivots))
    # _clear_column may write a row in place, so each is copied first
    return _ldlt_eliminated(a, [_primitive(list(nums)) for nums in m])


def _ldlt_eliminated(a: Sequence[Sequence[Fraction]], m: List[List[int]]) -> PSDReport:
    """ldlt_psd by symmetric elimination of m, the primitive integer rows of a."""
    n = len(a)
    remaining = list(range(n))
    pivots: list[int] = []

    while remaining:
        k = next((i for i in remaining if m[i][i]), None)
        if k is None:
            # all remaining diagonal entries vanish
            for i in remaining:
                row = m[i]
                for j in remaining:
                    if i < j and row[j]:
                        ci, cj = _congruence_columns(a, pivots, (i, j))
                        sign = -1 if row[j] > 0 else 1
                        witness = tuple(x + sign * y for x, y in zip(ci, cj))
                        return PSDReport(False, len(pivots), witness, tuple(pivots))
            break  # remaining block is entirely zero: done
        if m[k][k] < 0:
            (witness,) = _congruence_columns(a, pivots, (k,))
            return PSDReport(False, len(pivots), tuple(witness), tuple(pivots))
        pivots.append(k)
        remaining.remove(k)
        _clear_column(m, k, k, remaining)

    return PSDReport(True, len(pivots), None, tuple(pivots))


def _congruence_columns(
    a: Sequence[Sequence[Fraction]], pivots: Sequence[int], ks: Sequence[int]
) -> List[Vector]:
    """C e_k for each k in ks, with the pivots P eliminated before k.

    It is 1 at k, 0 at every other index outside P, and x on P with
    G[P,P] x = -G[P,k]; G[P,P] is invertible, its pivots being nonzero.
    """
    x = solve_ratios(
        integer_rows([[a[p][q] for q in pivots] for p in pivots]),
        [[(-a[p][k]).as_integer_ratio() for k in ks] for p in pivots],
    ) if pivots else []
    columns = []
    for t, k in enumerate(ks):
        column = [ZERO] * len(a)
        column[k] = ONE
        for p, ratios in zip(pivots, x):
            column[p] = Fraction(*ratios[t]) if ratios[t][0] else ZERO
        columns.append(column)
    return columns


def to_string_matrix(a) -> list[list[str]]:
    """Render every entry as an exact "p/q" string (for JSON emission)."""
    return [[str(x) for x in row] for row in a]
