"""Exact rational dense linear algebra.

Matrices are lists of rows of Fractions.  Everything here is tolerance-free:
a pivot is zero exactly when it equals Fraction(0), so ranks, kernels and
positive-semidefiniteness certificates are decidable.

The exact kernels work in Python integers and build a Fraction only for
each result, because Fraction arithmetic normalizes by a gcd on every
operation:

* sum_of_products: the sum of x*y over (x, y) pairs, kept as one integer
  numerator over the running lcm of the term denominators and normalized
  once at the end.  _dot (so mat_mul and mat_vec) uses it.  The moment
  pairings of orthodecomp do the same sum on integer columns of their own
  (orthodecomp.MomentMatrix.pair), so they skip the per-term conversion.

* rref: Gauss-Jordan elimination on integer rows.  Each row is cleared of
  its denominators once; an update is p*row_i - f*row_r with p the pivot
  and f the entry to clear, both divided by gcd(p, f), and the new row is
  divided by its content.  Every integer row is a nonzero multiple of the
  row the rational loop would hold, so the zero entries, hence the pivot
  choice (first row with a nonzero entry, scanning top-down), the pivots
  and the inconsistency test, are those of the rational loop.  Fractions
  are formed once, when the pivot rows are normalized; the reduced form is
  unique, so it is the rational loop's byte for byte.

Two workhorses:

* solve_consistent: Gauss-Jordan solve of A X = B with free variables pinned
  to 0.  The deterministic pivot choice makes every downstream matrix
  reproducible byte-for-byte.  Returns None when the system is inconsistent.

* ldlt_psd: symmetric congruence reduction with diagonal pivoting.  For a
  symmetric matrix it either certifies positive semidefiniteness (returning
  the exact rank) or produces a witness vector x with x^T A x < 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Vector = List[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[Fraction(1) if i == j else ZERO for j in range(n)] for i in range(n)]


def copy(a: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(row) for row in a]


def transpose(a: Sequence[Sequence[Fraction]]) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    if a and b:
        assert len(a[0]) == len(b), "inner dimensions disagree"
    bt = transpose(b)
    return [[_dot(row, col) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    return [_dot(row, v) for row in a]


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum_of_products(zip(u, v))


def sum_of_products(pairs: Iterable[Tuple[Fraction, Fraction]]) -> Fraction:
    """The exact sum of x*y over the pairs, as a normalized Fraction.

    Accumulates one integer numerator over the lcm of the term
    denominators seen so far; terms with a zero factor are skipped.
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
    return Fraction(num, den)


def mat_add(a, b) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s) -> Matrix:
    s = Fraction(s)
    return [[s * x for x in row] for row in a]


def mat_eq(a, b) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


def is_zero_matrix(a) -> bool:
    return all(x == 0 for row in a for x in row)


def is_symmetric(a) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n)
    )


def is_diagonal(a) -> bool:
    return all(x == 0 for i, row in enumerate(a) for j, x in enumerate(row) if i != j)


def _integer_row(row: Sequence[Fraction]) -> List[int]:
    """A primitive integer row that is a positive multiple of this one."""
    ratios = [x.as_integer_ratio() for x in row]
    den = 1
    for _, q in ratios:
        den = den // gcd(den, q) * q
    return _primitive([p * (den // q) for p, q in ratios])


def _primitive(row: List[int]) -> List[int]:
    content = gcd(*row)
    return [x // content for x in row] if content > 1 else row


def rref(a: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [_integer_row(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        row = m[r]
        p = row[c]
        # the update leaves the pivot row's zeros alone
        support = [(k, x) for k, x in enumerate(row) if x]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                g = gcd(p, f)
                scale, f = p // g, f // g
                target = [scale * x for x in m[i]] if scale != 1 else m[i]
                for k, x in support:
                    target[k] -= f * x
                m[i] = _primitive(target)
        pivots.append(c)
        r += 1
    reduced = [[Fraction(x, row[c]) if x else ZERO for x in row] for row, c in zip(m, pivots)]
    return reduced + zeros(rows - r, cols), pivots


def rank(a: Sequence[Sequence[Fraction]]) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def solve_consistent(
    a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]
) -> Optional[Matrix]:
    """Solve A X = B exactly; free variables are set to 0.

    Returns the unique such X when the system is consistent, else None.
    B may have any number of columns; shapes are rows(A) x cols(B).
    """
    rows = len(a)
    assert rows > 0, "solve_consistent needs at least one equation row"
    n = len(a[0])
    k = len(b[0]) if b and b[0] is not None else 0
    if len(b) != rows:
        raise AssertionError("right-hand side row count disagrees with A")
    if n == 0:
        # no unknowns: consistent iff B vanishes
        return [] if all(x == 0 for row in b for x in row) else None
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    reduced, pivots = rref(aug)
    if any(p >= n for p in pivots):
        return None
    x = zeros(n, k)
    for r, c in enumerate(pivots):
        x[c] = reduced[r][n:]
    return x


@dataclass(frozen=True)
class PSDReport:
    """Outcome of the exact LDL^T positivity test."""

    psd: bool
    rank: int
    pivots: tuple
    witness: Optional[tuple]  # x with x^T A x < 0 when psd is False


def ldlt_psd(a: Sequence[Sequence[Fraction]]) -> PSDReport:
    """Certify PSD-ness of a symmetric matrix by congruence reduction.

    Maintains M = C^T A C; at the end M is diagonal with the pivots on it,
    so a negative pivot at slot i yields the witness C e_i exactly.  When all
    remaining diagonal entries are zero but some off-diagonal s = M[i][j] is
    not, C(e_i -+ e_j) is a witness since its quadratic value is -+2s.
    """
    n = len(a)
    assert is_symmetric(a), "ldlt_psd expects a symmetric matrix"
    m = copy(a)
    c = identity(n)
    remaining = list(range(n))
    pivots: list[Fraction] = []

    while remaining:
        k = next((i for i in remaining if m[i][i] != 0), None)
        if k is None:
            # all remaining diagonal entries vanish
            for i in remaining:
                for j in remaining:
                    if i < j and m[i][j] != 0:
                        s = m[i][j]
                        sign = Fraction(-1) if s > 0 else Fraction(1)
                        witness = [
                            c[r][i] + sign * c[r][j] for r in range(n)
                        ]
                        return PSDReport(
                            psd=False,
                            rank=len(pivots),
                            pivots=tuple(pivots),
                            witness=tuple(witness),
                        )
            break  # remaining block is entirely zero: done
        pivot = m[k][k]
        if pivot < 0:
            witness = [c[r][k] for r in range(n)]
            return PSDReport(
                psd=False, rank=len(pivots), pivots=tuple(pivots), witness=tuple(witness)
            )
        pivots.append(pivot)
        remaining.remove(k)
        for i in remaining:
            if m[i][k] != 0:
                f = m[i][k] / pivot
                # column then row update keeps M symmetric; update C alongside
                for r in range(n):
                    m[r][i] -= f * m[r][k]
                for r in range(n):
                    m[i][r] -= f * m[k][r]
                for r in range(n):
                    c[r][i] -= f * c[r][k]

    return PSDReport(psd=True, rank=len(pivots), pivots=tuple(pivots), witness=None)


def to_string_matrix(a) -> list[list[str]]:
    """Render every entry as an exact "p/q" string (for JSON emission)."""
    return [[str(x) for x in row] for row in a]
