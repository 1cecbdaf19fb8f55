"""Graded orthogonal decomposition of polynomials against a moment functional.

For a moment functional phi, the polynomials up to a degree bound split as
P_0 + P_1 + ... + P_N where P_0 contains the constants and P_n is the
phi-orthogonal complement of the lower degrees inside degree <= n.  The
decomposition is computed degree by degree: the basis vector attached to a
degree-n monomial x^beta is

    b_beta = x^beta - (projection onto P_0 + ... + P_{n-1})

so every b_beta is monic with leading monomial x^beta.  The pairing
phi(p*q) may be degenerate; projections then solve the (singular) Gram
systems with free variables set to zero, one elimination per lower level
for all monomials of a degree.  An inconsistent projection system
certifies that the moment data is not positive semidefinite, which raises
NotAStateError.

Everything is read from one object, the moment matrix
M[a][b] = phi(x^(a+b)) over the graded monomial basis, together with the
coefficient columns of the basis polynomials over that basis.  The columns
form a unit upper triangular matrix, and every consumer relies on it: the
level coordinates of a vector need no division, and the creation chain
of a degree-n class is its basis vector, so Omega_n = G_n.  A
projection's right-hand side <b, x^beta> is b^T M e_beta, and the level
Gram is G_n[i][k] = b_i^T M e_{beta_k}, because b_k differs from
x^(beta_k) by lower levels, which are orthogonal to b_i.  That makes the
Gram symmetric as computed, so only its upper triangle is paired and the
lower one is mirrored.  The orthogonality needs only that every projection
system was solved consistently, so it holds on singular and non-PSD data
too.

Each column is kept once, as an IntegerColumn: its nonzero entries as
integer numerators over one denominator, built when its level is done.
MomentMatrix.pair_ratio takes that form, so a pairing is an integer dot
product against the moments' integer ratios; pair makes one Fraction of
it, or none for an exact zero.  The projections stay in integers: each
lower level's Gram is kept as integer rows once its level is done, the
right-hand sides are pair_ratio's ratios, _linalg.solve_ratios eliminates
[G_m | R] on integer rows, and its (num, den) coefficients are subtracted
from the columns (IntegerColumn.subtract_from) with no Fraction built;
the Decomposition keeps those integer rows (gram_rows), and build's
top-level annihilation solve reads G_{N-1}'s.  Fractions appear only in
the stored level Grams and what the Decomposition returns.  All pairings
of a level are made, monomial by monomial, before any is solved, so a
missing moment is named before an inconsistent projection.  The moments
are keyed by packed exponent codes (pack), so pairing a column with
x^beta shifts each of its monomials by one integer add; the code of each
beta is computed once per moment matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from . import _linalg
from ._linalg import ZERO, Matrix
from .errors import (
    DimensionMismatchError,
    InvalidIndexError,
    NotAStateError,
    UnsupportedParameterError,
    shown,
)
from .moments import MomentFunctional
from .multiindex import MultiIndex, check_index, check_integer, degree
from .polyring import Polynomial, monomial_basis, monomials_of_degree


@dataclass(frozen=True)
class Level:
    """Degree slice P_n: basis vectors indexed by degree-n monomials.

    The vectors themselves are Decomposition.level_forms(n).  rank is the
    exact rank of the Gram matrix; null_mask marks basis vectors of zero
    norm (they span the degenerate directions).
    """

    n: int
    monomials: Tuple[MultiIndex, ...]
    gram: Tuple[Tuple[Fraction, ...], ...]
    rank: int
    null_mask: Tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.monomials)

    def gram_matrix(self) -> Matrix:
        return [list(row) for row in self.gram]


@dataclass(frozen=True)
class IntegerColumn:
    """A coefficient column as integers over one denominator.

    terms holds (a, numerator) for each nonzero entry a of the column, so
    column[a] = numerator / denominator; every other entry is zero.
    """

    terms: Tuple[Tuple[int, int], ...]
    denominator: int

    @classmethod
    def of(cls, ratios: Iterable[Tuple[int, int]]) -> "IntegerColumn":
        """The column whose entry a is p/q for the a-th pair (p, q), q > 0.

        A Fraction column passes map(Fraction.as_integer_ratio, column).
        """
        reduced = []
        for a, (p, q) in enumerate(ratios):
            if p:
                g = gcd(p, q)
                reduced.append((a, p // g, q // g))
        den = lcm(*(q for _, _, q in reduced))
        return cls(tuple((a, p * (den // q)) for a, p, q in reduced), den)

    def subtract_from(self, nums: List[int], dens: List[int], num: int, den: int) -> None:
        """nums[a]/dens[a] -= (num/den) * column[a], each over its running lcm; den > 0."""
        den *= self.denominator
        for a, c in self.terms:
            if dens[a] == den:
                nums[a] -= num * c
            else:
                g = gcd(dens[a], den)
                nums[a] = nums[a] * (den // g) - num * c * (dens[a] // g)
                dens[a] = dens[a] // g * den

    def column(self) -> List[Fraction]:
        """A new Fraction list of the entries up to the last nonzero one."""
        entries = dict(self.terms)
        return [Fraction(entries.get(a, 0), self.denominator) for a in range(self.terms[-1][0] + 1)]


def _check_exact(entries: Sequence[Fraction], what: str) -> None:
    """Refuse an entry that is not an int or a Fraction, without converting."""
    for v in entries:
        if not isinstance(v, (int, Fraction)):
            raise UnsupportedParameterError(
                f"{what} entries must be int or Fraction, got {shown(v)}"
            )


def pack(beta: Sequence[int], radix: int) -> int:
    """The exponent code sum_i beta_i radix^i of a multi-index.

    Two multi-indices with entries below radix have equal codes only when
    they are equal, and code(alpha + beta) = code(alpha) + code(beta)
    whenever every entry of alpha + beta stays below radix.
    """
    return sum(b * radix**i for i, b in enumerate(beta) if b)


class MomentMatrix:
    """M[a][b] = phi(x^(a+b)) over monomial_basis(d, N), filled on first use.

    Each distinct moment is fetched once and kept as its integer ratio, and
    one that the functional cannot supply raises only when a computation
    needs it.  A moment is keyed by the exponent code of its multi-index in
    radix R = 2N+2 (see pack): a basis monomial has entries <= N and every
    multi-index it is shifted by has degree <= N+1, so the entries of a key
    stay <= 2N+1 and shifting a monomial is one integer add of codes.
    codes[a] is the code of basis monomial a and code_position maps a code
    back to its position in the basis.
    """

    def __init__(self, functional: MomentFunctional, max_degree: int):
        self.functional = functional
        self.max_degree = max_degree
        self.basis = monomial_basis(functional.d, max_degree)
        self.position = {beta: a for a, beta in enumerate(self.basis)}
        self.radix = 2 * max_degree + 2
        self.codes = [pack(alpha, self.radix) for alpha in self.basis]
        self.code_position = {c: a for a, c in enumerate(self.codes)}
        self._shifts: Dict[MultiIndex, int] = {}  # beta -> code, for |beta| <= N+1
        self._moments: Dict[int, Tuple[int, int]] = {}

    def code(self, beta: MultiIndex) -> int:
        """The code of a multi-index that basis monomials are shifted by.

        Computed once per beta.  A beta of degree above N+1 (or with a
        negative entry, or of the wrong length) is refused: a shift by it
        could carry out of the radix.
        """
        code = self._shifts.get(beta)
        if code is None:
            if (
                len(beta) != self.functional.d
                or min(beta) < 0
                or degree(beta) > self.max_degree + 1
            ):
                raise InvalidIndexError(
                    f"cannot shift the degree-{self.max_degree} basis by {shown(beta)}: "
                    f"moment keys hold shifts in N^{self.functional.d} of degree "
                    f"<= {self.max_degree + 1}"
                )
            code = self._shifts[beta] = pack(beta, self.radix)
        return code

    def pair(self, column: IntegerColumn, beta: MultiIndex) -> Fraction:
        """phi(b * x^beta) for the polynomial b with this integer column, as
        one Fraction of pair_ratio; a zero sum returns the shared ZERO."""
        num, den = self.pair_ratio(column, beta)
        return Fraction(num, den) if num else ZERO

    def pair_ratio(self, column: IntegerColumn, beta: MultiIndex) -> Tuple[int, int]:
        """phi(b * x^beta) as an integer ratio (p, q), q > 0, not reduced.

        The moment phi(x^(alpha+beta)) is fetched only where the column's
        coefficient at alpha is nonzero, so a table that lacks the moments at
        the zero coefficients still pairs.  The sum is one integer numerator
        over the running lcm of the moment denominators, times the column's
        denominator.
        """
        shift = self._shifts.get(beta)
        if shift is None:
            shift = self.code(beta)
        codes, moments = self.codes, self._moments
        num, den = 0, 1
        for a, c in column.terms:
            moment = moments.get(codes[a] + shift)
            if moment is None:
                moment = self._fetch(a, beta)
            mn, md = moment
            if not mn:
                continue
            if md == den:
                num += c * mn
            else:
                g = gcd(den, md)
                num = num * (md // g) + c * mn * (den // g)
                den = den // g * md
        return num, den * column.denominator

    def _fetch(self, a: int, beta: MultiIndex) -> Tuple[int, int]:
        """Fetch phi(x^(alpha+beta)) for basis monomial a and keep its ratio."""
        key = tuple(x + y for x, y in zip(self.basis[a], beta))
        moment = self.functional.moment(key).as_integer_ratio()
        self._moments[self.codes[a] + self._shifts[beta]] = moment
        return moment


class Decomposition:
    """The levels P_0..P_N, their basis columns and the moment matrix.

    forms[p] is basis polynomial p (graded order) over the monomial basis,
    as an IntegerColumn: its last term is p, the leading coefficient 1.
    gram_rows[m] is G_m as integer rows (_linalg.integer_rows) for each
    level m below the top, as decompose eliminated it.
    """

    def __init__(
        self,
        moments: MomentMatrix,
        levels: Sequence[Level],
        forms: Sequence[IntegerColumn],
        gram_rows: Sequence[List[Tuple[List[int], int]]],
    ):
        self.moments = moments
        self.functional = moments.functional
        self.levels = list(levels)
        self.forms = list(forms)
        self.gram_rows = list(gram_rows)
        self.d = self.functional.d
        self.max_degree = len(self.levels) - 1
        self.starts = list(accumulate((len(lv) for lv in self.levels), initial=0))

    def level(self, n: int) -> Level:
        check_index(n, "level", 0, self.max_degree, "computed range ")
        return self.levels[n]

    def level_columns(self, n: int) -> List[List[Fraction]]:
        """Level n's coefficient columns, as new Fraction lists."""
        return [f.column() for f in self.level_forms(n)]

    def level_forms(self, n: int) -> List[IntegerColumn]:
        """The integer forms of level n's columns, for MomentMatrix.pair."""
        self.level(n)  # range check
        return self.forms[self.starts[n] : self.starts[n + 1]]

    def _check_vector(self, vector: Sequence[Fraction]) -> None:
        """Refuse a coefficient vector of the wrong length or with inexact entries."""
        if len(vector) != len(self.forms):
            raise DimensionMismatchError(
                f"vector length {len(vector)} != basis size {len(self.forms)}"
            )
        _check_exact(vector, "vector")

    def split(self, vector: Sequence[Fraction]) -> List[List[Fraction]]:
        """Level coordinates of a coefficient vector, by back substitution."""
        self._check_vector(vector)
        nums, dens = map(list, zip(*(v.as_integer_ratio() for v in vector)))
        return self.split_ratios(nums, dens)

    def split_ratios(self, nums: List[int], dens: List[int]) -> List[List[Fraction]]:
        """Level coordinates of the vector with entries nums[a]/dens[a].

        The columns are monic, so the coordinate of basis vector p is the
        entry left at p once the higher basis vectors are subtracted, in
        integers; each entry becomes a Fraction once, when it is reached.
        The two lists are used as scratch space.
        """
        x = [ZERO] * len(nums)
        for p in reversed(range(len(x))):
            if nums[p]:
                x[p] = Fraction(nums[p], dens[p])
                self.forms[p].subtract_from(nums, dens, *x[p].as_integer_ratio())
        return [x[s:e] for s, e in zip(self.starts, self.starts[1:])]

    def polynomial(self, vector: Sequence[Fraction]) -> Polynomial:
        """The polynomial with this coefficient vector over the monomial basis."""
        self._check_vector(vector)
        return Polynomial(self.d, dict(zip(self.moments.basis, vector)))

    def expand(self, n: int, coords: Sequence[Fraction]) -> List[Fraction]:
        """Coefficient vector of the level-n combination with these coordinates."""
        forms = self.level_forms(n)
        if len(coords) != len(forms):
            raise DimensionMismatchError(
                f"coordinate count {len(coords)} != level {n} size {len(forms)}"
            )
        _check_exact(coords, "coordinate")
        nums, dens = [0] * len(self.forms), [1] * len(self.forms)
        for coeff, form in zip(coords, forms):
            if coeff:
                form.subtract_from(nums, dens, *(-coeff).as_integer_ratio())
        return [Fraction(p, q) if p else ZERO for p, q in zip(nums, dens)]

    def polynomials(self, n: int) -> Tuple[Polynomial, ...]:
        """The basis polynomials of level n, read off its integer forms."""
        basis = self.moments.basis
        return tuple(
            Polynomial(self.d, {basis[a]: Fraction(c, f.denominator) for a, c in f.terms})
            for f in self.level_forms(n)
        )


def _raise_first_inconsistent(
    levels: Sequence[Level],
    grams: Sequence[List[Tuple[List[int], int]]],
    monos: Sequence[MultiIndex],
    rhs: List[List[List[Tuple[int, int]]]],
) -> None:
    """Name the first inconsistent projection, monomial by monomial."""
    for beta, per_level in zip(monos, rhs):
        for lv, gram, r in zip(levels, grams, per_level):
            if _linalg.solve_ratios(gram, [[v] for v in r]) is None:
                raise NotAStateError(
                    f"projection of x^{tuple(beta)} onto degree {lv.n} is "
                    "inconsistent; the moments are not positive semidefinite"
                )


def decompose(functional: MomentFunctional, max_degree: int) -> Decomposition:
    """Orthogonalize the monomials degree by degree against the functional.

    Needs moments up to degree 2*max_degree.
    """
    check_integer(max_degree, "max_degree")
    if max_degree < 0:
        raise InvalidIndexError(f"max_degree must be >= 0, got {max_degree}")
    moments = MomentMatrix(functional, max_degree)
    forms: List[List[IntegerColumn]] = []  # basis columns, level by level
    levels: List[Level] = []
    grams: List[List[Tuple[List[int], int]]] = []  # each G_m as integer rows
    for n in range(max_degree + 1):
        monos = monomials_of_degree(functional.d, n)
        # rhs[k][m][i] = <b_i, x^beta_k> for basis vector i of lower level m,
        # as an integer ratio
        rhs = [[[moments.pair_ratio(f, beta) for f in lower] for lower in forms] for beta in monos]
        # each column x^beta as numerators over denominators, less its projections
        block = [([0] * a + [1], [1] * (a + 1)) for a in map(moments.position.get, monos)]
        for m, (gram, lower) in enumerate(zip(grams, forms)):
            # one elimination of G_m for all monomials: its row operations
            # depend only on G_m, so each column gets what its own solve gives
            sol = _linalg.solve_ratios(gram, [list(column) for column in zip(*(r[m] for r in rhs))])
            if sol is None:
                _raise_first_inconsistent(levels, grams, monos, rhs)
            for k, col in enumerate(block):
                for coeffs, f in zip(sol, lower):
                    num, den = coeffs[k]
                    if num:
                        f.subtract_from(*col, num, den)
        block_forms = [IntegerColumn.of(zip(*col)) for col in block]
        # b_i is orthogonal to the lower levels, so <b_i, x^beta_k> = <b_i, b_k>
        # and the lower triangle mirrors the upper one
        size = len(block)
        gram = [[ZERO] * size for _ in range(size)]
        for i, f in enumerate(block_forms):
            for k in range(i, size):
                gram[i][k] = gram[k][i] = moments.pair(f, monos[k])
        report = _linalg.ldlt_psd(gram)
        if not report.psd:
            raise NotAStateError(
                f"degree-{n} Gram matrix has a negative direction "
                f"(witness vector {report.witness}); the moments are not a "
                "moment sequence of a positive measure"
            )
        null_mask = tuple(gram[i][i] == 0 for i in range(size))
        levels.append(Level(n, tuple(monos), tuple(map(tuple, gram)), report.rank, null_mask))
        forms.append(block_forms)
        if n < max_degree:
            grams.append(_linalg.integer_rows(gram))
    return Decomposition(moments, levels, [f for level in forms for f in level], grams)
