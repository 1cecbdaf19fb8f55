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
MomentMatrix.pair takes that form, so a pairing is an integer dot product
against the moments' integer ratios and builds one Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

from . import _linalg
from ._linalg import ZERO, Matrix
from .errors import (
    DimensionMismatchError,
    InvalidIndexError,
    NotAStateError,
    UnsupportedParameterError,
)
from .moments import MomentFunctional
from .multiindex import MultiIndex, check_index, check_integer
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
    def of(cls, column: Sequence[Fraction]) -> "IntegerColumn":
        ratios = [(a, x.as_integer_ratio()) for a, x in enumerate(column) if x]
        den = lcm(*(q for _, (_, q) in ratios))
        return cls(tuple((a, p * (den // q)) for a, (p, q) in ratios), den)

    def subtract_from(self, nums: List[int], dens: List[int], coeff: Fraction) -> None:
        """nums[a]/dens[a] -= coeff * column[a], each over its running lcm."""
        num, den = coeff.as_integer_ratio()
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
            raise UnsupportedParameterError(f"{what} entries must be int or Fraction, got {v!r}")


class MomentMatrix:
    """M[a][b] = phi(x^(a+b)) over monomial_basis(d, N), filled on first use.

    Each distinct moment is fetched once and kept as its integer ratio, and
    one that the functional cannot supply raises only when a computation
    needs it.
    """

    def __init__(self, functional: MomentFunctional, max_degree: int):
        self.functional = functional
        self.basis = monomial_basis(functional.d, max_degree)
        self.position = {beta: a for a, beta in enumerate(self.basis)}
        self._moments: Dict[MultiIndex, Tuple[int, int]] = {}
        # beta -> the multi-indices alpha+beta over the basis, in basis order
        self._shifted: Dict[MultiIndex, List[MultiIndex]] = {}

    def pair(self, column: IntegerColumn, beta: MultiIndex) -> Fraction:
        """phi(b * x^beta) for the polynomial b with this integer column.

        The moment phi(x^(alpha+beta)) is fetched only where the column's
        coefficient at alpha is nonzero, so a table that lacks the moments at
        the zero coefficients still pairs.  The sum is one integer numerator
        over the running lcm of the moment denominators, divided by the
        column's denominator in the one Fraction it returns.
        """
        keys = self._shifted.get(beta)
        if keys is None:
            keys = self._shifted[beta] = [
                tuple(x + y for x, y in zip(alpha, beta)) for alpha in self.basis
            ]
        moments = self._moments
        num, den = 0, 1
        for a, c in column.terms:
            key = keys[a]
            moment = moments.get(key)
            if moment is None:
                moment = moments[key] = self.functional.moment(key).as_integer_ratio()
            mn, md = moment
            if not mn:
                continue
            if md == den:
                num += c * mn
            else:
                g = gcd(den, md)
                num = num * (md // g) + c * mn * (den // g)
                den = den // g * md
        return Fraction(num, den * column.denominator)


class Decomposition:
    """The levels P_0..P_N, their basis columns and the moment matrix.

    forms[p] is basis polynomial p (graded order) over the monomial basis,
    as an IntegerColumn: its last term is p, the leading coefficient 1.
    """

    def __init__(
        self, moments: MomentMatrix, levels: Sequence[Level], forms: Sequence[IntegerColumn]
    ):
        self.moments = moments
        self.functional = moments.functional
        self.levels = list(levels)
        self.forms = list(forms)
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

    def split(self, vector: Sequence[Fraction]) -> List[List[Fraction]]:
        """Level coordinates of a coefficient vector, by back substitution.

        The columns are monic, so the coordinate of basis vector p is the
        entry left at p once the higher basis vectors are subtracted, in
        integers; each entry becomes a Fraction once, when it is reached.
        """
        if len(vector) != len(self.forms):
            raise DimensionMismatchError(
                f"vector length {len(vector)} != basis size {len(self.forms)}"
            )
        _check_exact(vector, "vector")
        nums, dens = map(list, zip(*(v.as_integer_ratio() for v in vector)))
        x = [ZERO] * len(vector)
        for p in reversed(range(len(x))):
            if nums[p]:
                x[p] = Fraction(nums[p], dens[p])
                self.forms[p].subtract_from(nums, dens, x[p])
        return [x[s:e] for s, e in zip(self.starts, self.starts[1:])]

    def vector(self, p: Polynomial) -> List[Fraction]:
        """Coefficient vector of p over the monomial basis."""
        if p.d != self.d:
            raise DimensionMismatchError(
                f"polynomial dimension {p.d} != decomposition dimension {self.d}"
            )
        if p.degree() > self.max_degree:
            raise InvalidIndexError(
                f"polynomial degree {p.degree()} exceeds decomposition degree "
                f"{self.max_degree}"
            )
        out = [ZERO] * len(self.forms)
        for beta, c in p.terms.items():
            out[self.moments.position[beta]] = c
        return out

    def polynomial(self, vector: Sequence[Fraction]) -> Polynomial:
        """The polynomial with this coefficient vector (or column)."""
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
                form.subtract_from(nums, dens, -coeff)
        return [Fraction(p, q) if p else ZERO for p, q in zip(nums, dens)]

    def polynomials(self, n: int) -> Tuple[Polynomial, ...]:
        """The basis polynomials of level n, read off its columns."""
        return tuple(self.polynomial(col) for col in self.level_columns(n))

    def coordinates(self, p: Polynomial) -> List[List[Fraction]]:
        """Coefficient vector of p in each level basis."""
        return self.split(self.vector(p))

    def components(self, p: Polynomial) -> List[Polynomial]:
        """All components [p_0, ..., p_N]; they sum to p."""
        return [
            self.polynomial(self.expand(n, c))
            for n, c in enumerate(self.coordinates(p))
        ]


def _raise_first_inconsistent(
    levels: Sequence[Level], monos: Sequence[MultiIndex], rhs: List[List[List[Fraction]]]
) -> None:
    """Name the first inconsistent projection, monomial by monomial."""
    for beta, per_level in zip(monos, rhs):
        for lv, r in zip(levels, per_level):
            if _linalg.solve_consistent(lv.gram_matrix(), [[v] for v in r]) is None:
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
    for n in range(max_degree + 1):
        monos = monomials_of_degree(functional.d, n)
        # rhs[k][m][i] = <b_i, x^beta_k> for basis vector i of lower level m
        rhs = [[[moments.pair(f, beta) for f in lower] for lower in forms] for beta in monos]
        # each column x^beta as numerators over denominators, less its projections
        block = [([0] * a + [1], [1] * (a + 1)) for a in map(moments.position.get, monos)]
        for m, (lv, lower) in enumerate(zip(levels, forms)):
            # one elimination of G_m for all monomials: its row operations
            # depend only on G_m, so each column gets what its own solve gives
            sol = _linalg.solve_consistent(
                lv.gram_matrix(), _linalg.transpose([r[m] for r in rhs])
            )
            if sol is None:
                _raise_first_inconsistent(levels, monos, rhs)
            for col, coeffs in zip(block, _linalg.transpose(sol)):
                for coeff, f in zip(coeffs, lower):
                    if coeff:
                        f.subtract_from(*col, coeff)
        block_forms = [IntegerColumn.of(list(map(Fraction, *col))) for col in block]
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
    return Decomposition(moments, levels, [f for level in forms for f in level])
