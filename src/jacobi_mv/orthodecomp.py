"""Graded orthogonal decomposition of polynomials against a moment functional.

For a moment functional phi, the polynomials up to a degree bound split as
P_0 + P_1 + ... + P_N where P_0 contains the constants and P_n is the
phi-orthogonal complement of the lower degrees inside degree <= n.  The
decomposition is computed degree by degree: the basis vector attached to a
degree-n monomial x^beta is

    b_beta = x^beta - (projection onto P_0 + ... + P_{n-1})

so every b_beta is monic with leading monomial x^beta.  The pairing
phi(p*q) may be degenerate; projections then solve the (singular) Gram
systems with free variables set to zero.  An inconsistent projection
system certifies that the moment data is not positive semidefinite, which
raises NotAStateError.

Everything is read from one object, the moment matrix
M[a][b] = phi(x^(a+b)) over the graded monomial basis, together with the
coefficient columns of the basis polynomials over that basis.  The columns
form an upper triangular matrix (unit diagonal for the monic bases).  A
projection's right-hand side <b, x^beta> is b^T M e_beta, and the level
Gram is G_n[i][k] = b_i^T M e_{beta_k}, because b_k differs from
x^(beta_k) by lower levels, which are orthogonal to b_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
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
from .multiindex import MultiIndex
from .polyring import Polynomial, monomial_basis, monomials_of_degree


@dataclass(frozen=True)
class Level:
    """Degree slice P_n: basis polynomials indexed by degree-n monomials.

    rank is the exact rank of the Gram matrix; null_mask marks basis
    vectors of zero norm (they span the degenerate directions).
    """

    n: int
    monomials: Tuple[MultiIndex, ...]
    polynomials: Tuple[Polynomial, ...]
    gram: Tuple[Tuple[Fraction, ...], ...]
    rank: int
    null_mask: Tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.monomials)

    def gram_matrix(self) -> Matrix:
        return [list(row) for row in self.gram]


class MomentMatrix:
    """M[a][b] = phi(x^(a+b)) over monomial_basis(d, N), filled on first use.

    Each distinct moment is fetched once, and one that the functional cannot
    supply raises only when a computation needs it.
    """

    def __init__(self, functional: MomentFunctional, max_degree: int):
        self.functional = functional
        self.basis = monomial_basis(functional.d, max_degree)
        self.position = {beta: a for a, beta in enumerate(self.basis)}
        self._moments: Dict[MultiIndex, Fraction] = {}

    def pair(self, column: Sequence[Fraction], beta: MultiIndex) -> Fraction:
        """phi(b * x^beta) for the polynomial b with this coefficient column."""
        total = ZERO
        for alpha, c in zip(self.basis, column):
            if c:
                key = tuple(x + y for x, y in zip(alpha, beta))
                if key not in self._moments:
                    self._moments[key] = self.functional.moment(key)
                total += c * self._moments[key]
        return total


class Decomposition:
    """The levels P_0..P_N, their coefficient columns and the moment matrix.

    columns[p] holds basis polynomial p (graded order) over the monomial
    basis: p+1 entries, the leading coefficient last.
    """

    def __init__(self, moments: MomentMatrix, levels: Sequence[Level], columns: Matrix):
        self.moments = moments
        self.functional = moments.functional
        self.levels = list(levels)
        self.columns = columns
        self.d = self.functional.d
        self.max_degree = len(self.levels) - 1
        self.starts = list(accumulate((len(lv) for lv in self.levels), initial=0))

    def level(self, n: int) -> Level:
        if not 0 <= n <= self.max_degree:
            raise InvalidIndexError(
                f"level {n} outside computed range 0..{self.max_degree}"
            )
        return self.levels[n]

    def level_columns(self, n: int) -> List[List[Fraction]]:
        return self.columns[self.starts[n] : self.starts[n + 1]]

    def split(self, vector: Sequence[Fraction]) -> List[List[Fraction]]:
        """Level coordinates of a coefficient vector, by back substitution."""
        rest = list(vector)
        x = [ZERO] * len(rest)
        for p in reversed(range(len(rest))):
            if rest[p]:
                col = self.columns[p]
                x[p] = coeff = rest[p] / col[p]
                for a in range(p):
                    if col[a]:
                        rest[a] -= coeff * col[a]
        return [x[s:e] for s, e in zip(self.starts, self.starts[1:])]

    def coordinates(self, p: Polynomial) -> List[List[Fraction]]:
        """Coefficient vector of p in each level basis."""
        if p.d != self.d:
            raise DimensionMismatchError(
                f"polynomial dimension {p.d} != decomposition dimension {self.d}"
            )
        if p.degree() > self.max_degree:
            raise InvalidIndexError(
                f"polynomial degree {p.degree()} exceeds decomposition degree "
                f"{self.max_degree}"
            )
        vector = [ZERO] * len(self.columns)
        for beta, c in p.terms.items():
            vector[self.moments.position[beta]] = c
        return self.split(vector)

    def project(self, p: Polynomial, n: int) -> Polynomial:
        """Component of p in P_n."""
        return self.components(p)[n]

    def components(self, p: Polynomial) -> List[Polynomial]:
        """All components [p_0, ..., p_N]; they sum to p."""
        coords = self.coordinates(p)
        out = []
        for lv, c in zip(self.levels, coords):
            part = Polynomial.zero(self.d)
            for coeff, poly in zip(c, lv.polynomials):
                if coeff:
                    part = part + poly.scale(coeff)
            out.append(part)
        return out

    def rescale(self, scales: Sequence[Sequence]) -> "Decomposition":
        """Same level spaces with basis vectors scaled by nonzero rationals.

        Used to check that downstream quantities do not depend on the basis
        choice inside each level.
        """
        if len(scales) != len(self.levels):
            raise DimensionMismatchError(
                f"need one scale list per level, got {len(scales)} for "
                f"{len(self.levels)} levels"
            )
        new_levels = []
        new_columns = []
        for n, (lv, level_scales) in enumerate(zip(self.levels, scales)):
            factors = [Fraction(s) for s in level_scales]
            if len(factors) != len(lv) or any(f == 0 for f in factors):
                raise UnsupportedParameterError(
                    f"level {lv.n} needs {len(lv)} nonzero scale factors"
                )
            polys = tuple(
                poly.scale(f) for poly, f in zip(lv.polynomials, factors)
            )
            gram = tuple(
                tuple(factors[i] * factors[j] * lv.gram[i][j] for j in range(len(lv)))
                for i in range(len(lv))
            )
            # congruence by a nonzero diagonal: rank and nullity are unchanged
            new_levels.append(
                Level(lv.n, lv.monomials, polys, gram, lv.rank, lv.null_mask)
            )
            new_columns.extend(
                [f * c for c in col] for col, f in zip(self.level_columns(n), factors)
            )
        return Decomposition(self.moments, new_levels, new_columns)


def decompose(functional: MomentFunctional, max_degree: int) -> Decomposition:
    """Orthogonalize the monomials degree by degree against the functional.

    Needs moments up to degree 2*max_degree.
    """
    if max_degree < 0:
        raise InvalidIndexError(f"max_degree must be >= 0, got {max_degree}")
    moments = MomentMatrix(functional, max_degree)
    blocks: List[List[List[Fraction]]] = []  # coefficient columns, level by level
    levels: List[Level] = []
    for n in range(max_degree + 1):
        monos = monomials_of_degree(functional.d, n)
        block = []
        for beta in monos:
            col = [ZERO] * moments.position[beta] + [Fraction(1)]
            for lv, lower in zip(levels, blocks):
                rhs = [[moments.pair(b, beta)] for b in lower]
                sol = _linalg.solve_consistent(lv.gram_matrix(), rhs)
                if sol is None:
                    raise NotAStateError(
                        f"projection of x^{tuple(beta)} onto degree {lv.n} is "
                        "inconsistent; the moments are not positive semidefinite"
                    )
                for (coeff,), b in zip(sol, lower):
                    for a, value in enumerate(b):
                        if coeff and value:
                            col[a] -= coeff * value
            block.append(col)
        gram = tuple(tuple(moments.pair(b, beta) for beta in monos) for b in block)
        report = _linalg.ldlt_psd([list(row) for row in gram])
        if not report.psd:
            raise NotAStateError(
                f"degree-{n} Gram matrix has a negative direction "
                f"(witness vector {report.witness}); the moments are not a "
                "moment sequence of a positive measure"
            )
        null_mask = tuple(gram[i][i] == 0 for i in range(len(block)))
        polys = tuple(Polynomial(functional.d, dict(zip(moments.basis, b))) for b in block)
        levels.append(Level(n, tuple(monos), polys, gram, report.rank, null_mask))
        blocks.append(block)
    return Decomposition(moments, levels, [col for block in blocks for col in block])

