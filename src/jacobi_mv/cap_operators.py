"""Creation, preservation and annihilation operators between degree levels.

Multiplication by the coordinate x_j maps P_n into the degrees <= n+1.
Decomposing x_j*p through the graded orthogonal basis splits it into

* creation a+_{j|n}: P_n -> P_{n+1} (the degree-(n+1) component),
* preservation a0_{j|n}: P_n -> P_n (the degree-n component),
* annihilation a-_{j|n}: P_n -> P_{n-1} (the degree-(n-1) component);

components at any other degree must vanish, and this is asserted rather
than assumed (InternalConsistencyError otherwise).  At the top level the
degree-(n+1) component cannot be represented, so preservation and
annihilation are obtained from the pairing instead: their images match
x_j*p against every basis vector of the target level, with degenerate
Gram systems solved with free variables set to zero.  An inconsistent
system there certifies that the moments are not positive semidefinite.
The top-level pairings take no back substitution: a degree-N monomial is
its monic basis vector plus lower levels, so the pairings follow from one
moment row per shifted leading monomial, the degree-(N-1) coefficients of
the columns and the level Gram.

Matrices are written in the level bases of the decomposition, columns
indexed by the source level; coordinates j are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import _linalg
from ._linalg import ZERO, Matrix
from .errors import (
    InsufficientMomentsError,
    InternalConsistencyError,
    InvalidIndexError,
    NotAStateError,
)
from .multiindex import MultiIndex, check_index, shift
from .orthodecomp import Decomposition, IntegerColumn, MomentMatrix
from .polyring import Polynomial


class CAPSystem:
    """All three operator families for one decomposition, as matrices."""

    def __init__(
        self,
        decomposition: Decomposition,
        plus: Dict[Tuple[int, int], Matrix],
        zero: Dict[Tuple[int, int], Optional[Matrix]],
        minus: Dict[Tuple[int, int], Matrix],
    ):
        self.decomposition = decomposition
        self.d = decomposition.d
        self.max_degree = decomposition.max_degree
        self._plus = plus
        self._zero = zero
        self._minus = minus

    def _check(self, j: int, n: int, top: int) -> None:
        check_index(j, "coordinate", 1, self.d)
        check_index(n, "level", 0, top)

    def plus_matrix(self, j: int, n: int) -> Matrix:
        """Creation a+_{j|n}, shape classes(n+1) x classes(n); needs n < max."""
        self._check(j, n, self.max_degree - 1)
        return _linalg.copy(self._plus[(j, n)])

    def zero_matrix(self, j: int, n: int) -> Matrix:
        """Preservation a0_{j|n}, square of size classes(n)."""
        self._check(j, n, self.max_degree)
        stored = self._zero[(j, n)]
        if stored is None:
            raise InsufficientMomentsError(
                f"preservation at top level {n} needs moments of degree "
                f"{2 * n + 1}, beyond the available table"
            )
        return _linalg.copy(stored)

    def minus_matrix(self, j: int, n: int) -> Matrix:
        """Annihilation a-_{j|n}, shape classes(n-1) x classes(n); empty at n=0."""
        self._check(j, n, self.max_degree)
        return _linalg.copy(self._minus[(j, n)])

    # ---------------------------------------------------------- vector core
    def _apply(self, j: int, vector: Sequence[Fraction], step: int) -> List[Fraction]:
        """a+_j (step 1), a0_j (step 0) or a-_j (step -1), applied levelwise.

        Takes and returns coefficient vectors over the monomial basis.
        """
        self._check(j, 0, self.max_degree)
        decomp = self.decomposition
        out = [ZERO] * len(vector)
        for n, c in enumerate(decomp.split(vector)):
            if not any(c) or n + step < 0:
                continue
            if step == 1:
                if n >= self.max_degree:
                    raise InvalidIndexError(
                        f"creation from level {n} leaves the computed range"
                    )
                matrix = self._plus[(j, n)]
            elif step == 0:
                matrix = self.zero_matrix(j, n)
            else:
                matrix = self._minus[(j, n)]
            image = decomp.expand(n + step, _linalg.mat_vec(matrix, c))
            out = [x + y if y else x for x, y in zip(out, image)]
        return out

    # ------------------------------------------------------- polynomial forms
    def creation(self, j: int, p: Polynomial) -> Polynomial:
        """a+_j applied levelwise to p; p may not touch the top level."""
        decomp = self.decomposition
        return decomp.polynomial(self._apply(j, decomp.vector(p), 1))

    def preservation(self, j: int, p: Polynomial) -> Polynomial:
        decomp = self.decomposition
        return decomp.polynomial(self._apply(j, decomp.vector(p), 0))

    def annihilation(self, j: int, p: Polynomial) -> Polynomial:
        decomp = self.decomposition
        return decomp.polynomial(self._apply(j, decomp.vector(p), -1))


def _times(moments: MomentMatrix, form: IntegerColumn, unit: MultiIndex) -> List[Fraction]:
    """Coefficient vector of x^unit * b for the polynomial b with this column."""
    out = [ZERO] * len(moments.basis)
    for a, c in form.terms:
        out[moments.position[shift(moments.basis[a], unit)]] = Fraction(c, form.denominator)
    return out


def _top_pairings(
    decomposition: Decomposition, unit: MultiIndex, rows: Dict[MultiIndex, List[Fraction]]
) -> Matrix:
    """<b_i, x^unit b_k> over the top level N, as a matrix indexed (i, k).

    b_k is x^beta_k plus terms of degree <= N-1.  A degree-N monomial
    x^gamma is b_gamma plus lower levels, and every monomial of degree < N
    lies in the lower levels, which are orthogonal to b_i.  So the pairing is

        <b_i, x^(beta_k+unit)> + sum_{|alpha|=N-1} b_k[alpha] G_N[i][alpha+unit]

    rows caches the moment row <b_i, x^gamma> per degree-(N+1) monomial
    gamma, across coordinates.
    """
    moments = decomposition.moments
    n = decomposition.max_degree
    lv = decomposition.level(n)
    forms = decomposition.level_forms(n)
    start = decomposition.starts[n]
    below = range(decomposition.starts[n - 1] if n else start, start)
    pairings = []
    for beta, form in zip(lv.monomials, forms):
        gamma = shift(beta, unit)
        if gamma not in rows:
            rows[gamma] = [moments.pair(f, gamma) for f in forms]
        out = list(rows[gamma])
        for a, c in form.terms:
            if a in below:
                value = Fraction(c, form.denominator)
                q = moments.position[shift(moments.basis[a], unit)] - start
                for i, row in enumerate(lv.gram):
                    if row[q]:
                        out[i] += value * row[q]
        pairings.append(out)
    return _linalg.transpose(pairings)


def build(decomposition: Decomposition) -> CAPSystem:
    """Compute all operator matrices for the given decomposition.

    Below the top level the blocks are the coordinates of x_j*p, found by
    back substitution through the coefficient columns; components outside
    degrees n-1..n+1 are checked to vanish.  Top-level preservation pairs
    x_j*p with the level (see _top_pairings); its moment rows are one degree
    beyond what the decomposition used, so a finite moment table leaves it
    unset, to raise only if accessed.
    """
    moments = decomposition.moments
    d = decomposition.d
    top = decomposition.max_degree
    plus: Dict[Tuple[int, int], Matrix] = {}
    zero: Dict[Tuple[int, int], Optional[Matrix]] = {}
    minus: Dict[Tuple[int, int], Matrix] = {}
    rows: Dict[MultiIndex, List[Fraction]] = {}
    for n in range(top + 1):
        lv = decomposition.level(n)
        forms = decomposition.level_forms(n)
        for j in range(1, d + 1):
            unit = tuple(int(i == j - 1) for i in range(d))
            if n < top:
                images = [decomposition.split(_times(moments, f, unit)) for f in forms]
                for k, coords in enumerate(images):
                    for m, c in enumerate(coords):
                        if abs(m - n) > 1 and any(c):
                            raise InternalConsistencyError(
                                f"x_{j} * (basis vector {k} of degree {n}) has "
                                f"a nonzero component at degree {m}; the "
                                "three-term degree structure is violated"
                            )
                plus[(j, n)] = _linalg.transpose([c[n + 1] for c in images])
                zero[(j, n)] = _linalg.transpose([c[n] for c in images])
                minus[(j, n)] = _linalg.transpose([c[n - 1] for c in images]) if n else []
                continue
            try:
                pairings = _top_pairings(decomposition, unit, rows)
            except InsufficientMomentsError:
                zero[(j, n)] = None
            else:
                zero[(j, n)] = _linalg.solve_consistent(lv.gram_matrix(), pairings)
                if zero[(j, n)] is None:
                    raise NotAStateError(
                        f"preservation system at level {n}, coordinate {j} is "
                        "inconsistent; no positive functional has these moments"
                    )
            if n == 0:
                minus[(j, n)] = []
                continue
            # <b', x_j b> = <x_j b', b> only sees the creation image of b'
            rhs = _linalg.mat_mul(_linalg.transpose(plus[(j, n - 1)]), lv.gram_matrix())
            minus[(j, n)] = _linalg.solve_consistent(decomposition.level(n - 1).gram_matrix(), rhs)
            if minus[(j, n)] is None:
                raise NotAStateError(
                    f"annihilation system at level {n}, coordinate {j} is "
                    "inconsistent; no positive functional has these moments"
                )
    return CAPSystem(decomposition, plus, zero, minus)


# --------------------------------------------------------------------------
# verification reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantumDecompositionEntry:
    j: int
    n: int
    index: int
    residual: Polynomial
    residual_norm_sq: Fraction

    @property
    def exact(self) -> bool:
        return self.residual.is_zero()

    @property
    def null(self) -> bool:
        return self.residual_norm_sq == 0


@dataclass(frozen=True)
class QuantumDecompositionReport:
    ok: bool
    entries: Tuple[QuantumDecompositionEntry, ...]

    def witnesses(self) -> Tuple[QuantumDecompositionEntry, ...]:
        return tuple(e for e in self.entries if not e.exact)


def verify_quantum_decomposition(system: CAPSystem) -> QuantumDecompositionReport:
    """Check x_j*b = (a+ + a0 + a-) b, exactly, on every basis vector.

    Works on coefficient vectors over the monomial basis and recomputes each
    side independently of how the blocks were built: the image x_j b_k is
    b_k's column shifted by e_j, and the model expands column k of the plus,
    zero and minus blocks at levels n+1, n and n-1 (b_k's level coordinates
    are the unit vector e_k, so no split is needed).  The residual r has
    squared norm r^T M r on the moment matrix.  Levels below the top are
    covered (creation out of the top level is not representable).  Failures
    are reported with the residual polynomial as witness, never raised.
    """
    decomp = system.decomposition
    moments = decomp.moments
    entries = []
    for n in range(decomp.max_degree):
        forms = decomp.level_forms(n)
        for j in range(1, system.d + 1):
            unit = tuple(int(i == j - 1) for i in range(system.d))
            blocks = [(n + 1, system._plus[(j, n)]), (n, system._zero[(j, n)])]
            if n:
                blocks.append((n - 1, system._minus[(j, n)]))
            for k, form in enumerate(forms):
                residual = _times(moments, form, unit)
                for m, block in blocks:
                    image = decomp.expand(m, [row[k] for row in block])
                    residual = [x - y if y else x for x, y in zip(residual, image)]
                r = IntegerColumn.of(residual)
                norm_sq = sum(
                    (c * moments.pair(r, moments.basis[a]) for a, c in r.terms), ZERO
                ) / r.denominator
                entries.append(
                    QuantumDecompositionEntry(j, n, k, decomp.polynomial(residual), norm_sq)
                )
    ok = all(e.exact for e in entries)
    return QuantumDecompositionReport(ok, tuple(entries))


@dataclass(frozen=True)
class AdjointReport:
    ok: bool
    failures: Tuple[str, ...]


def verify_adjoints(system: CAPSystem) -> AdjointReport:
    """Check the Gram-weighted operator identities, exactly.

    * adjointness: Gram_{n+1} plus_{j|n} = transpose(minus_{j|n+1}) Gram_n,
    * self-adjointness: Gram_n zero_{j|n} symmetric,
    * creation commutativity: plus_{j|n+1} plus_{k|n} = plus_{k|n+1} plus_{j|n}.
    """
    decomp = system.decomposition
    failures = []
    for n in range(decomp.max_degree):
        g_hi = decomp.level(n + 1).gram_matrix()
        g_lo = decomp.level(n).gram_matrix()
        for j in range(1, system.d + 1):
            p = system.plus_matrix(j, n)
            m = system.minus_matrix(j, n + 1)
            lhs = _linalg.mat_mul(g_hi, p)
            rhs = _linalg.mat_mul(_linalg.transpose(m), g_lo)
            if not _linalg.mat_eq(lhs, rhs):
                failures.append(
                    f"creation/annihilation adjoint pair fails at level {n}, "
                    f"coordinate {j}"
                )
    for n in range(decomp.max_degree + 1):
        g = decomp.level(n).gram_matrix()
        for j in range(1, system.d + 1):
            stored = system._zero[(j, n)]
            if stored is None:
                continue
            gz = _linalg.mat_mul(g, stored)
            if not _linalg.mat_eq(gz, _linalg.transpose(gz)):
                failures.append(
                    f"preservation not self-adjoint at level {n}, coordinate {j}"
                )
    for n in range(decomp.max_degree - 1):
        for j in range(1, system.d + 1):
            for k in range(j + 1, system.d + 1):
                jk = _linalg.mat_mul(system.plus_matrix(j, n + 1), system.plus_matrix(k, n))
                kj = _linalg.mat_mul(system.plus_matrix(k, n + 1), system.plus_matrix(j, n))
                if not _linalg.mat_eq(jk, kj):
                    failures.append(
                        f"creation operators {j} and {k} fail to commute out of "
                        f"level {n}"
                    )
    return AdjointReport(not failures, tuple(failures))
