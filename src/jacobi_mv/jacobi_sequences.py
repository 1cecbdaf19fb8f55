"""Jacobi sequences (Omega_n, alpha_{j|n}) of a moment functional.

The degree-n class space is C^(classes(d,n)), indexed by occupation
vectors.  Sending a class to the creation chain

    U_n e_nbar = a+_{i_n} ... a+_{i_1} 1        (i_1 <= ... <= i_n)

identifies it with a spanning family of P_n, and

* Omega_n is the Gram matrix of the chain vectors (symmetric PSD),
* alpha_{j|n} represents the preservation operator pulled back through
  U_n, solved in least-squares form on the possibly singular Omega_n with
  free variables set to zero (entries on null directions are 0 by
  convention).

A functional is finitely atomic exactly when some Omega_{n0} vanishes,
which detect_atoms decides in exact arithmetic; the number of atoms is
then at most the dimension of the polynomials of degree < n0.
Conversely the sequences determine the moments: the
truncated interacting Fock space over the class spaces with level inner
products <xi, Omega_n eta> carries commuting operators
A+_{e_j} + alpha_{e_j} + A-_{e_j} whose vacuum expectations reproduce
the moments (A+ is the occupation shift, A- its Omega-weighted adjoint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import _linalg
from ._linalg import Matrix
from .cap_operators import CAPSystem, build
from .errors import (
    InsufficientDepthError,
    InsufficientMomentsError,
    InternalConsistencyError,
    InvalidIndexError,
    RepresentationError,
)
from .moments import MomentFunctional
from .multiindex import ClassBasis, MultiIndex, degree, enumerate_classes, shift
from .orthodecomp import decompose
from .polyring import monomials_of_degree


class JacobiSequencePair:
    """Per level n <= max_level: Omega_n and the d matrices alpha_{e_j|n}."""

    def __init__(
        self,
        d: int,
        max_level: int,
        class_bases: Sequence[ClassBasis],
        omega: Sequence[Matrix],
        alpha: Sequence[Sequence[Optional[Matrix]]],
    ):
        self.d = d
        self.max_level = max_level
        self.class_bases = list(class_bases)
        self._omega = [_linalg.copy(m) for m in omega]
        self._alpha = [
            [None if m is None else _linalg.copy(m) for m in per_level]
            for per_level in alpha
        ]

    def classes(self, n: int) -> ClassBasis:
        self._check_level(n)
        return self.class_bases[n]

    def _check_level(self, n: int) -> None:
        if not 0 <= n <= self.max_level:
            raise InvalidIndexError(f"level {n} outside 0..{self.max_level}")

    def omega_matrix(self, n: int) -> Matrix:
        self._check_level(n)
        return _linalg.copy(self._omega[n])

    def alpha_matrix(self, j: int, n: int) -> Matrix:
        self._check_level(n)
        if not 1 <= j <= self.d:
            raise InvalidIndexError(f"coordinate {j} outside 1..{self.d}")
        stored = self._alpha[n][j - 1]
        if stored is None:
            raise InsufficientMomentsError(
                f"alpha at top level {n} needs moments of degree {2 * n + 1}, "
                "beyond the available table"
            )
        return _linalg.copy(stored)

    def alpha_available(self, j: int, n: int) -> bool:
        self._check_level(n)
        return self._alpha[n][j - 1] is not None

    def alpha_for_direction(self, v: Sequence, n: int) -> Matrix:
        """alpha_{v|n} = sum_j v_j alpha_{e_j|n} (linearity in the direction)."""
        out = None
        for j, coeff in enumerate(v, start=1):
            coeff = Fraction(coeff)
            term = _linalg.mat_scale(self.alpha_matrix(j, n), coeff)
            out = term if out is None else _linalg.mat_add(out, term)
        if out is None:
            raise InvalidIndexError("direction vector must have d entries")
        return out


def _congruence(c: Sequence[Fraction], m) -> Matrix:
    """C^T m C for the diagonal matrix C = diag(c)."""
    return [[ci * x * ck for x, ck in zip(row, c)] for ci, row in zip(c, m)]


def compute(ops: CAPSystem, max_level: int) -> JacobiSequencePair:
    """Build the sequences from the level Grams and the preservation blocks."""
    if max_level < 0:
        raise InvalidIndexError(f"max_level must be >= 0, got {max_level}")
    if ops.max_degree < max_level:
        raise InvalidIndexError(
            f"operator set reaches degree {ops.max_degree}, need {max_level}"
        )
    decomp = ops.decomposition
    d = decomp.d
    class_bases = [enumerate_classes(d, n) for n in range(max_level + 1)]
    for n, cb in enumerate(class_bases):
        if tuple(cb.classes) != tuple(decomp.level(n).monomials):
            raise InternalConsistencyError(
                f"class order and monomial order disagree at level {n}"
            )
    # creation only shifts leading monomials, so the chain U_n e_nbar is the
    # basis polynomial of x^nbar over its leading coefficient: C is diagonal
    omega: List[Matrix] = []
    alpha: List[List[Optional[Matrix]]] = []
    for n in range(max_level + 1):
        c = [1 / col[-1] for col in decomp.level_columns(n)]
        g = decomp.level(n).gram
        om = _congruence(c, g)
        omega.append(om)
        per_level: List[Optional[Matrix]] = []
        for j in range(1, d + 1):
            try:
                z = ops.zero_matrix(j, n)
            except InsufficientMomentsError:
                per_level.append(None)
                continue
            a = _linalg.solve_consistent(om, _congruence(c, _linalg.mat_mul(g, z)))
            if a is None:
                raise RepresentationError(
                    f"preservation image at level {n}, coordinate {j} leaves "
                    "the chain span modulo the null space"
                )
            per_level.append(a)
        alpha.append(per_level)
    return JacobiSequencePair(d, max_level, class_bases, omega, alpha)


def compute_from_functional(
    functional: MomentFunctional, max_level: int
) -> JacobiSequencePair:
    """Convenience: decompose, build operators, compute sequences."""
    return compute(build(decompose(functional, max_level)), max_level)


def rank_profile(seq: JacobiSequencePair) -> List[Tuple[int, int, int]]:
    """Exact (level, rank, dimension) triples for every Omega_n.

    Verifies that rank deficiency propagates upward: once Omega_n is
    singular every later level is singular too.
    """
    out = []
    deficient_at = None
    for n in range(seq.max_level + 1):
        om = seq.omega_matrix(n)
        dim = len(om)
        r = _linalg.rank(om)
        if r < dim and deficient_at is None:
            deficient_at = n
        if deficient_at is not None and r == dim and n > deficient_at:
            raise InternalConsistencyError(
                f"rank deficiency at level {deficient_at} fails to propagate "
                f"to level {n}"
            )
        out.append((n, r, dim))
    return out


@dataclass(frozen=True)
class AtomDetection:
    """Outcome of the vanishing-level scan; inconclusive is explicit."""

    found: bool
    n0: Optional[int]
    atom_bound: Optional[int]
    ranks: Tuple[int, ...]
    max_level: int


def detect_atoms(functional: MomentFunctional, max_level: int) -> AtomDetection:
    """Scan for the smallest level n0 with Omega_{n0} = 0 exactly.

    A vanishing level certifies a finitely atomic functional with at most
    binomial(n0-1+d, d) atoms.  Needs moments to degree 2*max_level.  With
    the monic bases the chain Gram Omega_n coincides with the level Gram,
    so the scan reads the decomposition directly.
    """
    decomp = decompose(functional, max_level)
    ranks = tuple(lv.rank for lv in decomp.levels)
    n0 = None
    for lv in decomp.levels:
        if _linalg.is_zero_matrix(lv.gram_matrix()):
            n0 = lv.n
            break
    if n0 is None:
        return AtomDetection(False, None, None, ranks, max_level)
    for lv in decomp.levels[n0:]:
        if not _linalg.is_zero_matrix(lv.gram_matrix()):
            raise InternalConsistencyError(
                f"Omega vanishes at level {n0} but not at level {lv.n}"
            )
    bound = math.comb(n0 - 1 + functional.d, functional.d)
    return AtomDetection(True, n0, bound, ranks, max_level)


# --------------------------------------------------------------------------
# moment reconstruction (the converse direction)
# --------------------------------------------------------------------------


def _occupation_shift(d: int, j: int, src: ClassBasis, dst: ClassBasis) -> Matrix:
    step = tuple(1 if i == j - 1 else 0 for i in range(d))
    m = _linalg.zeros(len(dst), len(src))
    for k, nbar in enumerate(src.classes):
        m[dst.index(shift(nbar, step))][k] = Fraction(1)
    return m


def _check_multi_index(seq: JacobiSequencePair, beta: MultiIndex) -> None:
    d = seq.d
    if len(beta) != d:
        raise InvalidIndexError(
            f"multi-index length {len(beta)} != dimension {d}"
        )
    if any(b < 0 for b in beta):
        raise InvalidIndexError(f"negative entry in multi-index {tuple(beta)}")
    total = degree(beta)
    if total > seq.max_level:
        raise InsufficientDepthError(
            f"moment of degree {total} needs an operator chain through level "
            f"{total}, beyond the truncation at {seq.max_level}"
        )


def _ladder(seq: JacobiSequencePair) -> Tuple[dict, dict]:
    """A+ (the occupation shifts) and A- (their Omega-adjoints) of one pair."""
    d = seq.d
    bases = seq.class_bases
    plus: dict = {}
    minus: dict = {}
    for j in range(1, d + 1):
        for n in range(seq.max_level):
            plus[(j, n)] = _occupation_shift(d, j, bases[n], bases[n + 1])
        for n in range(1, seq.max_level + 1):
            rhs = _linalg.mat_mul(
                _linalg.transpose(plus[(j, n - 1)]), seq.omega_matrix(n)
            )
            sol = _linalg.solve_consistent(seq.omega_matrix(n - 1), rhs)
            if sol is None:
                raise RepresentationError(
                    f"annihilation adjoint system at level {n}, coordinate {j} "
                    "is inconsistent with the omega sequence"
                )
            minus[(j, n)] = sol
    return plus, minus


def _expectation(
    seq: JacobiSequencePair, ladder: Tuple[dict, dict], beta: MultiIndex
) -> Fraction:
    plus, minus = ladder
    bases = seq.class_bases
    state: List[List[Fraction]] = [
        [Fraction(0)] * len(bases[n]) for n in range(seq.max_level + 1)
    ]
    state[0][0] = Fraction(1)
    support = 0
    for j in range(1, seq.d + 1):
        for _ in range(beta[j - 1]):
            new = [[Fraction(0)] * len(bases[n]) for n in range(seq.max_level + 1)]
            for n in range(support + 1):
                v = state[n]
                if not any(v):
                    continue
                if n + 1 > seq.max_level:
                    raise InsufficientDepthError(
                        f"operator chain exceeds the truncation at level "
                        f"{seq.max_level}"
                    )
                up = _linalg.mat_vec(plus[(j, n)], v)
                for i, value in enumerate(up):
                    new[n + 1][i] += value
                stay = _linalg.mat_vec(seq.alpha_matrix(j, n), v)
                for i, value in enumerate(stay):
                    new[n][i] += value
                if n >= 1:
                    down = _linalg.mat_vec(minus[(j, n)], v)
                    for i, value in enumerate(down):
                        new[n - 1][i] += value
            state = new
            support += 1
    return seq.omega_matrix(0)[0][0] * state[0][0]


def reconstruct_moments(seq: JacobiSequencePair, beta: MultiIndex) -> Fraction:
    """Vacuum expectation of prod_j (A+_{e_j} + alpha_{e_j} + A-_{e_j})^beta_j.

    Exact converse of compute: for sequences computed from a functional
    this returns that functional's moment at beta.  The ladder is
    truncated at max_level, so |beta| <= max_level is required
    (InsufficientDepthError otherwise).
    """
    _check_multi_index(seq, beta)
    return _expectation(seq, _ladder(seq), beta)


def reconstruct_moment_table(
    seq: JacobiSequencePair, max_degree: int
) -> dict:
    """All moments with |beta| <= max_degree, keyed by multi-index.

    The ladder operators are built once for the whole table.
    """
    out = {}
    ladder = None
    for n in range(max_degree + 1):
        for beta in monomials_of_degree(seq.d, n):
            _check_multi_index(seq, beta)
            ladder = ladder or _ladder(seq)
            out[beta] = _expectation(seq, ladder, beta)
    return out

