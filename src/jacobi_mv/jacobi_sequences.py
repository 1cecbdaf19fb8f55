"""Jacobi sequences (Omega_n, alpha_{j|n}) of a moment functional.

The degree-n class space is C^(classes(d,n)), indexed by occupation
vectors.  Sending a class to the creation chain

    U_n e_nbar = a+_{i_n} ... a+_{i_1} 1        (i_1 <= ... <= i_n)

identifies it with a spanning family of P_n, and

* Omega_n is the Gram matrix of the chain vectors (symmetric PSD),
* alpha_{j|n} represents the preservation operator pulled back through
  U_n.  The level bases are monic and creation only shifts leading
  monomials, so U_n e_nbar is the basis vector of x^nbar itself:
  Omega_n = G_n, and alpha solves G_n a = G_n Z with Z the preservation
  block.  When G_n has full rank that solution is Z, with no elimination;
  on a rank-deficient level the system is solved on the singular G_n with
  free variables set to zero (entries on null directions are 0 by
  convention).

A functional is finitely atomic exactly when some Omega_{n0} vanishes,
which detect_atoms decides in exact arithmetic; the number of atoms is
then at most the dimension of the polynomials of degree < n0.
Conversely the sequences determine the moments: the
truncated interacting Fock space over the class spaces with level inner
products <xi, Omega_n eta> carries commuting operators
A+_{e_j} + alpha_{e_j} + A-_{e_j} whose vacuum expectations reproduce
the moments.  A+ is the occupation shift nbar -> nbar + e_j, kept as an
index map rather than a matrix, and A- is its Omega-weighted adjoint.
The moment table builds each state X^beta vac from one state of the
degree below, so it costs one ladder step per moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from . import _linalg
from ._linalg import ONE, ZERO, Matrix, Vector
from .cap_operators import CAPSystem, build
from .errors import (
    InsufficientDepthError,
    InsufficientMomentsError,
    InternalConsistencyError,
    InvalidIndexError,
    RepresentationError,
)
from .moments import MomentFunctional, _exact_list
from .multiindex import (
    ClassBasis,
    MultiIndex,
    check_index,
    check_integer,
    degree,
    enumerate_classes,
    shift,
)
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
        check_index(n, "level", 0, self.max_level)

    def omega_matrix(self, n: int) -> Matrix:
        self._check_level(n)
        return _linalg.copy(self._omega[n])

    def alpha_matrix(self, j: int, n: int) -> Matrix:
        return _linalg.copy(self._stored_alpha(j, n))

    def _stored_alpha(self, j: int, n: int) -> Matrix:
        """alpha_{e_j|n} itself, not a copy; the caller must not change it."""
        self._check_level(n)
        check_index(j, "coordinate", 1, self.d)
        stored = self._alpha[n][j - 1]
        if stored is None:
            raise InsufficientMomentsError(
                f"alpha at top level {n} needs moments of degree {2 * n + 1}, "
                "beyond the available table"
            )
        return stored

    def alpha_available(self, j: int, n: int) -> bool:
        self._check_level(n)
        check_index(j, "coordinate", 1, self.d)
        return self._alpha[n][j - 1] is not None

    def alpha_for_direction(self, v: Sequence, n: int) -> Matrix:
        """alpha_{v|n} = sum_j v_j alpha_{e_j|n} (linearity in the direction)."""
        v = _exact_list(v, "direction")
        if len(v) != self.d:
            raise InvalidIndexError(
                f"direction vector must have d entries, got {len(v)} for d = {self.d}"
            )
        out = None
        for j, coeff in enumerate(v, start=1):
            term = _linalg.mat_scale(self.alpha_matrix(j, n), coeff)
            out = term if out is None else _linalg.mat_add(out, term)
        return out


def _check_max_level(max_level: int) -> None:
    check_integer(max_level, "max_level")
    if max_level < 0:
        raise InvalidIndexError(f"max_level must be >= 0, got {max_level}")


def compute(ops: CAPSystem, max_level: int) -> JacobiSequencePair:
    """Build the sequences from the level Grams and the preservation blocks.

    Omega_n is the level Gram G_n, and alpha_{j|n} is the preservation block
    Z on a full-rank level and the solution of G_n a = G_n Z otherwise, read
    off one reduction of G_n per level.
    """
    _check_max_level(max_level)
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
    omega: List[Matrix] = []
    alpha: List[List[Optional[Matrix]]] = []
    for n in range(max_level + 1):
        lv = decomp.level(n)
        om = lv.gram_matrix()
        omega.append(om)
        if lv.rank < len(lv):
            # rref([G | GZ]) = [R | RZ] for R = rref(G), so the solution with
            # free variables zero puts row r of RZ at the r-th pivot position
            reduced, pivots = _linalg.rref(om)
            reduced = reduced[: len(pivots)]
        per_level: List[Optional[Matrix]] = []
        for j in range(1, d + 1):
            try:
                z = ops.zero_matrix(j, n)
            except InsufficientMomentsError:
                per_level.append(None)
                continue
            if lv.rank < len(lv):
                rows = _linalg.mat_mul(reduced, z)
                z = _linalg.zeros(len(z), len(z))
                for row, c in zip(rows, pivots):
                    z[c] = row
            per_level.append(z)
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
    _check_max_level(max_level)
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


def _check_depth(seq: JacobiSequencePair, total: int) -> None:
    if total > seq.max_level:
        raise InsufficientDepthError(
            f"moment of degree {total} needs an operator chain through level "
            f"{total}, beyond the truncation at {seq.max_level}"
        )


def _check_multi_index(seq: JacobiSequencePair, beta: MultiIndex) -> None:
    d = seq.d
    if len(beta) != d:
        raise InvalidIndexError(
            f"multi-index length {len(beta)} != dimension {d}"
        )
    for b in beta:
        check_integer(b, "multi-index entry")
    if any(b < 0 for b in beta):
        raise InvalidIndexError(f"negative entry in multi-index {tuple(beta)}")
    _check_depth(seq, degree(beta))


def _ladder(seq: JacobiSequencePair) -> Tuple[dict, dict]:
    """A+ (the occupation shifts) and A- (their Omega-adjoints) of one pair.

    A+_{j|n} sends the class nbar of level n to the class nbar + e_j of
    level n+1, so it is kept as an index shift: for each source class, its
    row in level n+1.  A-_{j|n} solves Omega_{n-1} A- = (A+)^T Omega_n,
    whose right-hand side is the rows of Omega_n that A+_{j|n-1} hits.
    """
    d = seq.d
    bases = seq.class_bases
    plus: dict = {}
    minus: dict = {}
    for j in range(1, d + 1):
        step = tuple(1 if i == j - 1 else 0 for i in range(d))
        for n in range(seq.max_level):
            plus[(j, n)] = [bases[n + 1].index(shift(nbar, step)) for nbar in bases[n].classes]
        for n in range(1, seq.max_level + 1):
            omega = seq._omega[n]
            rhs = [omega[i] for i in plus[(j, n - 1)]]
            sol = _linalg.solve_consistent(seq._omega[n - 1], rhs)
            if sol is None:
                raise RepresentationError(
                    f"annihilation adjoint system at level {n}, coordinate {j} "
                    "is inconsistent with the omega sequence"
                )
            minus[(j, n)] = sol
    return plus, minus


def _memo_ladder(seq: JacobiSequencePair) -> Tuple[dict, dict]:
    """The pair's ladder, built by _ladder on first use and kept on the pair."""
    ladder = getattr(seq, "_ladder_memo", None)
    if ladder is None:
        ladder = seq._ladder_memo = _ladder(seq)
    return ladder


def _step(
    seq: JacobiSequencePair, ladder: Tuple[dict, dict], state: List[Vector], j: int
) -> List[Vector]:
    """X_j = A+_{e_j} + alpha_{e_j} + A-_{e_j} applied to a state.

    A state of degree m holds one class vector per level 0..m; its image
    holds levels 0..m+1.  Level n of the image gathers the creation image
    of level n-1 (a scatter along the index shift), alpha_{j|n} of level n
    and A-_{j|n+1} of level n+1.  alpha is read only on levels where the
    state is nonzero, so an unset alpha raises only when a step uses it.
    """
    plus, minus = ladder
    top = len(state)
    if top > seq.max_level:
        raise InsufficientDepthError(
            f"operator chain exceeds the truncation at level {seq.max_level}"
        )
    image: List[Vector] = []
    for n in range(top + 1):
        level = [ZERO] * len(seq.class_bases[n])
        if n:
            for k, i in enumerate(plus[(j, n - 1)]):
                level[i] = state[n - 1][k]
        blocks = []
        if n < top and any(state[n]):
            blocks.append((seq._stored_alpha(j, n), state[n]))
        if n + 1 < top and any(state[n + 1]):
            blocks.append((minus[(j, n + 1)], state[n + 1]))
        if blocks:
            level = [
                _linalg.sum_of_products(
                    chain(((ONE, c),), *(zip(m[i], v) for m, v in blocks))
                )
                for i, c in enumerate(level)
            ]
        image.append(level)
    return image


def _vacuum_expectation(seq: JacobiSequencePair, state: List[Vector]) -> Fraction:
    return seq._omega[0][0][0] * state[0][0]


def reconstruct_moments(seq: JacobiSequencePair, beta: MultiIndex) -> Fraction:
    """Vacuum expectation of prod_j (A+_{e_j} + alpha_{e_j} + A-_{e_j})^beta_j.

    Exact converse of compute: for sequences computed from a functional
    this returns that functional's moment at beta.  The ladder is
    truncated at max_level, so |beta| <= max_level is required
    (InsufficientDepthError otherwise).  X_1 acts first and X_d last,
    one ladder step per unit of |beta|; the ladder is built once per pair.
    """
    _check_multi_index(seq, beta)
    ladder = _memo_ladder(seq)
    state: List[Vector] = [[ONE]]
    for j, power in enumerate(beta, start=1):
        for _ in range(power):
            state = _step(seq, ladder, state, j)
    return _vacuum_expectation(seq, state)


def reconstruct_moment_table(
    seq: JacobiSequencePair, max_degree: int
) -> dict:
    """All moments with |beta| <= max_degree, keyed by multi-index in
    monomial_basis order.

    The ladder operators are built once per pair, and each
    state X^beta vac comes from one state of the degree below,
    X_j X^(beta - e_j) vac with j the last nonzero coordinate of beta (the
    operator order of reconstruct_moments): one ladder step per moment.
    """
    check_integer(max_degree, "max_degree")
    if max_degree < 0:
        raise InvalidIndexError(f"max_degree must be >= 0, got {max_degree}")
    # refuse before any ladder work, naming the first degree out of reach
    _check_depth(seq, min(max_degree, seq.max_level + 1))
    ladder = _memo_ladder(seq)
    vacuum = (0,) * seq.d
    states = {vacuum: [[ONE]]}
    out = {vacuum: _vacuum_expectation(seq, states[vacuum])}
    for n in range(1, max_degree + 1):
        below, states = states, {}
        for beta in monomials_of_degree(seq.d, n):
            j = max(i for i, b in enumerate(beta, start=1) if b)
            prev = beta[: j - 1] + (beta[j - 1] - 1,) + beta[j:]
            states[beta] = state = _step(seq, ladder, below[prev], j)
            out[beta] = _vacuum_expectation(seq, state)
    return out
