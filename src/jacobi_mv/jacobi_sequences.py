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
  convention), from one integer elimination of G_n itself on the indices
  whose diagonal entry is nonzero: each pivot row of a is Z's row plus
  Z's free rows weighted by the reduced Gram row, so G_n Z is never formed.

A functional is finitely atomic exactly when some Omega_{n0} vanishes,
which detect_atoms decides in exact arithmetic; the number of atoms is
then the sum of the ranks below n0, at most the dimension of the
polynomials of degree < n0.  For a positive functional every level past
n0 is null, so detect_atoms and compute_from_functional stop at n0.
Conversely the sequences determine the moments: the
truncated interacting Fock space over the class spaces with level inner
products <xi, Omega_n eta> carries commuting operators
A+_{e_j} + alpha_{e_j} + A-_{e_j} whose vacuum expectations reproduce
the moments.  A+ is the occupation shift nbar -> nbar + e_j, kept as an
index map rather than a matrix, and A- is its Omega-weighted adjoint.
The moment table builds each state X^beta vac from one state of the
degree below, so it costs one ladder step per moment.  Each X_j moves a
class vector by at most one level, so level k of a state of degree m can
reach the vacuum of a moment of degree M only if k <= M - m: a state keeps
only its levels 0..min(m, M - m), and the largest states, those of the top
degrees, shrink back to the vacuum.
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
from .moments import MomentFunctional
from .multiindex import (
    ClassBasis,
    MultiIndex,
    check_degree,
    check_index,
    check_multi_index,
    degree,
    enumerate_classes,
    exact_list,
)
from .orthodecomp import Level, _decompose_to_n0, graded_index


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
        self._check_level(n)
        check_index(j, "coordinate", 1, self.d)
        return _linalg.copy(self._unchecked_alpha(j, n))

    def _unchecked_alpha(self, j: int, n: int) -> Matrix:
        """alpha_{e_j|n} itself, not a copy, for a level and coordinate in
        range; the caller must not change it.  An unset alpha raises."""
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
        v = exact_list(v, "direction")
        if len(v) != self.d:
            raise InvalidIndexError(
                f"direction vector must have d entries, got {len(v)} for d = {self.d}"
            )
        out = None
        for j, coeff in enumerate(v, start=1):
            term = _linalg.mat_scale(self.alpha_matrix(j, n), coeff)
            out = term if out is None else _linalg.mat_add(out, term)
        return out


def compute(ops: CAPSystem, max_level: int) -> JacobiSequencePair:
    """Build the sequences from the level Grams and the preservation blocks.

    Omega_n is the level Gram G_n, and alpha_{j|n} is the preservation block
    Z on a full-rank level and otherwise the solution of G_n a = G_n Z
    (_deficient_alpha): one integer elimination of G_n per level for all
    coordinates, with no G_n Z formed.  That elimination runs on the indices
    where G_n has a nonzero diagonal; the rows of the others are 0, so a
    level with G_n = 0 has alpha = 0 with no elimination.  The class basis
    of each level is enumerate_classes' shared one, whose classes are the
    level's monomials.
    """
    check_degree(max_level, "max_level")
    if ops.max_degree < max_level:
        raise InvalidIndexError(
            f"operator set reaches degree {ops.max_degree}, need {max_level}"
        )
    decomp = ops.decomposition
    d = decomp.d
    levels = [decomp.level(n) for n in range(max_level + 1)]
    class_bases = [enumerate_classes(d, lv.n) for lv in levels]
    omega: List[Matrix] = []
    alpha: List[List[Optional[Matrix]]] = []
    for lv in levels:
        om = lv.gram_matrix()
        omega.append(om)
        per_level: List[Optional[Matrix]] = []
        for j in range(1, d + 1):
            try:
                per_level.append(ops.zero_matrix(j, lv.n))
            except InsufficientMomentsError:
                per_level.append(None)
        if lv.rank < len(lv):
            per_level = _deficient_alpha(lv, decomp.gram_rows[lv.n], per_level)
        alpha.append(per_level)
    return JacobiSequencePair(d, max_level, class_bases, omega, alpha)


def _deficient_alpha(
    lv: Level, rows: _linalg.Rows, blocks: List[Optional[Matrix]]
) -> List[Optional[Matrix]]:
    """The solution of G a = G Z with free variables set to 0, for each set
    block Z of a rank-deficient level, from one elimination of G.

    The Gram is certified PSD, so a zero diagonal entry G_ii has a zero row
    and column: that unknown is free and its row of a is 0.  G is eliminated
    on the other (live) indices only, as primitive integer rows made from
    rows, G's integer rows that decompose kept (Decomposition.gram_rows),
    each copied first, since the elimination writes rows in place.  The
    Gauss-Jordan row operations E on [G | G Z] give E G = [R; 0], so the
    right-hand side reduces to [R Z; 0] without forming G Z: for the pivot
    row R_r of column c, with pivot p = R_r[c], a[c] = (R_r Z) / p, that is
    Z[c] plus (R_r[f] / p) Z[f] over the free live indices f.  Every row
    that is not a pivot column's is 0.
    """
    m = len(lv)
    out = [None if z is None else [[ZERO] * m for _ in range(m)] for z in blocks]
    live = [i for i, null in enumerate(lv.null_mask) if not null]
    if live and any(z is not None for z in blocks):
        reduced = [
            _linalg._primitive(list(nums)) for nums, _ in _linalg.principal_rows(rows, live)
        ]
        for row, c in zip(reduced, _linalg._eliminate(reduced, len(live))):
            # R_r[c] / p is 1 and R_r is 0 at the other pivots
            weights = [(live[f], Fraction(x, row[c])) for f, x in enumerate(row) if x]
            for z, a in zip(blocks, out):
                if z is not None:
                    a[live[c]] = [
                        _linalg.sum_of_products((w, z[t][k]) for t, w in weights)
                        for k in range(m)
                    ]
    return out


def compute_from_functional(
    functional: MomentFunctional, max_level: int
) -> JacobiSequencePair:
    """Convenience: decompose, build operators, compute sequences.

    A positive functional goes only up to its first vanishing level n0
    (_decompose_to_n0): every column past n0 has a null parent, so every
    later level is null, and its Omega_n and alpha_{j|n} (free variables
    at 0, as in _deficient_alpha) are set zero matrices.
    """
    decomp = _decompose_to_n0(functional, max_level)
    seq = compute(build(decomp), decomp.max_degree)
    for n in range(decomp.max_degree + 1, max_level + 1):
        seq.class_bases.append(enumerate_classes(seq.d, n))
        size = len(seq.class_bases[n])
        seq._omega.append(_linalg.zeros(size, size))
        seq._alpha.append([_linalg.zeros(size, size) for _ in range(seq.d)])
    seq.max_level = max_level
    return seq


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
    """Outcome of the vanishing-level scan; inconclusive is explicit.

    atom_count is sum(ranks[:n0]) when a level vanishes, else None: the
    moment matrix is then flat, so its rank, the number of atoms, is that
    of degree < n0 (Curto & Fialkow, Solution of the truncated complex
    moment problem for flat data, Mem. AMS 1996)."""

    found: bool
    n0: Optional[int]
    atom_bound: Optional[int]
    ranks: Tuple[int, ...]
    max_level: int
    atom_count: Optional[int]


def detect_atoms(functional: MomentFunctional, max_level: int) -> AtomDetection:
    """Scan for the smallest level n0 with Omega_{n0} = 0 exactly.

    A vanishing level certifies a finitely atomic functional with at most
    binomial(n0-1+d, d) atoms, exactly sum(ranks[:n0]) of them.  Needs
    moments to degree 2*max_level.  With the monic bases the chain Gram
    Omega_n coincides with the level Gram, so the scan reads the
    decomposition directly.  A positive functional is decomposed only up to
    n0 (_decompose_to_n0): every column past it has a null parent, so every
    later level is null, of rank 0.
    """
    check_degree(max_level, "max_level")
    decomp = _decompose_to_n0(functional, max_level)
    # a Gram vanishes exactly when its rank is 0
    ranks = tuple(lv.rank for lv in decomp.levels) + (0,) * (max_level - decomp.max_degree)
    if 0 not in ranks:
        return AtomDetection(False, None, None, ranks, max_level, None)
    n0 = ranks.index(0)
    for n, rank in enumerate(ranks[n0:], start=n0):
        if rank:
            raise InternalConsistencyError(
                f"Omega vanishes at level {n0} but not at level {n}"
            )
    bound = math.comb(n0 - 1 + functional.d, functional.d)
    return AtomDetection(True, n0, bound, ranks, max_level, sum(ranks[:n0]))


# --------------------------------------------------------------------------
# moment reconstruction (the converse direction)
# --------------------------------------------------------------------------


def _check_depth(seq: JacobiSequencePair, total: int) -> None:
    if total > seq.max_level:
        raise InsufficientDepthError(
            f"moment of degree {total} needs an operator chain through level "
            f"{total}, beyond the truncation at {seq.max_level}"
        )


def _ladder(seq: JacobiSequencePair) -> Tuple[dict, dict]:
    """A+ (the occupation shifts) and A- (their Omega-adjoints) of one pair.

    A+_{j|n} sends the class nbar of level n to the class nbar + e_j of
    level n+1, so it is kept as an index shift: for each source class, its
    row in level n+1, read off the creation map of the graded index of
    (d, max_level) (GradedIndex.up), whose levels are the pair's canonical
    class bases.  A-_{j|n} solves Omega_{n-1} A- = (A+)^T Omega_n,
    whose right-hand side is the rows of Omega_n that A+_{j|n-1} hits.  The
    d systems of a level share Omega_{n-1}, so their right-hand sides are
    set side by side and solved by one integer elimination
    (_linalg.solve_stacked), with free variables set to 0.  When a level's
    systems are inconsistent, they are solved one at a time
    (_linalg.first_inconsistent) to name the first that fails.
    """
    d = seq.d
    index = graded_index(d, seq.max_level)
    starts = index.starts
    plus: dict = {}
    minus: dict = {}
    for j in range(1, d + 1):
        for n in range(seq.max_level):
            plus[(j, n)] = [p - starts[n + 1] for p in index.up[j - 1][starts[n] : starts[n + 1]]]
    for n in range(1, seq.max_level + 1):
        ratios = [[v.as_integer_ratio() for v in row] for row in seq._omega[n]]
        blocks = _linalg.solve_stacked(
            _linalg.integer_rows(seq._omega[n - 1]),
            [[ratios[i] for i in plus[(j, n - 1)]] for j in range(1, d + 1)],
        )
        if blocks is None:
            # name the first inconsistent system, coordinate by coordinate
            # and level by level within each
            j, level = _linalg.first_inconsistent(
                (
                    (j, m),
                    _linalg.integer_rows(seq._omega[m - 1]),
                    [[v.as_integer_ratio() for v in seq._omega[m][i]] for i in plus[(j, m - 1)]],
                )
                for j in range(1, d + 1)
                for m in range(1, seq.max_level + 1)
            )
            raise RepresentationError(
                f"annihilation adjoint system at level {level}, coordinate {j} "
                "is inconsistent with the omega sequence"
            )
        for j, block in enumerate(blocks, 1):
            minus[(j, n)] = block
    return plus, minus


def _memo_ladder(seq: JacobiSequencePair) -> Tuple[dict, dict]:
    """The pair's ladder, built by _ladder on first use and kept on the pair."""
    ladder = getattr(seq, "_ladder_memo", None)
    if ladder is None:
        ladder = seq._ladder_memo = _ladder(seq)
    return ladder


def _step(
    seq: JacobiSequencePair,
    ladder: Tuple[dict, dict],
    state: List[Vector],
    j: int,
    top: int,
) -> List[Vector]:
    """X_j = A+_{e_j} + alpha_{e_j} + A-_{e_j} applied to a state, on levels
    0..top of the image only.

    A state holds one class vector per level from 0 up, and its levels
    past the end are zero.  A state of degree m spans levels 0..m, so its
    image spans 0..m+1; the caller passes the highest level it still needs,
    at most len(state), and nothing above it is computed.  Level n of the
    image gathers the creation image of level n-1 (a scatter along the
    index shift), alpha_{j|n} of level n and A-_{j|n+1} of level n+1.
    alpha is read only on levels up to top where the state is nonzero, so
    an unset alpha raises only when a step uses it.  The level and j are in
    range by construction, so alpha is read with no index check.
    """
    plus, minus = ladder
    if top > seq.max_level:
        raise InsufficientDepthError(
            f"operator chain exceeds the truncation at level {seq.max_level}"
        )
    held = len(state)
    image: List[Vector] = []
    for n in range(top + 1):
        level = [ZERO] * len(seq.class_bases[n])
        if n:
            for k, i in enumerate(plus[(j, n - 1)]):
                level[i] = state[n - 1][k]
        blocks = []
        if n < held and any(state[n]):
            blocks.append((seq._unchecked_alpha(j, n), state[n]))
        if n + 1 < held and any(state[n + 1]):
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
    After step t the state keeps levels 0..min(t, |beta| - t), the ones
    that the |beta| - t steps left can still bring down to the vacuum.
    """
    beta = check_multi_index(beta, seq.d)
    total = degree(beta)
    _check_depth(seq, total)
    ladder = _memo_ladder(seq)
    state: List[Vector] = [[ONE]]
    steps = chain.from_iterable([j] * power for j, power in enumerate(beta, start=1))
    for t, j in enumerate(steps, start=1):
        state = _step(seq, ladder, state, j, min(t, total - t))
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
    A state of degree m keeps levels 0..min(m, max_degree - m) only, since
    a higher level cannot reach the vacuum within the degrees left.  The
    multi-indices of each degree are enumerate_classes' shared classes,
    enumerated once per process.
    """
    check_degree(max_degree, "max_degree")
    # refuse before any ladder work, naming the first degree out of reach
    _check_depth(seq, min(max_degree, seq.max_level + 1))
    ladder = _memo_ladder(seq)
    vacuum = (0,) * seq.d
    states = {vacuum: [[ONE]]}
    out = {vacuum: _vacuum_expectation(seq, states[vacuum])}
    for n in range(1, max_degree + 1):
        below, states = states, {}
        top = min(n, max_degree - n)
        for beta in enumerate_classes(seq.d, n).classes:
            j = max(i for i, b in enumerate(beta, start=1) if b)
            prev = beta[: j - 1] + (beta[j - 1] - 1,) + beta[j:]
            states[beta] = state = _step(seq, ladder, below[prev], j, top)
            out[beta] = _vacuum_expectation(seq, state)
    return out
