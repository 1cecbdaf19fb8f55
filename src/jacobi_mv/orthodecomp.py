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
MomentMatrix.pair_code, the one summation kernel, takes that form, so a
pairing is an integer dot product against the moments' integer ratios.
The projections stay in integers.  Each level's Gram is made integer
rows once, when its level is done: its PSD certificate (_linalg.ldlt_psd)
reads them, the Decomposition keeps them (gram_rows), and build's
top-level solves read G_N's and G_{N-1}'s.  The right-hand sides are
pair_code's ratios, _linalg.solve_ratios eliminates [G_m | R] on those
rows restricted to the columns level m offers (see Null directions), and
its (num, den) coefficients are subtracted from the columns
(IntegerColumn.subtract_from) with no Fraction built.  Fractions appear
only in the stored level Grams and what the Decomposition returns.  All
pairings of a level are made, monomial by monomial, before any is solved,
so a missing moment is named before an inconsistent projection.  The
moments are keyed by packed exponent codes (pack), so pairing a column with
x^beta shifts each of its monomials by one integer add.

The order itself, the GradedIndex of (d, N), is built once per process:
the degree classes of every level (enumerate_classes' memoized tuples),
the basis, each monomial's position, each code and each parity (the bit
set of its odd exponents, odd_bits), the code of each e_j, and the
creation map, the position of each monomial below the top degree times
each x_j.  Every MomentMatrix of that (d, N), and so every decomposition,
reads the one index, and the library's pairings address every shift by
position in it: the shift by basis monomial a is codes[a] with parity
parities[a], the shift by beta_k + e_j is codes[a_k] + units[j] with
parity parities[a_k] ^ (1 << j), and no multi-index is packed or checked
on the way.  A moment's multi-index is built only when the moment is
first fetched.  pair_code is the one pairing entry: every shift the
library makes stays inside the radix, so there is no multi-index to
check.

Structural zeros cost nothing:

* Reflection parity.  A functional reports the coordinates in which it
  is even (MomentFunctional.reflection_mask: all of them for the
  gaussian weight, those with a_j = b_j for the beta weight, none for
  the others).  Its orthogonal polynomials then have the parity of their
  leading monomial in those coordinates, so decompose records that
  parity on each column.  A pairing of a column with a shift of the
  other parity on the mask is 0: decompose and build's top pairings test
  the parity inline and never visit such a pair, and pair_code answers
  (0, 1) for one without reading a moment.
* Product weights.  A product weight says so (MomentFunctional.product:
  the gaussian, gamma and beta weights, never an atom set or a table).
  Its monic basis is the tensor product b_beta = prod_j p^(j)_(beta_j)(x_j)
  of its factors' monic orthogonal polynomials, which by Fubini is
  orthogonal to every x^gamma of lower degree (some gamma_j < beta_j).  So
  decompose pairs, projects and certifies nothing: it reads the axis
  moments phi(x_j^k), k <= 2N+1 (MomentMatrix.axis), runs each distinct
  factor's exact Stieltjes step (_stieltjes) and assembles the columns and
  the diagonal Grams from the recurrences (_tensor_decompose), which it
  keeps for build (Decomposition.recurrences).  closed_forms is never
  read, so verify_family still checks this against independent formulas.
* Null directions.  A functional that is positive by construction says
  so (MomentFunctional.positive: an atom set, never a table).  A
  polynomial b with phi(b^2) = 0 then pairs to 0 with every polynomial p,
  since phi(b p)^2 <= phi(b^2) phi(p^2) (Cauchy-Schwarz); these
  polynomials form the ideal N_phi of null polynomials, which holds every
  direction past the first vanishing level of an atom set and the
  degenerate ones below it, and a projection onto P_m needs only a basis
  of P_m modulo N_phi.  So decompose uses the ideal in full:
  - a column b_beta with a null parent b_(beta-e_j) is null, being
    x_j b_(beta-e_j) less lower levels, so its diagonal is not paired;
  - every other diagonal is paired first, and neither the Gram nor any
    later projection pairs a null column;
  - the projections onto P_m pair only the pivots P of G_m, which
    ldlt_psd returns: they are G_m's first independent columns, every
    other column differs from a combination of them by a null
    polynomial, and the solve on G_m[P, P] gives what the solve on all of
    G_m gives, with the free variables at 0.
  build's top pairings skip every pair with a null vector of level N.
  Past the first level n0 of rank 0 every column has a null parent, so
  every later level is null: _decompose_to_n0 stops after n0.  A
  functional that is not positive offers every column of each level, on
  the same code path, so it pays no test per pairing, its projections
  still certify consistency, and its pairings keep their order, in which
  a missing moment is named.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm
from operator import add
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import _linalg
from ._linalg import ZERO, Matrix
from .errors import DimensionMismatchError, InsufficientMomentsError, NotAStateError
from .moments import MomentFunctional
from .multiindex import (
    MultiIndex,
    SizedMemo,
    _check_dimension,
    check_degree,
    check_index,
    enumerate_classes,
    exact,
)
from .polyring import Polynomial


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
    column[a] = numerator / denominator; every other entry is zero.  parity,
    when set, is the parity (odd_bits) that the monomials of all the terms
    share on the moment matrix's nonzero reflection mask (see
    MomentMatrix.pair_code); it is no part of the column's value, so
    equality ignores it.
    """

    terms: Tuple[Tuple[int, int], ...]
    denominator: int
    parity: Optional[int] = field(default=None, compare=False)

    @classmethod
    def of(
        cls, ratios: Iterable[Tuple[int, int]], parity: Optional[int] = None
    ) -> "IntegerColumn":
        """The column whose entry a is p/q for the a-th pair (p, q), q > 0.

        A Fraction column passes map(Fraction.as_integer_ratio, column).
        """
        reduced = []
        for a, (p, q) in enumerate(ratios):
            if p:
                g = gcd(p, q)
                reduced.append((a, p // g, q // g))
        den = lcm(*(q for _, _, q in reduced))
        return cls(tuple((a, p * (den // q)) for a, p, q in reduced), den, parity)

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


def pack(beta: Sequence[int], radix: int) -> int:
    """The exponent code sum_i beta_i radix^i of a multi-index.

    Two multi-indices with entries below radix have equal codes only when
    they are equal, and code(alpha + beta) = code(alpha) + code(beta)
    whenever every entry of alpha + beta stays below radix.
    """
    return sum(b * radix**i for i, b in enumerate(beta) if b)


def odd_bits(beta: Sequence[int]) -> int:
    """The coordinates where beta is odd, as a bit set: bit i for beta[i]."""
    return sum(1 << i for i, b in enumerate(beta) if b & 1)


@dataclass(frozen=True)
class GradedIndex:
    """The graded monomial basis of degree <= N over R^d and its moment keys.

    levels[n] is the tuple of degree-n classes in canonical order (the very
    tuple enumerate_classes(d, n) holds), basis their concatenation, and
    starts[n] the position of level n's first monomial in it.  position maps
    a basis monomial to its position, codes[a] is the code of basis
    monomial a in radix 2N+2 (pack), and code_position maps a code back to
    its position.  parities[a] is odd_bits of basis monomial a.

    Shifting by e_j (j from 0) needs no multi-index: its code is
    units[j] = radix**j and its parity the bit 1 << j.  up is the creation
    map: up[j][a] is the position of basis[a] + e_j, for every a below the
    top degree.  One index serves every caller of its (d, N), so the two
    dicts are never written after construction.
    """

    levels: Tuple[Tuple[MultiIndex, ...], ...]
    basis: Tuple[MultiIndex, ...]
    starts: Tuple[int, ...]
    position: Dict[MultiIndex, int]
    radix: int
    codes: Tuple[int, ...]
    code_position: Dict[int, int]
    parities: Tuple[int, ...]
    units: Tuple[int, ...]
    up: Tuple[Tuple[int, ...], ...]

    def entries(self) -> int:
        """The exponent entries held: the basis's and the creation map's."""
        return len(self.units) * (len(self.basis) + self.starts[-2])


def graded_index(d: int, max_degree: int) -> GradedIndex:
    """The GradedIndex of (d, N), built on the first call and then shared.

    Both arguments are checked before the memo, which keeps the most
    recently used indexes up to MEMO_ENTRIES exponent entries (SizedMemo)
    and nothing else: no functional and no moment.  An index larger than
    that is built on every call.
    """
    _check_dimension(d)
    check_degree(max_degree, "max_degree")
    return _graded_index(d, max_degree)


def _build_index(d: int, max_degree: int) -> GradedIndex:
    levels = tuple(enumerate_classes(d, n).classes for n in range(max_degree + 1))
    basis = tuple(chain.from_iterable(levels))
    starts = tuple(accumulate(map(len, levels), initial=0))
    radix = 2 * max_degree + 2
    codes = tuple(pack(alpha, radix) for alpha in basis)
    code_position = {c: a for a, c in enumerate(codes)}
    units = tuple(radix**j for j in range(d))
    # below the top degree a monomial plus e_j stays in the basis, with no carry
    below = codes[: starts[max_degree]]
    up = tuple(tuple(map(code_position.__getitem__, map(u.__add__, below))) for u in units)
    return GradedIndex(
        levels,
        basis,
        starts,
        {beta: a for a, beta in enumerate(basis)},
        radix,
        codes,
        code_position,
        tuple(map(odd_bits, basis)),
        units,
        up,
    )


_graded_index = SizedMemo(_build_index, GradedIndex.entries)


class MomentMatrix:
    """M[a][b] = phi(x^(a+b)) over the graded basis of degree <= N, filled
    on first use.

    Each distinct moment is fetched once and kept as its integer ratio, and
    one that the functional cannot supply raises only when a computation
    needs it.  A moment is keyed by the exponent code of its multi-index in
    radix R = 2N+2 (see pack): a basis monomial has entries <= N and every
    multi-index it is shifted by has degree <= N+1, so the entries of a key
    stay <= 2N+1 and shifting a monomial is one integer add of codes.
    The basis, position, radix, codes and code_position are those of the
    shared GradedIndex of (d, N) (graded_index), never to be written; the
    moments stay with this instance.

    mask is the functional's reflection_mask: every moment with an odd
    exponent at a coordinate in it vanishes.  pair_code is the one
    summation kernel: it takes a shift as its code and its parity on the
    mask, which the library's callers read off the index by position.
    """

    def __init__(self, functional: MomentFunctional, max_degree: int):
        self.functional = functional
        self.max_degree = max_degree
        self.index = index = graded_index(functional.d, max_degree)
        self.basis, self.position, self.radix = index.basis, index.position, index.radix
        self.codes, self.code_position = index.codes, index.code_position
        self.mask = functional.reflection_mask()
        self.positive = functional.positive()
        self._moments: Dict[int, Tuple[int, int]] = {}

    def parity(self, a: int) -> Optional[int]:
        """The parity of basis monomial a on the mask (odd_bits & mask), or
        None when the mask is empty: the parity a column of that leading
        monomial records (IntegerColumn.parity), and pair_code's argument
        for a shift by it."""
        return self.index.parities[a] & self.mask if self.mask else None

    def pair_code(
        self, column: IntegerColumn, shift: int, parity: Optional[int], beta: MultiIndex
    ) -> Tuple[int, int]:
        """phi(b * x^beta) as an integer ratio (p, q), q > 0, not reduced,
        for the shift beta of this code and parity on the mask (None when
        the mask is empty).

        The moment phi(x^(alpha+beta)) is fetched only where the column's
        coefficient at alpha is nonzero, so a table that lacks the moments at
        the zero coefficients still pairs.  The sum is one integer numerator
        over the running lcm of the moment denominators, times the column's
        denominator.  When the column's parity on the mask is known and is
        not beta's, every alpha+beta is odd at some coordinate of the mask,
        so every moment read would be 0: the pairing is (0, 1), and no moment
        is read.  beta itself is read only to name a moment not yet fetched.
        """
        if column.parity is not None and column.parity != parity:
            return 0, 1
        codes, moments = self.codes, self._moments
        num, den = 0, 1
        for a, c in column.terms:
            moment = moments.get(codes[a] + shift)
            if moment is None:
                moment = self._fetch(a, shift, beta)
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

    def axis(self, j: int, k: int) -> Tuple[int, int]:
        """phi(x_j^k), j from 0 and k <= 2N+1, as an integer ratio: (0, 1)
        unread when k is odd and coordinate j is in the mask, else fetched
        once and kept under its code."""
        if k & 1 and self.mask >> j & 1:
            return 0, 1
        shift = k * self.index.units[j]
        beta = (0,) * j + (k,) + (0,) * (self.functional.d - j - 1)
        return self._moments.get(shift) or self._fetch(0, shift, beta)

    def _fetch(self, a: int, shift: int, beta: MultiIndex) -> Tuple[int, int]:
        """Fetch phi(x^(alpha+beta)) for basis monomial a and keep its ratio."""
        key = tuple(map(add, self.basis[a], beta))
        moment = self.functional.moment(key).as_integer_ratio()
        self._moments[self.codes[a] + shift] = moment
        return moment


class Decomposition:
    """The levels P_0..P_N, their basis columns and the moment matrix.

    forms[p] is basis polynomial p (graded order) over the monomial basis,
    as an IntegerColumn: its last term is p, the leading coefficient 1.
    gram_rows[m] is G_m as integer rows (_linalg.integer_rows) for every
    level m, formed once by decompose for its PSD certificate (or read off
    a product weight's diagonal G_m).
    recurrences[j-1] is the Recurrence of coordinate j's factor for a
    product weight (MomentFunctional.product), and None otherwise.
    """

    def __init__(
        self,
        moments: MomentMatrix,
        levels: Sequence[Level],
        forms: Sequence[IntegerColumn],
        gram_rows: Sequence[List[Tuple[List[int], int]]],
        recurrences: Optional[Sequence["Recurrence"]] = None,
    ):
        self.moments = moments
        self.functional = moments.functional
        self.levels = list(levels)
        self.forms = list(forms)
        self.gram_rows = list(gram_rows)
        self.recurrences = recurrences
        self.d = self.functional.d
        self.max_degree = len(self.levels) - 1
        self.starts = moments.index.starts[: len(self.levels) + 1]

    def level(self, n: int) -> Level:
        check_index(n, "level", 0, self.max_degree, "computed range ")
        return self.levels[n]

    def level_forms(self, n: int) -> List[IntegerColumn]:
        """The integer forms of level n's columns, for MomentMatrix.pair_code."""
        self.level(n)  # range check
        return self.forms[self.starts[n] : self.starts[n + 1]]

    def _exact_vector(self, vector: Sequence) -> List[Fraction]:
        """The entries of a coefficient vector as Fractions; a vector of the
        wrong length or with an inexact entry is refused."""
        if len(vector) != len(self.forms):
            raise DimensionMismatchError(
                f"vector length {len(vector)} != basis size {len(self.forms)}"
            )
        return [exact(v, "vector entry") for v in vector]

    def split(self, vector: Sequence) -> List[List[Fraction]]:
        """Level coordinates of a coefficient vector, by back substitution."""
        vector = self._exact_vector(vector)
        nums, dens = map(list, zip(*(v.as_integer_ratio() for v in vector)))
        return self.split_ratios(nums, dens)

    def split_ratios(self, nums: List[int], dens: List[int]) -> List[List[Fraction]]:
        """Level coordinates of the vector with entries nums[a]/dens[a]:
        back_substitute's coordinates, sliced level by level."""
        x = self.back_substitute(nums, dens)
        return [x[s:e] for s, e in zip(self.starts, self.starts[1:])]

    def back_substitute(self, nums: List[int], dens: List[int]) -> List[Fraction]:
        """The coordinates of the vector with entries nums[a]/dens[a] in the
        basis, one per basis position.

        The columns are monic, so the coordinate of basis vector p is the
        entry left at p once the higher basis vectors are subtracted, in
        integers; each entry becomes a Fraction once, when it is reached,
        and every other coordinate is the shared ZERO.  The two lists are
        used as scratch space.
        """
        x = [ZERO] * len(nums)
        for p in reversed(range(len(x))):
            if nums[p]:
                x[p] = Fraction(nums[p], dens[p])
                self.forms[p].subtract_from(nums, dens, *x[p].as_integer_ratio())
        return x

    def polynomial(self, vector: Sequence) -> Polynomial:
        """The polynomial with this coefficient vector over the monomial basis."""
        return Polynomial(self.d, dict(zip(self.moments.basis, self._exact_vector(vector))))

    def expand(self, n: int, coords: Sequence) -> List[Fraction]:
        """Coefficient vector of the level-n combination with these coordinates."""
        forms = self.level_forms(n)
        if len(coords) != len(forms):
            raise DimensionMismatchError(
                f"coordinate count {len(coords)} != level {n} size {len(forms)}"
            )
        nums, dens = [0] * len(self.forms), [1] * len(self.forms)
        for coeff, form in zip(coords, forms):
            coeff = exact(coeff, "coordinate")
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


Step = Tuple[Level, List[IntegerColumn], _linalg.Rows]


def decompose(functional: MomentFunctional, max_degree: int) -> Decomposition:
    """Orthogonalize the monomials degree by degree against the functional.

    Needs moments up to degree 2*max_degree.  Each level's monomials are
    the classes of the shared GradedIndex, and Level.monomials is that very
    tuple; each x^beta is paired by its position in the index
    (MomentMatrix.pair_code).  When the functional has a reflection mask,
    each basis column records its parity on it, that of its leading
    monomial.  The functional being even in the coordinates of the mask,
    b_beta has the parity of x^beta there: the pairings across parities are
    exactly zero, so the projections and the level Grams pair x^beta only
    with columns of its own parity, and the others are never visited.
    When the functional is positive (MomentFunctional.positive), each
    level Gram's diagonal is paired first, except at a column with a null
    parent b_(beta-e_j), which the ideal of null polynomials makes null
    unpaired; a null column, one whose diagonal is 0, pairs to 0 with
    everything, so its row and column of the Gram are left 0 unpaired.
    The later projections onto a level then pair only the pivots of its
    Gram (ldlt_psd's PSDReport.pivots) and solve on the Gram restricted to
    them, on rows sliced from the level's integer rows; for any other
    functional every column is offered.  Either way the columns are those
    of the full solve with its free variables at 0.  A product weight
    (MomentFunctional.product) pairs nothing: its decomposition is
    assembled from its factors' recurrences (_tensor_decompose).
    """
    check_degree(max_degree, "max_degree")
    moments = MomentMatrix(functional, max_degree)
    if functional.product():
        return _tensor_decompose(moments)
    return _assemble(moments, _generic_levels(moments))


def _decompose_to_n0(functional: MomentFunctional, max_degree: int) -> Decomposition:
    """decompose, stopped after the first level n0 of rank 0 for a positive
    functional: each degree-(n0+1) column is x_j times a null column less
    lower levels, so it is null, and so is every later level, G_n = 0.
    Any other functional gets decompose's whole decomposition."""
    if functional.product() or not functional.positive():
        return decompose(functional, max_degree)
    check_degree(max_degree, "max_degree")
    moments = MomentMatrix(functional, max_degree)
    steps = []
    for step in _generic_levels(moments):
        steps.append(step)
        if not step[0].rank:
            break
    return _assemble(moments, steps)


def _assemble(moments: MomentMatrix, steps: Iterable[Step]) -> Decomposition:
    """The Decomposition of _generic_levels' steps, level by level."""
    levels, forms, grams = zip(*steps)
    return Decomposition(moments, levels, chain.from_iterable(forms), grams)


def _generic_levels(moments: MomentMatrix) -> Iterator[Step]:
    """decompose's levels 0..N for any functional but a product weight, one
    at a time: each Level with its basis columns and G_n as integer rows."""
    index, pair = moments.index, moments.pair_code
    # (m, G_m on the offered columns as integer rows, those columns) for
    # each lower level m that offers a column to the projections
    offered: List[Tuple[int, List[Tuple[List[int], int]], List[IntegerColumn]]] = []
    null: List[int] = []  # positions of the previous level's null columns
    for n, (monos, start) in enumerate(zip(index.levels, index.starts)):
        positions = range(start, start + len(monos))
        codes = index.codes[start : start + len(monos)]
        parities = [moments.parity(a) for a in positions]
        # rhs[k][t][i] = <b_i, x^beta_k> for the i-th column offered by the
        # t-th lower level in offered, as an integer ratio
        rhs = [
            [
                [pair(f, code, parity, beta) if f.parity == parity else (0, 1) for f in lower]
                for _, _, lower in offered
            ]
            for code, parity, beta in zip(codes, parities, monos)
        ]
        # each column x^beta as numerators over denominators, less its projections
        block = [([0] * a + [1], [1] * (a + 1)) for a in positions]
        for t, (_, g, lower) in enumerate(offered):
            # one elimination of G_m for all monomials: its row operations
            # depend only on G_m, so each column gets what its own solve gives
            sol = _linalg.solve_ratios(g, [list(column) for column in zip(*(r[t] for r in rhs))])
            if sol is None:
                # name the first inconsistent projection, monomial by monomial
                beta, lower_n = _linalg.first_inconsistent(
                    ((beta, m), g, [[v] for v in r])
                    for beta, per_level in zip(monos, rhs)
                    for (m, g, _), r in zip(offered, per_level)
                )
                raise NotAStateError(
                    f"projection of x^{tuple(beta)} onto degree {lower_n} is "
                    "inconsistent; the moments are not positive semidefinite"
                )
            for k, col in enumerate(block):
                for coeffs, f in zip(sol, lower):
                    num, den = coeffs[k]
                    if num:
                        f.subtract_from(*col, num, den)
        block_forms = [IntegerColumn.of(zip(*col), parity) for col, parity in zip(block, parities)]
        # b_i is orthogonal to the lower levels, so <b_i, x^beta_k> = <b_i, b_k>
        # and the lower triangle mirrors the upper one
        size = len(block)
        gram = [[ZERO] * size for _ in range(size)]
        if moments.positive:
            # the null polynomials form an ideal: x_j b_(beta-e_j) is null when
            # its parent is, and b_beta differs from it by lower levels, to
            # which b_beta is orthogonal, so b_beta is null too, unpaired
            inherited = {up[a] - start for up in index.up for a in null}
            # a null b_i pairs to 0 with every b_k, so the diagonal is paired
            # first and a null column's row and column are never visited
            for i, f in enumerate(block_forms):
                if i not in inherited:
                    num, den = pair(f, codes[i], parities[i], monos[i])
                    if num:
                        gram[i][i] = Fraction(num, den)
            live = [i for i in range(size) if gram[i][i]]
            pairs = [(i, live[p + 1 :]) for p, i in enumerate(live)]
        else:
            pairs = [(i, range(i, size)) for i in range(size)]
        for i, ks in pairs:
            f = block_forms[i]
            for k in ks:
                if f.parity == parities[k]:
                    num, den = pair(f, codes[k], parities[k], monos[k])
                    if num:
                        gram[i][k] = gram[k][i] = Fraction(num, den)
        rows = _linalg.integer_rows(gram)
        report = _linalg.ldlt_psd(gram, rows)
        if not report.psd:
            raise NotAStateError(
                f"degree-{n} Gram matrix has a negative direction "
                f"(witness vector {report.witness}); the moments are not a "
                "moment sequence of a positive measure"
            )
        null_mask = tuple(gram[i][i] == 0 for i in range(size))
        yield Level(n, monos, tuple(map(tuple, gram)), report.rank, null_mask), block_forms, rows
        null = [a for a, is_null in zip(positions, null_mask) if is_null]
        # a positive functional's projections pair only the pivots P of G_n
        # (ldlt_psd): each other b_i less a combination of the b_c at P is
        # null, so it pairs as that combination (Cauchy-Schwarz), its
        # equation is redundant, and the solve on G_n[P, P] is the full
        # solve with its free variables at 0
        cols = report.pivots if moments.positive else range(size)
        if cols and n < moments.max_degree:
            offered.append((n, _linalg.principal_rows(rows, cols), [block_forms[c] for c in cols]))


class Recurrence(NamedTuple):
    """One factor's x p_k = p_(k+1) + c0[k] p_k + g[k] p_(k-1), k <= N.

    polys[k] is the monic p_k as (terms, D), the (i, P_k[i]) of its nonzero
    coefficients with p_k = sum_i P_k[i] x^i / D; h[k] = phi_j(p_k^2) with
    phi_j(1) = 1; g[0] = 0; c0 stops at N-1 without the moment of degree 2N+1.
    """

    polys: Tuple[Tuple[Tuple[Tuple[int, int], ...], int], ...]
    h: Tuple[Fraction, ...]
    c0: Tuple[Fraction, ...]
    g: Tuple[Fraction, ...]


def _stieltjes(axis: Sequence[Tuple[int, int]], top: int, j: int) -> Recurrence:
    """The Recurrence of coordinate j's factor from its moments axis[k],
    k <= 2top (2top+1 when given), by the exact Stieltjes step: h_k =
    phi_j(p_k x^k), c0_k = phi_j(p_k x^(k+1)) / h_k + s_k with s_k the
    x^(k-1) coefficient of p_k, and g_k = h_k / h_(k-1).

    The moments are integers M over one denominator Q and p_k integers P_k
    over D_k, so H_k = sum_i P_k[i] M[i+k] = D_k Q phi(p_k(x_j)^2); H_k <= 0
    raises NotAStateError before anything divides by it.  p_(k+1) =
    (x - u/v) p_k - (s/t) p_(k-1) is formed over v t D_k D_(k-1), reduced
    by one gcd.
    """
    q = lcm(*(den for _, den in axis))
    m = [p * (q // den) for p, den in axis]
    polys, h, c0, g = [], [], [], [ZERO]
    coeffs, den, prev, prev_den, prev_h = [1], 1, [], 1, 1
    for k in range(top + 1):
        hk = sum(c * m[i + k] for i, c in enumerate(coeffs))
        if hk <= 0:
            raise NotAStateError(
                f"coordinate {j}: phi(p_{k}(x_{j})^2) = {Fraction(hk, den * q)} is not "
                f"positive at degree {k}; the moments are not those of a product "
                "of positive definite weights"
            )
        polys.append((tuple((i, c) for i, c in enumerate(coeffs) if c), den))
        h.append(Fraction(hk, den * m[0]))
        if k:
            g.append(Fraction(hk * prev_den, prev_h * den))
        if 2 * k + 1 < len(m):
            ck = sum(c * m[i + k + 1] for i, c in enumerate(coeffs))
            c0.append(Fraction(ck * den + (coeffs[k - 1] if k else 0) * hk, hk * den))
        if k < top:
            (u, v), (s, t) = c0[k].as_integer_ratio(), g[k].as_integer_ratio()
            nxt = [0] + [c * v * t * prev_den for c in coeffs]
            for i, c in enumerate(coeffs):
                nxt[i] -= u * t * prev_den * c
            for i, c in enumerate(prev):
                nxt[i] -= s * v * den * c
            scale = v * t * den * prev_den
            div = gcd(scale, *nxt)
            prev, prev_den, prev_h = coeffs, den, hk
            coeffs, den = [c // div for c in nxt], scale // div
    return Recurrence(tuple(polys), tuple(h), tuple(c0), tuple(g))


def _tensor_decompose(moments: MomentMatrix) -> Decomposition:
    """decompose for a product weight, from its factors' recurrences.

    Factors with the same axis moments share one _stieltjes.  Column b_beta
    is that of its parent, beta with its last nonzero entry j zeroed, times
    p_(beta_j)(x_j); one gcd over its numerators and denominator gives
    IntegerColumn.of's form.  G[beta][beta] = G[parent][parent] h_(beta_j),
    from G[0][0] = phi(1).
    """
    index, top = moments.index, moments.max_degree
    codes, code_position = index.codes, index.code_position
    factors: Dict[Tuple[Tuple[int, int], ...], Recurrence] = {}
    recurrences = []
    for j in range(moments.functional.d):
        axis = [moments.axis(j, k) for k in range(2 * top + 1)]
        try:
            axis.append(moments.axis(j, 2 * top + 1))
        except InsufficientMomentsError:
            pass  # the top preservation stays unset, to raise if accessed
        key = tuple(axis)
        if key not in factors:
            factors[key] = _stieltjes(axis, top, j + 1)
        recurrences.append(factors[key])
    forms = [IntegerColumn(((0, 1),), 1, moments.parity(0))]
    diagonal = [Fraction(*moments.axis(0, 0))]
    for a, beta in enumerate(index.basis[1:], start=1):
        j = max(i for i, b in enumerate(beta) if b)
        unit, rec = index.units[j], recurrences[j]
        parent = forms[code_position[codes[a] - beta[j] * unit]]
        terms, den = rec.polys[beta[j]]
        column = sorted(
            (code_position[codes[b] + i * unit], c * x) for b, c in parent.terms for i, x in terms
        )
        den *= parent.denominator
        div = gcd(den, *(c for _, c in column))
        terms = tuple((b, c // div) for b, c in column)
        forms.append(IntegerColumn(terms, den // div, moments.parity(a)))
        diagonal.append(diagonal[parent.terms[-1][0]] * rec.h[beta[j]])
    levels, grams = [], []
    for n, (monos, start) in enumerate(zip(index.levels, index.starts)):
        size, entries = len(monos), diagonal[start : start + len(monos)]
        gram = tuple((ZERO,) * i + (x,) + (ZERO,) * (size - 1 - i) for i, x in enumerate(entries))
        levels.append(Level(n, monos, gram, size, (False,) * size))
        # _linalg.integer_rows(gram), read off the diagonal
        grams.append([
            ([0] * i + [p] + [0] * (size - 1 - i), q)
            for i, (p, q) in enumerate(map(Fraction.as_integer_ratio, entries))
        ])
    return Decomposition(moments, levels, forms, grams, recurrences)
