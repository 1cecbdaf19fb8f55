"""Creation, preservation and annihilation operators between degree levels.

Multiplication by the coordinate x_j maps P_n into the degrees <= n+1.
Decomposing x_j*p through the graded orthogonal basis splits it into

* creation a+_{j|n}: P_n -> P_{n+1} (the degree-(n+1) component),
* preservation a0_{j|n}: P_n -> P_n (the degree-n component),
* annihilation a-_{j|n}: P_n -> P_{n-1} (the degree-(n-1) component);

outside the band a component must be null: a component c at any other
degree m must have G_m c = 0, and this is asserted rather than assumed
(InternalConsistencyError otherwise).  For a positive functional the null
polynomials form an ideal, so past the first vanishing level of an atomic
functional x_j*p keeps null components outside the band; they are
dropped.  At the top level the degree-(n+1) component cannot be
represented, so preservation and annihilation are obtained from the
pairing instead: their images match x_j*p against every basis vector of
the target level, with degenerate Gram systems solved with free
variables set to zero.  An inconsistent
system there certifies that the moments are not positive semidefinite.
The top-level pairings take no back substitution: a degree-N monomial is
its monic basis vector plus lower levels, so the pairings follow from one
moment row per shifted leading monomial, the degree-(N-1) coefficients of
the columns and the level Gram.  They are symmetric, so only the upper
triangle is paired.  Top-level annihilation needs no product: creation
shifts leading monomials, so its right-hand side is a selection of the
rows of the top Gram.  All coordinates' top-level systems of one kind
share a Gram and are solved in one elimination.  The top level stays in
integers up to its solutions: the pairings are integer ratios (a moment
row's integer pairing plus an integer dot product with the top Gram's
integer rows), both stacks are eliminated by _linalg.solve_ratios on
integer Gram rows (both kept by decompose, which formed them for its
PSD certificates), and a Fraction is built only for each entry of the blocks.

Every shift is addressed by position in the graded index (GradedIndex):
a shifted leading monomial beta_k + e_j is the code codes[a_k] + units[j],
and a shifted lower term, the image of x_j b below the top and the
annihilation row selection read the creation map up[j].  So build packs,
checks and shifts no multi-index, and does O(1) Python steps per
coordinate on a level-0 functional.  A top pairing with a null vector of
level N is not visited when the functional is positive
(MomentFunctional.positive): phi(x_j b_i b_k) is then 0 by
Cauchy-Schwarz.

A product weight (MomentFunctional.product) takes none of this: its basis
is b_beta = prod_l p^(l)_(beta_l)(x_l), so factor j's recurrence gives
x_j b_beta = b_(beta+e_j) + c0_(beta_j) b_beta + g_(beta_j) b_(beta-e_j),
and every block, the top level's included, is read off
Decomposition.recurrences with no pairing or solve (_tensor_build).

Matrices are written in the level bases of the decomposition, columns
indexed by the source level; coordinates j are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import _linalg
from ._linalg import ONE, ZERO, Matrix
from .errors import (
    InsufficientMomentsError,
    InternalConsistencyError,
    NotAStateError,
)
from .multiindex import check_index
from .orthodecomp import Decomposition, IntegerColumn
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


def _times(size: int, form: IntegerColumn, up: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Coefficient vector of x_j * b over the size positions of a
    decomposition's basis, as numerators and denominators, for the b with
    this column below the top degree; up is GradedIndex.up[j - 1]."""
    nums, dens = [0] * size, [1] * size
    for a, c in form.terms:
        nums[up[a]], dens[up[a]] = c, form.denominator
    return nums, dens


def _top_pairings(
    decomposition: Decomposition,
    j: int,
    rows: Dict[Tuple[int, int], Tuple[int, int]],
    gram: Sequence[Tuple[List[int], int]],
) -> List[List[Tuple[int, int]]]:
    """<b_i, x_j b_k> over the top level N, as integer ratios indexed (i, k).

    b_k is x^beta_k plus terms of degree <= N-1.  A degree-N monomial
    x^gamma is b_gamma plus lower levels, and every monomial of degree < N
    lies in the lower levels, which are orthogonal to b_i.  So the pairing is

        <b_i, x^(beta_k+e_j)> + sum_{|alpha|=N-1} b_k[alpha] G_N[i][alpha+e_j]

    It equals phi(x_j b_i b_k), which is symmetric in i and k, so only
    i <= k is paired and the lower triangle is mirrored.  gram is G_N as
    integer rows (_linalg.integer_rows), row i numerators over den_i, so the
    correction is one integer dot product of row i with b_k's numerators,
    over den_i times b_k's denominator; each entry is that plus the moment
    row value, reduced once, (p, q) in lowest terms with q > 0.

    Everything is addressed by position in the graded index: gamma =
    beta_k + e_j is the code codes[a_k] + units[j-1], alpha + e_j the
    creation map's up[j-1][alpha], and rows caches the moment row value
    <b_i, x^gamma> (MomentMatrix.pair_code) per (i, code of gamma) across
    coordinates; gamma's multi-index is built only for a moment row not
    yet paired.  For a positive functional, a pair in which b_i or
    b_k is null (its G_N diagonal is 0) is 0, since phi(x_j b_i b_k)^2 is at
    most phi(b_i^2) phi((x_j b_k)^2) and phi((x_j b_i)^2) phi(b_k^2): such
    a pair is not visited either.
    """
    moments = decomposition.moments
    index = moments.index
    n = decomposition.max_degree
    forms = decomposition.level_forms(n)
    start = decomposition.starts[n]
    below = range(decomposition.starts[n - 1] if n else start, start)
    unit, up = index.units[j - 1], index.up[j - 1]
    pairings = [[(0, 1)] * len(forms) for _ in forms]
    live = range(len(forms))
    if moments.positive:
        live = [k for k, null in enumerate(decomposition.level(n).null_mask) if not null]
    for p, k in enumerate(live):
        form = forms[k]
        a_k = start + k
        shift = index.codes[a_k] + unit
        gamma = None
        # b_k's numerators at level N-1, with the level-N position of alpha+e_j
        shifted = [(up[a] - start, c) for a, c in form.terms if a in below]
        for i in live[: p + 1]:
            value = rows.get((i, shift))
            if value is None:
                if gamma is None:
                    beta = index.basis[a_k]
                    gamma = beta[: j - 1] + (beta[j - 1] + 1,) + beta[j:]
                value = rows[(i, shift)] = moments.pair_code(forms[i], shift, gamma)
            num, den = value
            nums, row_den = gram[i]
            correction = sum(nums[q] * c for q, c in shifted)
            if correction:
                scale = row_den * form.denominator
                num, den = num * scale + correction * den, den * scale
            pairings[i][k] = pairings[k][i] = _linalg._ratio(num, den) if num else (0, 1)
    return pairings


def build(decomposition: Decomposition) -> CAPSystem:
    """Compute all operator matrices for the given decomposition.

    Below the top level the blocks are the coordinates of x_j*p, found by
    back substitution through the coefficient columns; outside the band a
    component must be null, so a component c at a degree m outside
    n-1..n+1 is checked to have G_m c = 0 and is dropped.  Top-level
    preservation pairs x_j*p with the level (see _top_pairings); its moment
    rows are one degree beyond what the decomposition used, so a finite
    moment table leaves it unset, to raise only if accessed.  Top-level
    annihilation solves G_{N-1} Z = plus_{j|N-1}^T G_N; the bases are monic,
    so plus_{j|N-1} sends class k to the class of beta_k + e_j, and its
    right-hand side is the rows of G_N at those positions.  The top-level
    systems of all coordinates share their Gram, so [G_N | P_1 ... P_d]
    and [G_{N-1} | R_1 ... R_d] are each solved once, by
    _linalg.solve_stacked, on the integer rows of G_N and G_{N-1} that
    decompose formed (decomposition.gram_rows), which the pairings and
    R_j (G_N's rows as ratios) read too.  When a stack is inconsistent, the systems are
    solved one by one (_linalg.first_inconsistent), preservation j then
    annihilation j for j = 1..d, to name the first that fails.  A product
    weight's blocks are read off its recurrences instead (_tensor_build).
    """
    if decomposition.recurrences is not None:
        return _tensor_build(decomposition)
    moments = decomposition.moments
    d = decomposition.d
    top = decomposition.max_degree
    plus: Dict[Tuple[int, int], Matrix] = {}
    zero: Dict[Tuple[int, int], Optional[Matrix]] = {}
    minus: Dict[Tuple[int, int], Matrix] = {}
    up, size = moments.index.up, len(decomposition.forms)
    rows: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for n in range(top):
        forms = decomposition.level_forms(n)
        for j in range(1, d + 1):
            images = [decomposition.split_ratios(*_times(size, f, up[j - 1])) for f in forms]
            for k, coords in enumerate(images):
                for m, c in enumerate(coords):
                    if abs(m - n) < 2 or not any(c):
                        continue
                    # outside the band a component must be null: G_m c = 0
                    if any(_linalg.mat_vec(decomposition.level(m).gram, c)):
                        raise InternalConsistencyError(
                            f"x_{j} * (basis vector {k} of degree {n}) has "
                            f"a component at degree {m} that is not null; "
                            "the three-term degree structure is violated"
                        )
            plus[(j, n)] = _linalg.transpose([c[n + 1] for c in images])
            zero[(j, n)] = _linalg.transpose([c[n] for c in images])
            minus[(j, n)] = _linalg.transpose([c[n - 1] for c in images]) if n else []
    # the top level N: every preservation system shares G_N and every
    # annihilation system G_{N-1}, so each Gram is eliminated once, on its
    # integer rows
    gram = decomposition.gram_rows[top]
    below = decomposition.gram_rows[top - 1] if top else []
    start = decomposition.starts[top]
    preservation: Dict[int, List[List[Tuple[int, int]]]] = {}
    annihilation: Dict[int, List[List[Tuple[int, int]]]] = {}
    for j in range(1, d + 1):
        try:
            preservation[j] = _top_pairings(decomposition, j, rows, gram)
        except InsufficientMomentsError:
            pass  # left unset: raises only if accessed
        if top:
            # <b', x_j b> = <x_j b', b> only sees the creation image of b',
            # the basis vector of beta' + e_j: a row of G_N, as ratios
            selected = (
                gram[up[j - 1][a] - start] for a in range(decomposition.starts[top - 1], start)
            )
            annihilation[j] = [[(x, den) for x in nums] for nums, den in selected]
    zeros = _linalg.solve_stacked(gram, list(preservation.values()))
    minuses = _linalg.solve_stacked(below, list(annihilation.values()))
    if zeros is None or minuses is None:
        # name the first inconsistent system: coordinate by coordinate,
        # preservation before annihilation
        kind, j = _linalg.first_inconsistent(
            ((kind, j), g, systems[j])
            for j in range(1, d + 1)
            for kind, g, systems in (
                ("preservation", gram, preservation),
                ("annihilation", below, annihilation),
            )
            if j in systems
        )
        raise NotAStateError(
            f"{kind} system at level {top}, coordinate {j} is "
            "inconsistent; no positive functional has these moments"
        )
    zeros, minuses = dict(zip(preservation, zeros)), dict(zip(annihilation, minuses))
    for j in range(1, d + 1):
        zero[(j, top)] = zeros.get(j)
        minus[(j, top)] = minuses[j] if top else []
    return CAPSystem(decomposition, plus, zero, minus)


def _tensor_build(decomposition: Decomposition) -> CAPSystem:
    """build for a product weight, each block read off coordinate j's
    Recurrence; a-_{j|n} is g at (alpha, alpha + e_j), the creation map's
    image of each alpha of level n-1.  a0_{j|n} is unset where c0 stops
    short of n, to raise only if accessed."""
    index, top = decomposition.moments.index, decomposition.max_degree
    starts, levels = index.starts, index.levels
    plus: Dict[Tuple[int, int], Matrix] = {}
    zero: Dict[Tuple[int, int], Optional[Matrix]] = {}
    minus: Dict[Tuple[int, int], Matrix] = {}
    for n, monos in enumerate(levels[: top + 1]):
        start, size = starts[n], len(monos)
        for j, (_, _, c0, g) in enumerate(decomposition.recurrences, start=1):
            up = index.up[j - 1]
            if n < top:
                plus[(j, n)] = block = _linalg.zeros(len(levels[n + 1]), size)
                for k in range(size):
                    block[up[start + k] - starts[n + 1]][k] = ONE
            zero[(j, n)] = block = _linalg.zeros(size, size) if n < len(c0) else None
            for k, beta in enumerate(monos if block else ()):
                block[k][k] = c0[beta[j - 1]]
            minus[(j, n)] = block = _linalg.zeros(len(levels[n - 1]), size) if n else []
            for r, a in enumerate(range(starts[n - 1], start) if n else ()):
                k = up[a] - start
                block[r][k] = g[monos[k][j - 1]]
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
    """The residual of every checked basis vector; ok means all are zero.

    verdict is "exact" when every residual is zero, "null" when every
    residual is null (phi(r^2) = 0) but some are not zero, and "failed"
    when some residual is not null.  For a positive functional the null
    polynomials form an ideal, so past the first vanishing level of an
    atomic functional "null" is what a correct system gives.
    """

    ok: bool
    entries: Tuple[QuantumDecompositionEntry, ...]

    @property
    def verdict(self) -> str:
        if self.ok:
            return "exact"
        return "null" if all(e.null for e in self.entries) else "failed"

    def witnesses(self) -> Tuple[QuantumDecompositionEntry, ...]:
        """The entries whose residual is not zero."""
        return tuple(e for e in self.entries if not e.exact)

    def null_witnesses(self) -> Tuple[QuantumDecompositionEntry, ...]:
        """The entries whose residual is null but not zero."""
        return tuple(e for e in self.entries if e.null and not e.exact)


def verify_quantum_decomposition(system: CAPSystem) -> QuantumDecompositionReport:
    """Check x_j*b = (a+ + a0 + a-) b, exactly, on every basis vector.

    Works on coefficient vectors over the monomial basis and recomputes each
    side independently of how the blocks were built: the image x_j b_k is
    b_k's column shifted by e_j, and the model, column k of the plus, zero
    and minus blocks expanded at levels n+1, n and n-1 (b_k's level
    coordinates are the unit vector e_k, so no split is needed), is
    subtracted from it in integers.  The residual r has
    squared norm r^T M r on the moment matrix.  Levels below the top are
    covered (creation out of the top level is not representable).  Failures
    are reported with the residual polynomial as witness, never raised; the
    report's verdict tells zero residuals from null ones.
    """
    decomp = system.decomposition
    moments = decomp.moments
    pair, codes, basis = moments.pair_code, moments.codes, moments.basis
    entries = []
    for n in range(decomp.max_degree):
        forms = decomp.level_forms(n)
        for j in range(1, system.d + 1):
            up = moments.index.up[j - 1]
            blocks = [(n + 1, system._plus[(j, n)]), (n, system._zero[(j, n)])]
            if n:
                blocks.append((n - 1, system._minus[(j, n)]))
            for k, form in enumerate(forms):
                nums, dens = _times(len(decomp.forms), form, up)
                for m, block in blocks:
                    for lower, row in zip(decomp.level_forms(m), block):
                        if row[k]:
                            lower.subtract_from(nums, dens, *row[k].as_integer_ratio())
                residual = [Fraction(p, q) if p else ZERO for p, q in zip(nums, dens)]
                r = IntegerColumn.of(zip(nums, dens))
                # r^T M r, pairing r with each basis monomial by its position
                norm_sq = sum(
                    (c * Fraction(*pair(r, codes[a], basis[a])) for a, c in r.terms), ZERO
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
            if lhs != rhs:
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
            if gz != _linalg.transpose(gz):
                failures.append(
                    f"preservation not self-adjoint at level {n}, coordinate {j}"
                )
    for n in range(decomp.max_degree - 1):
        for j in range(1, system.d + 1):
            for k in range(j + 1, system.d + 1):
                jk = _linalg.mat_mul(system.plus_matrix(j, n + 1), system.plus_matrix(k, n))
                kj = _linalg.mat_mul(system.plus_matrix(k, n + 1), system.plus_matrix(j, n))
                if jk != kj:
                    failures.append(
                        f"creation operators {j} and {k} fail to commute out of "
                        f"level {n}"
                    )
    return AdjointReport(not failures, tuple(failures))
