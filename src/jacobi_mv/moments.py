"""Moment functionals on R^d with exact rational moments.

A moment functional is determined by its moment map beta -> phi(x^beta).
Five providers are implemented:

* gaussian_functional(d): product of normalized one-dimensional
  exp(-x^2) weights, phi(1) = 1.
* gamma_functional(alphas): product of normalized x^alpha exp(-x)
  weights on (0, inf), one alpha per coordinate.
* beta_functional(a, b): product of normalized (1-x)^a (1+x)^b weights
  on [-1, 1], one (a_j, b_j) pair per coordinate.
* atomic_functional(atoms): finitely many point masses, kept as integer
  rows so that a moment is one integer sum and one Fraction.
* table_functional(d, max_degree, moments): explicit finite table.

The classical providers are normalized so that phi(1) = 1; the mass of
the unnormalized classical weight is available separately through
mass_factor() as an exact GammaProduct.  Atomic and table functionals
have no associated classical weight, so mass_factor() raises
NoMassFactorError for them.

reflection_mask() names the coordinates in which a functional is even,
so that its moments with an odd exponent there vanish.  It is read off
the parameters: every coordinate of the gaussian weight, the coordinates
with a_j = b_j of the beta weight, and none for the gamma weight or an
atom set or table, even a symmetric one, or for a subclass that overrides
moment without stating a mask of its own.  orthodecomp skips the pairings
that the mask shows to be zero.  positive() says that phi(p^2) >= 0 holds
by construction, which is true of an atom set alone; then orthodecomp and
cap_operators skip every pairing with a null basis vector.  product() says
that phi is phi_1 x ... x phi_d with each factor positive definite, which
is true of the three classical weights alone.  Their monic orthogonal
basis is then the tensor product b_beta = prod_j p^(j)_(beta_j)(x_j), and
orthodecomp and cap_operators assemble it and its blocks from each
factor's three-term recurrence, read off the axis moments phi(x_j^k),
k <= 2N+1, with no pairing.

Every number a caller supplies (a parameter, an atom coordinate or
weight, a table value) becomes a Fraction through multiindex.exact, and
every parameter list through multiindex.exact_list, which refuses a string
or a bare number instead of iterating it.  Every multi-index a caller
supplies (a moment's key, a table's key) is checked by
multiindex.check_multi_index; the degree bound stays with the functional.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from ._linalg import _ratio
from .errors import (
    DimensionMismatchError,
    InsufficientMomentsError,
    NoMassFactorError,
    UnsupportedParameterError,
)
from .multiindex import (
    MultiIndex,
    _check_dimension,
    _field,
    _typed,
    check_multi_index,
    degree,
    exact,
    exact_list,
)
from .polyring import Polynomial
from .symbolic import GammaProduct


class MomentFunctional:
    """Base class: linear functional on polynomials given by its moments."""

    def __init__(self, d: int, max_degree: Optional[int] = None):
        _check_dimension(d)
        self.d = d
        self.max_degree = max_degree

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # new moments say nothing of their symmetry, positivity or factors,
        # so an inherited declaration would be taken on trust for moments it
        # was never stated for
        if "moment" in vars(cls):
            for name in ("reflection_mask", "positive", "product"):
                if name not in vars(cls):
                    setattr(cls, name, getattr(MomentFunctional, name))

    def moment(self, beta: MultiIndex) -> Fraction:
        raise NotImplementedError

    def reflection_mask(self) -> int:
        """The coordinates whose odd moments vanish, as a bit set: bit j-1 is
        set when the functional is invariant under x_j -> -x_j, so that
        phi(x^beta) = 0 whenever beta_j is odd.  Read off the functional's
        own parameters; 0, no coordinate, unless a subclass knows better.

        A subclass that defines moment but not reflection_mask gets 0, so
        overriding the moments of a gaussian or beta weight drops the
        inherited mask (__init_subclass__).  A subclass that defines
        reflection_mask itself is trusted: the pairings of orthodecomp skip
        the moments it names without reading them, so it must be true of
        the subclass's moments."""
        return 0

    def positive(self) -> bool:
        """Whether the functional is positive by construction: phi(p^2) >= 0
        for every polynomial p, known from its definition, not from its
        moments.  False unless a subclass knows better; True for an atom
        set, whose weights are checked positive.  A moment table is
        unverified data, so it stays False.

        Then a null polynomial b, phi(b^2) = 0, pairs to 0 with every p
        (Cauchy-Schwarz), and the pairings of orthodecomp and cap_operators
        skip every null basis vector without reading a moment.  Like
        reflection_mask, a subclass that defines moment but not positive
        gets False (__init_subclass__), and one that defines positive
        itself is trusted."""
        return False

    def product(self) -> bool:
        """Whether the functional is a product phi_1 x ... x phi_d of
        positive definite one-variable functionals, known from its
        definition: True for the gaussian, gamma and beta weights, whose
        parameter gates make each factor positive definite.

        Then b_beta = prod_j p^(j)_(beta_j)(x_j) for the monic orthogonal
        p^(j)_k of the factors: it is monic, and by Fubini
        phi(b_beta x^gamma) = prod_j phi_j(p^(j)_(beta_j) x^(gamma_j)) is 0 for
        every gamma of lower degree.  So orthodecomp reads only the axis
        moments phi(x_j^k), k <= 2N+1, runs each distinct factor's exact
        Stieltjes step, and assembles the columns, the diagonal level Grams
        and, in cap_operators, the blocks from x p_k = p_(k+1) + c0_k p_k +
        g_k p_(k-1), with no pairing: on the jacobi weight at d = 3, N = 5
        its table pairs 1,596 times in decompose and 343 in build.  Like
        reflection_mask, a subclass that defines moment but not product
        gets False (__init_subclass__), and one that defines product itself
        is trusted; axis moments that give a factor h_k <= 0 raise
        NotAStateError."""
        return False

    def _check_beta(self, beta: MultiIndex) -> MultiIndex:
        """beta as a tuple, or the refusal of a key that is no multi-index of
        this dimension (multiindex.check_multi_index, in its order and
        words) or is of higher degree than the functional holds
        (InsufficientMomentsError).
        """
        beta = check_multi_index(beta, self.d)
        if self.max_degree is not None and sum(beta) > self.max_degree:
            raise InsufficientMomentsError(
                f"moment of degree {degree(beta)} requested but only degrees "
                f"<= {self.max_degree} are available"
            )
        return beta

    def inner_product(self, p: Polynomial, q: Polynomial) -> Fraction:
        """phi(p*q), the (possibly degenerate) pre-Hilbert pairing."""
        product = p * q
        if product.d != self.d:
            raise DimensionMismatchError(
                f"polynomial dimension {product.d} != functional dimension {self.d}"
            )
        total = Fraction(0)
        for beta, c in product.terms.items():
            total += c * self.moment(beta)
        return total

    def mass_factor(self) -> GammaProduct:
        raise NoMassFactorError(
            f"{type(self).__name__} has no classical weight, so no mass factor"
        )


# --------------------------------------------------------------------------
# product functionals: moment(beta) = prod_j m_j(beta_j)
# --------------------------------------------------------------------------


class _Sequence1D:
    """Memoized one-dimensional moment sequence with m_0 = 1, as integer ratios.

    Term k is a pair (p, q) in lowest terms with q > 0.  A recurrence reads
    the earlier terms as pairs, forms the new term as one numerator over
    one denominator, and reduces it once, with one gcd (_linalg._ratio);
    products of moments read the same pairs, so no Fraction is built here.
    """

    def __init__(self):
        self._ratios: List[Tuple[int, int]] = [(1, 1)]

    def ratio(self, k: int) -> Tuple[int, int]:
        ratios = self._ratios
        while len(ratios) <= k:
            ratios.append(self._next(len(ratios)))
        return ratios[k]

    def _next(self, k: int) -> Tuple[int, int]:
        raise NotImplementedError


class _GaussianSeq(_Sequence1D):
    # m_{2t} = m_{2t-2} * (2t-1)/2 for exp(-x^2)/sqrt(pi); odd moments vanish
    def _next(self, k: int) -> Tuple[int, int]:
        if k % 2 == 1:
            return 0, 1
        p, q = self._ratios[k - 2]
        return _ratio(p * (k - 1), q * 2)


class _GammaSeq(_Sequence1D):
    # m_k = m_{k-1} * (alpha + k) for x^alpha exp(-x) / Gamma(alpha+1), with
    # alpha = A/D: m_k = m_{k-1} * (A + k D) / D
    def __init__(self, alpha: Fraction):
        if alpha <= -1:
            raise UnsupportedParameterError(f"gamma parameter must be > -1, got {alpha}")
        super().__init__()
        self._alpha = alpha.as_integer_ratio()  # (A, D)

    def _next(self, k: int) -> Tuple[int, int]:
        a, den = self._alpha
        p, q = self._ratios[k - 1]
        return _ratio(p * (a + k * den), q * den)


class _BetaSeq(_Sequence1D):
    # integrate d/dx[(1-x)^(a+1) (1+x)^(b+1) x^(k-1)] over [-1, 1]:
    # m_k = ((b-a) m_{k-1} + (k-1) m_{k-2}) / (a+b+k+1); with a = A/D and
    # b = B/D over one denominator D,
    # m_k = ((B-A) m_{k-1} + (k-1) D m_{k-2}) / (A+B+(k+1)D)
    def __init__(self, a: Fraction, b: Fraction):
        if a <= -1 or b <= -1:
            raise UnsupportedParameterError(
                f"beta parameters must be > -1, got a={a}, b={b}"
            )
        super().__init__()
        den = lcm(a.denominator, b.denominator)
        self._params = int(a * den), int(b * den), den  # (A, B, D)

    def _next(self, k: int) -> Tuple[int, int]:
        big_a, big_b, den = self._params
        p1, q1 = self._ratios[k - 1]
        p2, q2 = self._ratios[k - 2] if k >= 2 else (0, 1)
        bottom = big_a + big_b + (k + 1) * den  # D (a+b+k+1) > 0
        return _ratio((big_b - big_a) * p1 * q2 + (k - 1) * den * p2 * q1, q1 * q2 * bottom)


def _multiplicities(terms: Iterable[Tuple[Fraction, int]]) -> Dict[Fraction, int]:
    """Gamma arguments with their summed multiplicities, for one GammaProduct."""
    out: Dict[Fraction, int] = {}
    for arg, mult in terms:
        out[arg] = out.get(arg, 0) + mult
    return out


class ProductFunctional(MomentFunctional):
    """Coordinates are independent; moment(beta) factors over coordinates.

    The factors are multiplied as integer numerators and denominators, and
    the product is reduced once, as one Fraction.
    """

    def __init__(self, sequences: Sequence[_Sequence1D]):
        super().__init__(len(sequences))
        self._sequences = list(sequences)

    def product(self) -> bool:
        return True

    def moment(self, beta: MultiIndex) -> Fraction:
        self._check_beta(beta)
        num = den = 1
        for seq, k in zip(self._sequences, beta):
            p, q = seq.ratio(k)
            if not p:
                return Fraction(0)
            num *= p
            den *= q
        return Fraction(num, den)


class GaussianFunctional(ProductFunctional):
    def __init__(self, d: int):
        _check_dimension(d)
        super().__init__([_GaussianSeq() for _ in range(d)])

    def reflection_mask(self) -> int:
        # exp(-x_j^2) is even in every coordinate
        return (1 << self.d) - 1

    def mass_factor(self) -> GammaProduct:
        # integral of exp(-|x|^2) over R^d
        return GammaProduct.pi_power(Fraction(self.d, 2))


class GammaFunctional(ProductFunctional):
    def __init__(self, alphas: Sequence):
        self.alphas = exact_list(alphas, "gamma parameter")
        super().__init__([_GammaSeq(a) for a in self.alphas])

    def mass_factor(self) -> GammaProduct:
        # prod_j integral of x^alpha_j exp(-x) over (0, inf), one Gamma(alpha_j + 1)
        # per coordinate, built in one constructor call
        return GammaProduct(gammas=_multiplicities((a + 1, 1) for a in self.alphas))


class BetaFunctional(ProductFunctional):
    def __init__(self, a: Sequence, b: Sequence):
        self.a = exact_list(a, "beta parameter a")
        self.b = exact_list(b, "beta parameter b")
        if len(self.a) != len(self.b):
            raise DimensionMismatchError(
                f"parameter lists have lengths {len(self.a)} and {len(self.b)}"
            )
        super().__init__([_BetaSeq(x, y) for x, y in zip(self.a, self.b)])

    def reflection_mask(self) -> int:
        # (1-x)^a (1+x)^b is even exactly when a = b
        return sum(1 << j for j, (a, b) in enumerate(zip(self.a, self.b)) if a == b)

    def mass_factor(self) -> GammaProduct:
        # prod_j integral of (1-x)^a_j (1+x)^b_j over [-1, 1], that is
        # 2^(a_j+b_j+1) Gamma(a_j+1) Gamma(b_j+1) / Gamma(a_j+b_j+2), built in
        # one constructor call
        return GammaProduct(
            two_pow=sum(a + b + 1 for a, b in zip(self.a, self.b)),
            gammas=_multiplicities(
                term
                for a, b in zip(self.a, self.b)
                for term in ((a + 1, 1), (b + 1, 1), (a + b + 2, -1))
            ),
        )


# --------------------------------------------------------------------------
# finitely-atomic and table functionals
# --------------------------------------------------------------------------


class AtomicFunctional(MomentFunctional):
    """phi(p) = sum_i w_i p(x_i): a convex combination of point evaluations.

    Weights must be positive rationals summing to 1 and the points pairwise
    distinct, so that phi is a normalized state with exactly these atoms.
    The atoms are kept as integer rows: coordinate j of every point over
    the common denominator q_j of that coordinate, and every weight over
    the common weight denominator W, so that

        phi(x^beta) = sum_i W w_i prod_j (q_j c_ij)^beta_j / (W prod_j q_j^beta_j)

    is one integer sum and one Fraction.
    """

    def __init__(self, atoms: Sequence[Tuple[Sequence, object]], d: Optional[int] = None):
        atoms = list(atoms)
        if not atoms:
            raise UnsupportedParameterError("need at least one atom")
        if d is None:
            d = len(exact_list(atoms[0][0], "atom coordinate"))
        super().__init__(d)
        points, weights = [], []
        for point, weight in atoms:
            pt = tuple(exact_list(point, "atom coordinate"))
            if len(pt) != self.d:
                raise DimensionMismatchError(
                    f"atom {pt} has {len(pt)} coordinates, expected {self.d}"
                )
            w = exact(weight, "atom weight")
            if w <= 0:
                raise UnsupportedParameterError(f"atom weights must be positive, got {w}")
            points.append(pt)
            weights.append(w)
        if sum(weights) != 1:
            raise UnsupportedParameterError("atom weights must sum to 1")
        if len(set(points)) != len(points):
            raise UnsupportedParameterError("atom points must be pairwise distinct")
        self._denominators = tuple(
            lcm(*(pt[j].denominator for pt in points)) for j in range(self.d)
        )
        self._weight_denominator = lcm(*(w.denominator for w in weights))
        self._rows = [
            (
                w.numerator * (self._weight_denominator // w.denominator),
                tuple(c.numerator * (q // c.denominator) for c, q in zip(pt, self._denominators)),
            )
            for pt, w in zip(points, weights)
        ]

    @property
    def atoms(self) -> List[Tuple[Tuple[Fraction, ...], Fraction]]:
        """The (point, weight) pairs, in input order."""
        return [
            (
                tuple(Fraction(c, q) for c, q in zip(row, self._denominators)),
                Fraction(w, self._weight_denominator),
            )
            for w, row in self._rows
        ]

    def positive(self) -> bool:
        return True

    def moment(self, beta: MultiIndex) -> Fraction:
        self._check_beta(beta)
        total = 0
        for w, row in self._rows:
            for c, k in zip(row, beta):
                if k:
                    w *= c**k
            total += w
        den = self._weight_denominator
        for q, k in zip(self._denominators, beta):
            if k:
                den *= q**k
        return Fraction(total, den)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "atoms": [
                {"x": [str(c) for c in point], "w": str(weight)}
                for point, weight in self.atoms
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AtomicFunctional":
        atoms = [
            (_field(entry, "x", "atom entry", list), _field(entry, "w", "atom entry"))
            for entry in _field(doc, "atoms", "atom list", list)
        ]
        return cls(atoms, d=_field(doc, "d", "atom list", int) if "d" in doc else None)


class TableFunctional(MomentFunctional):
    """Explicit finite moment table; absent entries raise on access.

    moments maps each multi-index to its value, or lists (beta, value)
    pairs, as a measure file does: its indices may be lists, which are no
    dict keys.  The header is checked first, then each entry in turn: its
    index through multiindex.check_multi_index, then for a repeat and for
    its degree, then its value through multiindex.exact.
    """

    def __init__(self, d: int, max_degree: int, moments: Mapping | Iterable):
        _typed(max_degree, int, "max_degree")
        if max_degree < 0:
            raise UnsupportedParameterError(f"max_degree must be >= 0, got {max_degree}")
        super().__init__(d, max_degree=max_degree)
        self._table: Dict[MultiIndex, Fraction] = {}
        for beta, value in moments.items() if isinstance(moments, Mapping) else moments:
            beta = check_multi_index(beta, d)
            if beta in self._table:
                raise UnsupportedParameterError(f"moment table lists beta {list(beta)} twice")
            if degree(beta) > max_degree:
                raise UnsupportedParameterError(
                    f"table entry {beta} exceeds max_degree {max_degree}"
                )
            self._table[beta] = exact(value, "moment[{}]", beta)

    def moment(self, beta: MultiIndex) -> Fraction:
        beta = self._check_beta(beta)
        if beta not in self._table:
            raise InsufficientMomentsError(f"moment {beta} is not in the table")
        return self._table[beta]

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TableFunctional":
        entries = [
            (_field(e, "beta", "moment entry", list), _field(e, "value", "moment entry"))
            for e in _field(doc, "moments", "moment table", list)
        ]
        d = _field(doc, "d", "moment table", int)
        max_degree = _field(doc, "max_degree", "moment table", int)
        return cls(d, max_degree, entries)


# --------------------------------------------------------------------------
# factories
# --------------------------------------------------------------------------


def gaussian_functional(d: int) -> GaussianFunctional:
    return GaussianFunctional(d)


def gamma_functional(alphas: Sequence) -> GammaFunctional:
    return GammaFunctional(alphas)


def beta_functional(a: Sequence, b: Sequence) -> BetaFunctional:
    return BetaFunctional(a, b)


def atomic_functional(atoms, d: Optional[int] = None) -> AtomicFunctional:
    return AtomicFunctional(atoms, d=d)


def table_functional(d: int, max_degree: int, moments) -> TableFunctional:
    return TableFunctional(d, max_degree, moments)


def functional_from_json(doc: dict) -> MomentFunctional:
    """Dispatch on the document shape: atom list or moment table."""
    if isinstance(doc, dict) and "atoms" in doc:
        return AtomicFunctional.from_json_dict(doc)
    if isinstance(doc, dict) and "moments" in doc:
        return TableFunctional.from_json_dict(doc)
    raise UnsupportedParameterError(
        "functional document needs an 'atoms' or 'moments' field"
    )
