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

Parameter lists (gamma alphas, beta a and b, atom points, and the family
parameters of closed_forms) go through _exact_list, which refuses a string
or a bare number instead of iterating it.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    InsufficientMomentsError,
    NoMassFactorError,
    UnsupportedParameterError,
)
from .multiindex import MultiIndex, _check_dimension, degree
from .polyring import Polynomial
from .symbolic import GammaProduct


_KINDS = {int: "an integer", list: "a list"}


def _field(doc, key: str, what: str, kind: type = object):
    """doc[key] of a JSON object, or a named error when it is missing or mistyped."""
    if not isinstance(doc, dict) or key not in doc:
        raise UnsupportedParameterError(f"{what} needs a {key!r} field")
    return _typed(doc[key], kind, f"{what} field {key!r}")


def _typed(value, kind: type, what: str):
    # JSON true/false parse to bool, an int subclass; they are no count
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise UnsupportedParameterError(f"{what} must be {_KINDS[kind]}, got {value!r}")


def _exact(value, what: str) -> Fraction:
    if isinstance(value, float):
        raise UnsupportedParameterError(
            f"{what} must be exact (int, Fraction or 'p/q' string), got float {value!r}"
        )
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise UnsupportedParameterError(f"bad {what}: {value!r}") from exc


def _exact_list(values, what: str) -> List[Fraction]:
    """The entries of a parameter list, each through _exact.

    A string would iterate as its characters and a bare number is no list,
    so both are refused, naming the parameter.
    """
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise UnsupportedParameterError(
            f"{what} list must be a sequence of exact numbers, got {values!r}"
        )
    return [_exact(v, what) for v in values]


class MomentFunctional:
    """Base class: linear functional on polynomials given by its moments."""

    def __init__(self, d: int, max_degree: Optional[int] = None):
        _check_dimension(d)
        self.d = d
        self.max_degree = max_degree

    def moment(self, beta: MultiIndex) -> Fraction:
        raise NotImplementedError

    def _check_beta(self, beta: MultiIndex) -> None:
        if len(beta) != self.d:
            raise DimensionMismatchError(
                f"multi-index length {len(beta)} != dimension {self.d}"
            )
        if any(b < 0 for b in beta):
            raise InsufficientMomentsError(f"negative exponent in {beta}")
        if self.max_degree is not None and degree(beta) > self.max_degree:
            raise InsufficientMomentsError(
                f"moment of degree {degree(beta)} requested but only degrees "
                f"<= {self.max_degree} are available"
            )

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
    """Memoized one-dimensional moment sequence with m_0 = 1."""

    def __init__(self):
        self._cache: List[Fraction] = [Fraction(1)]

    def value(self, k: int) -> Fraction:
        while len(self._cache) <= k:
            self._cache.append(self._next(len(self._cache)))
        return self._cache[k]

    def _next(self, k: int) -> Fraction:
        raise NotImplementedError


class _GaussianSeq(_Sequence1D):
    # m_{2t} = m_{2t-2} * (2t-1)/2 for exp(-x^2)/sqrt(pi); odd moments vanish
    def _next(self, k: int) -> Fraction:
        if k % 2 == 1:
            return Fraction(0)
        return self._cache[k - 2] * Fraction(k - 1, 2)


class _GammaSeq(_Sequence1D):
    # m_k = m_{k-1} * (alpha + k) for x^alpha exp(-x) / Gamma(alpha+1)
    def __init__(self, alpha: Fraction):
        if alpha <= -1:
            raise UnsupportedParameterError(f"gamma parameter must be > -1, got {alpha}")
        super().__init__()
        self.alpha = alpha

    def _next(self, k: int) -> Fraction:
        return self._cache[k - 1] * (self.alpha + k)


class _BetaSeq(_Sequence1D):
    # integrate d/dx[(1-x)^(a+1) (1+x)^(b+1) x^(k-1)] over [-1, 1]:
    # m_k = ((b-a) m_{k-1} + (k-1) m_{k-2}) / (a+b+k+1)
    def __init__(self, a: Fraction, b: Fraction):
        if a <= -1 or b <= -1:
            raise UnsupportedParameterError(
                f"beta parameters must be > -1, got a={a}, b={b}"
            )
        super().__init__()
        self.a = a
        self.b = b

    def _next(self, k: int) -> Fraction:
        out = (self.b - self.a) * self._cache[k - 1]
        if k >= 2:
            out += (k - 1) * self._cache[k - 2]
        return out / (self.a + self.b + k + 1)


class ProductFunctional(MomentFunctional):
    """Coordinates are independent; moment(beta) factors over coordinates."""

    def __init__(self, sequences: Sequence[_Sequence1D]):
        super().__init__(len(sequences))
        self._sequences = list(sequences)

    def moment(self, beta: MultiIndex) -> Fraction:
        self._check_beta(beta)
        out = Fraction(1)
        for seq, k in zip(self._sequences, beta):
            out *= seq.value(k)
            if out == 0:
                return out
        return out


class GaussianFunctional(ProductFunctional):
    def __init__(self, d: int):
        _check_dimension(d)
        super().__init__([_GaussianSeq() for _ in range(d)])

    def mass_factor(self) -> GammaProduct:
        # integral of exp(-|x|^2) over R^d
        return GammaProduct.pi_power(Fraction(self.d, 2))


class GammaFunctional(ProductFunctional):
    def __init__(self, alphas: Sequence):
        self.alphas = _exact_list(alphas, "gamma parameter")
        super().__init__([_GammaSeq(a) for a in self.alphas])

    def mass_factor(self) -> GammaProduct:
        # prod_j integral of x^alpha_j exp(-x) over (0, inf)
        out = GammaProduct.from_rational(1)
        for a in self.alphas:
            out = out * GammaProduct.gamma(a + 1)
        return out


class BetaFunctional(ProductFunctional):
    def __init__(self, a: Sequence, b: Sequence):
        self.a = _exact_list(a, "beta parameter a")
        self.b = _exact_list(b, "beta parameter b")
        if len(self.a) != len(self.b):
            raise DimensionMismatchError(
                f"parameter lists have lengths {len(self.a)} and {len(self.b)}"
            )
        super().__init__([_BetaSeq(x, y) for x, y in zip(self.a, self.b)])

    def mass_factor(self) -> GammaProduct:
        # prod_j integral of (1-x)^a_j (1+x)^b_j over [-1, 1]
        out = GammaProduct.from_rational(1)
        for a, b in zip(self.a, self.b):
            out = out * GammaProduct.two_power(a + b + 1)
            out = out * GammaProduct.gamma(a + 1) * GammaProduct.gamma(b + 1)
            out = out / GammaProduct.gamma(a + b + 2)
        return out


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
            d = len(_exact_list(atoms[0][0], "atom coordinate"))
        super().__init__(d)
        points, weights = [], []
        for point, weight in atoms:
            pt = tuple(_exact_list(point, "atom coordinate"))
            if len(pt) != self.d:
                raise DimensionMismatchError(
                    f"atom {pt} has {len(pt)} coordinates, expected {self.d}"
                )
            w = _exact(weight, "atom weight")
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
    """Explicit finite moment table; absent entries raise on access."""

    def __init__(self, d: int, max_degree: int, moments: Dict):
        _typed(max_degree, int, "max_degree")
        if max_degree < 0:
            raise UnsupportedParameterError(f"max_degree must be >= 0, got {max_degree}")
        super().__init__(d, max_degree=max_degree)
        self._table: Dict[MultiIndex, Fraction] = {}
        for beta, value in moments.items():
            beta = tuple(_typed(b, int, "moment entry 'beta' index") for b in beta)
            if len(beta) != d or any(b < 0 for b in beta):
                raise DimensionMismatchError(f"bad multi-index {beta} for dimension {d}")
            if degree(beta) > max_degree:
                raise UnsupportedParameterError(
                    f"table entry {beta} exceeds max_degree {max_degree}"
                )
            self._table[beta] = _exact(value, f"moment[{beta}]")

    def moment(self, beta: MultiIndex) -> Fraction:
        self._check_beta(beta)
        beta = tuple(beta)
        if beta not in self._table:
            raise InsufficientMomentsError(f"moment {beta} is not in the table")
        return self._table[beta]

    def to_json_dict(self) -> dict:
        entries = sorted(self._table.items(), key=lambda kv: (degree(kv[0]), kv[0]))
        return {
            "d": self.d,
            "max_degree": self.max_degree,
            "moments": [
                {"beta": list(beta), "value": str(value)} for beta, value in entries
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TableFunctional":
        moments = {}
        for e in _field(doc, "moments", "moment table", list):
            beta = _field(e, "beta", "moment entry", list)
            beta = tuple(_typed(b, int, "moment entry 'beta' index") for b in beta)
            if beta in moments:
                raise UnsupportedParameterError(f"moment table lists beta {list(beta)} twice")
            moments[beta] = _field(e, "value", "moment entry")
        d = _field(doc, "d", "moment table", int)
        return cls(d, _field(doc, "max_degree", "moment table", int), moments)


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


def table_functional(d: int, max_degree: int, moments: Dict) -> TableFunctional:
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
