"""Closed forms for seven classical weight families, and their verification.

Families: hermite (exp(-|x|^2)), laguerre (x^alpha exp(-|x|_1)), jacobi
((1-x_j)^a_j (1+x_j)^b_j), and the symmetric jacobi specializations
gegenbauer (a = b = lambda - 1/2), chebyshev1 (lambda = 0), chebyshev2
(lambda = 1), legendre (lambda = 1/2).  For each family the Jacobi
sequences are diagonal and admit explicit entries.

family_spec resolves a family once into one one-variable weight per
coordinate: () for hermite, (alpha,) for laguerre and (a, b) for jacobi
and its symmetric specializations.  One table lists each family's
parameters and how they make a weight; a family refuses another family's
parameters.  Every closed form below reads the weights, not the family
name; only the functional and the stated route need the name.

Each coordinate's one-variable weight fixes its three-term recurrence
x P_k = c_plus(k) P_{k+1} + c_zero(k) P_k + c_minus(k) P_{k-1}
(hermite 1/2, 0, k; laguerre -(k+1), 2k+alpha+1, -(k+alpha); an (a, b)
weight the jacobi coefficients below).  The recurrence yields the 1-D coefficient
lists whose tensor products are the family polynomials, the alpha
entries (c_zero) and the creation factors (products of c_plus).  One
per-coordinate Gamma formula gives the squared norm of the classical
degree-k polynomial, stated once as the mass (k = 0) times the integer
ratio norm(k) / norm(0) (_norm_ratio).  The monic polynomial is the
classical one times lead_k = prod_{p<k} c_plus(p), so the omega factor
omega_i(k), its squared norm, is the classical norm times lead_k^2; an
omega entry is the product of the factors of its class.  verify_family
builds one table per distinct one-variable weight for degrees
0..max_level: the recurrence rows, the omega ratios r(k) = omega(k) /
mass, the mass factor (the table's one GammaProduct) and the 1-D
coefficient lists, as integer numerators over one denominator per
degree.  Coordinates with the same weight share it, and the master
closed forms are read off it; the stated route keeps its per-class
quoted forms.  The creation lemma is checked on level coordinates: each
distinct family polynomial is formed as an integer column keyed by
packed exponent codes and split once per call into its level bases, and
the split of f * F is that split scaled by the creation factor f,
compared cross-multiplied in integers.  Each creation step applies the
stored block a+_{i|n} by columns: every nonzero coordinate of level
n < N scatters the nonzero entries of its column into level n+1, and
each target row is one integer sum.

Two evaluation routes exist for the symmetric families:

* the master route substitutes the (a, b) parameters into the jacobi
  formula, with the p = 0 factor and the zero-occupation denominator
  rewritten into their cancelled forms so no intermediate is singular;
* the stated route evaluates the per-family forms in which these results
  are usually quoted.  Two of those (chebyshev1, legendre) disagree with
  the master route, and one factor of chebyshev1 is undefined at zero
  occupation; verify reports exact witnesses instead of papering over
  the difference.  The full arithmetic pipeline arbitrates: it agrees
  with the master route.

All omega values are stated in two conventions: the unnormalized-weight
value is a GammaProduct; dividing by the weight's mass factor always
cancels the Gamma cores and yields the exact rational for the normalized
(mass 1) functional, which is what the pipeline computes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from . import _linalg
from ._linalg import ONE, ZERO, Matrix
from .cap_operators import build
from .errors import (
    InvalidDimensionError,
    InvalidIndexError,
    SingularParameterError,
    UnsupportedParameterError,
)
from .jacobi_sequences import compute
from .moments import (
    BetaFunctional,
    GammaFunctional,
    GaussianFunctional,
    MomentFunctional,
    _exact_list,
    _multiplicities,
)
from .multiindex import (
    MultiIndex,
    check_index,
    check_integer,
    degree,
    enumerate_classes,
    factorial_of,
)
from .orthodecomp import decompose
from .polyring import Polynomial
from .symbolic import GammaProduct

HALF = Fraction(1, 2)

# per family: (keyword, option name, lower bound) of each parameter list it
# takes, and one coordinate's weight from that coordinate's parameters
_FAMILIES = {
    "hermite": ((), lambda: ()),
    "laguerre": ((("alpha", "alpha", Fraction(-1)),), lambda alpha: (alpha,)),
    "jacobi": (
        (("a", "a", Fraction(-1)), ("b", "b", Fraction(-1))),
        lambda a, b: (a, b),
    ),
    "gegenbauer": ((("lam", "lambda", -HALF),), lambda lam: (lam - HALF, lam - HALF)),
    "chebyshev1": ((), lambda: (-HALF, -HALF)),
    "chebyshev2": ((), lambda: (HALF, HALF)),
    "legendre": ((), lambda: (ZERO, ZERO)),
}
FAMILIES = tuple(_FAMILIES)
_OPTION_NAMES = {key: name for params, _ in _FAMILIES.values() for key, name, _ in params}


def _exact_params(values, what: str, low: Fraction) -> Tuple[Fraction, ...]:
    out = tuple(_exact_list(values, what))
    for v in out:
        if v <= low:
            raise UnsupportedParameterError(f"{what} must be > {low}, got {v}")
    return out


@dataclass(frozen=True)
class FamilySpec:
    """A weight family on R^d, as one exact one-variable weight per coordinate.

    weights[i] is coordinate i+1's weight: () for hermite, (alpha,) for
    laguerre, and (a, b) for jacobi and its symmetric specializations
    (gegenbauer a = b = lambda - 1/2; chebyshev1, chebyshev2 and legendre
    a = b = -1/2, 1/2 and 0).
    """

    family: str
    d: int
    weights: Tuple[Tuple[Fraction, ...], ...]

    def functional(self) -> MomentFunctional:
        """The normalized (mass 1) moment functional of the weight."""
        if self.family == "hermite":
            return GaussianFunctional(self.d)
        if self.family == "laguerre":
            return GammaFunctional([alpha for (alpha,) in self.weights])
        a, b = zip(*self.weights)
        return BetaFunctional(a, b)

    def mass_factor(self) -> GammaProduct:
        return self.functional().mass_factor()


def family_spec(family: str, d: Optional[int] = None, a=None, b=None,
                alpha=None, lam=None) -> FamilySpec:
    """Validate parameters and build a FamilySpec.

    laguerre needs alpha (> -1 entrywise), jacobi needs a and b (> -1),
    gegenbauer needs lam (> -1/2); the remaining families take only d.
    A family refuses another family's parameters.  The dimension is
    inferred from the parameter lists when omitted.
    """
    if family not in _FAMILIES:
        raise UnsupportedParameterError(
            f"unknown family {family!r}; choose from {', '.join(FAMILIES)}"
        )
    if d is not None:
        check_integer(d, "dimension d", InvalidDimensionError)
    given = {"a": a, "b": b, "alpha": alpha, "lam": lam}
    params, weight = _FAMILIES[family]
    if not params:
        if d is None or d < 1:
            raise InvalidDimensionError(f"{family} needs a dimension d >= 1")
        if any(p is not None for p in given.values()):
            raise UnsupportedParameterError(f"{family} takes no parameters")
        return FamilySpec(family, d, (weight(),) * d)
    if any(given[key] is None for key, _, _ in params):
        names = " and ".join(name for _, name, _ in params)
        raise UnsupportedParameterError(f"{family} needs {names} parameters")
    lists = [_exact_params(given[key], f"{family} {name}", low) for key, name, low in params]
    lengths = [len(p) for p in lists]
    if len(set(lengths)) > 1:
        raise InvalidDimensionError(
            f"parameter lists have lengths {' and '.join(map(str, lengths))}"
        )
    d = lengths[0] if d is None else d
    if d != lengths[0]:
        what = f"{params[0][1]} parameters" if len(params) == 1 else "parameter pairs"
        raise InvalidDimensionError(f"{lengths[0]} {what} for dimension {d}")
    own = {key for key, _, _ in params}
    foreign = [_OPTION_NAMES[key] for key, p in given.items() if p is not None and key not in own]
    if foreign:
        raise UnsupportedParameterError(f"{family} takes no {' or '.join(foreign)} parameters")
    return FamilySpec(family, d, tuple(weight(*p) for p in zip(*lists)))


# --------------------------------------------------------------------------
# the three-term recurrence table
# --------------------------------------------------------------------------


def _recurrence(spec: FamilySpec, coordinate: int, k: int) -> Tuple[Fraction, Fraction, Fraction]:
    """(c_plus, c_zero, c_minus)(k) of one coordinate's three-term recurrence.

    x P_k = c_plus P_{k+1} + c_zero P_k + c_minus P_{k-1} in the classical
    normalization.  c_minus(0) multiplies P_{-1} = 0; it is reported as 0
    and never evaluated.  For jacobi, with s = a + b, k = 0 takes the
    cancelled forms 2/(s+2) and (b-a)/(s+2): the generic expressions are
    0/0 there when s = -1 (first-kind chebyshev weight) or s = 0.

    The parameters are put over one common denominator q, so each
    coefficient is one integer numerator over one integer denominator
    (for jacobi, with the numerators pa = a q, pb = b q and s q = pa + pb,
    c_plus(k) = 2 (k+1) (k q + s q + q) q / ((2k+s+1) q (2k+s+2) q)), and
    one Fraction.
    """
    match spec.weights[coordinate - 1]:
        case ():
            return HALF, ZERO, Fraction(k)
        case (alpha,):
            p, q = alpha.as_integer_ratio()
            c_minus = Fraction(-(k * q + p), q) if k else ZERO
            return Fraction(-(k + 1)), Fraction(2 * k * q + p + q, q), c_minus
        case (a, b):
            (pa, pb), q = _over_one_denominator((a, b))
            sq = pa + pb
            if k == 0:
                return Fraction(2 * q, sq + 2 * q), Fraction(pb - pa, sq + 2 * q), ZERO
            # (2k+s) q, (2k+s+1) q and (2k+s+2) q
            low, mid, high = 2 * k * q + sq, 2 * k * q + sq + q, 2 * k * q + sq + 2 * q
            if low * mid * high == 0:
                raise SingularParameterError(
                    f"jacobi recurrence denominator vanishes at k={k}, a={a}, b={b}"
                )
            return (
                Fraction(2 * (k + 1) * (k * q + sq + q) * q, mid * high),
                Fraction(pb * pb - pa * pa, low * high),
                Fraction(2 * (k * q + pa) * (k * q + pb), low * mid),
            )


def _over_one_denominator(params: Sequence[Fraction]) -> Tuple[Tuple[int, ...], int]:
    """(numerators, q): the parameters as integer numerators over their common denominator q."""
    q = lcm(*(v.denominator for v in params))
    return tuple(v.numerator * (q // v.denominator) for v in params), q


_IntegerList = Tuple[List[int], int]
"""Coefficients (constant term first) as integer numerators over one denominator > 0."""


def _one_d(recurrence: Sequence[Tuple[Fraction, Fraction, Fraction]]) -> List[_IntegerList]:
    """Coefficient lists of P_0..P_top in one coordinate, in integers.

    recurrence holds that coordinate's (c_plus, c_zero, c_minus)(k) for
    k = 0..top-1.  P_{k+1} = ((x - c_zero) P_k - c_minus P_{k-1}) / c_plus
    is formed over the lcm of the two terms' denominators, and each list is
    kept in lowest terms: its denominator is the lcm of its coefficients'
    denominators.
    """
    out: List[_IntegerList] = [([1], 1)]
    for k, (c_plus, c_zero, c_minus) in enumerate(recurrence):
        nums, den = out[k]
        zn, zd = c_zero.as_integer_ratio()
        nxt = [0] + [c * zd for c in nums]  # (x - c_zero) P_k over den * zd
        for i, c in enumerate(nums):
            nxt[i] -= zn * c
        den *= zd
        if k:
            low, low_den = out[k - 1]
            mn, md = c_minus.as_integer_ratio()
            low_den *= md
            g = gcd(den, low_den)
            nxt = [c * (low_den // g) for c in nxt]
            for i, c in enumerate(low):
                nxt[i] -= mn * c * (den // g)
            den = den // g * low_den
        pn, pd = c_plus.as_integer_ratio()
        if pn < 0:
            pn, pd = -pn, -pd
        nxt = [c * pd for c in nxt]
        den *= pn
        g = gcd(den, *nxt)
        out.append(([c // g for c in nxt], den // g))
    return out


def _tensor(
    one_d: Sequence[Sequence[_IntegerList]], index: MultiIndex, radix: int
) -> Tuple[Dict[int, int], int]:
    """Nonzero terms of prod_i P_{index_i}(x_i), from per-coordinate lists.

    The terms are integer numerators over the one returned denominator,
    keyed by the packed exponent code of their monomial in this radix
    (orthodecomp.pack), which must exceed every index entry.
    """
    terms, den, place = {0: 1}, 1, 1
    for lists, k in zip(one_d, index):
        nums, q = lists[k]
        terms = {
            code + e * place: c * v
            for code, c in terms.items()
            for e, v in enumerate(nums)
            if v
        }
        den *= q
        place *= radix
    return terms, den


def _check_index(spec: FamilySpec, index: MultiIndex) -> None:
    if len(index) != spec.d:
        raise InvalidIndexError(
            f"index length {len(index)} != dimension {spec.d}"
        )
    if any(isinstance(k, bool) or not isinstance(k, int) or k < 0 for k in index):
        raise InvalidIndexError(
            f"index {tuple(index)} needs integer entries >= 0"
        )


def family_polynomial(spec: FamilySpec, index: MultiIndex) -> Polynomial:
    """Tensor product of the 1-D family polynomials, classical normalization.

    Hermite has leading coefficient 2^|index|, laguerre (-1)^|index|/index!,
    jacobi the leading coefficient its recurrence produces.  The symmetric
    families are realized through their (a, b) parameters.
    """
    _check_index(spec, index)
    one_d = [
        _one_d([_recurrence(spec, i, p) for p in range(k)])
        for i, k in enumerate(index, start=1)
    ]
    radix = max(index) + 1
    terms, den = _tensor(one_d, index, radix)
    return Polynomial(spec.d, {
        tuple(code // radix**i % radix for i in range(spec.d)): Fraction(c, den)
        for code, c in terms.items()
    })


def _norm_factor(spec: FamilySpec, coordinate: int, k: int) -> GammaProduct:
    """Squared norm of one coordinate's classical degree-k polynomial.

    Against the unnormalized one-variable weight: hermite 2^k k! pi^(1/2),
    laguerre Gamma(k+alpha+1) / k!, jacobi 2^(s+1) Gamma(k+a+1) Gamma(k+b+1)
    / (k! (2k+s+1) Gamma(k+s+1)) with s = a + b, where the k = 0
    denominator is the cancelled (2k+s+1) Gamma(k+s+1) -> Gamma(s+2),
    finite for all valid parameters.  At k = 0 it is the coordinate's mass,
    built as one GammaProduct; degree k is that mass times the rational
    _norm_ratio(weight, k).
    """
    weight = spec.weights[coordinate - 1]
    match weight:
        case ():
            mass = GammaProduct(pi_pow=HALF)
        case (alpha,):
            mass = GammaProduct(gammas={alpha + 1: 1})
        case (a, b):
            mass = GammaProduct(
                two_pow=a + b + 1,
                gammas=_multiplicities(((a + 1, 1), (b + 1, 1), (a + b + 2, -1))),
            )
    return mass * _norm_ratio(weight, k) if k else mass


def _norm_ratio(weight: Tuple[Fraction, ...], k: int) -> Fraction:
    """norm(k) / norm(0) of a one-variable weight (see _norm_factor).

    Each Gamma quotient is its rising product, (z)_k = Gamma(z+k) /
    Gamma(z), formed in integers over the parameters' common denominator q
    as (p/q)_k = p (p+q) ... (p+(k-1)q) / q^k: hermite 2^k k!, laguerre
    (alpha+1)_k / k!, and jacobi, for k >= 1,
    (a+1)_k (b+1)_k / (k! (2k+s+1) (s+2)_{k-1}).
    """
    if not k:
        return ONE
    if not weight:
        return Fraction(math.factorial(k) << k)
    nums, q = _over_one_denominator(weight)
    rising = [math.prod(range(p + q, p + q + k * q, q)) for p in nums]
    if len(weight) == 1:
        return Fraction(rising[0], q**k * math.factorial(k))
    sq = sum(nums)  # s q
    below = (2 * k * q + sq + q) * math.prod(range(sq + 2 * q, sq + 2 * q + (k - 1) * q, q))
    return Fraction(rising[0] * rising[1], q**k * math.factorial(k) * below)


def family_norm_squared(spec: FamilySpec, index: MultiIndex) -> GammaProduct:
    """Squared norm of family_polynomial(index) against the unnormalized weight."""
    _check_index(spec, index)
    out = GammaProduct.from_rational(1)
    for i, k in enumerate(index, start=1):
        out = out * _norm_factor(spec, i, k)
    return out


def creation_power(
    spec: FamilySpec, base: MultiIndex, coordinate: int, power: int
) -> Tuple[Fraction, MultiIndex]:
    """Scalar f with (a+_i)^m F_base = f * F_{base + m e_i}, and that index.

    f is the product of c_plus(k), ..., c_plus(k+m-1) for k = base_i: the
    ratio of classical leading coefficients, so it can be cross-checked by
    applying the pipeline's creation matrices.
    """
    check_index(coordinate, "coordinate", 1, spec.d)
    check_index(power, "power", 1)
    _check_index(spec, base)
    k = base[coordinate - 1]
    result = tuple(
        v + power if i == coordinate - 1 else v for i, v in enumerate(base)
    )
    factor = Fraction(1)
    for p in range(power):
        factor *= _recurrence(spec, coordinate, k + p)[0]
    return factor, result


# --------------------------------------------------------------------------
# closed-form omega and alpha
# --------------------------------------------------------------------------


def _omega_factor(spec: FamilySpec, coordinate: int, n: int) -> GammaProduct:
    """One coordinate's factor of the omega closed form, unnormalized weight.

    The squared norm of that coordinate's monic degree-n polynomial: the
    classical polynomial times lead = prod_{p<n} c_plus(p), the inverse of
    its leading coefficient, so its norm times lead^2.
    """
    lead = math.prod(_recurrence(spec, coordinate, p)[0] for p in range(n))
    return _norm_factor(spec, coordinate, n) * (lead * lead)


def master_omega(spec: FamilySpec, n_bar: MultiIndex) -> GammaProduct:
    """Diagonal omega entry for class n_bar, unnormalized-weight convention.

    The product over the coordinates of their omega factors.
    """
    _check_index(spec, n_bar)
    out = GammaProduct.from_rational(1)
    for i, k in enumerate(n_bar, start=1):
        out = out * _omega_factor(spec, i, k)
    return out


def stated_omega(spec: FamilySpec, n_bar: MultiIndex) -> Tuple[GammaProduct, Tuple[str, ...]]:
    """The per-family quoted form of the omega entry, for cross-checking.

    gegenbauer and chebyshev2 agree exactly with master_omega.  chebyshev1
    and legendre do not: chebyshev1 misses the cancelled p = 0 factor and
    its zero-occupation denominator 2n Gamma(n) is undefined (those
    coordinates are routed through the master factor, with a note), and
    legendre squares the (p+1) numerator once too often.  The pipeline
    arbitrates; see verify_family.
    """
    _check_index(spec, n_bar)
    notes: List[str] = []
    if spec.family in ("hermite", "laguerre", "jacobi"):
        return master_omega(spec, n_bar), ()
    if spec.family == "gegenbauer":
        out = GammaProduct.from_rational(Fraction(1, factorial_of(n_bar)))
        lambdas = [a + HALF for a, _ in spec.weights]
        out = out * GammaProduct.two_power(2 * sum(lambdas))
        for n, lam in zip(n_bar, lambdas):
            inner = Fraction(1)
            for p in range(n):
                if p == 0:
                    inner *= Fraction(2) / (2 * lam + 1)
                else:
                    inner *= (p + 1) * (2 * lam + p) / ((p + lam) * (2 * p + 2 * lam + 1))
            out = out * GammaProduct.from_rational(inner * inner)
            out = out * GammaProduct.gamma(n + lam + Fraction(1, 2)) ** 2
            if n == 0:
                out = out / GammaProduct.gamma(2 * lam + 1)
            else:
                out = out / (
                    GammaProduct.from_rational(2 * n + 2 * lam)
                    * GammaProduct.gamma(n + 2 * lam)
                )
        return out, ()
    if spec.family == "chebyshev1":
        out = GammaProduct.from_rational(Fraction(1, factorial_of(n_bar)))
        for i, n in enumerate(n_bar, start=1):
            if n == 0:
                out = out * _norm_factor(spec, i, 0)
                notes.append(
                    f"coordinate {i}: stated denominator 2n*Gamma(n) undefined "
                    "at zero occupation; master factor used"
                )
                continue
            inner = Fraction(1)
            for p in range(n):
                inner *= Fraction(p + 1, 2 * p + 1)
            out = out * GammaProduct.from_rational(inner * inner)
            out = out * GammaProduct.gamma(n + Fraction(1, 2)) ** 2
            out = out / GammaProduct.from_rational(2 * factorial_of((n,)))
        return out, tuple(notes)
    if spec.family == "chebyshev2":
        out = GammaProduct.from_rational(Fraction(1, factorial_of(n_bar)))
        out = out * GammaProduct.two_power(2 * spec.d)
        for n in n_bar:
            inner = Fraction(1)
            for p in range(n):
                inner *= Fraction(p + 2, 2 * p + 3)
            out = out * GammaProduct.from_rational(inner * inner)
            out = out * GammaProduct.gamma(n + Fraction(3, 2)) ** 2
            out = out / (
                GammaProduct.from_rational(2 * n + 2)
                * GammaProduct.gamma(Fraction(n + 2))
            )
        return out, ()
    if spec.family == "legendre":
        out = GammaProduct.from_rational(Fraction(1, factorial_of(n_bar)))
        out = out * GammaProduct.two_power(spec.d)
        for n in n_bar:
            inner = Fraction(1)
            for p in range(n):
                inner *= Fraction((p + 1) ** 2, 2 * p + 1)
            value = inner * inner * factorial_of((n,)) / (2 * n + 1)
            out = out * GammaProduct.from_rational(value)
        return out, ()
    raise UnsupportedParameterError(f"unknown family {spec.family!r}")


@dataclass(frozen=True)
class ClosedFormEntry:
    """One diagonal position: class label, omega in both conventions, alphas."""

    n_bar: MultiIndex
    omega_value: Fraction
    omega_paper: GammaProduct
    mass_factor: GammaProduct
    alpha_values: Tuple[Fraction, ...]


def _normalized(paper: GammaProduct, mass: GammaProduct) -> Fraction:
    """paper / mass, which cancels the Gamma cores of every omega closed form."""
    normalized = paper / mass
    assert normalized.is_rational(), (
        f"omega/mass must be rational, got {normalized!r}"
    )
    return normalized.rational_value()


def _diagonal(values: Sequence[Fraction]) -> Matrix:
    out = _linalg.zeros(len(values), len(values))
    for k, value in enumerate(values):
        out[k][k] = value
    return out


def closed_form_omega(spec: FamilySpec, n: int) -> List[ClosedFormEntry]:
    """Diagonal entries over the canonical class order at level n."""
    check_index(n, "level", 0)
    mass = spec.mass_factor()
    entries = []
    for n_bar in enumerate_classes(spec.d, n).classes:
        paper = master_omega(spec, n_bar)
        alphas = tuple(
            _recurrence(spec, j, n_bar[j - 1])[1] for j in range(1, spec.d + 1)
        )
        entries.append(
            ClosedFormEntry(n_bar, _normalized(paper, mass), paper, mass, alphas)
        )
    return entries


def closed_form_alpha(spec: FamilySpec, n: int, coordinate: int) -> Matrix:
    """The diagonal matrix alpha_{e_coordinate|n} over the class basis."""
    check_index(coordinate, "coordinate", 1, spec.d)
    check_index(n, "level", 0)
    return _diagonal([
        _recurrence(spec, coordinate, n_bar[coordinate - 1])[1]
        for n_bar in enumerate_classes(spec.d, n).classes
    ])


# --------------------------------------------------------------------------
# verification harness
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaComparison:
    j: int
    pipeline: Matrix
    closed: Matrix
    match: bool


@dataclass(frozen=True)
class LevelComparison:
    n: int
    classes: Tuple[MultiIndex, ...]
    omega_pipeline: Matrix
    omega_closed: Matrix
    omega_match: bool
    alphas: Tuple[AlphaComparison, ...]
    notes: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.omega_match and all(a.match for a in self.alphas)


@dataclass(frozen=True)
class LemmaCheck:
    coordinate: int
    base: MultiIndex
    power: int
    factor: Fraction
    match: bool


@dataclass(frozen=True)
class FamilyReport:
    spec: FamilySpec
    max_level: int
    variant: str
    mass_factor: GammaProduct
    levels: Tuple[LevelComparison, ...]
    lemma_checks: Tuple[LemmaCheck, ...]

    @property
    def ok(self) -> bool:
        return all(lv.ok for lv in self.levels) and all(
            c.match for c in self.lemma_checks
        )

    def to_json_dict(self) -> dict:
        return {
            "family": self.spec.family,
            "d": self.spec.d,
            "max_level": self.max_level,
            "variant": self.variant,
            "mass_factor": self.mass_factor.compact_str(),
            "ok": self.ok,
            "levels": [
                {
                    "n": lv.n,
                    "classes": [list(c) for c in lv.classes],
                    "omega_pipeline": _linalg.to_string_matrix(lv.omega_pipeline),
                    "omega_closed": _linalg.to_string_matrix(lv.omega_closed),
                    "omega_match": lv.omega_match,
                    "alpha": [
                        {
                            "j": a.j,
                            "pipeline": _linalg.to_string_matrix(a.pipeline),
                            "closed": _linalg.to_string_matrix(a.closed),
                            "match": a.match,
                        }
                        for a in lv.alphas
                    ],
                    "notes": list(lv.notes),
                    "ok": lv.ok,
                }
                for lv in self.levels
            ],
            "creation_power_checks": [
                {
                    "coordinate": c.coordinate,
                    "base": list(c.base),
                    "power": c.power,
                    "factor": str(c.factor),
                    "match": c.match,
                }
                for c in self.lemma_checks
            ],
        }


def _stated_omega_matrix(
    spec: FamilySpec, classes: Sequence[MultiIndex], mass: GammaProduct
) -> Tuple[Matrix, Tuple[str, ...]]:
    values = []
    notes: List[str] = []
    for n_bar in classes:
        paper, entry_notes = stated_omega(spec, n_bar)
        notes.extend(f"class {tuple(n_bar)}: {t}" for t in entry_notes)
        values.append(_normalized(paper, mass))
    return _diagonal(values), tuple(notes)


@dataclass(frozen=True)
class _WeightTable:
    """One coordinate's one-variable weight over the degrees k = 0..top.

    rows holds the recurrence triples (one _recurrence call per degree),
    ratio the omega ratios r(k) = omega(k) / mass = _norm_ratio(k) lead_k^2
    (omega(k) is the classical norm times lead_k^2, see _omega_factor), as
    rationals with no GammaProduct per degree, mass the k = 0 norm, the
    table's one GammaProduct, and one_d the coefficient lists of P_0..P_top
    as integer numerators over one denominator per degree.
    """

    rows: List[Tuple[Fraction, Fraction, Fraction]]
    ratio: List[Fraction]
    mass: GammaProduct
    one_d: List[_IntegerList]


def _weight_table(spec: FamilySpec, coordinate: int, top: int) -> _WeightTable:
    weight = spec.weights[coordinate - 1]
    rows = [_recurrence(spec, coordinate, k) for k in range(top + 1)]
    leads = accumulate((c_plus for c_plus, _, _ in rows), operator.mul, initial=ONE)
    ratio = [_norm_ratio(weight, k) * lead * lead for k, lead in zip(range(top + 1), leads)]
    return _WeightTable(rows, ratio, _norm_factor(spec, coordinate, 0), _one_d(rows[:top]))


def _scaled_equal(
    lhs: Sequence[Sequence[Fraction]], split: Sequence[Sequence[Fraction]], factor: Fraction
) -> bool:
    """lhs == factor * split, entry by entry, cross-multiplied in integers.

    Both sides hold the shared ZERO for most zero entries, which match
    without a product.
    """
    fn, fd = factor.as_integer_ratio()
    for lhs_level, split_level in zip(lhs, split):
        for x, y in zip(lhs_level, split_level):
            if x is ZERO and y is ZERO:
                continue
            xn, xd = x.as_integer_ratio()
            yn, yd = y.as_integer_ratio()
            if xn * fd * yd != fn * yn * xd:
                return False
    return True


def verify_family(
    spec: FamilySpec,
    max_level: int,
    variant: str = "master",
) -> FamilyReport:
    """Compare the arithmetic pipeline against the closed forms, exactly.

    variant selects which closed form the pipeline is held against:
    "master" (the jacobi parameter substitution, expected to match) or
    "stated" (the per-family quoted forms, two of which are expected to
    mismatch).  Mismatches are reported with both matrices as witness,
    never raised.
    """
    if variant not in ("master", "stated"):
        raise UnsupportedParameterError(f"unknown variant {variant!r}")
    check_index(max_level, "max_level", 0)
    functional = spec.functional()
    decomp = decompose(functional, max_level)
    ops = build(decomp)
    seq = compute(ops, max_level)
    mass = functional.mass_factor()

    # one table per distinct one-variable weight, shared by the coordinates
    # that carry it
    coordinates = range(1, spec.d + 1)
    tables: Dict[Tuple[Fraction, ...], _WeightTable] = {}
    for i, weight in enumerate(spec.weights, start=1):
        if weight not in tables:
            tables[weight] = _weight_table(spec, i, max_level)
    weights = [tables[weight] for weight in spec.weights]
    masses = math.prod((w.mass for w in weights), start=GammaProduct.from_rational(1))
    assert masses == mass, f"coordinate masses multiply to {masses!r}, not {mass!r}"

    def compare_level(n: int) -> LevelComparison:
        classes = enumerate_classes(spec.d, n).classes
        om_pipe = seq.omega_matrix(n)
        if variant == "stated":
            om_closed, notes = _stated_omega_matrix(spec, classes, mass)
        else:
            # each entry is one Fraction of the integer products of the ratios
            om_closed = _diagonal([
                Fraction(
                    math.prod(w.ratio[k].numerator for w, k in zip(weights, n_bar)),
                    math.prod(w.ratio[k].denominator for w, k in zip(weights, n_bar)),
                )
                for n_bar in classes
            ])
            notes = ()
        alphas = []
        # both sides are new lists of row lists, so == compares them entrywise
        for j in coordinates:
            pipe = seq.alpha_matrix(j, n)
            closed = _diagonal([weights[j - 1].rows[n_bar[j - 1]][1] for n_bar in classes])
            alphas.append(AlphaComparison(j, pipe, closed, pipe == closed))
        return LevelComparison(
            n,
            classes,
            om_pipe,
            om_closed,
            om_pipe == om_closed,
            tuple(alphas),
            notes,
        )

    levels = tuple(compare_level(n) for n in range(max_level + 1))

    # creation lemma on level coordinates: the family polynomials are built
    # as integer columns over the graded monomial basis, and each distinct
    # one is split once
    one_d = [w.one_d for w in weights]
    moments = decomp.moments
    size = len(moments.basis)
    splits: Dict[MultiIndex, List[List[Fraction]]] = {}

    def split(index: MultiIndex) -> List[List[Fraction]]:
        if index not in splits:
            terms, den = _tensor(one_d, index, moments.radix)
            nums = [0] * size
            for code, c in terms.items():
                nums[moments.code_position[code]] = c
            splits[index] = decomp.split_ratios(nums, [den] * size)
        return splits[index]

    # the nonzero (row, entry) pairs of each column of a+_{i|n}, read off the
    # stored block once per call
    columns: Dict[Tuple[int, int], List[List[Tuple[int, Fraction]]]] = {}

    def create(i: int, n: int, coords: List[Fraction]) -> List[Fraction]:
        """a+_{i|n} times level n's coordinates: each nonzero coordinate
        scatters its block column over the rows of level n+1, and each row
        is one sum."""
        block = ops._plus[(i, n)]
        if (i, n) not in columns:
            columns[(i, n)] = [
                [(r, row[k]) for r, row in enumerate(block) if row[k]]
                for k in range(len(coords))
            ]
        rows: List[List[Tuple[Fraction, Fraction]]] = [[] for _ in block]
        for k, x in enumerate(coords):
            if x:
                for r, entry in columns[(i, n)][k]:
                    rows[r].append((entry, x))
        return [_linalg.sum_of_products(terms) if terms else ZERO for terms in rows]

    lemma_checks = []
    # F_0, then F_{e_i} for each coordinate
    bases = [tuple(int(k == i) for k in range(spec.d)) for i in range(-1, spec.d)]
    for base in bases:
        if degree(base) >= max_level:
            continue  # no creation power stays within the computed levels
        for i in coordinates:
            lhs = split(base)
            factor = Fraction(1)
            for m in range(1, max_level - degree(base) + 1):
                # creation_power(spec, base, i, m), one c_plus at a time
                factor *= weights[i - 1].rows[base[i - 1] + m - 1][0]
                result = base[: i - 1] + (base[i - 1] + m,) + base[i:]
                # (a+_i)^m F_base: level n < N goes into level n+1 by a+_{i|n}
                lhs = [[ZERO]] + [create(i, n, c) for n, c in enumerate(lhs[:-1])]
                # split is linear: the split of factor * F_result is the scaled split
                lemma_checks.append(
                    LemmaCheck(i, base, m, factor, _scaled_equal(lhs, split(result), factor))
                )
    return FamilyReport(
        spec, max_level, variant, mass, tuple(levels), tuple(lemma_checks)
    )
