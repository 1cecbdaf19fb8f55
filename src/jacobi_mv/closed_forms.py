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
entries (c_zero) and the creation factors (products of c_plus).  The
squared norm of the classical degree-k polynomial is the weight's mass
times the integer ratio norm(k) / norm(0) (_norm_ratio).  The mass is
the functional's (FamilySpec.mass_factor), the one place that states it.
The monic polynomial is the classical one times lead_k = prod_{p<k}
c_plus(p), so the omega factor omega_i(k), its squared norm, is the
mass times the ratio r(k) = _norm_ratio(k) lead_k^2; an omega entry is
the spec's mass times the product of the ratios of its class.  One table
per distinct one-variable weight (_weight_table) holds, for degrees
0..top, the recurrence rows, the omega ratios and the 1-D coefficient
lists, as integer numerators over one denominator per degree; it holds
no mass.  Coordinates with the same weight share it.  master_omega,
closed_form_omega and verify_family read the master closed forms off
the tables and multiply by the mass once; the stated route keeps its
per-class quoted forms.  The creation lemma is checked on level
coordinates, each kept as a map from basis position to nonzero
Fraction: on a product weight every such vector has one nonzero entry.
Each distinct family polynomial is formed as an integer column keyed by
packed exponent codes and split once per call, by
Decomposition.back_substitute, into its nonzero map; the split of f * F
is that split scaled by the creation factor f, compared over the union
of the two supports, cross-multiplied in integers.  Each creation step
applies the stored blocks a+_{i|n} by columns: every nonzero coordinate
scatters the nonzero entries of its one column into the level above, and
each reached position is one sum.
A column is read off its block the first time a check reaches it.

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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import _linalg
from ._linalg import ZERO, Matrix
from .cap_operators import build
from .errors import (
    InvalidDimensionError,
    SingularParameterError,
    UnsupportedParameterError,
)
from .jacobi_sequences import compute
from .moments import (
    BetaFunctional,
    GammaFunctional,
    GaussianFunctional,
    MomentFunctional,
)
from .multiindex import (
    MultiIndex,
    _check_dimension,
    check_index,
    check_integer,
    check_multi_index,
    degree,
    enumerate_classes,
    exact_list,
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
    out = tuple(exact_list(values, what))
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
    inferred from the parameter lists when omitted, and is held to
    multiindex.MAX_DIMENSION before the weights are built.
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
        _check_dimension(d)
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
    _check_dimension(d)
    return FamilySpec(family, d, tuple(weight(*p) for p in zip(*lists)))


# --------------------------------------------------------------------------
# the three-term recurrence table
# --------------------------------------------------------------------------


def _recurrence(weight: Tuple[Fraction, ...], k: int) -> Tuple[Fraction, Fraction, Fraction]:
    """(c_plus, c_zero, c_minus)(k) of a one-variable weight's three-term recurrence.

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
    match weight:
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


def family_polynomial(spec: FamilySpec, index: MultiIndex) -> Polynomial:
    """Tensor product of the 1-D family polynomials, classical normalization.

    Hermite has leading coefficient 2^|index|, laguerre (-1)^|index|/index!,
    jacobi the leading coefficient its recurrence produces.  The symmetric
    families are realized through their (a, b) parameters.
    """
    index = check_multi_index(index, spec.d)
    one_d = [
        _one_d([_recurrence(weight, p) for p in range(k)])
        for weight, k in zip(spec.weights, index)
    ]
    radix = max(index) + 1
    terms, den = _tensor(one_d, index, radix)
    return Polynomial(spec.d, {
        tuple(code // radix**i % radix for i in range(spec.d)): Fraction(c, den)
        for code, c in terms.items()
    })


def _norm_ratio(weight: Tuple[Fraction, ...], k: int) -> Tuple[int, int]:
    """norm(k) / norm(0) of a one-variable weight, as an integer ratio
    (p, q), q > 0, not reduced.

    norm(k) is the squared norm of the classical degree-k polynomial against
    the unnormalized weight: hermite 2^k k! pi^(1/2), laguerre
    Gamma(k+alpha+1) / k!, jacobi 2^(s+1) Gamma(k+a+1) Gamma(k+b+1) /
    (k! (2k+s+1) Gamma(k+s+1)) with s = a + b, where the k = 0 denominator
    is the cancelled (2k+s+1) Gamma(k+s+1) -> Gamma(s+2), finite for all
    valid parameters.  norm(0) is the weight's mass, which the functional
    states; only the ratio is formed here.  Each Gamma quotient is its
    rising product, (z)_k = Gamma(z+k) / Gamma(z), formed in integers over
    the parameters' common denominator q as (p/q)_k = p (p+q) ...
    (p+(k-1)q) / q^k: hermite 2^k k!, laguerre (alpha+1)_k / k!, and
    jacobi, for k >= 1, (a+1)_k (b+1)_k / (k! (2k+s+1) (s+2)_{k-1}).
    """
    if not k:
        return 1, 1
    if not weight:
        return math.factorial(k) << k, 1
    nums, q = _over_one_denominator(weight)
    rising = [math.prod(range(p + q, p + q + k * q, q)) for p in nums]
    if len(weight) == 1:
        return rising[0], q**k * math.factorial(k)
    sq = sum(nums)  # s q
    below = (2 * k * q + sq + q) * math.prod(range(sq + 2 * q, sq + 2 * q + (k - 1) * q, q))
    return rising[0] * rising[1], q**k * math.factorial(k) * below


def _product(ratios: Iterable[Tuple[int, int]]) -> Fraction:
    """The product of integer ratios (p, q) as one Fraction of integer products."""
    nums, dens = zip(*ratios)
    return Fraction(math.prod(nums), math.prod(dens))


def family_norm_squared(spec: FamilySpec, index: MultiIndex) -> GammaProduct:
    """Squared norm of family_polynomial(index) against the unnormalized weight:
    the mass times the product of the coordinates' norm ratios."""
    index = check_multi_index(index, spec.d)
    return spec.mass_factor() * _product(map(_norm_ratio, spec.weights, index))


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
    base = check_multi_index(base, spec.d)
    k = base[coordinate - 1]
    result = tuple(
        v + power if i == coordinate - 1 else v for i, v in enumerate(base)
    )
    weight = spec.weights[coordinate - 1]
    factor = Fraction(1)
    for p in range(power):
        factor *= _recurrence(weight, k + p)[0]
    return factor, result


# --------------------------------------------------------------------------
# closed-form omega and alpha
# --------------------------------------------------------------------------


def master_omega(spec: FamilySpec, n_bar: MultiIndex) -> GammaProduct:
    """Diagonal omega entry for class n_bar, unnormalized-weight convention.

    The mass times the product over the coordinates of their omega ratios,
    read off one table per distinct one-variable weight.
    """
    n_bar = check_multi_index(n_bar, spec.d)
    return spec.mass_factor() * _omega_ratio(_tables(spec, max(n_bar)), n_bar)


def stated_omega(spec: FamilySpec, n_bar: MultiIndex) -> Tuple[GammaProduct, Tuple[str, ...]]:
    """The per-family quoted form of the omega entry, for cross-checking.

    gegenbauer and chebyshev2 agree exactly with master_omega.  chebyshev1
    and legendre do not: chebyshev1 misses the cancelled p = 0 factor and
    its zero-occupation denominator 2n Gamma(n) is undefined (those
    coordinates are routed through the master factor, with a note), and
    legendre squares the (p+1) numerator once too often.  The pipeline
    arbitrates; see verify_family.
    """
    n_bar = check_multi_index(n_bar, spec.d)
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
                out = out * FamilySpec(spec.family, 1, spec.weights[i - 1:i]).mass_factor()
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
    tables = _tables(spec, n)
    entries = []
    for n_bar in enumerate_classes(spec.d, n).classes:
        value = _omega_ratio(tables, n_bar)
        alphas = tuple(t.rows[k][1] for t, k in zip(tables, n_bar))
        entries.append(ClosedFormEntry(n_bar, value, mass * value, mass, alphas))
    return entries


def closed_form_alpha(spec: FamilySpec, n: int, coordinate: int) -> Matrix:
    """The diagonal matrix alpha_{e_coordinate|n} over the class basis."""
    check_index(coordinate, "coordinate", 1, spec.d)
    check_index(n, "level", 0)
    weight = spec.weights[coordinate - 1]
    return _diagonal([
        _recurrence(weight, n_bar[coordinate - 1])[1]
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
    """One one-variable weight over the degrees k = 0..top.

    rows holds the recurrence triples (one _recurrence call per degree),
    ratio the omega ratios r(k) = omega(k) / mass = _norm_ratio(k) lead_k^2
    (omega(k), the squared norm of the monic polynomial, is the classical
    norm times lead_k^2), and one_d, built on first read (only the
    creation lemma reads it), the coefficient lists of P_0..P_top as
    integer numerators over one denominator per degree.  The table holds no
    mass: every reader multiplies by the functional's once.  Each ratio is
    one Fraction of integer products: _norm_ratio's pair times the square
    of lead_k = prod_{p<k} c_plus(p), whose numerators and denominators
    are multiplied up unreduced.
    """

    rows: List[Tuple[Fraction, Fraction, Fraction]]
    ratio: List[Fraction]

    @cached_property
    def one_d(self) -> List[_IntegerList]:
        return _one_d(self.rows[:-1])


def _weight_table(weight: Tuple[Fraction, ...], top: int) -> _WeightTable:
    rows = [_recurrence(weight, k) for k in range(top + 1)]
    ratio, ln, ld = [], 1, 1  # lead_k as ln / ld
    for k, (c_plus, _, _) in enumerate(rows):
        nn, nd = _norm_ratio(weight, k)
        ratio.append(Fraction(nn * ln * ln, nd * ld * ld))
        pn, pd = c_plus.as_integer_ratio()
        ln, ld = ln * pn, ld * pd
    return _WeightTable(rows, ratio)


def _tables(spec: FamilySpec, top: int) -> List[_WeightTable]:
    """Each coordinate's table to degree top, one per distinct one-variable
    weight, shared by the coordinates that carry it."""
    tables: Dict[Tuple[Fraction, ...], _WeightTable] = {}
    for weight in spec.weights:
        if weight not in tables:
            tables[weight] = _weight_table(weight, top)
    return [tables[weight] for weight in spec.weights]


def _omega_ratio(tables: Sequence[_WeightTable], n_bar: MultiIndex) -> Fraction:
    """omega(n_bar) / mass, the product of the coordinates' omega ratios."""
    return _product(t.ratio[k].as_integer_ratio() for t, k in zip(tables, n_bar))


_Coordinates = Dict[int, Fraction]
"""Level coordinates as a map from basis position to nonzero Fraction."""


def _scaled_equal(lhs: _Coordinates, split: _Coordinates, factor: Fraction) -> bool:
    """lhs == factor * split at every basis position, cross-multiplied in
    integers; a position outside both supports is 0 on both sides, so only
    their union is compared."""
    fn, fd = factor.as_integer_ratio()
    for p in lhs.keys() | split.keys():
        xn, xd = lhs.get(p, ZERO).as_integer_ratio()
        yn, yd = split.get(p, ZERO).as_integer_ratio()
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
    coordinates = range(1, spec.d + 1)
    tables = _tables(spec, max_level)

    def compare_level(n: int) -> LevelComparison:
        classes = enumerate_classes(spec.d, n).classes
        om_pipe = seq.omega_matrix(n)
        if variant == "stated":
            om_closed, notes = _stated_omega_matrix(spec, classes, mass)
        else:
            om_closed = _diagonal([_omega_ratio(tables, n_bar) for n_bar in classes])
            notes = ()
        alphas = []
        # both sides are new lists of row lists, so == compares them entrywise
        for j in coordinates:
            pipe = seq.alpha_matrix(j, n)
            closed = _diagonal([tables[j - 1].rows[n_bar[j - 1]][1] for n_bar in classes])
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

    # creation lemma on level coordinates, each kept as its nonzero map: the
    # family polynomials are built as integer columns over the graded
    # monomial basis, and each distinct one is split once
    one_d = [t.one_d for t in tables]
    moments = decomp.moments
    size = len(moments.basis)
    starts = decomp.starts
    splits: Dict[MultiIndex, _Coordinates] = {}

    def split(index: MultiIndex) -> _Coordinates:
        if index not in splits:
            terms, den = _tensor(one_d, index, moments.radix)
            nums = [0] * size
            for code, c in terms.items():
                nums[moments.code_position[code]] = c
            x = decomp.back_substitute(nums, [den] * size)
            # back_substitute leaves the shared ZERO at every zero coordinate
            splits[index] = {p: v for p, v in enumerate(x) if v is not ZERO}
        return splits[index]

    # the nonzero (position, entry) pairs of the column of a+_{i|n} that a
    # level-n basis position p feeds, n < N, read off the stored block the
    # first time a check reaches (i, p)
    columns: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}

    def column(i: int, p: int) -> List[Tuple[int, Fraction]]:
        if (i, p) not in columns:
            n = bisect_right(starts, p) - 1
            k, start = p - starts[n], starts[n + 1]
            columns[(i, p)] = [
                (start + r, row[k]) for r, row in enumerate(ops._plus[(i, n)]) if row[k]
            ]
        return columns[(i, p)]

    def create(i: int, coords: _Coordinates) -> _Coordinates:
        """a+_i level by level: each nonzero coordinate scatters its block
        column into the level above, and each reached position is one sum.
        coords never reaches level N: the split of F_base lies in the levels
        up to |base|, each power raises it one level, and the last power
        stops at N."""
        rows: Dict[int, List[Tuple[Fraction, Fraction]]] = {}
        for p, x in coords.items():
            for q, entry in column(i, p):
                rows.setdefault(q, []).append((entry, x))
        sums = {q: _linalg.sum_of_products(terms) for q, terms in rows.items()}
        return {q: v for q, v in sums.items() if v is not ZERO}

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
                factor *= tables[i - 1].rows[base[i - 1] + m - 1][0]
                result = base[: i - 1] + (base[i - 1] + m,) + base[i:]
                # (a+_i)^m F_base: level n < N goes into level n+1 by a+_{i|n}
                lhs = create(i, lhs)
                # split is linear: the split of factor * F_result is the scaled split
                lemma_checks.append(
                    LemmaCheck(i, base, m, factor, _scaled_equal(lhs, split(result), factor))
                )
    return FamilyReport(
        spec, max_level, variant, mass, tuple(levels), tuple(lemma_checks)
    )
