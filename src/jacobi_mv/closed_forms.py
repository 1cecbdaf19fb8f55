"""Closed forms for seven classical weight families, and their verification.

Families: hermite (exp(-|x|^2)), laguerre (x^alpha exp(-|x|_1)), jacobi
((1-x_j)^a_j (1+x_j)^b_j), and the symmetric jacobi specializations
gegenbauer (a = b = lambda - 1/2), chebyshev1 (lambda = 0), chebyshev2
(lambda = 1), legendre (lambda = 1/2).  For each family the Jacobi
sequences are diagonal and admit explicit entries.

Each coordinate's one-variable family is given by one table, its
three-term recurrence x P_k = c_plus(k) P_{k+1} + c_zero(k) P_k +
c_minus(k) P_{k-1} (hermite 1/2, 0, k; laguerre -(k+1), 2k+alpha+1,
-(k+alpha); jacobi and its specializations the (a, b) coefficients below).
The table yields the 1-D coefficient lists whose tensor products are the
family polynomials, the alpha entries (c_zero) and the creation factors
(products of c_plus).  One per-coordinate Gamma formula gives the squared
norm of the classical degree-k polynomial.  The monic polynomial is the
classical one times lead_k = prod_{p<k} c_plus(p), so the omega factor
omega_i(k), its squared norm, is the classical norm times lead_k^2; an
omega entry is the product of the factors of its class.  verify_family
builds the table once per call for degrees 0..max_level, together with
the omega ratios r_i(k) = omega_i(k) / mass_i, and reads the master
closed forms off it; the stated route keeps its per-class quoted forms.  The creation
lemma is checked on coefficient columns over the graded monomial basis.

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

FAMILIES = (
    "hermite",
    "laguerre",
    "jacobi",
    "gegenbauer",
    "chebyshev1",
    "chebyshev2",
    "legendre",
)


def _exact_params(values, what: str, low: Fraction) -> Tuple[Fraction, ...]:
    out = tuple(_exact_list(values, what))
    for v in out:
        if v <= low:
            raise UnsupportedParameterError(f"{what} must be > {low}, got {v}")
    return out


@dataclass(frozen=True)
class FamilySpec:
    """A weight family with exact rational parameters on R^d."""

    family: str
    d: int
    a: Optional[Tuple[Fraction, ...]] = None
    b: Optional[Tuple[Fraction, ...]] = None
    alphas: Optional[Tuple[Fraction, ...]] = None
    lambdas: Optional[Tuple[Fraction, ...]] = None

    def jacobi_ab(self) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
        """The (a, b) parameters of the equivalent jacobi weight."""
        if self.family == "jacobi":
            return self.a, self.b
        if self.family == "gegenbauer":
            ab = tuple(lam - Fraction(1, 2) for lam in self.lambdas)
            return ab, ab
        if self.family == "chebyshev1":
            ab = (Fraction(-1, 2),) * self.d
            return ab, ab
        if self.family == "chebyshev2":
            ab = (Fraction(1, 2),) * self.d
            return ab, ab
        if self.family == "legendre":
            ab = (Fraction(0),) * self.d
            return ab, ab
        raise UnsupportedParameterError(
            f"{self.family} has no jacobi parameter form"
        )

    def functional(self) -> MomentFunctional:
        """The normalized (mass 1) moment functional of the weight."""
        if self.family == "hermite":
            return GaussianFunctional(self.d)
        if self.family == "laguerre":
            return GammaFunctional(self.alphas)
        a, b = self.jacobi_ab()
        return BetaFunctional(a, b)

    def mass_factor(self) -> GammaProduct:
        return self.functional().mass_factor()


def family_spec(family: str, d: Optional[int] = None, a=None, b=None,
                alpha=None, lam=None) -> FamilySpec:
    """Validate parameters and build a FamilySpec.

    laguerre needs alpha (> -1 entrywise), jacobi needs a and b (> -1),
    gegenbauer needs lam (> -1/2); the remaining families take only d.
    The dimension is inferred from the parameter lists when omitted.
    """
    if family not in FAMILIES:
        raise UnsupportedParameterError(
            f"unknown family {family!r}; choose from {', '.join(FAMILIES)}"
        )
    if d is not None:
        check_integer(d, "dimension d", InvalidDimensionError)
    if family == "laguerre":
        if alpha is None:
            raise UnsupportedParameterError("laguerre needs alpha parameters")
        alphas = _exact_params(alpha, "laguerre alpha", Fraction(-1))
        d = len(alphas) if d is None else d
        if d != len(alphas):
            raise InvalidDimensionError(
                f"{len(alphas)} alpha parameters for dimension {d}"
            )
        return FamilySpec(family, d, alphas=alphas)
    if family == "jacobi":
        if a is None or b is None:
            raise UnsupportedParameterError("jacobi needs a and b parameters")
        a = _exact_params(a, "jacobi a", Fraction(-1))
        b = _exact_params(b, "jacobi b", Fraction(-1))
        if len(a) != len(b):
            raise InvalidDimensionError(
                f"parameter lists have lengths {len(a)} and {len(b)}"
            )
        d = len(a) if d is None else d
        if d != len(a):
            raise InvalidDimensionError(f"{len(a)} parameter pairs for dimension {d}")
        return FamilySpec(family, d, a=a, b=b)
    if family == "gegenbauer":
        if lam is None:
            raise UnsupportedParameterError("gegenbauer needs lambda parameters")
        lambdas = _exact_params(lam, "gegenbauer lambda", Fraction(-1, 2))
        d = len(lambdas) if d is None else d
        if d != len(lambdas):
            raise InvalidDimensionError(
                f"{len(lambdas)} lambda parameters for dimension {d}"
            )
        return FamilySpec(family, d, lambdas=lambdas)
    if d is None or d < 1:
        raise InvalidDimensionError(f"{family} needs a dimension d >= 1")
    if any(p is not None for p in (a, b, alpha, lam)):
        raise UnsupportedParameterError(f"{family} takes no parameters")
    return FamilySpec(family, d)


# --------------------------------------------------------------------------
# the three-term recurrence table
# --------------------------------------------------------------------------


def _jacobi_recurrence(k: int, a: Fraction, b: Fraction) -> Tuple[Fraction, Fraction, Fraction]:
    """(c_plus, c_zero, c_minus)(k) of the jacobi recurrence, s = a + b.

    k = 0 takes the cancelled forms 2/(s+2) and (b-a)/(s+2): the generic
    expressions are 0/0 there when s = -1 (first-kind chebyshev weight) or
    s = 0.
    """
    s = a + b
    if k == 0:
        return Fraction(2) / (s + 2), (b - a) / (s + 2), ZERO
    if (2 * k + s) * (2 * k + s + 1) * (2 * k + s + 2) == 0:
        raise SingularParameterError(
            f"jacobi recurrence denominator vanishes at k={k}, a={a}, b={b}"
        )
    return (
        2 * (k + 1) * (k + s + 1) / ((2 * k + s + 1) * (2 * k + s + 2)),
        (b * b - a * a) / ((2 * k + s) * (2 * k + s + 2)),
        2 * (k + a) * (k + b) / ((2 * k + s) * (2 * k + s + 1)),
    )


def _recurrence(spec: FamilySpec, coordinate: int, k: int) -> Tuple[Fraction, Fraction, Fraction]:
    """(c_plus, c_zero, c_minus)(k) of one coordinate's three-term recurrence.

    x P_k = c_plus P_{k+1} + c_zero P_k + c_minus P_{k-1} in the classical
    normalization.  c_minus(0) multiplies P_{-1} = 0; it is reported as 0
    and never evaluated.
    """
    if spec.family == "hermite":
        return Fraction(1, 2), ZERO, Fraction(k)
    if spec.family == "laguerre":
        alpha = spec.alphas[coordinate - 1]
        return Fraction(-(k + 1)), 2 * k + alpha + 1, -(k + alpha) if k else ZERO
    a, b = spec.jacobi_ab()
    return _jacobi_recurrence(k, a[coordinate - 1], b[coordinate - 1])


def _one_d(recurrence: Sequence[Tuple[Fraction, Fraction, Fraction]]) -> List[List[Fraction]]:
    """Coefficient lists (constant term first) of P_0..P_top in one coordinate.

    recurrence holds that coordinate's (c_plus, c_zero, c_minus)(k) for
    k = 0..top-1.
    """
    out = [[Fraction(1)]]
    for k, (c_plus, c_zero, c_minus) in enumerate(recurrence):
        nxt = [ZERO] + out[k]  # x P_k
        for i, c in enumerate(out[k]):
            nxt[i] -= c_zero * c
        if k:
            for i, c in enumerate(out[k - 1]):
                nxt[i] -= c_minus * c
        out.append([c / c_plus for c in nxt])
    return out


def _tensor(
    one_d: Sequence[List[List[Fraction]]], index: MultiIndex
) -> Dict[MultiIndex, Fraction]:
    """Nonzero terms of prod_i P_{index_i}(x_i), from per-coordinate lists."""
    terms = {(): Fraction(1)}
    for lists, k in zip(one_d, index):
        terms = {
            beta + (e,): c * v
            for beta, c in terms.items()
            for e, v in enumerate(lists[k])
            if v
        }
    return terms


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
    return Polynomial(spec.d, _tensor(one_d, index))


def _norm_factor(spec: FamilySpec, coordinate: int, k: int) -> GammaProduct:
    """Squared norm of one coordinate's classical degree-k polynomial.

    Against the unnormalized one-variable weight: hermite 2^k k! pi^(1/2),
    laguerre Gamma(k+alpha+1) / k!, jacobi 2^(s+1) Gamma(k+a+1) Gamma(k+b+1)
    / (k! (2k+s+1) Gamma(k+s+1)) with s = a + b, where the k = 0
    denominator is the cancelled (2k+s+1) Gamma(k+s+1) -> Gamma(s+2),
    finite for all valid parameters.  At k = 0 it is the coordinate's mass.
    """
    if spec.family == "hermite":
        return GammaProduct(
            rational=Fraction(2**k) * factorial_of((k,)), pi_pow=Fraction(1, 2)
        )
    if spec.family == "laguerre":
        return GammaProduct.gamma(spec.alphas[coordinate - 1] + k + 1) / factorial_of((k,))
    a, b = spec.jacobi_ab()
    a, b = a[coordinate - 1], b[coordinate - 1]
    s = a + b
    out = (
        GammaProduct.two_power(s + 1)
        * GammaProduct.gamma(k + a + 1)
        * GammaProduct.gamma(k + b + 1)
        / factorial_of((k,))
    )
    if k == 0:
        return out / GammaProduct.gamma(s + 2)
    return out / (GammaProduct.gamma(k + s + 1) * (2 * k + s + 1))


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
        out = out * GammaProduct.two_power(2 * sum(spec.lambdas))
        for n, lam in zip(n_bar, spec.lambdas):
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

    # one table per call, coordinate i and degree k = 0..max_level: the
    # recurrence triple and the omega ratio r_i(k) = omega_i(k) / mass_i,
    # where omega_i(k) is the classical norm times lead_k^2 (_omega_factor),
    # lead_k = prod_{p<k} c_plus(p), and mass_i is the k = 0 norm, the
    # coordinate's one-variable mass
    degrees = range(max_level + 1)
    coordinates = range(1, spec.d + 1)
    recurrence = [[_recurrence(spec, i, k) for k in degrees] for i in coordinates]
    masses = GammaProduct.from_rational(1)
    ratio = []
    for i, rows in zip(coordinates, recurrence):
        norms = [_norm_factor(spec, i, k) for k in degrees]
        leads = accumulate((c_plus for c_plus, _, _ in rows), operator.mul, initial=ONE)
        ratio.append([
            _normalized(norm, norms[0]) * lead * lead for norm, lead in zip(norms, leads)
        ])
        masses = masses * norms[0]
    assert masses == mass, f"coordinate masses multiply to {masses!r}, not {mass!r}"

    def compare_level(n: int) -> LevelComparison:
        classes = tuple(enumerate_classes(spec.d, n).classes)
        om_pipe = seq.omega_matrix(n)
        if variant == "stated":
            om_closed, notes = _stated_omega_matrix(spec, classes, mass)
        else:
            om_closed = _diagonal([
                math.prod(r[k] for r, k in zip(ratio, n_bar))
                for n_bar in classes
            ])
            notes = ()
        alphas = []
        for j in coordinates:
            pipe = seq.alpha_matrix(j, n)
            closed = _diagonal([recurrence[j - 1][n_bar[j - 1]][1] for n_bar in classes])
            alphas.append(AlphaComparison(j, pipe, closed, _linalg.mat_eq(pipe, closed)))
        return LevelComparison(
            n,
            classes,
            om_pipe,
            om_closed,
            _linalg.mat_eq(om_pipe, om_closed),
            tuple(alphas),
            notes,
        )

    levels = tuple(compare_level(n) for n in degrees)

    # creation lemma on coefficient columns over the graded monomial basis
    one_d = [_one_d(rows[:max_level]) for rows in recurrence]
    position = decomp.moments.position

    def column(index: MultiIndex) -> List[Fraction]:
        out = [ZERO] * len(position)
        for beta, c in _tensor(one_d, index).items():
            out[position[beta]] = c
        return out

    lemma_checks = []
    # F_0, then F_{e_i} for each coordinate
    bases = [tuple(int(k == i) for k in range(spec.d)) for i in range(-1, spec.d)]
    for base in bases:
        if degree(base) >= max_level:
            continue  # no creation power stays within the computed levels
        for i in coordinates:
            lhs = column(base)
            factor = Fraction(1)
            for m in range(1, max_level - degree(base) + 1):
                # creation_power(spec, base, i, m), one c_plus at a time
                factor *= recurrence[i - 1][base[i - 1] + m - 1][0]
                result = base[: i - 1] + (base[i - 1] + m,) + base[i:]
                lhs = ops._apply(i, lhs, 1)  # (a+_i)^m F_base
                rhs = [factor * c if c else c for c in column(result)]
                lemma_checks.append(
                    LemmaCheck(i, base, m, factor, lhs == rhs)
                )
    return FamilyReport(
        spec, max_level, variant, mass, tuple(levels), tuple(lemma_checks)
    )
