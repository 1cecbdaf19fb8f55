"""Closed forms for seven classical weight families, and their verification.

Families: hermite (exp(-|x|^2)), laguerre (x^alpha exp(-|x|_1)), jacobi
((1-x_j)^a_j (1+x_j)^b_j), and the symmetric jacobi specializations
gegenbauer (a = b = lambda - 1/2), chebyshev1 (lambda = 0), chebyshev2
(lambda = 1), legendre (lambda = 1/2).  For each family the Jacobi
sequences are diagonal and admit explicit entries.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import _linalg
from ._linalg import Matrix
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
)
from .multiindex import MultiIndex, degree, enumerate_classes, factorial_of
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
    out = []
    for v in values:
        if isinstance(v, float):
            raise UnsupportedParameterError(
                f"{what} must be exact rationals, got float {v!r}"
            )
        v = Fraction(v)
        if v <= low:
            raise UnsupportedParameterError(f"{what} must be > {low}, got {v}")
        out.append(v)
    return tuple(out)


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
# one-dimensional recurrence data
# --------------------------------------------------------------------------


def _c_plus(k: int, s: Fraction) -> Fraction:
    """Coefficient of P_{k+1} in x P_k for the jacobi recurrence.

    The k = 0 value is the cancelled form 2/(s+2); the generic expression
    is 0/0 there when s = -1 (first-kind chebyshev weight).
    """
    if k == 0:
        return Fraction(2) / (s + 2)
    num = 2 * (k + 1) * (k + s + 1)
    den = (2 * k + s + 1) * (2 * k + s + 2)
    return Fraction(num, 1) / den


def _c_zero(k: int, a: Fraction, b: Fraction) -> Fraction:
    """Coefficient of P_k in x P_k; cancelled at k = 0 where (a+b) may be 0."""
    s = a + b
    if k == 0:
        return (b - a) / (s + 2)
    den = (2 * k + s) * (2 * k + s + 2)
    if den == 0:
        raise SingularParameterError(
            f"jacobi recurrence denominator vanishes at k={k}, a={a}, b={b}"
        )
    return (b * b - a * a) / den


def _c_minus(k: int, a: Fraction, b: Fraction) -> Fraction:
    """Coefficient of P_{k-1} in x P_k, needed for k >= 1 only."""
    s = a + b
    den = (2 * k + s) * (2 * k + s + 1)
    if den == 0:
        raise SingularParameterError(
            f"jacobi recurrence denominator vanishes at k={k}, a={a}, b={b}"
        )
    return 2 * (k + a) * (k + b) / den


def _hermite_1d(k: int) -> Polynomial:
    # H_{k+1} = 2x H_k - 2k H_{k-1}
    x = Polynomial.variable(1, 1)
    prev, cur = Polynomial.zero(1), Polynomial.one(1)
    for i in range(k):
        prev, cur = cur, x.scale(Fraction(2)) * cur - prev.scale(Fraction(2 * i))
    return cur


def _laguerre_1d(k: int, alpha: Fraction) -> Polynomial:
    # (i+1) L_{i+1} = (2i+alpha+1-x) L_i - (i+alpha) L_{i-1}
    x = Polynomial.variable(1, 1)
    prev, cur = Polynomial.zero(1), Polynomial.one(1)
    for i in range(k):
        nxt = (cur.scale(2 * i + alpha + 1) - x * cur - prev.scale(i + alpha)).scale(
            Fraction(1, i + 1)
        )
        prev, cur = cur, nxt
    return cur


def _jacobi_1d(k: int, a: Fraction, b: Fraction) -> Polynomial:
    # x P_i = c+(i) P_{i+1} + c0(i) P_i + c-(i) P_{i-1}
    x = Polynomial.variable(1, 1)
    s = a + b
    prev, cur = Polynomial.zero(1), Polynomial.one(1)
    for i in range(k):
        top = x * cur - cur.scale(_c_zero(i, a, b))
        if i >= 1:
            top = top - prev.scale(_c_minus(i, a, b))
        prev, cur = cur, top.scale(Fraction(1) / _c_plus(i, s))
    return cur


def _lift(p: Polynomial, d: int, coordinate: int) -> Polynomial:
    """Reinterpret a one-variable polynomial in coordinate i of R^d."""
    terms = {}
    for (k,), c in p.terms.items():
        beta = [0] * d
        beta[coordinate - 1] = k
        terms[tuple(beta)] = c
    return Polynomial(d, terms)


def family_polynomial(spec: FamilySpec, index: MultiIndex) -> Polynomial:
    """Tensor product of the 1-D family polynomials, classical normalization.

    Hermite has leading coefficient 2^|index|, laguerre (-1)^|index|/index!,
    jacobi the leading coefficient its recurrence produces.  The symmetric
    families are realized through their (a, b) parameters.
    """
    if len(index) != spec.d:
        raise InvalidIndexError(
            f"index length {len(index)} != dimension {spec.d}"
        )
    if any(k < 0 for k in index):
        raise InvalidIndexError(f"negative entry in index {tuple(index)}")
    out = Polynomial.one(spec.d)
    for i, k in enumerate(index, start=1):
        if spec.family == "hermite":
            one_d = _hermite_1d(k)
        elif spec.family == "laguerre":
            one_d = _laguerre_1d(k, spec.alphas[i - 1])
        else:
            a, b = spec.jacobi_ab()
            one_d = _jacobi_1d(k, a[i - 1], b[i - 1])
        out = out * _lift(one_d, spec.d, i)
    return out


def family_norm_squared(spec: FamilySpec, index: MultiIndex) -> GammaProduct:
    """Squared norm of family_polynomial(index) against the unnormalized weight."""
    if len(index) != spec.d:
        raise InvalidIndexError(
            f"index length {len(index)} != dimension {spec.d}"
        )
    out = GammaProduct.from_rational(1)
    for i, k in enumerate(index, start=1):
        if spec.family == "hermite":
            out = out * GammaProduct(
                rational=Fraction(2**k) * factorial_of((k,)),
                pi_pow=Fraction(1, 2),
            )
        elif spec.family == "laguerre":
            alpha = spec.alphas[i - 1]
            out = out * GammaProduct.gamma(alpha + k + 1) / GammaProduct.from_rational(
                factorial_of((k,))
            )
        else:
            a, b = spec.jacobi_ab()
            ai, bi = a[i - 1], b[i - 1]
            s = ai + bi
            piece = (
                GammaProduct.two_power(s + 1)
                * GammaProduct.gamma(k + ai + 1)
                * GammaProduct.gamma(k + bi + 1)
            )
            piece = piece / GammaProduct.from_rational(factorial_of((k,)))
            if k == 0:
                piece = piece / GammaProduct.gamma(s + 2)
            else:
                piece = piece / (
                    GammaProduct.from_rational(2 * k + s + 1)
                    * GammaProduct.gamma(k + s + 1)
                )
            out = out * piece
    return out


def creation_power(
    spec: FamilySpec, base: MultiIndex, coordinate: int, power: int
) -> Tuple[Fraction, MultiIndex]:
    """Scalar f with (a+_i)^m F_base = f * F_{base + m e_i}, and that index.

    Equals the ratio of classical leading coefficients, so it can be
    cross-checked by applying the pipeline's creation matrices.
    """
    if not 1 <= coordinate <= spec.d:
        raise InvalidIndexError(f"coordinate {coordinate} outside 1..{spec.d}")
    if power < 1:
        raise InvalidIndexError(f"power must be >= 1, got {power}")
    if len(base) != spec.d or any(k < 0 for k in base):
        raise InvalidIndexError(f"bad base index {tuple(base)}")
    k = base[coordinate - 1]
    result = tuple(
        v + power if i == coordinate - 1 else v for i, v in enumerate(base)
    )
    if spec.family == "hermite":
        return Fraction(1, 2**power), result
    if spec.family == "laguerre":
        factor = Fraction((-1) ** power)
        for p in range(1, power + 1):
            factor *= k + p
        return factor, result
    a, b = spec.jacobi_ab()
    s = a[coordinate - 1] + b[coordinate - 1]
    factor = Fraction(1)
    for p in range(power):
        factor *= _c_plus(k + p, s)
    return factor, result


# --------------------------------------------------------------------------
# closed-form omega and alpha
# --------------------------------------------------------------------------


def _jacobi_omega_factor(n: int, a: Fraction, b: Fraction) -> GammaProduct:
    """One coordinate's factor of the jacobi omega closed form.

    2^(a+b+1) / n! * (prod_{p<n} c+(p))^2 * Gamma(n+a+1) Gamma(n+b+1) /
    ((2n+s+1) Gamma(n+s+1)), where the n = 0 denominator is the rewritten
    (2n+s+1)Gamma(n+s+1) -> Gamma(s+2), finite for all valid parameters.
    """
    s = a + b
    inner = Fraction(1)
    for p in range(n):
        inner *= _c_plus(p, s)
    out = GammaProduct(
        rational=inner * inner / factorial_of((n,)), two_pow=s + 1
    )
    out = out * GammaProduct.gamma(n + a + 1) * GammaProduct.gamma(n + b + 1)
    if n == 0:
        return out / GammaProduct.gamma(s + 2)
    return out / (
        GammaProduct.from_rational(2 * n + s + 1) * GammaProduct.gamma(n + s + 1)
    )


def master_omega(spec: FamilySpec, n_bar: MultiIndex) -> GammaProduct:
    """Diagonal omega entry for class n_bar, unnormalized-weight convention."""
    if len(n_bar) != spec.d or any(k < 0 for k in n_bar):
        raise InvalidIndexError(f"bad occupation vector {tuple(n_bar)}")
    if spec.family == "hermite":
        return GammaProduct(
            rational=Fraction(factorial_of(n_bar), 2 ** degree(n_bar)),
            pi_pow=Fraction(spec.d, 2),
        )
    if spec.family == "laguerre":
        out = GammaProduct.from_rational(factorial_of(n_bar))
        for k, alpha in zip(n_bar, spec.alphas):
            out = out * GammaProduct.gamma(k + alpha + 1)
        return out
    a, b = spec.jacobi_ab()
    out = GammaProduct.from_rational(1)
    for i in range(spec.d):
        out = out * _jacobi_omega_factor(n_bar[i], a[i], b[i])
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
    if len(n_bar) != spec.d or any(k < 0 for k in n_bar):
        raise InvalidIndexError(f"bad occupation vector {tuple(n_bar)}")
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
                out = out * _jacobi_omega_factor(0, Fraction(-1, 2), Fraction(-1, 2))
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


def _alpha_entry(spec: FamilySpec, coordinate: int, n_l: int) -> Fraction:
    if spec.family == "hermite":
        return Fraction(0)
    if spec.family == "laguerre":
        return 2 * n_l + spec.alphas[coordinate - 1] + 1
    a, b = spec.jacobi_ab()
    return _c_zero(n_l, a[coordinate - 1], b[coordinate - 1])


@dataclass(frozen=True)
class ClosedFormEntry:
    """One diagonal position: class label, omega in both conventions, alphas."""

    n_bar: MultiIndex
    omega_value: Fraction
    omega_paper: GammaProduct
    mass_factor: GammaProduct
    alpha_values: Tuple[Fraction, ...]


def closed_form_omega(spec: FamilySpec, n: int) -> List[ClosedFormEntry]:
    """Diagonal entries over the canonical class order at level n."""
    if n < 0:
        raise InvalidIndexError(f"level must be >= 0, got {n}")
    mass = spec.mass_factor()
    entries = []
    for n_bar in enumerate_classes(spec.d, n).classes:
        paper = master_omega(spec, n_bar)
        normalized = paper / mass
        assert normalized.is_rational(), (
            f"omega/mass must be rational, got {normalized!r} for {n_bar}"
        )
        alphas = tuple(
            _alpha_entry(spec, j, n_bar[j - 1]) for j in range(1, spec.d + 1)
        )
        entries.append(
            ClosedFormEntry(n_bar, normalized.rational_value(), paper, mass, alphas)
        )
    return entries


def closed_form_alpha(spec: FamilySpec, n: int, coordinate: int) -> Matrix:
    """The diagonal matrix alpha_{e_coordinate|n} over the class basis."""
    if not 1 <= coordinate <= spec.d:
        raise InvalidIndexError(f"coordinate {coordinate} outside 1..{spec.d}")
    if n < 0:
        raise InvalidIndexError(f"level must be >= 0, got {n}")
    classes = enumerate_classes(spec.d, n).classes
    out = _linalg.zeros(len(classes), len(classes))
    for k, n_bar in enumerate(classes):
        out[k][k] = _alpha_entry(spec, coordinate, n_bar[coordinate - 1])
    return out


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


def _closed_omega_matrix(
    spec: FamilySpec, n: int, mass: GammaProduct, variant: str
) -> Tuple[Matrix, Tuple[str, ...]]:
    classes = enumerate_classes(spec.d, n).classes
    out = _linalg.zeros(len(classes), len(classes))
    notes: List[str] = []
    for k, n_bar in enumerate(classes):
        if variant == "stated":
            paper, entry_notes = stated_omega(spec, n_bar)
            notes.extend(f"class {tuple(n_bar)}: {t}" for t in entry_notes)
        else:
            paper = master_omega(spec, n_bar)
        normalized = paper / mass
        assert normalized.is_rational(), (
            f"omega/mass must be rational, got {normalized!r}"
        )
        out[k][k] = normalized.rational_value()
    return out, tuple(notes)


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
    if max_level < 0:
        raise InvalidIndexError(f"max_level must be >= 0, got {max_level}")
    functional = spec.functional()
    decomp = decompose(functional, max_level)
    ops = build(decomp)
    seq = compute(ops, max_level)
    mass = spec.mass_factor()

    def compare_level(n: int) -> LevelComparison:
        classes = tuple(enumerate_classes(spec.d, n).classes)
        om_pipe = seq.omega_matrix(n)
        om_closed, notes = _closed_omega_matrix(spec, n, mass, variant)
        alphas = []
        for j in range(1, spec.d + 1):
            pipe = seq.alpha_matrix(j, n)
            closed = closed_form_alpha(spec, n, j)
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

    levels = tuple(compare_level(n) for n in range(max_level + 1))

    lemma_checks = []
    bases = [tuple([0] * spec.d)]
    for i in range(1, spec.d + 1):
        bases.append(tuple(1 if k == i - 1 else 0 for k in range(spec.d)))
    seen = set()
    for base in bases:
        if base in seen:
            continue
        seen.add(base)
        for i in range(1, spec.d + 1):
            for m in range(1, max_level - degree(base) + 1):
                factor, result = creation_power(spec, base, i, m)
                lhs = family_polynomial(spec, base)
                for _ in range(m):
                    lhs = ops.creation(i, lhs)
                rhs = family_polynomial(spec, result).scale(factor)
                lemma_checks.append(
                    LemmaCheck(i, base, m, factor, lhs == rhs)
                )
    return FamilyReport(
        spec, max_level, variant, mass, tuple(levels), tuple(lemma_checks)
    )
