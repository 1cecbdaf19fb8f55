"""Sparse polynomials in d commuting variables over the rationals.

Terms map exponent tuples to Fraction coefficients; zero coefficients are
never stored.  The grading by total degree is what every other module builds
on: the degree-n monomials (in canonical order) index both the monic
orthogonal bases and the symmetric tensor class bases.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping, Sequence

from .errors import DimensionMismatchError, InvalidIndexError
from .multiindex import MultiIndex, canonical_key, degree as index_degree

NEG_INFINITY = float("-inf")


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"coefficients must be exact rationals, got float {value!r}")
    return Fraction(value)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Mapping[Sequence[int], object] | None = None):
        cleaned: Dict[MultiIndex, Fraction] = {}
        if terms:
            for beta, coeff in terms.items():
                beta = tuple(beta)
                if len(beta) != d or any(b < 0 for b in beta):
                    raise InvalidIndexError(f"bad exponent vector {beta} for d={d}")
                c = _as_fraction(coeff)
                if c != 0:
                    cleaned[beta] = cleaned.get(beta, Fraction(0)) + c
                    if cleaned[beta] == 0:
                        del cleaned[beta]
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ---------------------------------------------------------------- factory
    @classmethod
    def zero(cls, d: int) -> "Polynomial":
        return cls(d)

    @classmethod
    def one(cls, d: int) -> "Polynomial":
        return cls(d, {(0,) * d: 1})

    @classmethod
    def monomial(cls, d: int, beta: Sequence[int], coeff=1) -> "Polynomial":
        return cls(d, {tuple(beta): coeff})

    @classmethod
    def variable(cls, d: int, j: int) -> "Polynomial":
        """The coordinate polynomial X_j, with j in 1..d."""
        if not 1 <= j <= d:
            raise InvalidIndexError(f"variable index {j} not in 1..{d}")
        beta = [0] * d
        beta[j - 1] = 1
        return cls(d, {tuple(beta): 1})

    # ------------------------------------------------------------- structure
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; the zero polynomial reports -inf."""
        if not self.terms:
            return NEG_INFINITY
        return max(index_degree(beta) for beta in self.terms)

    def coefficient(self, beta: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(beta), Fraction(0))

    def degree_slice(self, n: int) -> Dict[MultiIndex, Fraction]:
        """The terms of total degree exactly n."""
        return {b: c for b, c in self.terms.items() if index_degree(b) == n}

    def sorted_terms(self):
        """Terms in graded canonical order, for deterministic output."""
        return sorted(
            self.terms.items(), key=lambda item: (index_degree(item[0]), canonical_key(item[0]))
        )

    # ------------------------------------------------------------ arithmetic
    def _check_same_d(self, other: "Polynomial") -> None:
        if self.d != other.d:
            raise DimensionMismatchError(f"polynomials in {self.d} and {other.d} variables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_d(other)
        merged = dict(self.terms)
        for beta, c in other.terms.items():
            merged[beta] = merged.get(beta, Fraction(0)) + c
        return Polynomial(self.d, merged)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.d, {b: -c for b, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_same_d(other)
            out: Dict[MultiIndex, Fraction] = {}
            for b1, c1 in self.terms.items():
                for b2, c2 in other.terms.items():
                    key = tuple(x + y for x, y in zip(b1, b2))
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return Polynomial(self.d, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "Polynomial":
        c = _as_fraction(scalar)
        return Polynomial(self.d, {b: c * v for b, v in self.terms.items()})

    def evaluate(self, x: Sequence) -> Fraction:
        """Exact value at a rational point of length d."""
        if len(x) != self.d:
            raise DimensionMismatchError(f"point of length {len(x)} for d={self.d}")
        point = [_as_fraction(v) for v in x]
        total = Fraction(0)
        for beta, c in self.terms.items():
            term = c
            for base, exp in zip(point, beta):
                term *= base**exp
            total += term
        return total

    # ------------------------------------------------------------- equality
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial) and self.d == other.d and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for beta, c in self.sorted_terms():
            vars_part = "*".join(
                f"x{var}" if exp == 1 else f"x{var}^{exp}"
                for var, exp in enumerate(beta, start=1)
                if exp
            )
            if not vars_part:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(vars_part)
            else:
                pieces.append(f"{c}*{vars_part}")
        return " + ".join(pieces)

    # ---------------------------------------------------------------- JSON
    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "terms": [
                {"beta": list(beta), "c": str(c)} for beta, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Polynomial":
        d = doc["d"]
        terms = {tuple(entry["beta"]): Fraction(entry["c"]) for entry in doc["terms"]}
        return cls(d, terms)


def monomials_of_degree(d: int, n: int) -> list[MultiIndex]:
    """Exponent vectors of total degree exactly n, canonical order."""
    from .multiindex import enumerate_classes

    return list(enumerate_classes(d, n).classes)


def monomial_basis(d: int, n: int) -> list[MultiIndex]:
    """All exponent vectors with |beta| <= n in graded canonical order.

    Size is binomial(n+d, d), the dimension of the polynomials of degree
    at most n.
    """
    out: list[MultiIndex] = []
    for k in range(n + 1):
        out.extend(monomials_of_degree(d, k))
    assert len(out) == math.comb(n + d, d)
    return out
