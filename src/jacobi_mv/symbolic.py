"""Exact products of Gamma values, powers of two and powers of pi.

Total masses of the classical weights (and the norms they induce) are
numbers of the form

    rational * 2^(p/q) * pi^(r/2) * prod Gamma(z_k)^(m_k)

with rational z_k.  GammaProduct stores this structurally and keeps a
canonical form so equality is decidable:

* Gamma arguments are reduced with Gamma(z+1) = z Gamma(z) until the
  argument lies in (0, 1], in integers: Gamma(p/q) with m = (p-1)//q steps
  is prod_{t=1..m} (p - t q) / q^m times Gamma((p - m q)/q).  Gamma(1)
  disappears and Gamma(1/2) is folded into pi^(1/2).
* the integer part of the exponent of 2 is folded into the rational.

Only the constructor reduces.  A product, quotient or power of canonical
values already holds reduced cores, so it merges the parts and passes them
to the one canonicalization step the constructor ends with (drop zero
multiplicities, fold the power of two), without reducing again.

Canonical forms built from these operations are equal exactly when the
numbers agree; no reflection/duplication identities are applied, and none
are needed because all comparisons divide like cores by like cores.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .errors import UnsupportedParameterError
from .multiindex import check_integer


def _fr(value) -> Fraction:
    """value as a Fraction; a float and a bool are refused."""
    if isinstance(value, float):
        raise UnsupportedParameterError(
            f"irrational/float value {value!r}; supply an exact rational"
        )
    if isinstance(value, bool):
        raise UnsupportedParameterError(f"bool value {value!r}; supply an exact rational")
    return Fraction(value)


_HALF = Fraction(1, 2)


def _gamma_steps(arg: Fraction) -> Tuple[int, int, Fraction]:
    """(num, den, core) with Gamma(arg) = num / den * Gamma(core), core in (0, 1].

    For arg = p/q in lowest terms and m = (p-1)//q steps of
    Gamma(z+1) = z Gamma(z): num = prod_{t=1..m} (p - t q), den = q^m and
    core = (p - m q)/q, all in integers.
    """
    p, q = arg.as_integer_ratio()
    m = (p - 1) // q
    return math.prod(range(p - q, p - m * q - 1, -q)), q**m, Fraction(p - m * q, q)


class GammaProduct:
    """Immutable canonical product rational * 2^a * pi^b * prod Gamma(core)^m."""

    __slots__ = ("rational", "two_pow", "pi_pow", "gammas")

    def __init__(self, rational=1, two_pow=0, pi_pow=0, gammas: Mapping | None = None):
        pi = _fr(pi_pow)
        num, den = 1, 1
        cores: Dict[Fraction, int] = {}
        for arg, mult in (gammas or {}).items():
            arg = _fr(arg)
            check_integer(mult, "Gamma multiplicity", UnsupportedParameterError)
            if mult == 0:
                continue
            if arg <= 0:
                raise UnsupportedParameterError(f"Gamma argument {arg} is not positive")
            step_num, step_den, core = _gamma_steps(arg)
            if mult > 0:
                num, den = num * step_num**mult, den * step_den**mult
            else:
                num, den = num * step_den**-mult, den * step_num**-mult
            if core == _HALF:
                pi += Fraction(mult, 2)
            elif core != 1:
                cores[core] = cores.get(core, 0) + mult
        self._set(_fr(rational) * Fraction(num, den), _fr(two_pow), pi, cores)

    def _set(self, rational: Fraction, two_pow: Fraction, pi_pow: Fraction,
             cores: Mapping[Fraction, int]) -> None:
        """Store already reduced parts in canonical form.

        Zero multiplicities are dropped and the integer part of the exponent
        of 2 is folded into the rational; a zero rational drops everything else.
        """
        if rational == 0:
            two_pow, pi_pow, cores = Fraction(0), Fraction(0), {}
        else:
            shift = math.floor(two_pow)
            if shift:
                rational = rational * (1 << shift) if shift > 0 else rational / (1 << -shift)
                two_pow -= shift
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "two_pow", two_pow)
        object.__setattr__(self, "pi_pow", pi_pow)
        object.__setattr__(self, "gammas", tuple(sorted((a, m) for a, m in cores.items() if m)))

    @classmethod
    def _canonical(cls, rational: Fraction, two_pow: Fraction, pi_pow: Fraction,
                   cores: Mapping[Fraction, int]) -> "GammaProduct":
        """A GammaProduct from parts whose Gamma arguments are already cores."""
        out = object.__new__(cls)
        out._set(rational, two_pow, pi_pow, cores)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("GammaProduct is immutable")

    # --------------------------------------------------------------- factory
    @classmethod
    def from_rational(cls, value) -> "GammaProduct":
        return cls._canonical(_fr(value), Fraction(0), Fraction(0), {})

    @classmethod
    def gamma(cls, arg) -> "GammaProduct":
        return cls(gammas={_fr(arg): 1})

    @classmethod
    def pi_power(cls, exponent) -> "GammaProduct":
        return cls(pi_pow=exponent)

    @classmethod
    def two_power(cls, exponent) -> "GammaProduct":
        return cls(two_pow=exponent)

    # ------------------------------------------------------------ arithmetic
    def _combine(self, other, sign: int) -> "GammaProduct":
        """self * other (sign +1) or self / other (sign -1); cores merge as they are."""
        if not isinstance(other, GammaProduct):
            other = GammaProduct.from_rational(other)
        if sign < 0 and other.rational == 0:
            raise ZeroDivisionError("division by zero GammaProduct")
        rat = self.rational * other.rational if sign > 0 else self.rational / other.rational
        cores = dict(self.gammas)
        for arg, mult in other.gammas:
            cores[arg] = cores.get(arg, 0) + sign * mult
        return GammaProduct._canonical(
            rat, self.two_pow + sign * other.two_pow, self.pi_pow + sign * other.pi_pow, cores
        )

    def __mul__(self, other) -> "GammaProduct":
        return self._combine(other, +1)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GammaProduct":
        return self._combine(other, -1)

    def __rtruediv__(self, other) -> "GammaProduct":
        return GammaProduct.from_rational(other) / self

    def __pow__(self, exponent: int) -> "GammaProduct":
        # a bool is an int to isinstance but no exponent
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("only integer powers are supported")
        if exponent < 0 and self.rational == 0:
            raise ZeroDivisionError("division by zero GammaProduct")
        return GammaProduct._canonical(
            self.rational**exponent,
            self.two_pow * exponent,
            self.pi_pow * exponent,
            {arg: mult * exponent for arg, mult in self.gammas},
        )

    # ------------------------------------------------------------ inspection
    def is_rational(self) -> bool:
        return self.two_pow == 0 and self.pi_pow == 0 and not self.gammas

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.rational

    def rational_part(self) -> Fraction:
        return self.rational

    def irrational_part(self) -> "GammaProduct":
        """The factor left after dividing out the rational part."""
        if self.rational == 0:
            return GammaProduct.from_rational(1)
        return GammaProduct._canonical(Fraction(1), self.two_pow, self.pi_pow, dict(self.gammas))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GammaProduct):
            if isinstance(other, (int, Fraction)):
                return self.is_rational() and self.rational == other
            return NotImplemented
        return (
            self.rational == other.rational
            and self.two_pow == other.two_pow
            and self.pi_pow == other.pi_pow
            and self.gammas == other.gammas
        )

    def __hash__(self):
        return hash((self.rational, self.two_pow, self.pi_pow, self.gammas))

    def __float__(self) -> float:
        out = float(self.rational)
        out *= 2.0 ** float(self.two_pow)
        out *= math.pi ** float(self.pi_pow)
        for arg, mult in self.gammas:
            out *= math.gamma(float(arg)) ** mult
        return out

    # ---------------------------------------------------------- serialization
    def compact_str(self) -> str:
        """Short human form, e.g. "pi^(1)" or "1/2*2^(1/2)*gamma(1/4)^2"."""
        pieces = []
        if self.rational != 1 or (
            self.two_pow == 0 and self.pi_pow == 0 and not self.gammas
        ):
            pieces.append(str(self.rational))
        if self.two_pow != 0:
            pieces.append(f"2^({self.two_pow})")
        if self.pi_pow != 0:
            pieces.append(f"pi^({self.pi_pow})")
        for arg, mult in self.gammas:
            pieces.append(f"gamma({arg})" + (f"^{mult}" if mult != 1 else ""))
        return "*".join(pieces)

    def __repr__(self) -> str:
        return f"GammaProduct({self.compact_str()})"

    def to_json_dict(self) -> dict:
        return {
            "rational": str(self.rational),
            "two_pow": str(self.two_pow),
            "pi_pow": str(self.pi_pow),
            "gamma": [[str(arg), mult] for arg, mult in self.gammas],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "GammaProduct":
        return cls(
            rational=Fraction(doc["rational"]),
            two_pow=Fraction(doc.get("two_pow", 0)),
            pi_pow=Fraction(doc.get("pi_pow", 0)),
            gammas={Fraction(arg): mult for arg, mult in doc.get("gamma", [])},
        )


ONE = GammaProduct.from_rational(1)
