from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacobi_mv.errors import UnsupportedParameterError
from jacobi_mv.symbolic import ONE, GammaProduct


def test_gamma_reduction_to_core():
    # Gamma(7/2) = (5/2)(3/2)(1/2) Gamma(1/2) = 15/8 pi^(1/2)
    g = GammaProduct.gamma(Fraction(7, 2))
    assert g.rational == Fraction(15, 8)
    assert g.pi_pow == Fraction(1, 2)
    assert g.gammas == ()


def test_gamma_of_integer_is_factorial():
    assert GammaProduct.gamma(5) == 24
    assert GammaProduct.gamma(1) == 1


def test_two_power_integer_part_folds_into_rational():
    g = GammaProduct.two_power(Fraction(7, 2))
    assert g.rational == 8
    assert g.two_pow == Fraction(1, 2)


def test_nonpositive_gamma_argument_rejected():
    with pytest.raises(UnsupportedParameterError):
        GammaProduct.gamma(0)
    with pytest.raises(UnsupportedParameterError):
        GammaProduct.gamma(Fraction(-1, 2))
    with pytest.raises(UnsupportedParameterError):
        GammaProduct.gamma(0.5)


def test_non_integer_multiplicities_and_bool_values_are_refused():
    # before, int(mult) took Gamma(1/3)^1.5 as Gamma(1/3) and a multiplicity
    # True as 1, and a bool value was read as 0 or 1
    for mult in (1.5, Fraction(3, 2), True, "2"):
        with pytest.raises(
            UnsupportedParameterError,
            match=f"^Gamma multiplicity must be an integer, got {re.escape(repr(mult))}$",
        ):
            GammaProduct(gammas={Fraction(1, 3): mult})
    gate = "must be exact (int, Fraction or 'p/q' string), got bool"
    for make, text in (
        (lambda: GammaProduct.from_rational(True), f"rational {gate} True"),
        (lambda: GammaProduct.gamma(True), f"Gamma argument {gate} True"),
        (lambda: GammaProduct.two_power(False), f"two_pow {gate} False"),
        (lambda: GammaProduct(rational=True), f"rational {gate} True"),
        (lambda: GammaProduct(pi_pow=True), f"pi_pow {gate} True"),
        (lambda: GammaProduct(gammas={True: 1}), f"Gamma argument {gate} True"),
    ):
        with pytest.raises(UnsupportedParameterError) as info:
            make()
        assert str(info.value) == text
    # integer multiplicities keep their meaning
    assert GammaProduct(gammas={Fraction(1, 3): 2}) == GammaProduct.gamma(Fraction(1, 3)) ** 2
    assert GammaProduct(gammas={Fraction(1, 3): 0}) == 1


def test_mul_div_cancellation():
    a = GammaProduct.gamma(Fraction(1, 3))
    b = GammaProduct.gamma(Fraction(4, 3))  # = (1/3) Gamma(1/3)
    ratio = b / a
    assert ratio.is_rational()
    assert ratio.rational_value() == Fraction(1, 3)


def test_pow():
    g = GammaProduct.gamma(Fraction(1, 2))
    assert (g**2) == GammaProduct.pi_power(1)
    assert (g**-2) == GammaProduct.pi_power(-1)
    with pytest.raises(TypeError):
        g ** Fraction(1, 2)
    # a bool is an int to isinstance but no exponent
    for exponent in (True, False, Fraction(1)):
        with pytest.raises(TypeError, match="^only integer powers are supported$"):
            g**exponent


def test_rational_interop():
    assert GammaProduct.from_rational(Fraction(3, 4)) == Fraction(3, 4)
    assert 2 * GammaProduct.from_rational(3) == 6
    assert (GammaProduct.from_rational(3) / 2).rational_value() == Fraction(3, 2)


def test_rational_and_irrational_parts():
    g = GammaProduct(rational=Fraction(3, 8), pi_pow=1)
    assert g.rational_part() == Fraction(3, 8)
    assert g.irrational_part() == GammaProduct.pi_power(1)
    assert g.rational_part() * g.irrational_part() == g


def test_compact_str():
    assert ONE.compact_str() == "1"
    assert GammaProduct.pi_power(1).compact_str() == "pi^(1)"
    g = GammaProduct(rational=Fraction(1, 2), two_pow=Fraction(1, 2), gammas={Fraction(1, 4): 2})
    assert g.compact_str() == "1/2*2^(1/2)*gamma(1/4)^2"


def test_json_round_trip():
    # the omega document's mass_factor_struct: its strings give the value back
    g = GammaProduct(rational=2, pi_pow=Fraction(1, 2), gammas={Fraction(3, 4): 1})
    doc = g.to_json_dict()
    assert doc == {"rational": "2", "two_pow": "0", "pi_pow": "1/2", "gamma": [["3/4", 1]]}
    parts = {"rational": doc["rational"], "two_pow": doc["two_pow"], "pi_pow": doc["pi_pow"]}
    assert GammaProduct(**parts, gammas=dict(doc["gamma"])) == g


_args = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8)


@given(_args, _args)
def test_recurrence_identity(x, y):
    # Gamma(x+1) = x Gamma(x) holds structurally after reduction
    assert GammaProduct.gamma(x + 1) == GammaProduct.from_rational(x) * GammaProduct.gamma(x)
    assert GammaProduct.gamma(x) * GammaProduct.gamma(y) == GammaProduct.gamma(y) * GammaProduct.gamma(x)


@given(_args)
def test_division_is_inverse_of_multiplication(x):
    g = GammaProduct.gamma(x) * GammaProduct.pi_power(Fraction(1, 2))
    assert (g / g).is_rational() and (g / g).rational_value() == 1


# ------------------------------------------------------------------ reference
# The canonical form by the step-by-step Fraction reduction, on the product
# of all factors at once: each Gamma argument is lowered one unit at a time,
# multiplying the rational by the argument left behind.


def _reference(rational, two_pow, pi_pow, gammas):
    rat, two, pi = Fraction(rational), Fraction(two_pow), Fraction(pi_pow)
    cores = {}
    for arg, mult in gammas.items():
        if mult == 0:
            continue
        while arg > 1:
            arg -= 1
            rat = rat * arg**mult
        if arg == Fraction(1, 2):
            pi += Fraction(mult, 2)
        elif arg != 1:
            cores[arg] = cores.get(arg, 0) + mult
    cores = {a: m for a, m in cores.items() if m}
    if rat == 0:
        two, pi, cores = Fraction(0), Fraction(0), {}
    else:
        shift = math.floor(two)
        rat, two = rat * Fraction(2) ** shift, two - shift
    out = object.__new__(GammaProduct)
    for name, value in zip(GammaProduct.__slots__, (rat, two, pi, tuple(sorted(cores.items())))):
        object.__setattr__(out, name, value)
    return out


_ARGS = st.integers(1, 4).flatmap(lambda q: st.integers(1, 6 * q).map(lambda p: Fraction(p, q)))


@st.composite
def _expressions(draw):
    """(steps, raw parts): each step applies one factor to the running value.

    A step is ("mul" | "div" | int power, kind, argument); the raw parts
    hold the unreduced rational, exponents and Gamma multiset of the result.
    """
    pool = draw(st.lists(_ARGS, min_size=1, max_size=3))  # repeated arguments
    arg = st.sampled_from(pool) | _ARGS
    step = st.one_of(
        st.tuples(st.just("rational"), arg),
        st.tuples(st.just("rational"), st.just(Fraction(0))),
        st.tuples(st.just("two"), arg),
        st.tuples(st.just("pi"), arg),
        st.tuples(st.just("gamma"), arg),
        # Gamma(z + k) / Gamma(z) cancels to a rational
        st.tuples(st.just("shifted"), arg, st.integers(0, 3)),
    )
    op = st.sampled_from(["mul", "div"]) | st.integers(-3, 3)
    return draw(st.lists(st.tuples(op, step), max_size=8))


def _factor(kind, arg, shift=0):
    if kind == "rational":
        return GammaProduct.from_rational(arg)
    if kind == "two":
        return GammaProduct.two_power(arg)
    if kind == "pi":
        return GammaProduct.pi_power(arg)
    if kind == "gamma":
        return GammaProduct.gamma(arg)
    return GammaProduct.gamma(arg + shift) / GammaProduct.gamma(arg)


def _raw_factor(kind, arg, shift=0):
    """(rational, two_pow, pi_pow, gammas) of one factor, unreduced."""
    if kind == "rational":
        return arg, 0, 0, {}
    if kind == "two":
        return 1, arg, 0, {}
    if kind == "pi":
        return 1, 0, arg, {}
    if kind == "gamma":
        return 1, 0, 0, {arg: 1}
    return 1, 0, 0, ({arg + shift: 1, arg: -1} if shift else {})


@settings(max_examples=100, deadline=None)
@given(_expressions())
def test_products_match_the_stepwise_reduction(steps):
    value = GammaProduct.from_rational(1)
    rat, two, pi, gammas = Fraction(1), Fraction(0), Fraction(0), {}
    for op, (kind, *params) in steps:
        factor = _factor(kind, *params)
        f_rat, f_two, f_pi, f_gammas = _raw_factor(kind, *params)
        power = {"mul": 1, "div": -1}.get(op, op)
        if power < 0 and f_rat == 0:
            with pytest.raises(ZeroDivisionError):
                value / factor if op == "div" else factor**op
            continue
        if op == "mul":
            value = value * factor
        elif op == "div":
            value = value / factor
        else:
            value = value * factor**op
        rat *= Fraction(f_rat) ** power
        two += power * Fraction(f_two)
        pi += power * Fraction(f_pi)
        for a, m in f_gammas.items():
            gammas[a] = gammas.get(a, 0) + power * m
        reference = _reference(rat, two, pi, gammas)
        assert value == reference and hash(value) == hash(reference)
