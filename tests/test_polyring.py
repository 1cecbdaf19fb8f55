from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jacobi_mv.errors import DimensionMismatchError, InvalidDimensionError, InvalidIndexError
from jacobi_mv.multiindex import enumerate_classes
from jacobi_mv.polyring import Polynomial, monomial_basis, monomials_of_degree


def _poly(d, terms):
    return Polynomial(d, {tuple(b): Fraction(c) for b, c in terms.items()})


def test_zero_terms_are_dropped():
    p = _poly(2, {(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(1)}
    assert not Polynomial.zero(2).terms
    assert Polynomial.zero(2).is_zero()


def test_constructors():
    assert Polynomial.one(3).terms == {(0, 0, 0): Fraction(1)}
    x2 = Polynomial.variable(2, 2)
    assert x2.terms == {(0, 1): Fraction(1)}
    with pytest.raises(InvalidIndexError):
        Polynomial.variable(2, 3)


def test_arithmetic():
    x = Polynomial.variable(1, 1)
    p = (x + Polynomial.one(1)) * (x - Polynomial.one(1))
    assert p == _poly(1, {(2,): 1, (0,): -1})
    assert p - p == Polynomial.zero(1)
    assert p.scale(Fraction(1, 2)).coefficient((2,)) == Fraction(1, 2)


def test_degree_and_slices():
    p = _poly(2, {(0, 0): 1, (1, 1): 2, (3, 0): 5})
    assert p.degree() == 3
    assert p.degree_slice(2) == {(1, 1): Fraction(2)}
    assert p.degree_slice(1) == {}
    assert Polynomial.zero(2).degree() < 0


def test_evaluate_exact():
    p = _poly(2, {(2, 0): 1, (0, 1): -3})
    assert p.evaluate((Fraction(1, 2), Fraction(1, 3))) == Fraction(1, 4) - 1
    with pytest.raises(DimensionMismatchError):
        p.evaluate((1,))


def test_non_integer_exponents_and_bool_numbers_are_refused():
    # before, (0.5,) printed as x1^0.5, (True,) was stored as a key, and a
    # bool coefficient or point entry was read as 0 or 1
    for beta, shown in (((0.5,), "0.5"), ((True,), "True"), ((1, Fraction(1)), "Fraction(1, 1)")):
        text = f"^multi-index entry must be an integer, got {re.escape(shown)}$"
        with pytest.raises(InvalidIndexError, match=text):
            Polynomial(len(beta), {beta: 1})
    gate = "must be exact (int, Fraction or 'p/q' string), got"
    for make, text in (
        (lambda: Polynomial(1, {(1,): True}), f"coefficient {gate} bool True"),
        (lambda: Polynomial(1, {(1,): 1}).evaluate([True]), f"point entry {gate} bool True"),
        (lambda: Polynomial.one(1).scale(False), f"scalar {gate} bool False"),
        (lambda: Polynomial(1, {(1,): 0.5}), f"coefficient {gate} float 0.5"),
    ):
        with pytest.raises(TypeError) as info:
            make()
        assert str(info.value) == text
    with pytest.raises(InvalidIndexError, match=r"^negative entry in multi-index \(-1,\)$"):
        Polynomial(1, {(-1,): 1})


@pytest.mark.parametrize("d", [True, 2.0, 0, -1, "2"])
def test_a_dimension_that_is_no_positive_int_is_refused_as_enumerate_classes_refuses_it(d):
    with pytest.raises(InvalidDimensionError) as expected:
        enumerate_classes(d, 1)
    text = f"^{re.escape(str(expected.value))}$"
    for make in (
        lambda: Polynomial(d),
        lambda: Polynomial(d, {(1, 0): 1}),
        lambda: Polynomial.zero(d),
        lambda: Polynomial.one(d),
        lambda: Polynomial.monomial(d, (1,)),
        lambda: Polynomial.variable(d, 1),
    ):
        with pytest.raises(InvalidDimensionError, match=text):
            make()


def test_dimension_mismatch_in_arithmetic():
    with pytest.raises(DimensionMismatchError):
        Polynomial.one(1) + Polynomial.one(2)


def test_sorted_terms_graded_canonical():
    p = _poly(2, {(0, 2): 1, (2, 0): 1, (1, 1): 1, (0, 0): 1})
    order = [b for b, _ in p.sorted_terms()]
    assert order == [(0, 0), (2, 0), (1, 1), (0, 2)]


def test_json_round_trip():
    p = _poly(2, {(1, 1): Fraction(3, 2), (0, 0): -1})
    doc = p.to_json_dict()
    assert doc["d"] == 2
    assert all(isinstance(e["c"], str) for e in doc["terms"])
    assert Polynomial.from_json_dict(doc) == p


def test_monomial_enumeration():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    basis = monomial_basis(2, 2)
    assert basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@st.composite
def _polys(draw, d=2, max_degree=3):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        beta = tuple(
            draw(st.integers(0, max_degree)) for _ in range(d)
        )
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        terms[beta] = Fraction(num, den)
    return Polynomial(d, terms)


@given(_polys(), _polys(), _polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(_polys(), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_evaluation_is_ring_homomorphism(p, point):
    q = p * p + p
    assert q.evaluate(point) == p.evaluate(point) ** 2 + p.evaluate(point)
