from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jacobi_mv import _linalg
from jacobi_mv.errors import InvalidIndexError, NotAStateError
from jacobi_mv.moments import (
    atomic_functional,
    beta_functional,
    gamma_functional,
    gaussian_functional,
    table_functional,
)
from jacobi_mv.orthodecomp import decompose
from jacobi_mv.polyring import Polynomial


def _functionals():
    return [
        gaussian_functional(1),
        gaussian_functional(2),
        gamma_functional([0, Fraction(1, 2)]),
        beta_functional([0], [0]),
        beta_functional([Fraction(1, 2), 0], [Fraction(-1, 2), 1]),
        atomic_functional([(("0", "0"), "1/2"), (("1", "1"), "1/2")]),
    ]


def test_gaussian_d1_frozen_values():
    dec = decompose(gaussian_functional(1), 2)
    x = Polynomial.variable(1, 1)
    assert dec.level(0).polynomials == (Polynomial.one(1),)
    assert dec.level(1).polynomials == (x,)
    b2 = dec.level(2).polynomials[0]
    assert b2 == x * x - Polynomial.one(1).scale(Fraction(1, 2))
    assert dec.level(1).gram == ((Fraction(1, 2),),)
    assert dec.level(2).gram == ((Fraction(1, 2),),)


def test_gamma_d1_frozen_values():
    dec = decompose(gamma_functional([0]), 1)
    x = Polynomial.variable(1, 1)
    assert dec.level(1).polynomials == (x - Polynomial.one(1),)
    assert dec.level(1).gram == ((Fraction(1),),)


def test_monic_leading_terms():
    for f in _functionals():
        dec = decompose(f, 3)
        for n in range(4):
            lv = dec.level(n)
            for mono, poly in zip(lv.monomials, lv.polynomials):
                top = poly.degree_slice(n)
                assert top == {mono: Fraction(1)}


def test_cross_level_orthogonality():
    for f in _functionals():
        dec = decompose(f, 3)
        for n in range(4):
            for m in range(n):
                for p in dec.level(n).polynomials:
                    for q in dec.level(m).polynomials:
                        assert f.inner_product(p, q) == 0


def test_gram_matches_inner_products():
    for f in _functionals():
        dec = decompose(f, 2)
        for n in range(3):
            lv = dec.level(n)
            for i, p in enumerate(lv.polynomials):
                for j, q in enumerate(lv.polynomials):
                    assert lv.gram[i][j] == f.inner_product(p, q)


def test_coordinates_reconstruct_and_components_sum():
    f = beta_functional([0, 0], [0, 0])
    dec = decompose(f, 3)
    p = Polynomial(
        2,
        {
            (3, 0): Fraction(2),
            (1, 1): Fraction(-1, 3),
            (0, 0): Fraction(5),
            (0, 2): Fraction(1, 7),
        },
    )
    parts = dec.components(p)
    total = Polynomial.zero(2)
    for part in parts:
        total = total + part
    assert total == p


def test_projection_idempotent_and_orthogonal():
    f = gaussian_functional(2)
    dec = decompose(f, 3)
    p = Polynomial(2, {(2, 1): Fraction(1), (1, 0): Fraction(2), (0, 0): Fraction(-1)})
    for n in range(4):
        pn = dec.project(p, n)
        assert dec.project(pn, n) == pn
        for m in range(4):
            if m != n and not pn.is_zero():
                assert dec.project(pn, m).is_zero()


def test_multiplication_operator_symmetry():
    # <x_j p, q> = <p, x_j q> holds for any moment functional
    f = gamma_functional([Fraction(1, 2)])
    dec = decompose(f, 2)
    p = dec.level(1).polynomials[0]
    q = dec.level(2).polynomials[0]
    assert f.inner_product(p.mul_by_variable(1), q) == f.inner_product(
        p, q.mul_by_variable(1)
    )


def test_degree_overflow_raises():
    dec = decompose(gaussian_functional(1), 2)
    with pytest.raises(InvalidIndexError):
        dec.coordinates(Polynomial.monomial(1, (3,)))
    with pytest.raises(InvalidIndexError):
        dec.level(3)


def test_rank_and_null_mask_on_atomic_measure():
    mu = atomic_functional([(("0", "0"), "1/2"), (("1", "1"), "1/2")])
    dec = decompose(mu, 2)
    assert dec.level(0).rank == 1
    assert dec.level(1).rank == 1  # gram [[1/4,1/4],[1/4,1/4]]
    assert dec.level(1).null_mask == (False, False)
    assert dec.level(2).rank == 0
    assert dec.level(2).null_mask == (True, True, True)


def test_rescale_transforms_gram_congruently():
    f = gaussian_functional(2)
    dec = decompose(f, 2)
    rng = random.Random(3)
    scales = [
        [Fraction(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in dec.level(n).polynomials]
        for n in range(3)
    ]
    other = dec.rescale(scales)
    for n in range(3):
        lv, ov = dec.level(n), other.level(n)
        for i in range(len(lv)):
            for j in range(len(lv)):
                assert ov.gram[i][j] == scales[n][i] * scales[n][j] * lv.gram[i][j]
        assert ov.rank == lv.rank


def test_negative_direction_raises_not_a_state():
    # phi((x-1)^2) = m2 - 2 m1 + m0 = -1
    bad = table_functional(1, 2, {(0,): 1, (1,): 1, (2,): 0})
    with pytest.raises(NotAStateError):
        decompose(bad, 1)


def test_null_vector_with_inconsistent_projection_raises():
    # x is null but phi(x * x^2) = 1: no positive functional does this
    bad = table_functional(1, 4, {(0,): 1, (1,): 0, (2,): 0, (3,): 1, (4,): 0})
    with pytest.raises(NotAStateError):
        decompose(bad, 2)


def test_psd_certificate_on_valid_states():
    for f in _functionals():
        dec = decompose(f, 3)
        for n in range(4):
            report = _linalg.ldlt_psd([list(r) for r in dec.level(n).gram])
            assert report.psd
