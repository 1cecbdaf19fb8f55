from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from jacobi_mv.errors import (
    DimensionMismatchError,
    InsufficientMomentsError,
    InvalidDimensionError,
    NoMassFactorError,
    UnsupportedParameterError,
)
from jacobi_mv.moments import (
    AtomicFunctional,
    atomic_functional,
    beta_functional,
    functional_from_json,
    gamma_functional,
    gaussian_functional,
    table_functional,
)
from jacobi_mv.polyring import Polynomial

mpmath.mp.dps = 40


def _gauss_1d_numeric(k):
    f = lambda x: x**k * mpmath.exp(-(x**2))
    return mpmath.quad(f, [-mpmath.inf, 0, mpmath.inf]) / mpmath.sqrt(mpmath.pi)


def _gamma_1d_numeric(k, alpha):
    f = lambda x: x ** (k + alpha) * mpmath.exp(-x)
    return mpmath.quad(f, [0, mpmath.inf]) / mpmath.gamma(alpha + 1)


def _beta_1d_numeric(k, a, b):
    # endpoint singularities (a or b < 0) need headroom beyond the display dps
    with mpmath.workdps(60):
        w = lambda x: x**k * (1 - x) ** a * (1 + x) ** b
        mass = (
            mpmath.mpf(2) ** (a + b + 1)
            * mpmath.gamma(a + 1)
            * mpmath.gamma(b + 1)
            / mpmath.gamma(a + b + 2)
        )
        return mpmath.quad(w, [-1, 1]) / mass


def _close(exact: Fraction, numeric) -> bool:
    return abs(mpmath.mpf(exact.numerator) / exact.denominator - numeric) < mpmath.mpf(
        "1e-25"
    )


def test_gaussian_matches_quadrature():
    f = gaussian_functional(1)
    for k in range(0, 11):
        assert _close(f.moment((k,)), _gauss_1d_numeric(k))


def test_gaussian_odd_moments_vanish_and_products_factor():
    f = gaussian_functional(2)
    assert f.moment((3, 2)) == 0
    assert f.moment((2, 4)) == f.moment((2, 0)) * f.moment((0, 4))
    assert f.moment((0, 0)) == 1


def test_gamma_matches_quadrature():
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(3, 2)):
        f = gamma_functional([alpha])
        for k in range(0, 9):
            assert _close(f.moment((k,)), _gamma_1d_numeric(k, mpmath.mpf(str(float(alpha)))))


def test_gamma_moments_are_rising_factorials():
    f = gamma_functional([Fraction(1, 2)])
    expected = Fraction(1)
    for k in range(1, 8):
        expected *= Fraction(1, 2) + k  # m_k = m_{k-1} (alpha + k)
        assert f.moment((k,)) == expected


def test_beta_matches_quadrature():
    cases = [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(-1, 2), Fraction(-1, 2)),
        (Fraction(1), Fraction(2)),
    ]
    for a, b in cases:
        f = beta_functional([a], [b])
        for k in range(0, 9):
            numeric = _beta_1d_numeric(k, mpmath.mpf(str(float(a))), mpmath.mpf(str(float(b))))
            assert _close(f.moment((k,)), numeric)


def test_beta_known_values():
    legendre = beta_functional([0], [0])
    assert legendre.moment((1,)) == 0
    assert legendre.moment((2,)) == Fraction(1, 3)
    assert legendre.moment((4,)) == Fraction(1, 5)
    skew = beta_functional([Fraction(1, 2)], [Fraction(-1, 2)])
    assert skew.moment((1,)) == Fraction(-1, 2)


def test_beta_second_oracle_rising_factorial_sum():
    # m_k = sum_i C(k,i) 2^i (b+1)^(i) (a+b+2)^(-i)) in rising-factorial form:
    # moment of x^k = E[(2B-1)^k] with B ~ Beta(b+1, a+1) on [0,1]
    import math

    a, b = Fraction(1, 2), Fraction(3, 2)
    f = beta_functional([a], [b])
    for k in range(0, 8):
        total = Fraction(0)
        for i in range(k + 1):
            rising_num = Fraction(1)
            rising_den = Fraction(1)
            for p in range(i):
                rising_num *= b + 1 + p
                rising_den *= a + b + 2 + p
            total += (
                Fraction(math.comb(k, i))
                * Fraction(2) ** i
                * Fraction(-1) ** (k - i)
                * rising_num
                / rising_den
            )
        assert f.moment((k,)) == total


def test_random_product_moments_factor():
    rng = random.Random(7)
    f = beta_functional([0, Fraction(1, 2)], [0, Fraction(1, 2)])
    for _ in range(20):
        b1, b2 = rng.randrange(0, 6), rng.randrange(0, 6)
        assert f.moment((b1, b2)) == f.moment((b1, 0)) * f.moment((0, b2))


def test_parameter_validation():
    with pytest.raises(UnsupportedParameterError):
        gamma_functional([Fraction(-1)])
    with pytest.raises(UnsupportedParameterError):
        beta_functional([Fraction(-3, 2)], [0])
    with pytest.raises(UnsupportedParameterError):
        gamma_functional([0.5])
    # before, a non-integer max_degree was kept and written out by to_json_dict
    for bad in (2.5, 2.0, True):
        with pytest.raises(UnsupportedParameterError, match="^max_degree must be an integer"):
            table_functional(1, bad, {(0,): 1})
    # before, 2.0 raised a bare TypeError and the others were taken as d = 1
    atoms = [(("0",), "1/2"), (("1",), "1/2")]
    for call in (
        lambda: gaussian_functional(2.0),
        lambda: gaussian_functional(True),
        lambda: atomic_functional(atoms, d=1.0),
        lambda: table_functional(True, 2, {(0,): 1}),
    ):
        with pytest.raises(InvalidDimensionError, match="^dimension must be an integer, got"):
            call()


def test_mass_factors():
    from jacobi_mv.symbolic import GammaProduct

    assert gaussian_functional(2).mass_factor() == GammaProduct.pi_power(1)
    assert gamma_functional([0, 0]).mass_factor() == 1
    # chebyshev-1 weight mass is pi, legendre 2, chebyshev-2 pi/2
    cheb1 = beta_functional([Fraction(-1, 2)], [Fraction(-1, 2)])
    assert cheb1.mass_factor() == GammaProduct.pi_power(1)
    legendre = beta_functional([0], [0])
    assert legendre.mass_factor() == 2
    cheb2 = beta_functional([Fraction(1, 2)], [Fraction(1, 2)])
    assert cheb2.mass_factor() == GammaProduct(rational=Fraction(1, 2), pi_pow=1)


def test_atomic_moments_and_validation():
    mu = atomic_functional([(("0", "0"), "1/2"), (("1", "1"), "1/2")])
    assert mu.moment((0, 0)) == 1
    assert mu.moment((2, 3)) == Fraction(1, 2)
    with pytest.raises(UnsupportedParameterError):
        atomic_functional([(("0",), "1/2"), (("1",), "1/4")])  # weights not summing to 1
    with pytest.raises(UnsupportedParameterError):
        atomic_functional([(("0",), "-1/2"), (("1",), "3/2")])  # negative weight
    with pytest.raises(UnsupportedParameterError):
        atomic_functional([(("0",), "1/2"), (("0",), "1/2")])  # duplicated point
    with pytest.raises(NoMassFactorError):
        mu.mass_factor()


def test_parameter_lists_refuse_strings_and_bare_numbers():
    # before, a string was split into its characters ("12" -> (1, 2)) and a
    # bare number raised a bare TypeError
    for call, what in (
        (lambda: gamma_functional("12"), "gamma parameter"),
        (lambda: gamma_functional(5), "gamma parameter"),
        (lambda: beta_functional("12", "34"), "beta parameter a"),
        (lambda: beta_functional([0], 3), "beta parameter b"),
        (lambda: atomic_functional([("12", 1)]), "atom coordinate"),
        (lambda: atomic_functional([(5, 1)]), "atom coordinate"),
        (lambda: atomic_functional([(("0",), "1/2"), (1, "1/2")]), "atom coordinate"),
    ):
        with pytest.raises(UnsupportedParameterError, match=f"^{what} list must be a sequence"):
            call()
    # any other iterable of exact numbers is still a parameter list
    assert gamma_functional(iter([0, "1/2"])).alphas == [0, Fraction(1, 2)]
    assert atomic_functional([([1, "2"], 1)]).moment((1, 1)) == 2


_COORDINATES = st.just(Fraction(0)) | st.fractions(-4, 4, max_denominator=9)


@st.composite
def _atom_sets(draw):
    d = draw(st.integers(1, 3))
    points = draw(
        st.lists(st.tuples(*[_COORDINATES] * d), min_size=1, max_size=6, unique=True)
    )
    raw = draw(
        st.lists(
            st.fractions(Fraction(1, 9), 5, max_denominator=9),
            min_size=len(points),
            max_size=len(points),
        )
    )
    weights = [r / sum(raw) for r in raw]
    beta = draw(st.tuples(*[st.integers(0, 6)] * d))
    return list(zip(points, weights)), beta


@settings(max_examples=200, deadline=None)
@given(_atom_sets())
def test_atomic_moment_is_the_direct_fraction_sum(case):
    atoms, beta = case
    mu = atomic_functional(atoms)
    direct = sum(
        w * math.prod((c**k for c, k in zip(point, beta)), start=Fraction(1))
        for point, w in atoms
    )
    assert mu.moment(beta) == direct
    assert mu.atoms == atoms


def test_atomic_json_round_trip():
    mu = atomic_functional([(("1/3", "-2"), "1/4"), (("0", "0"), "3/4")])
    doc = mu.to_json_dict()
    again = AtomicFunctional.from_json_dict(doc)
    assert again.moment((3, 1)) == mu.moment((3, 1))


def test_table_functional_access_and_errors():
    t = table_functional(1, 2, {(0,): 1, (1,): "1/2", (2,): "1/3"})
    assert t.moment((2,)) == Fraction(1, 3)
    with pytest.raises(InsufficientMomentsError):
        t.moment((3,))  # beyond the declared degree
    with pytest.raises(NoMassFactorError):
        t.mass_factor()
    sparse = table_functional(1, 2, {(0,): 1})
    with pytest.raises(InsufficientMomentsError):
        sparse.moment((1,))  # declared but absent


@pytest.mark.parametrize("beta", [(Fraction(3, 2),), (1.5,), ("1",), (True,)])
def test_table_functional_refuses_non_integer_indices(beta):
    # no silent truncation: (1.5,) was stored as (1,)
    with pytest.raises(UnsupportedParameterError, match="index must be an integer"):
        table_functional(1, 2, {(0,): 1, beta: "1/2"})


def test_functional_from_json_dispatch():
    atoms_doc = {"d": 1, "atoms": [{"x": ["2"], "w": "1"}]}
    table_doc = {"d": 1, "max_degree": 1, "moments": [{"beta": [0], "value": "1"}, {"beta": [1], "value": "0"}]}
    assert functional_from_json(atoms_doc).moment((1,)) == 2
    assert functional_from_json(table_doc).moment((1,)) == 0
    with pytest.raises(UnsupportedParameterError):
        functional_from_json({"d": 1})


def test_apply_and_inner_product():
    f = gaussian_functional(1)
    x = Polynomial.variable(1, 1)
    assert f.inner_product(x, x) == Fraction(1, 2)
    with pytest.raises(DimensionMismatchError):
        f.inner_product(Polynomial.one(2), Polynomial.one(2))
