from __future__ import annotations

import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from jacobi_mv.errors import (
    DimensionMismatchError,
    InsufficientMomentsError,
    InvalidDimensionError,
    InvalidIndexError,
    NoMassFactorError,
    UnsupportedParameterError,
    shown,
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
from jacobi_mv.multiindex import MAX_EXPONENT, exact
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
    # before, a bool was taken as the number 0 or 1
    for call, text in (
        (lambda: gamma_functional([True]), "gamma parameter"),
        (lambda: atomic_functional([((False,), "1")]), "atom coordinate"),
        (lambda: atomic_functional([(("0",), True)]), "atom weight"),
        (lambda: table_functional(1, 0, {(0,): True}), r"moment\[\(0,\)\]"),
    ):
        with pytest.raises(UnsupportedParameterError, match=f"^{text} must be exact .*got bool"):
            call()
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


_PARAMETER = st.builds(
    lambda p, q: Fraction(p, q) - 1, st.integers(1, 40), st.integers(1, 9)
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_PARAMETER, _PARAMETER), min_size=1, max_size=4))
@example([(Fraction(1, 2), Fraction(1, 2))])
@example([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(-1, 2))])
@example([(Fraction(-1, 2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(1, 2))])
def test_classical_mass_factor_is_the_product_of_coordinate_masses(pairs):
    # one constructor call per functional mass: the same canonical
    # GammaProduct as the product of each coordinate's Gamma factors, also
    # when arguments repeat or cancel across coordinates (a = b, a_1 = b_2 + 1)
    from jacobi_mv.symbolic import GammaProduct

    a, b = (list(p) for p in zip(*pairs))
    beta, gamma = GammaProduct.from_rational(1), GammaProduct.from_rational(1)
    for x, y in pairs:
        beta = beta * GammaProduct.two_power(x + y + 1) * GammaProduct.gamma(x + 1)
        beta = beta * GammaProduct.gamma(y + 1) / GammaProduct.gamma(x + y + 2)
        gamma = gamma * GammaProduct.gamma(x + 1)
    for functional, expected in ((beta_functional(a, b), beta), (gamma_functional(a), gamma)):
        mass = functional.mass_factor()
        assert mass == expected
        assert mass.compact_str() == expected.compact_str()


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


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789-+/.e_ \u0663x", max_size=8))
@example("-007/0140")
@example("12/00")
@example("1_0/3")
@example(" 1/2")
@example("1 /2")
@example("\u0663/4")
@example("-")
@example("1e4300")
@example("1e-4301")
@example("4_3_0_1e0_1")
@example("0e99999")
def test_exact_parses_a_string_as_fraction_does(text):
    # p/q strings of ASCII digits are read directly; every other string
    # goes through Fraction's own parser, so the two must agree, value for
    # value and refusal for refusal, except that a decimal exponent beyond
    # MAX_EXPONENT is refused before Fraction expands it
    exponent = re.search(r"e[-+]?(\d+(?:_\d+)*)\s*$", text, re.IGNORECASE)
    try:
        if exponent and int(exponent.group(1)) > MAX_EXPONENT:
            raise ValueError("exponent too large")
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(UnsupportedParameterError) as info:
            exact(text, "moment[{}]", (1,))
        assert str(info.value) == f"bad moment[(1,)]: {shown(text)}"
    else:
        value = exact(text, "moment[{}]", (1,))
        assert type(value) is Fraction and value == expected


def test_a_decimal_exponent_beyond_the_digit_limit_is_refused():
    # before, "1e10000000" took 14 s in Fraction, which expanded it to a
    # ten-million-digit integer; exponents up to MAX_EXPONENT still parse
    assert MAX_EXPONENT == getattr(sys.int_info, "default_max_str_digits", 4300)
    for text in ("1e10000000", "1e99999999", "-2.5E+4301", "1e-4301", "7e00000000000000004301"):
        with pytest.raises(UnsupportedParameterError) as info:
            exact(text, "atom coordinate")
        assert str(info.value) == f"bad atom coordinate: {shown(text)}"
    assert exact("1e3", "x") == 1000
    assert exact("25e-2", "x") == Fraction(1, 4)
    assert exact("1e4300", "x") == 10**4300
    assert exact("-1E-4300", "x") == Fraction(-1, 10**4300)
    assert exact("7e0000000000000000000003", "x") == 7000
    long = "12345678901234567890" * 10
    assert exact(long + ".5", "x") == Fraction(int(long + "5"), 10)
    # a Decimal's own exponent is held to the same bound; before,
    # Decimal("1e1000000") was expanded, in 0.2 s
    for value in (Decimal("1e1000000"), Decimal("-25e-4301")):
        with pytest.raises(UnsupportedParameterError) as info:
            exact(value, "atom coordinate")
        assert str(info.value) == f"bad atom coordinate: {shown(value)}"
    assert exact(Decimal("1e4300"), "x") == 10**4300
    assert exact(Decimal("-1E-4300"), "x") == Fraction(-1, 10**4300)


def test_exact_keeps_the_int_digit_limit():
    # a numerator over the int/str digit limit is refused with the same
    # text as any bad value, and read once the limit is lifted
    text = "7" * 4301 + "/9"
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(UnsupportedParameterError, match=r"^bad atom weight: '7777"):
            exact(text, "atom weight")
        sys.set_int_max_str_digits(0)
        assert exact(text, "atom weight") == Fraction(int(text[:-2]), 9)
    finally:
        sys.set_int_max_str_digits(limit)


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
    text = f"multi-index entry must be an integer, got {shown(beta[0])}"
    with pytest.raises(InvalidIndexError, match=f"^{re.escape(text)}$"):
        table_functional(1, 2, {(0,): 1, beta: "1/2"})


@pytest.mark.parametrize("beta", [(1.0,), (0.5,), (Fraction(1),), ("1",), (True,)])
def test_moment_refuses_non_integer_multi_index_entries(beta):
    # before, the table read (1.0,) and (True,) as (1,), and the gaussian and
    # atomic moments raised a bare TypeError on (0.5,) or (1.0,)
    for f in (
        table_functional(1, 2, {(0,): 1, (1,): "1/2", (2,): "1/3"}),
        gaussian_functional(1),
        atomic_functional([((1,), 1)]),
    ):
        with pytest.raises(InvalidIndexError, match="^multi-index entry must be an integer"):
            f.moment(beta)


@pytest.mark.parametrize("beta", [(-1,), (2, -1)])
def test_moment_refuses_negative_multi_index_entries(beta):
    # a bad index, not a short table: InsufficientMomentsError is what
    # cap_operators.build catches for a table that ends too soon
    d = len(beta)
    for f in (
        table_functional(d, 2, {(0,) * d: 1}),
        gaussian_functional(d),
        atomic_functional([((1,) * d, 1)]),
    ):
        with pytest.raises(InvalidIndexError, match=re.escape(f"negative entry in multi-index {beta}")):
            f.moment(beta)


@pytest.mark.parametrize(
    "functional,beta,error,text",
    [
        (gaussian_functional(1), (1, 1), DimensionMismatchError, "multi-index length 2 != dimension 1"),
        (atomic_functional([((1,), 1)]), (), DimensionMismatchError, "multi-index length 0 != dimension 1"),
        (
            table_functional(1, 2, {(0,): 1, (1,): "1/2", (2,): "1/3"}),
            (3,),
            InsufficientMomentsError,
            "moment of degree 3 requested but only degrees <= 2 are available",
        ),
        (
            table_functional(2, 2, {(0, 0): 1}),
            (2, 1),
            InsufficientMomentsError,
            "moment of degree 3 requested but only degrees <= 2 are available",
        ),
    ],
)
def test_moment_key_check_texts(functional, beta, error, text):
    # the whole message, so a fast path for well-formed keys keeps the texts
    # of the keys it does not take
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        functional.moment(beta)


def _gaussian_reference(k):
    m = [Fraction(1)]
    for t in range(1, k + 1):
        m.append(Fraction(0) if t % 2 else m[t - 2] * Fraction(t - 1, 2))
    return m


def _gamma_reference(alpha, k):
    m = [Fraction(1)]
    for t in range(1, k + 1):
        m.append(m[t - 1] * (alpha + t))
    return m


def _beta_reference(a, b, k):
    # m_t = ((b-a) m_{t-1} + (t-1) m_{t-2}) / (a+b+t+1), in Fractions
    m = [Fraction(1)]
    for t in range(1, k + 1):
        out = (b - a) * m[t - 1]
        if t >= 2:
            out += (t - 1) * m[t - 2]
        m.append(out / (a + b + t + 1))
    return m


_ABOVE_MINUS_ONE = st.fractions(min_value=Fraction(-1), max_denominator=40).filter(lambda x: x > -1)


@settings(max_examples=120, deadline=None)
@given(_ABOVE_MINUS_ONE, _ABOVE_MINUS_ONE, _ABOVE_MINUS_ONE, st.integers(min_value=0, max_value=30))
@example(Fraction(0), Fraction(0), Fraction(0), 30)
@example(Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3), 30)
def test_one_dimensional_sequences_are_the_fraction_recurrences(a, b, alpha, k):
    # each 1-D sequence's integer ratio is the Fraction recurrence's term in
    # lowest terms with a positive denominator, for every k up to the one asked
    sequences = [
        (gaussian_functional(1), _gaussian_reference(k)),
        (gamma_functional([alpha]), _gamma_reference(alpha, k)),
        (beta_functional([a], [b]), _beta_reference(a, b, k)),
    ]
    for functional, reference in sequences:
        (seq,) = functional._sequences
        assert seq.ratio(k) == (reference[k].numerator, reference[k].denominator)
        assert [seq.ratio(t) for t in range(k + 1)] == [x.as_integer_ratio() for x in reference]
        assert functional.moment((k,)) == reference[k]


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
