from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import jacobi_mv.closed_forms as closed_forms
from jacobi_mv.cap_operators import build, verify_quantum_decomposition
from jacobi_mv.closed_forms import (
    FAMILIES,
    _omega_factor,
    _recurrence,
    closed_form_alpha,
    closed_form_omega,
    creation_power,
    family_norm_squared,
    family_polynomial,
    family_spec,
    master_omega,
    stated_omega,
    verify_family,
)
from jacobi_mv.errors import (
    InvalidDimensionError,
    InvalidIndexError,
    UnsupportedParameterError,
)
from jacobi_mv.jacobi_sequences import compute_from_functional
from jacobi_mv.moments import atomic_functional, beta_functional, gaussian_functional
from jacobi_mv.orthodecomp import decompose
from jacobi_mv.polyring import Polynomial, monomial_basis
from jacobi_mv.symbolic import GammaProduct

HERMITE1 = family_spec("hermite", d=1)
HERMITE2 = family_spec("hermite", d=2)
LAGUERRE0 = family_spec("laguerre", alpha=[0])
LEGENDRE1 = family_spec("legendre", d=1)

ROSTER = (
    HERMITE2,
    family_spec("laguerre", alpha=["1/2", "3/2"]),
    family_spec("jacobi", a=[0, 1], b=[1, 0]),
    family_spec("gegenbauer", lam=["1/3"]),
    family_spec("chebyshev1", d=1),
    family_spec("chebyshev2", d=1),
    family_spec("legendre", d=2),
)


def _ddx(p: Polynomial) -> Polynomial:
    terms = {}
    for (k,), c in p.terms.items():
        if k > 0:
            terms[(k - 1,)] = c * k
    return Polynomial(1, terms)


def test_family_polynomial_frozen_values():
    assert family_polynomial(HERMITE1, (2,)).terms == {
        (2,): Fraction(4),
        (0,): Fraction(-2),
    }
    assert family_polynomial(LAGUERRE0, (1,)).terms == {
        (0,): Fraction(1),
        (1,): Fraction(-1),
    }
    jac = family_spec("jacobi", a=[0], b=[0])
    assert family_polynomial(jac, (1,)).terms == {(1,): Fraction(1)}
    assert family_polynomial(HERMITE2, (0, 0)) == Polynomial.one(2)
    assert family_polynomial(HERMITE2, (1, 1)).terms == {(1, 1): Fraction(4)}


def test_hermite_derivative_identity():
    # H_n' = 2n H_{n-1}, a recurrence-independent cross-check
    for n in range(1, 7):
        lhs = _ddx(family_polynomial(HERMITE1, (n,)))
        rhs = family_polynomial(HERMITE1, (n - 1,)).scale(Fraction(2 * n))
        assert lhs == rhs


def test_family_polynomial_index_validation():
    with pytest.raises(InvalidIndexError):
        family_polynomial(HERMITE2, (1,))
    with pytest.raises(InvalidIndexError):
        family_polynomial(HERMITE1, (-1,))


def test_family_norm_squared_index_validation():
    # one index check for both: before, hermite (-1,) raised a bare
    # ValueError from math.factorial and jacobi (-2,) a Gamma-argument error
    jac = family_spec("jacobi", a=[0], b=[0])
    for spec, index in (
        (HERMITE1, (-1,)),
        (jac, (-2,)),
        (HERMITE2, (1,)),
        (HERMITE1, (Fraction(1, 2),)),
        # before, True read as index 1
        (HERMITE1, (True,)),
    ):
        with pytest.raises(InvalidIndexError):
            family_norm_squared(spec, index)
        with pytest.raises(InvalidIndexError):
            family_polynomial(spec, index)
        with pytest.raises(InvalidIndexError):
            master_omega(spec, index)


def test_norm_squared_frozen_values():
    assert family_norm_squared(HERMITE2, (1, 1)) == GammaProduct(
        rational=Fraction(4), pi_pow=Fraction(1)
    )
    assert family_norm_squared(LAGUERRE0, (3,)) == GammaProduct.from_rational(1)
    jac = family_spec("jacobi", a=[0], b=[0])
    assert family_norm_squared(jac, (0,)) == GammaProduct.from_rational(2)


def test_norm_squared_matches_pipeline_inner_product():
    for spec in ROSTER:
        f = spec.functional()
        mass = spec.mass_factor()
        for idx in monomial_basis(spec.d, 3):
            poly = family_polynomial(spec, idx)
            value = f.inner_product(poly, poly)
            assert mass * value == family_norm_squared(spec, idx)


@st.composite
def _random_spec(draw, max_d=1):
    def above(low):
        return [
            low + Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
            for _ in range(d)
        ]

    family = draw(st.sampled_from(FAMILIES))
    d = draw(st.integers(1, max_d))
    if family == "laguerre":
        return family_spec(family, alpha=above(-1))
    if family == "jacobi":
        return family_spec(family, a=above(-1), b=above(-1))
    if family == "gegenbauer":
        return family_spec(family, lam=above(Fraction(-1, 2)))
    return family_spec(family, d=d)


@settings(max_examples=40, deadline=None)
@given(_random_spec())
def test_recurrence_table_against_the_functional(spec):
    # the functional's own moments are the independent reference for every
    # entry of x F_k = c_plus F_{k+1} + c_zero F_k + c_minus F_{k-1}
    phi = spec.functional()
    mass = spec.mass_factor()
    f = [family_polynomial(spec, (k,)) for k in range(7)]
    sq = [phi.inner_product(p, p) for p in f]
    lead = Fraction(1)  # prod_{p<k} c_plus(p), the inverse leading coefficient of F_k
    for k in range(7):
        c_plus, c_zero, c_minus = _recurrence(spec, 1, k)
        xf = f[k] * Polynomial.variable(1, 1)
        assert all(phi.inner_product(f[k], f[m]) == 0 for m in range(k))
        assert phi.inner_product(xf, f[k]) == c_zero * sq[k]
        assert closed_form_alpha(spec, k, 1) == [[c_zero]]
        if k:
            assert phi.inner_product(xf, f[k - 1]) == c_minus * sq[k - 1]
        if k < 6:
            assert phi.inner_product(xf, f[k + 1]) == c_plus * sq[k + 1]
        assert mass * sq[k] == family_norm_squared(spec, (k,))
        assert mass * sq[k] * lead**2 == _omega_factor(spec, 1, k)
        lead *= c_plus


def test_pipeline_and_verify_build_no_polynomial(monkeypatch):
    # Polynomial is an input/output format: the pipeline and the closed-form
    # verification compute on coefficient columns only
    functionals = [
        gaussian_functional(2),
        beta_functional([0, Fraction(1, 2)], [Fraction(-1, 2), 1]),
        atomic_functional([(("0", "0"), "1/3"), (("1", "0"), "1/3"), (("0", "2"), "1/3")]),
    ]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Polynomial was built")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    for functional in functionals:
        compute_from_functional(functional, 3)
    for spec in ROSTER:
        assert verify_family(spec, 3).ok
    monkeypatch.undo()

    # the quantum-decomposition check builds each residual Polynomial from
    # its vector, with no polynomial arithmetic
    def no_arithmetic(self, *args, **kwargs):
        raise AssertionError("Polynomial arithmetic was used")

    for name in ("__mul__", "__add__", "__sub__"):
        monkeypatch.setattr(Polynomial, name, no_arithmetic)
    for functional in functionals:
        assert verify_quantum_decomposition(build(decompose(functional, 3))).ok


@settings(max_examples=25, deadline=None)
@given(_random_spec(max_d=3), st.integers(0, 4))
def test_verify_table_against_the_per_class_functions(spec, max_level):
    # verify_family reads every closed form off one per-coordinate table;
    # the public per-class functions are the reference for each entry
    mass = spec.mass_factor()
    masses = GammaProduct.from_rational(1)
    for i in range(1, spec.d + 1):
        masses = masses * _omega_factor(spec, i, 0)
    assert masses == mass
    report = verify_family(spec, max_level)
    for lv in report.levels:
        values = [(master_omega(spec, c) / mass).rational_value() for c in lv.classes]
        assert lv.omega_closed == [
            [v if r == k else 0 for k in range(len(values))]
            for r, v in enumerate(values)
        ]
        for a in lv.alphas:
            assert a.closed == closed_form_alpha(spec, lv.n, a.j)
    for c in report.lemma_checks:
        assert c.factor == creation_power(spec, c.base, c.coordinate, c.power)[0]
    assert report.ok


def test_verify_family_evaluates_each_closed_form_once_per_coordinate_and_degree(
    monkeypatch,
):
    # the per-class route made one omega evaluation per class and coordinate
    # (168 here) and one _recurrence call per closed alpha entry; the omega
    # factors reuse the table's c_plus column instead of their own recurrence
    spec = family_spec("jacobi", a=["1/2", 0, "-1/3"], b=["-1/2", 1, "2/5"])
    top = 5
    calls = Counter()
    for name in ("_norm_factor", "_recurrence"):
        def counted(*args, _original=getattr(closed_forms, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(closed_forms, name, counted)
    assert verify_family(spec, top, variant="master").ok
    assert 0 < calls["_norm_factor"] <= spec.d * (top + 1)
    assert 0 < calls["_recurrence"] <= spec.d * (top + 1)


def test_non_integer_levels_and_indices_raise_invalid_index():
    # before, each raised a bare TypeError from math.factorial or range
    cheb1 = family_spec("chebyshev1", d=1)
    calls = (
        lambda: master_omega(HERMITE1, (1.5,)),
        lambda: stated_omega(cheb1, (2.0,)),
        lambda: closed_form_omega(HERMITE1, 1.5),
        lambda: closed_form_alpha(HERMITE1, 2.0, 1),
        lambda: verify_family(HERMITE1, 2.0),
        lambda: creation_power(HERMITE1, (0,), 1, 2.0),
    )
    for call in calls:
        with pytest.raises(InvalidIndexError):
            call()


def test_coordinate_arguments_must_be_integers():
    # before, a float coordinate passed the range check and raised a bare
    # TypeError from tuple indexing
    spec = family_spec("laguerre", alpha=[0, "1/2"])
    for call in (
        lambda: closed_form_alpha(spec, 1, 1.0),
        lambda: creation_power(spec, (0, 0), 1.0, 1),
    ):
        with pytest.raises(InvalidIndexError, match="coordinate must be an integer"):
            call()
    with pytest.raises(InvalidIndexError, match=r"^coordinate 3 outside 1\.\.2$"):
        closed_form_alpha(spec, 1, 3)


def test_creation_power_frozen_values():
    assert creation_power(HERMITE1, (0,), 1, 3) == (Fraction(1, 8), (3,))
    assert creation_power(LAGUERRE0, (0,), 1, 2) == (Fraction(2), (2,))
    jac = family_spec("jacobi", a=[0], b=[0])
    assert creation_power(jac, (0,), 1, 1) == (Fraction(1), (1,))


def test_creation_power_composes():
    specs = (
        HERMITE1,
        family_spec("laguerre", alpha=["1/2"]),
        family_spec("jacobi", a=["1/2"], b=["-1/2"]),
    )
    for spec in specs:
        for k in range(3):
            base = (k,)
            for m in range(1, 4):
                whole, idx = creation_power(spec, base, 1, m + 1)
                first, mid = creation_power(spec, base, 1, m)
                last, idx2 = creation_power(spec, mid, 1, 1)
                assert idx == idx2
                assert whole == first * last


def test_creation_power_validation():
    with pytest.raises(InvalidIndexError):
        creation_power(HERMITE1, (0,), 1, 0)
    with pytest.raises(InvalidIndexError):
        creation_power(HERMITE1, (0,), 2, 1)
    with pytest.raises(InvalidIndexError):
        creation_power(HERMITE1, (0, 0), 1, 1)


def test_closed_form_omega_hermite_frozen():
    entries = closed_form_omega(HERMITE2, 2)
    assert [e.n_bar for e in entries] == [(2, 0), (1, 1), (0, 2)]
    assert [e.omega_value for e in entries] == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 2),
    ]
    assert entries[0].omega_paper == GammaProduct(
        rational=Fraction(1, 2), pi_pow=Fraction(1)
    )
    assert entries[1].omega_paper == GammaProduct(
        rational=Fraction(1, 4), pi_pow=Fraction(1)
    )
    assert entries[0].mass_factor == GammaProduct.pi_power(1)
    assert all(e.alpha_values == (0, 0) for e in entries)


def test_closed_form_omega_legendre_frozen():
    entries = closed_form_omega(LEGENDRE1, 1)
    assert entries[0].omega_value == Fraction(1, 3)


def test_closed_form_alpha_frozen():
    lag = family_spec("laguerre", alpha=[0, 0])
    assert closed_form_alpha(lag, 1, 1) == [
        [Fraction(3), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]
    assert closed_form_alpha(lag, 1, 2) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(3)],
    ]
    zero2 = [[Fraction(0)] * 3 for _ in range(3)]
    assert closed_form_alpha(HERMITE2, 2, 1) == zero2
    sym = family_spec("jacobi", a=["1/2"], b=["1/2"])
    assert closed_form_alpha(sym, 2, 1) == [[Fraction(0)]]


def test_stated_matches_master_for_gegenbauer_and_chebyshev2():
    specs = (
        family_spec("gegenbauer", lam=["1/3"]),
        family_spec("gegenbauer", lam=["1/3", "1/4"]),
        family_spec("chebyshev2", d=1),
        family_spec("chebyshev2", d=2),
    )
    for spec in specs:
        for n_bar in monomial_basis(spec.d, 3):
            value, notes = stated_omega(spec, n_bar)
            assert notes == ()
            assert value == master_omega(spec, n_bar)


def test_stated_chebyshev1_off_by_quarter_per_active_coordinate():
    spec = family_spec("chebyshev1", d=2)
    for n_bar in monomial_basis(2, 3):
        value, notes = stated_omega(spec, n_bar)
        active = sum(1 for k in n_bar if k >= 1)
        assert value == master_omega(spec, n_bar) * Fraction(1, 4**active)
        assert len(notes) == sum(1 for k in n_bar if k == 0)


def test_stated_legendre_off_by_factorial_squared():
    spec = family_spec("legendre", d=2)
    for n_bar in monomial_basis(2, 3):
        value, notes = stated_omega(spec, n_bar)
        fact = 1
        for k in n_bar:
            for p in range(1, k + 1):
                fact *= p
        assert value == master_omega(spec, n_bar) * Fraction(fact * fact)
        assert notes == ()


def test_verify_family_master_all_green():
    for spec in ROSTER:
        report = verify_family(spec, 3)
        assert report.ok, f"{spec.family} mismatched the closed forms"
        assert all(c.match for c in report.lemma_checks)


def test_verify_family_stated_flags_chebyshev1():
    report = verify_family(family_spec("chebyshev1", d=1), 2, variant="stated")
    assert not report.ok
    lv = report.levels[1]
    assert lv.omega_pipeline == [[Fraction(1, 2)]]
    assert lv.omega_closed == [[Fraction(1, 8)]]
    assert report.levels[0].ok
    assert report.levels[0].notes


def test_verify_family_stated_flags_legendre():
    report = verify_family(LEGENDRE1, 2, variant="stated")
    assert not report.ok
    assert report.levels[0].ok and report.levels[1].ok
    lv = report.levels[2]
    assert lv.omega_pipeline == [[Fraction(4, 45)]]
    assert lv.omega_closed == [[Fraction(16, 45)]]


def test_verify_family_stated_green_for_exact_specializations():
    for spec in (
        family_spec("gegenbauer", lam=["1/3"]),
        family_spec("chebyshev2", d=1),
    ):
        assert verify_family(spec, 2, variant="stated").ok


def test_verify_family_rejects_unknown_variant():
    with pytest.raises(UnsupportedParameterError):
        verify_family(HERMITE1, 1, variant="bogus")


def test_report_json_shape():
    doc = verify_family(HERMITE1, 1).to_json_dict()
    assert doc["family"] == "hermite" and doc["ok"] is True
    assert doc["levels"][1]["classes"] == [[1]]
    assert doc["levels"][1]["omega_pipeline"] == [["1/2"]]
    assert doc["creation_power_checks"]


def test_family_spec_validation():
    with pytest.raises(UnsupportedParameterError):
        family_spec("fourier", d=1)
    with pytest.raises(UnsupportedParameterError):
        family_spec("laguerre")
    with pytest.raises(UnsupportedParameterError):
        family_spec("laguerre", alpha=[-1])
    with pytest.raises(UnsupportedParameterError):
        family_spec("laguerre", alpha=[0.5])
    # before, a bare ValueError, TypeError and ZeroDivisionError
    for bad in ("x", None, "1/0"):
        with pytest.raises(UnsupportedParameterError, match=f"^bad laguerre alpha: {bad!r}$"):
            family_spec("laguerre", alpha=[bad])
    # before, a string was split into its characters and a number raised a
    # bare TypeError
    for family, params, what in (
        ("laguerre", {"alpha": "12"}, "laguerre alpha"),
        ("laguerre", {"alpha": "1/2"}, "laguerre alpha"),
        ("laguerre", {"alpha": 5}, "laguerre alpha"),
        ("jacobi", {"a": "0", "b": [0]}, "jacobi a"),
        ("jacobi", {"a": [0], "b": Fraction(1, 2)}, "jacobi b"),
        ("gegenbauer", {"lam": "1"}, "gegenbauer lambda"),
    ):
        with pytest.raises(UnsupportedParameterError, match=f"^{what} list must be a sequence"):
            family_spec(family, **params)
    with pytest.raises(UnsupportedParameterError):
        family_spec("gegenbauer", lam=["-1/2"])
    with pytest.raises(UnsupportedParameterError):
        family_spec("legendre", d=1, a=[0])
    with pytest.raises(InvalidDimensionError):
        family_spec("jacobi", a=[0], b=[0, 1])
    with pytest.raises(InvalidDimensionError):
        family_spec("jacobi", d=2, a=[0], b=[0])
    with pytest.raises(InvalidDimensionError):
        family_spec("legendre")
    # before, d=2.0 failed later with a bare TypeError and d=True meant d=1
    for family, d, params in (
        ("hermite", 2.0, {}),
        ("legendre", True, {}),
        ("laguerre", 1.0, {"alpha": [0]}),
    ):
        with pytest.raises(InvalidDimensionError, match=f"^dimension d must be an integer, got {d}$"):
            family_spec(family, d=d, **params)


def test_family_roster_is_stable():
    assert FAMILIES == (
        "hermite",
        "laguerre",
        "jacobi",
        "gegenbauer",
        "chebyshev1",
        "chebyshev2",
        "legendre",
    )
