from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import jacobi_mv.closed_forms as closed_forms
from jacobi_mv import _linalg
from jacobi_mv.cap_operators import CAPSystem, build, verify_quantum_decomposition
from jacobi_mv.closed_forms import (
    FAMILIES,
    _norm_ratio,
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
from jacobi_mv.jacobi_sequences import compute, compute_from_functional
from jacobi_mv.moments import atomic_functional, beta_functional, gaussian_functional
from jacobi_mv.multiindex import enumerate_classes
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
        c_plus, c_zero, c_minus = _recurrence(spec.weights[0], k)
        xf = f[k] * Polynomial.variable(1, 1)
        assert all(phi.inner_product(f[k], f[m]) == 0 for m in range(k))
        assert phi.inner_product(xf, f[k]) == c_zero * sq[k]
        assert closed_form_alpha(spec, k, 1) == [[c_zero]]
        assert creation_power(spec, (k,), 1, 1)[0] == c_plus
        if k:
            assert phi.inner_product(xf, f[k - 1]) == c_minus * sq[k - 1]
        if k < 6:
            assert phi.inner_product(xf, f[k + 1]) == c_plus * sq[k + 1]
        assert mass * sq[k] == family_norm_squared(spec, (k,))
        assert mass * sq[k] * lead**2 == master_omega(spec, (k,))
        lead *= c_plus


# one-variable weights at the edges of the integer forms: a + b = -1
# (chebyshev1), a + b = 0, a = b, a parameter near -1, denominators of 7 and
# more, and pairs whose two parameters have different denominators
EDGE_WEIGHTS = (
    family_spec("chebyshev1", d=1),
    family_spec("jacobi", a=["2/7"], b=["-2/7"]),
    family_spec("jacobi", a=["3/7"], b=["3/7"]),
    family_spec("jacobi", a=["-9/10"], b=["1/2"]),
    family_spec("jacobi", a=["5/11"], b=["-9/10"]),
    family_spec("jacobi", a=["-4/7"], b=["-5/13"]),
    family_spec("gegenbauer", lam=["-3/7"]),
    family_spec("laguerre", alpha=["-9/10"]),
    family_spec("laguerre", alpha=["12/7"]),
    HERMITE1,
)
EDGE_TOP = 8


@pytest.mark.parametrize("spec", EDGE_WEIGHTS, ids=lambda spec: str(spec.weights[0]))
def test_integer_recurrence_and_norm_ratio_on_edge_weights(spec):
    # the functional's own moments are the reference, as in
    # test_recurrence_table_against_the_functional, up to k = 8
    phi = spec.functional()
    weight = spec.weights[0]
    f = [family_polynomial(spec, (k,)) for k in range(EDGE_TOP + 2)]
    sq = [phi.inner_product(p, p) for p in f]
    assert sq[0] == 1
    mass = spec.mass_factor()
    for k in range(EDGE_TOP + 1):
        c_plus, c_zero, c_minus = _recurrence(weight, k)
        xf = f[k] * Polynomial.variable(1, 1)
        assert all(phi.inner_product(f[k], f[m]) == 0 for m in range(k))
        assert phi.inner_product(xf, f[k + 1]) == c_plus * sq[k + 1]
        assert phi.inner_product(xf, f[k]) == c_zero * sq[k]
        assert c_minus == (phi.inner_product(xf, f[k - 1]) / sq[k - 1] if k else 0)
        assert creation_power(spec, (k,), 1, 1)[0] == c_plus
        assert closed_form_alpha(spec, k, 1) == [[c_zero]]
        # norm(k) / norm(0) of the unnormalized weight is the normalized norm
        assert Fraction(*_norm_ratio(weight, k)) == sq[k]
        assert family_norm_squared(spec, (k,)) == mass * sq[k]


def _explicit_norm(weight, k):
    """The Gamma norm formula of _norm_ratio's docstring, one GammaProduct
    operation at a time; at k = 0 it is the weight's mass."""
    if not weight:
        return GammaProduct.pi_power(Fraction(1, 2)) * (math.factorial(k) << k)
    if len(weight) == 1:
        return GammaProduct.gamma(k + weight[0] + 1) / math.factorial(k)
    a, b = weight
    s = a + b
    below = (
        GammaProduct.gamma(s + 2) if k == 0
        else GammaProduct.gamma(k + s + 1) * (2 * k + s + 1)
    )
    return (
        GammaProduct.two_power(s + 1) * GammaProduct.gamma(k + a + 1)
        * GammaProduct.gamma(k + b + 1) / math.factorial(k) / below
    )


@pytest.mark.parametrize("spec", EDGE_WEIGHTS, ids=lambda spec: str(spec.weights[0]))
def test_norm_factor_is_the_explicit_gamma_expression_on_edge_weights(spec):
    for k in range(EDGE_TOP + 1):
        norm = family_norm_squared(spec, (k,))
        explicit = _explicit_norm(spec.weights[0], k)
        assert norm == explicit
        assert norm.compact_str() == explicit.compact_str()


def test_verify_family_builds_one_gamma_product(monkeypatch):
    # the mass comes from the functional alone: the tables hold none, so the
    # report's mass factor is the only GammaProduct a master check builds
    built = []

    def counted(self, *args, _original=GammaProduct._set):
        built.append(self)
        _original(self, *args)

    monkeypatch.setattr(GammaProduct, "_set", counted)
    for spec in ROSTER:
        built.clear()
        report = verify_family(spec, 3)
        assert report.ok
        assert len(built) == 1 and built[0] is report.mass_factor


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


def _explicit_omega(spec, n_bar):
    """omega(n_bar) / mass from _explicit_norm: each coordinate's classical
    norm times lead^2, lead = prod_{p<k} c_plus(p) the creation factor from
    degree 0, divided by the functional's mass."""
    out = GammaProduct.from_rational(1)
    for i, (weight, k) in enumerate(zip(spec.weights, n_bar), start=1):
        lead = creation_power(spec, (0,) * spec.d, i, k)[0] if k else 1
        out = out * _explicit_norm(weight, k) * (lead * lead)
    return (out / spec.mass_factor()).rational_value()


@settings(max_examples=25, deadline=None)
@given(_random_spec(max_d=3), st.integers(0, 4))
def test_verify_table_against_the_per_class_functions(spec, max_level):
    # verify_family and master_omega read every closed form off one table
    # per weight; the explicit Gamma norms are the reference for each entry
    mass = spec.mass_factor()
    masses = math.prod(
        (_explicit_norm(w, 0) for w in spec.weights), start=GammaProduct.from_rational(1)
    )
    assert masses == mass
    report = verify_family(spec, max_level)
    for lv in report.levels:
        values = [_explicit_omega(spec, c) for c in lv.classes]
        assert [master_omega(spec, c) for c in lv.classes] == [mass * v for v in values]
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
    # one table per distinct weight (three here), each taking one _recurrence
    # call and one integer _norm_ratio per degree; no closed form is
    # evaluated per class
    spec = family_spec("jacobi", a=["1/2", 0, "-1/3"], b=["-1/2", 1, "2/5"])
    top = 5
    calls = Counter()
    for name in ("_weight_table", "_norm_ratio", "_recurrence"):
        def counted(*args, _original=getattr(closed_forms, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(closed_forms, name, counted)
    assert verify_family(spec, top, variant="master").ok
    assert calls["_weight_table"] == spec.d
    assert 0 < calls["_norm_ratio"] <= spec.d * (top + 1)
    assert 0 < calls["_recurrence"] <= spec.d * (top + 1)


# coordinates that share part of their one-variable weight, or all of it
SHARED_WEIGHTS = (
    # (family_spec keyword arguments, distinct one-variable weights)
    ({"family": "jacobi", "a": ["1/2", "1/2", 0], "b": [0, 1, "-1/3"]}, 3),
    ({"family": "jacobi", "a": [0, 1, "1/3"], "b": ["1/2", "1/2", "1/2"]}, 3),
    ({"family": "laguerre", "alpha": ["1/2", 0, "1/2"]}, 2),
    ({"family": "gegenbauer", "lam": ["1/3", 1, "1/3"]}, 2),
)


def _permuted(kwargs, order):
    return {k: v if k == "family" else [v[i] for i in order] for k, v in kwargs.items()}


def _unpermuted(index, order):
    """The index of the unpermuted spec whose entries _permuted moved here."""
    out = [0] * len(order)
    for i, o in enumerate(order):
        out[o] = index[i]
    return tuple(out)


def _diagonal_entries(matrix):
    return [row[k] for k, row in enumerate(matrix)]


@pytest.mark.parametrize("kwargs,distinct", SHARED_WEIGHTS)
def test_verify_table_is_one_per_one_variable_weight(kwargs, distinct, monkeypatch):
    # a coordinate shares its table with another only when its whole weight
    # matches; a table keyed by part of it (a alone, say) gives the wrong
    # closed forms to the coordinates that differ in the other part
    top = 3
    spec = family_spec(**kwargs)
    calls = Counter()
    for name in ("_weight_table", "_norm_ratio"):
        def counted(*args, _original=getattr(closed_forms, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(closed_forms, name, counted)
    report = verify_family(spec, top)
    monkeypatch.undo()
    assert report.ok
    # one table per distinct weight, its norm ratio once per degree
    assert calls["_weight_table"] == distinct
    assert calls["_norm_ratio"] == distinct * (top + 1)
    for lv in report.levels:
        expected = [_explicit_omega(spec, c) for c in lv.classes]
        assert _diagonal_entries(lv.omega_closed) == expected
    # coordinate i of the permuted spec is coordinate order[i] of this one
    order = (2, 0, 1)
    permuted = verify_family(family_spec(**_permuted(kwargs, order)), top)
    for lv, lv_p in zip(report.levels, permuted.levels):
        closed = dict(zip(lv.classes, _diagonal_entries(lv.omega_closed)))
        alphas = {
            a.j: dict(zip(lv.classes, _diagonal_entries(a.closed))) for a in lv.alphas
        }
        for k, c_p in enumerate(lv_p.classes):
            c = _unpermuted(c_p, order)
            assert lv_p.omega_closed[k][k] == closed[c]
            assert lv_p.omega_pipeline[k][k] == closed[c]
            for a_p in lv_p.alphas:
                assert a_p.closed[k][k] == alphas[order[a_p.j - 1] + 1][c]
    assert sorted(
        (order[c.coordinate - 1] + 1, _unpermuted(c.base, order), c.power, c.factor, c.match)
        for c in permuted.lemma_checks
    ) == sorted((c.coordinate, c.base, c.power, c.factor, c.match) for c in report.lemma_checks)


def test_symmetric_weight_norms_add_their_gamma_multiplicities():
    # a = b makes Gamma(k+a+1) and Gamma(k+b+1) one argument: its core
    # appears once, squared, and the norm is the product of the separate
    # factors
    spec = family_spec("gegenbauer", lam=["1/3"])
    a = b = Fraction(-1, 6)
    s = a + b
    for k in range(4):
        norm = family_norm_squared(spec, (k,))
        assert dict(norm.gammas)[Fraction(5, 6)] == 2
        below = (
            GammaProduct.gamma(s + 2) if k == 0
            else GammaProduct.gamma(k + s + 1) * (2 * k + s + 1)
        )
        assert norm == (
            GammaProduct.two_power(s + 1) * GammaProduct.gamma(k + a + 1)
            * GammaProduct.gamma(k + b + 1) / math.factorial(k) / below
        )


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


def test_verify_family_lemma_sees_a_corrupted_plus_block(monkeypatch):
    # a+_{1|0} off by one: every creation power from F_0 passes through it,
    # none from F_{e_1} does, and the omega/alpha comparisons never read it
    def corrupted(decomposition):
        ops = build(decomposition)
        plus = {k: _linalg.copy(v) for k, v in ops._plus.items()}
        plus[(1, 0)][0][0] += 1
        return CAPSystem(decomposition, plus, ops._zero, ops._minus)

    monkeypatch.setattr(closed_forms, "build", corrupted)
    report = verify_family(HERMITE1, 3)
    assert not report.ok
    assert all(lv.ok for lv in report.levels)
    checks = {base: [c.match for c in report.lemma_checks if c.base == base]
              for base in ((0,), (1,))}
    assert checks == {(0,): [False] * 3, (1,): [True] * 2}


JACOBI2 = family_spec("jacobi", a=[0, "1/2"], b=["1/2", "-1/3"])


def _plus_position(key, source, target):
    """(row, column) of a+_key from class source to class target, d = 2."""
    _, n = key
    return enumerate_classes(2, n + 1).classes.index(target), enumerate_classes(2, n).classes.index(source)


def _with_plus_entry(monkeypatch, key, source, target, change):
    """verify_family on a d = 2 jacobi weight with one entry of a+_key changed."""
    def corrupted(decomposition):
        ops = build(decomposition)
        plus = {k: _linalg.copy(v) for k, v in ops._plus.items()}
        row, col = _plus_position(key, source, target)
        plus[key][row][col] = change(plus[key][row][col])
        return CAPSystem(decomposition, plus, ops._zero, ops._minus)

    monkeypatch.setattr(closed_forms, "build", corrupted)
    report = verify_family(JACOBI2, 3)
    monkeypatch.undo()
    assert not report.ok
    assert all(lv.ok for lv in report.levels)
    return {(c.coordinate, c.base, c.power) for c in report.lemma_checks if not c.match}


def test_verify_family_lemma_reads_the_stored_creation_block(monkeypatch):
    # the lemma applies the stored blocks, not the monomial shift: an entry
    # off the shift set nonzero and a shift entry changed each fail exactly
    # the creation powers that pass through them, and the omega/alpha
    # comparisons never read either
    ops = build(decompose(JACOBI2.functional(), 3))
    for key, source, target, entry in (
        ((2, 1), (1, 0), (0, 2), 0),
        ((1, 2), (2, 0), (3, 0), 1),
    ):
        row, col = _plus_position(key, source, target)
        assert ops.plus_matrix(*key)[row][col] == entry
    off_shift = _with_plus_entry(
        monkeypatch, (2, 1), (1, 0), (0, 2), lambda v: v + Fraction(2, 3)
    )
    # (1, 0) + e_2 is (1, 1); a+_{2|1} reaches class (1, 0) only from F_{e_1}
    assert off_shift == {(2, (1, 0), 1), (2, (1, 0), 2)}
    shift = _with_plus_entry(monkeypatch, (1, 2), (2, 0), (3, 0), lambda v: v + 1)
    # a+_{1|2} maps class (2, 0) to (3, 0): the third power from F_0 and the
    # second from F_{e_1} pass through it
    assert shift == {(1, (0, 0), 3), (1, (1, 0), 2)}


def _dense_lemma(spec, top, ops):
    """The creation lemma checked entry by entry on dense level vectors.

    Each family polynomial is split by decomp.split, (a+_i)^m is applied
    level by level with _linalg.mat_vec on the stored plus blocks, and every
    entry is compared with factor times the split of F_{base + m e_i}.
    """
    decomp = ops.decomposition
    basis = decomp.moments.basis

    def coords(index):
        terms = family_polynomial(spec, index).terms
        return decomp.split([terms.get(beta, Fraction(0)) for beta in basis])

    checks = []
    bases = [(0,) * spec.d] + [
        tuple(int(k == i) for k in range(spec.d)) for i in range(spec.d)
    ]
    for base in bases:
        if sum(base) >= top:
            continue
        for i in range(1, spec.d + 1):
            lhs = coords(base)
            for m in range(1, top - sum(base) + 1):
                factor, result = creation_power(spec, base, i, m)
                lhs = [[Fraction(0)]] + [
                    _linalg.mat_vec(ops.plus_matrix(i, n), c) for n, c in enumerate(lhs[:-1])
                ]
                rhs = coords(result)
                match = all(
                    x == factor * y for xs, ys in zip(lhs, rhs) for x, y in zip(xs, ys)
                )
                checks.append(closed_forms.LemmaCheck(i, base, m, factor, match))
    return checks


# each ROSTER family's parameters for d = 1..3, one list entry per coordinate
ROSTER_PARAMETERS = {
    "hermite": lambda d: {"d": d},
    "laguerre": lambda d: {"alpha": ["1/2", "3/2", "-1/3"][:d]},
    "jacobi": lambda d: {"a": [0, 1, "1/2"][:d], "b": [1, 0, "-1/3"][:d]},
    "gegenbauer": lambda d: {"lam": ["1/3", 2, "3/4"][:d]},
    "chebyshev1": lambda d: {"d": d},
    "chebyshev2": lambda d: {"d": d},
    "legendre": lambda d: {"d": d},
}
LEMMA_TOP = {1: 5, 2: 3, 3: 3}


@pytest.mark.parametrize("d", sorted(LEMMA_TOP))
@pytest.mark.parametrize("family", [spec.family for spec in ROSTER])
def test_verify_family_lemma_matches_a_dense_entrywise_reference(family, d):
    # the sparse lemma (nonzero maps, columns read on demand, the union of
    # the two supports compared) gives the checks, factors and verdicts of
    # a dense one in the same order
    spec = family_spec(family, **ROSTER_PARAMETERS[family](d))
    top = LEMMA_TOP[d]
    report = verify_family(spec, top)
    expected = _dense_lemma(spec, top, build(decompose(spec.functional(), top)))
    assert expected and all(c.match for c in expected)
    assert list(report.lemma_checks) == expected


def test_verify_family_lemma_matches_the_dense_reference_on_corrupted_blocks(monkeypatch):
    # an entry off the shift set nonzero, a shift entry changed and a shift
    # entry zeroed, so that some split has a position the created vector
    # lacks: the sparse lemma fails exactly the checks the dense reference
    # fails
    ops = build(decompose(JACOBI2.functional(), 3))
    plus = {k: _linalg.copy(v) for k, v in ops._plus.items()}
    for key, source, target, change in (
        ((2, 1), (1, 0), (0, 2), lambda v: v + Fraction(2, 3)),
        ((1, 2), (2, 0), (3, 0), lambda v: v + 1),
        ((2, 0), (0, 0), (0, 1), lambda v: 0 * v),
    ):
        row, col = _plus_position(key, source, target)
        plus[key][row][col] = change(plus[key][row][col])
    corrupted = CAPSystem(ops.decomposition, plus, ops._zero, ops._minus)
    monkeypatch.setattr(closed_forms, "build", lambda decomposition: corrupted)
    report = verify_family(JACOBI2, 3)
    expected = _dense_lemma(JACOBI2, 3, corrupted)
    assert {c.match for c in expected} == {True, False}
    assert list(report.lemma_checks) == expected


def test_compare_level_flags_exactly_the_changed_entries(monkeypatch):
    # an off-diagonal omega entry and a diagonal alpha entry of the
    # pipeline changed: each comparison agrees with an entrywise one, the
    # witnesses are the matrices themselves, and the other levels stay ok
    spec = family_spec("jacobi", a=["1/2", 0], b=[0, "-1/3"])
    clean = verify_family(spec, 2)
    assert clean.ok

    def corrupted(ops, max_level):
        seq = compute(ops, max_level)
        seq._omega[2][2][0] += Fraction(1, 5)
        seq._alpha[1][1][1][1] -= 1  # alpha_{e_2|1}, its last row
        return seq

    monkeypatch.setattr(closed_forms, "compute", corrupted)
    report = verify_family(spec, 2)
    assert [lv.omega_match for lv in report.levels] == [True, True, False]
    assert [[a.match for a in lv.alphas] for lv in report.levels] == [
        [True, True], [True, False], [True, True]
    ]
    for lv, before in zip(report.levels, clean.levels):
        assert lv.omega_closed == before.omega_closed
        assert lv.omega_match == (lv.omega_pipeline == before.omega_pipeline)
        for a, b in zip(lv.alphas, before.alphas):
            assert a.match == all(
                x == y for row, ref in zip(a.pipeline, b.pipeline) for x, y in zip(row, ref)
            )
    assert report.levels[2].omega_pipeline[2][0] == Fraction(1, 5)
    assert report.levels[0] == clean.levels[0]


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


# every refusal of family_spec: (family, keyword arguments, exception, text)
FAMILY_SPEC_REFUSALS = (
    ("fourier", {"d": 1}, UnsupportedParameterError,
     "unknown family 'fourier'; choose from hermite, laguerre, jacobi, gegenbauer, "
     "chebyshev1, chebyshev2, legendre"),
    ("hermite", {"d": 2.0}, InvalidDimensionError, "dimension d must be an integer, got 2.0"),
    ("laguerre", {"d": True, "alpha": [0]}, InvalidDimensionError,
     "dimension d must be an integer, got True"),
    ("laguerre", {}, UnsupportedParameterError, "laguerre needs alpha parameters"),
    ("jacobi", {"a": [0]}, UnsupportedParameterError, "jacobi needs a and b parameters"),
    ("jacobi", {"b": [0]}, UnsupportedParameterError, "jacobi needs a and b parameters"),
    ("gegenbauer", {"d": 1}, UnsupportedParameterError, "gegenbauer needs lambda parameters"),
    ("laguerre", {"alpha": [-1]}, UnsupportedParameterError,
     "laguerre alpha must be > -1, got -1"),
    ("jacobi", {"a": [0, "-3/2"], "b": [0, 0]}, UnsupportedParameterError,
     "jacobi a must be > -1, got -3/2"),
    ("jacobi", {"a": [0], "b": [-1]}, UnsupportedParameterError,
     "jacobi b must be > -1, got -1"),
    ("gegenbauer", {"lam": ["-1/2"]}, UnsupportedParameterError,
     "gegenbauer lambda must be > -1/2, got -1/2"),
    ("laguerre", {"alpha": [0.5]}, UnsupportedParameterError,
     "laguerre alpha must be exact (int, Fraction or 'p/q' string), got float 0.5"),
    ("laguerre", {"alpha": ["x"]}, UnsupportedParameterError, "bad laguerre alpha: 'x'"),
    ("gegenbauer", {"lam": ["1/0"]}, UnsupportedParameterError,
     "bad gegenbauer lambda: '1/0'"),
    ("laguerre", {"alpha": "12"}, UnsupportedParameterError,
     "laguerre alpha list must be a sequence of exact numbers, got '12'"),
    ("jacobi", {"a": [0], "b": Fraction(1, 2)}, UnsupportedParameterError,
     "jacobi b list must be a sequence of exact numbers, got Fraction(1, 2)"),
    ("jacobi", {"a": [0], "b": [0, 1]}, InvalidDimensionError,
     "parameter lists have lengths 1 and 2"),
    ("jacobi", {"d": 2, "a": [0], "b": [0]}, InvalidDimensionError,
     "1 parameter pairs for dimension 2"),
    ("laguerre", {"d": 3, "alpha": [0, 0]}, InvalidDimensionError,
     "2 alpha parameters for dimension 3"),
    ("gegenbauer", {"d": 1, "lam": [1, 1]}, InvalidDimensionError,
     "2 lambda parameters for dimension 1"),
    ("legendre", {}, InvalidDimensionError, "legendre needs a dimension d >= 1"),
    ("hermite", {"d": 0}, InvalidDimensionError, "hermite needs a dimension d >= 1"),
    ("chebyshev1", {"a": [0]}, InvalidDimensionError, "chebyshev1 needs a dimension d >= 1"),
    ("legendre", {"d": 1, "a": [0]}, UnsupportedParameterError, "legendre takes no parameters"),
    ("hermite", {"d": 1, "lam": [1]}, UnsupportedParameterError, "hermite takes no parameters"),
    ("chebyshev2", {"d": 2, "alpha": [0, 0]}, UnsupportedParameterError,
     "chebyshev2 takes no parameters"),
    # a family's own parameters are checked before anything else it is given
    ("laguerre", {"alpha": [-1], "lam": [3]}, UnsupportedParameterError,
     "laguerre alpha must be > -1, got -1"),
    ("jacobi", {"a": [0], "b": [0, 1], "alpha": [0]}, InvalidDimensionError,
     "parameter lists have lengths 1 and 2"),
    ("gegenbauer", {"d": 2, "lam": [1], "b": [0]}, InvalidDimensionError,
     "1 lambda parameters for dimension 2"),
)


@pytest.mark.parametrize("family,kwargs,error,text", FAMILY_SPEC_REFUSALS)
def test_family_spec_refusal_texts(family, kwargs, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        family_spec(family, **kwargs)


# each family's own keyword arguments, and one value per family_spec
# parameter keyword with the option name the CLI gives it
OWN_PARAMETERS = {
    "hermite": {"d": 1},
    "laguerre": {"alpha": [0]},
    "jacobi": {"a": [0], "b": [0]},
    "gegenbauer": {"lam": [1]},
    "chebyshev1": {"d": 1},
    "chebyshev2": {"d": 1},
    "legendre": {"d": 1},
}
OPTIONS = {"a": ("a", [0]), "b": ("b", [0]), "alpha": ("alpha", [0]), "lam": ("lambda", [1])}
FOREIGN = [
    (family, keyword)
    for family, own in OWN_PARAMETERS.items()
    for keyword in OPTIONS
    if keyword not in own
]


@pytest.mark.parametrize("family,keyword", FOREIGN)
def test_a_family_refuses_another_familys_parameters(family, keyword):
    # before, laguerre, jacobi and gegenbauer dropped the other parameters
    # silently; a family without parameters keeps its own text
    name, value = OPTIONS[keyword]
    text = (
        f"{family} takes no {name} parameters" if family in ("laguerre", "jacobi", "gegenbauer")
        else f"{family} takes no parameters"
    )
    with pytest.raises(UnsupportedParameterError, match=f"^{re.escape(text)}$"):
        family_spec(family, **OWN_PARAMETERS[family], **{keyword: value})


def test_foreign_parameters_are_named_in_option_order():
    with pytest.raises(
        UnsupportedParameterError, match="^laguerre takes no a or lambda parameters$"
    ):
        family_spec("laguerre", alpha=["1/2"], lam=[3], a=[5])


# a symmetric specialization and the jacobi weight with a = b it stands for
SPECIALIZATIONS = [
    (("gegenbauer", {"lam": [lam, "2/5"]}), (Fraction(lam) - Fraction(1, 2), Fraction(-1, 10)))
    for lam in ("1/3", "1/2", "1", "3/2")
] + [
    (("chebyshev1", {"d": 2}), (Fraction(-1, 2),) * 2),
    (("chebyshev2", {"d": 2}), (Fraction(1, 2),) * 2),
    (("legendre", {"d": 2}), (Fraction(0),) * 2),
]


@pytest.mark.parametrize("symmetric,a", SPECIALIZATIONS)
def test_symmetric_families_are_their_jacobi_weights(symmetric, a):
    family, kwargs = symmetric
    spec = family_spec(family, **kwargs)
    jacobi = family_spec("jacobi", a=list(a), b=list(a))
    assert spec.weights == jacobi.weights == tuple((x, x) for x in a)
    ours, theirs = verify_family(spec, 3, "master"), verify_family(jacobi, 3, "master")
    assert ours.ok and ours.levels == theirs.levels
    assert ours.lemma_checks == theirs.lemma_checks


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
