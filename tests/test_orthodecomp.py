from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacobi_mv import _linalg
from jacobi_mv._linalg import ZERO
from jacobi_mv.cap_operators import build
from jacobi_mv.errors import (
    DimensionMismatchError,
    InsufficientMomentsError,
    InvalidIndexError,
    NotAStateError,
    UnsupportedParameterError,
)
from jacobi_mv.moments import (
    AtomicFunctional,
    MomentFunctional,
    atomic_functional,
    beta_functional,
    gamma_functional,
    gaussian_functional,
    table_functional,
)
from jacobi_mv.orthodecomp import IntegerColumn, MomentMatrix, decompose
from jacobi_mv.polyring import Polynomial, monomial_basis, monomials_of_degree

from polynomial_oracle import vector


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
    assert dec.polynomials(0) == (Polynomial.one(1),)
    assert dec.polynomials(1) == (x,)
    b2 = dec.polynomials(2)[0]
    assert b2 == x * x - Polynomial.one(1).scale(Fraction(1, 2))
    assert dec.level(1).gram == ((Fraction(1, 2),),)
    assert dec.level(2).gram == ((Fraction(1, 2),),)


def test_gamma_d1_frozen_values():
    dec = decompose(gamma_functional([0]), 1)
    x = Polynomial.variable(1, 1)
    assert dec.polynomials(1) == (x - Polynomial.one(1),)
    assert dec.level(1).gram == ((Fraction(1),),)


def test_monic_leading_terms():
    for f in _functionals():
        dec = decompose(f, 3)
        for n in range(4):
            lv = dec.level(n)
            for mono, poly in zip(lv.monomials, dec.polynomials(n)):
                top = poly.degree_slice(n)
                assert top == {mono: Fraction(1)}


def test_cross_level_orthogonality():
    for f in _functionals():
        dec = decompose(f, 3)
        for n in range(4):
            for m in range(n):
                for p in dec.polynomials(n):
                    for q in dec.polynomials(m):
                        assert f.inner_product(p, q) == 0


def test_gram_matches_inner_products():
    for f in _functionals():
        dec = decompose(f, 2)
        for n in range(3):
            lv = dec.level(n)
            for i, p in enumerate(dec.polynomials(n)):
                for j, q in enumerate(dec.polynomials(n)):
                    assert lv.gram[i][j] == f.inner_product(p, q)


TWELVE_ATOMS = [
    (0, 0), (1, 0), (0, 1), (2, 1), (-1, 2), (1, -2),
    (3, 1), (-2, -1), (Fraction(1, 2), 3), (2, Fraction(-1, 3)), (-1, -3), (3, 3),
]


def test_coordinates_reconstruct_and_components_sum():
    p = Polynomial(
        2,
        {
            (3, 0): Fraction(2),
            (1, 1): Fraction(-1, 3),
            (0, 0): Fraction(5),
            (0, 2): Fraction(1, 7),
        },
    )
    for f in (
        beta_functional([0, 0], [0, 0]),
        # twelve atoms in general position: full rank, dense columns
        atomic_functional([(x, Fraction(1, 12)) for x in TWELVE_ATOMS]),
        # four collinear atoms: every level past 0 is singular
        atomic_functional([((k, 2 * k - 1), Fraction(1, 4)) for k in range(4)]),
    ):
        dec = decompose(f, 3)
        parts = [dec.expand(n, coords) for n, coords in enumerate(dec.split(vector(dec, p)))]
        total = [sum(entries, ZERO) for entries in zip(*parts)]
        assert total == vector(dec, p)
        assert dec.polynomial(total) == p
        for n, part in enumerate(parts):
            assert not any(any(c) for m, c in enumerate(dec.split(part)) if m != n)


def test_level_columns_are_new_lists():
    # before, level_columns handed out the stored columns, so writing into
    # one changed every later split
    dec = decompose(gaussian_functional(1), 2)
    dec.level_columns(2)[0][0] = 99
    assert dec.level_columns(2) == [[Fraction(-1, 2), 0, 1]]
    assert dec.split([0, 0, 1]) == [[Fraction(1, 2)], [0], [1]]


def test_projection_idempotent_and_orthogonal():
    f = gaussian_functional(2)
    dec = decompose(f, 3)
    p = Polynomial(2, {(2, 1): Fraction(1), (1, 0): Fraction(2), (0, 0): Fraction(-1)})
    for n, coords in enumerate(dec.split(vector(dec, p))):
        pn = dec.expand(n, coords)
        parts = dec.split(pn)
        assert dec.expand(n, parts[n]) == pn
        assert not any(any(c) for m, c in enumerate(parts) if m != n)


def test_multiplication_operator_symmetry():
    # <x_j p, q> = <p, x_j q> holds for any moment functional
    f = gamma_functional([Fraction(1, 2)])
    dec = decompose(f, 2)
    p = dec.polynomials(1)[0]
    q = dec.polynomials(2)[0]
    x = Polynomial.variable(1, 1)
    assert f.inner_product(p * x, q) == f.inner_product(p, q * x)


def test_degree_overflow_raises():
    dec = decompose(gaussian_functional(1), 2)
    with pytest.raises(InvalidIndexError):
        dec.level(3)


def test_level_accessors_refuse_non_integer_levels():
    # before, level(1.0) raised a bare TypeError from list indexing
    dec = decompose(gaussian_functional(1), 2)
    for call in (dec.level, dec.level_columns):
        with pytest.raises(InvalidIndexError, match="level must be an integer"):
            call(1.0)
    with pytest.raises(InvalidIndexError, match=r"^level 3 outside computed range 0\.\.2$"):
        dec.level(3)


def test_decompose_refuses_a_non_integer_degree():
    # before, decompose(g, 1.0) raised a bare TypeError from range
    g = gaussian_functional(1)
    for bad in (1.0, "1", True):
        with pytest.raises(InvalidIndexError, match="max_degree must be an integer"):
            decompose(g, bad)
    with pytest.raises(InvalidIndexError, match=r"^max_degree must be >= 0, got -1$"):
        decompose(g, -1)


def test_level_columns_and_split_check_their_arguments():
    # before, level_columns(-1) returned [] and split([1, 2]) returned
    # [[1], [2], []]; the other two raised a bare IndexError
    dec = decompose(gaussian_functional(1), 2)
    for n in (-1, 3, 5):
        with pytest.raises(InvalidIndexError):
            dec.level_columns(n)
    for vector in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(DimensionMismatchError):
            dec.split(vector)


def test_split_and_expand_refuse_inexact_entries_and_wrong_lengths():
    # an inexact entry or a wrong count is refused, never read through
    # as_integer_ratio, padded with zeros or cut short
    dec = decompose(gaussian_functional(1), 2)
    for vector in ([0, 0, 0.1], ["0", "0", "1"], [0, 0, None]):
        with pytest.raises(UnsupportedParameterError, match="^vector entries must be int or Fraction"):
            dec.split(vector)
    assert dec.split([0, Fraction(1, 2), 1]) == [[Fraction(1, 2)], [Fraction(1, 2)], [1]]
    dec = decompose(gaussian_functional(2), 2)
    for coords in ([1], [1, 2, 3, 4], []):
        with pytest.raises(DimensionMismatchError, match=r"^coordinate count \d != level 1 size 2$"):
            dec.expand(1, coords)
    for coords in ([0.5, 0], [0, "1"]):
        with pytest.raises(UnsupportedParameterError, match="^coordinate entries must be int or Fraction"):
            dec.expand(1, coords)
    assert dec.expand(1, [1, Fraction(2)]) == [0, 1, 2, 0, 0, 0]


def test_polynomial_refuses_wrong_lengths_and_inexact_entries():
    # before, [1, 2] came back as 1 + 2*x1, [1, 2, 3, 4] was cut to its
    # first three entries, and 0.5 raised a bare TypeError from Polynomial
    dec = decompose(gaussian_functional(1), 2)
    for bad in ([1, 2], [1, 2, 3, 4], []):
        with pytest.raises(DimensionMismatchError, match=r"^vector length \d != basis size 3$"):
            dec.polynomial(bad)
    for bad in ([0.5, 0, 0], [0, "1", 0]):
        with pytest.raises(UnsupportedParameterError, match="^vector entries must be int or Fraction"):
            dec.polynomial(bad)
    assert dec.polynomial([1, 0, Fraction(1, 2)]) == Polynomial(
        1, {(0,): 1, (2,): Fraction(1, 2)}
    )


def test_rank_and_null_mask_on_atomic_measure():
    mu = atomic_functional([(("0", "0"), "1/2"), (("1", "1"), "1/2")])
    dec = decompose(mu, 2)
    assert dec.level(0).rank == 1
    assert dec.level(1).rank == 1  # gram [[1/4,1/4],[1/4,1/4]]
    assert dec.level(1).null_mask == (False, False)
    assert dec.level(2).rank == 0
    assert dec.level(2).null_mask == (True, True, True)


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


def _reference_decompose(phi, max_degree):
    """Per-monomial Gram solves with polynomial products.

    Returns the basis polynomials in graded order, or the start of the
    NotAStateError message that decompose must raise.
    """
    d = phi.d
    levels = []  # (gram, polynomials) per degree
    for n in range(max_degree + 1):
        polys = []
        for beta in monomials_of_degree(d, n):
            mono = Polynomial.monomial(d, beta)
            b = mono
            for m, (gram, lower) in enumerate(levels):
                rhs = [[phi.inner_product(q, mono)] for q in lower]
                sol = _linalg.solve_consistent(gram, rhs)
                if sol is None:
                    return f"projection of x^{tuple(beta)} onto degree {m} is inconsistent"
                for (c,), q in zip(sol, lower):
                    b = b - q.scale(c)
            polys.append(b)
        gram = [[phi.inner_product(p, q) for q in polys] for p in polys]
        report = _linalg.ldlt_psd(gram)
        if not report.psd:
            return f"degree-{n} Gram matrix has a negative direction (witness vector {report.witness})"
        levels.append((gram, polys))
    return [p for _, polys in levels for p in polys]


@st.composite
def _perturbed_atomic_tables(draw):
    d = draw(st.integers(1, 2))
    points = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=4, unique=True)
    )
    weights = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    mu = atomic_functional(
        [(pt, Fraction(w, sum(weights))) for pt, w in zip(points, weights)]
    )
    max_degree = draw(st.integers(1, 3))
    table = {beta: mu.moment(beta) for beta in monomial_basis(d, 2 * max_degree)}
    beta = draw(st.sampled_from(sorted(table)[1:]))
    table[beta] += draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
    return table_functional(d, 2 * max_degree, table), max_degree


@settings(max_examples=60, deadline=None)
@given(_perturbed_atomic_tables())
def test_decompose_matches_per_monomial_reference(case):
    phi, max_degree = case
    expected = _reference_decompose(phi, max_degree)
    if isinstance(expected, str):
        with pytest.raises(NotAStateError) as info:
            decompose(phi, max_degree)
        assert str(info.value).startswith(expected)
    else:
        basis = monomial_basis(phi.d, max_degree)
        columns = [[p.terms.get(a, 0) for a in basis[: k + 1]] for k, p in enumerate(expected)]
        dec = decompose(phi, max_degree)
        assert [col for n in range(max_degree + 1) for col in dec.level_columns(n)] == columns


class _Recording(MomentFunctional):
    """Delegates to a functional and records every multi-index fetched."""

    def __init__(self, inner):
        super().__init__(inner.d)
        self.inner = inner
        self.fetched = []

    def moment(self, beta):
        self.fetched.append(tuple(beta))
        return self.inner.moment(beta)


@pytest.mark.parametrize(
    "inner, n",
    [
        (gaussian_functional(2), 3),
        (beta_functional([Fraction(1, 2), 0], [Fraction(-1, 2), 1]), 3),
        (atomic_functional([(("0", "0"), "1/2"), (("1", "1"), "1/2")]), 3),
        (atomic_functional([((k, k * k - 1), Fraction(1, 4)) for k in range(4)]), 3),
        (atomic_functional([((0,), "1/3"), ((1,), "1/3"), ((2,), "1/3")]), 4),
    ],
)
def test_moment_matrix_fetches_each_moment_once_and_only_as_needed(inner, n):
    phi = _Recording(inner)
    dec = decompose(phi, n)
    assert max(sum(beta) for beta in phi.fetched) <= 2 * n
    build(dec)
    assert len(phi.fetched) == len(set(phi.fetched))


@pytest.mark.parametrize(
    "phi, n",
    [
        (gaussian_functional(2), 3),
        (beta_functional([Fraction(1, 2), 0], [Fraction(-1, 2), 1]), 3),
        # four collinear atoms: every level past 0 is singular
        (atomic_functional([((k, 2 * k - 1), Fraction(1, 4)) for k in range(4)]), 3),
    ],
)
def test_level_gram_is_the_full_matrix_of_pairings(phi, n):
    # decompose pairs only the upper triangle and mirrors it
    dec = decompose(phi, n)
    for m in range(n + 1):
        lv = dec.level(m)
        polys = dec.polynomials(m)
        monos = [Polynomial.monomial(phi.d, beta) for beta in lv.monomials]
        assert [list(row) for row in lv.gram] == [
            [phi.inner_product(p, x) for x in monos] for p in polys
        ]
        assert [list(row) for row in lv.gram] == [
            [phi.inner_product(p, q) for q in polys] for p in polys
        ]
    if isinstance(phi, AtomicFunctional):
        assert [dec.level(m).rank for m in range(n + 1)] == [1, 1, 1, 1]


def test_perturbed_collinear_table_keeps_its_negative_direction_text():
    mu = atomic_functional([((k, 2 * k - 1), Fraction(1, 4)) for k in range(4)])
    table = {beta: mu.moment(beta) for beta in monomial_basis(2, 4)}
    table[(3, 1)] += Fraction(1, 3)
    with pytest.raises(NotAStateError) as info:
        decompose(table_functional(2, 4, table), 2)
    assert str(info.value) == (
        "degree-2 Gram matrix has a negative direction (witness vector "
        "(Fraction(-7, 3), Fraction(1, 1), Fraction(0, 1))); the moments are "
        "not a moment sequence of a positive measure"
    )


def test_pair_skips_the_moments_at_zero_coefficients():
    g = gamma_functional([0])
    # the moments of degree 1 and 3 are missing
    table = table_functional(1, 4, {(k,): g.moment((k,)) for k in (0, 2, 4)})
    moments = MomentMatrix(table, 2)
    column = IntegerColumn.of([(-2, 1), (0, 1), (1, 1)])  # x^2 - 2
    assert column == IntegerColumn(((0, -2), (2, 1)), 1)
    assert moments.pair(column, (0,)) == g.moment((2,)) - 2
    assert moments.pair(column, (2,)) == g.moment((4,)) - 2 * g.moment((2,))
    with pytest.raises(InsufficientMomentsError):
        moments.pair(IntegerColumn.of([(0, 1), (1, 1)]), (0,))
