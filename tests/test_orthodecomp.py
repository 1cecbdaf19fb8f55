from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import comb

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
from jacobi_mv.jacobi_sequences import (
    compute,
    compute_from_functional,
    detect_atoms,
    reconstruct_moment_table,
)
from jacobi_mv.moments import (
    AtomicFunctional,
    BetaFunctional,
    GaussianFunctional,
    MomentFunctional,
    TableFunctional,
    atomic_functional,
    beta_functional,
    gamma_functional,
    gaussian_functional,
    table_functional,
)
from jacobi_mv.multiindex import shift
from jacobi_mv.orthodecomp import IntegerColumn, MomentMatrix, decompose, odd_bits, pack
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
    # as_integer_ratio, padded with zeros or cut short; a 'p/q' string is
    # read as its number, as at every other entry point
    dec = decompose(gaussian_functional(1), 2)
    for vector, text in (
        ([0, 0, 0.1], "vector entry must be exact (int, Fraction or 'p/q' string), got float 0.1"),
        ([0, 0, None], "bad vector entry: None"),
        ([0, 0, "x"], "bad vector entry: 'x'"),
    ):
        with pytest.raises(UnsupportedParameterError) as info:
            dec.split(vector)
        assert str(info.value) == text
    assert dec.split(["0", "0", "1"]) == dec.split([0, 0, 1])
    assert dec.split([0, "1/2", " 1 "]) == dec.split([0, Fraction(1, 2), 1])
    assert dec.split([0, Fraction(1, 2), 1]) == [[Fraction(1, 2)], [Fraction(1, 2)], [1]]
    dec = decompose(gaussian_functional(2), 2)
    for coords in ([1], [1, 2, 3, 4], []):
        with pytest.raises(DimensionMismatchError, match=r"^coordinate count \d != level 1 size 2$"):
            dec.expand(1, coords)
    with pytest.raises(UnsupportedParameterError) as info:
        dec.expand(1, [0.5, 0])
    assert str(info.value) == (
        "coordinate must be exact (int, Fraction or 'p/q' string), got float 0.5"
    )
    assert dec.expand(1, [0, "1"]) == dec.expand(1, [0, 1])
    assert dec.expand(1, ["-2/3", "25e-2"]) == dec.expand(1, [Fraction(-2, 3), Fraction(1, 4)])
    assert dec.expand(1, [1, Fraction(2)]) == [0, 1, 2, 0, 0, 0]


def test_split_expand_and_polynomial_refuse_a_bool_as_a_float():
    # before, a bool passed as the int it subclasses: expand(1, [True])
    # returned [0, 1, 0] and split([True, False, True]) returned level
    # coordinates
    dec = decompose(gaussian_functional(1), 2)
    gate = "must be exact (int, Fraction or 'p/q' string), got bool"
    for vector, bad in (([True, False, True], True), ([0, 0, False], False)):
        for entry_point in (dec.split, dec.polynomial):
            with pytest.raises(UnsupportedParameterError) as info:
                entry_point(vector)
            assert str(info.value) == f"vector entry {gate} {bad}"
    for coords in ([True], [False]):
        with pytest.raises(UnsupportedParameterError) as info:
            dec.expand(1, coords)
        assert str(info.value) == f"coordinate {gate} {coords[0]}"
    assert dec.expand(1, [1]) == [0, 1, 0]


def test_polynomial_refuses_wrong_lengths_and_inexact_entries():
    # before, [1, 2] came back as 1 + 2*x1, [1, 2, 3, 4] was cut to its
    # first three entries, and 0.5 raised a bare TypeError from Polynomial
    dec = decompose(gaussian_functional(1), 2)
    for bad in ([1, 2], [1, 2, 3, 4], []):
        with pytest.raises(DimensionMismatchError, match=r"^vector length \d != basis size 3$"):
            dec.polynomial(bad)
    with pytest.raises(UnsupportedParameterError) as info:
        dec.polynomial([0.5, 0, 0])
    assert str(info.value) == (
        "vector entry must be exact (int, Fraction or 'p/q' string), got float 0.5"
    )
    assert dec.polynomial([0, "1", 0]) == dec.polynomial([0, 1, 0])
    assert dec.polynomial(["1", "0", "1/2"]) == dec.polynomial([1, 0, Fraction(1, 2)])
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
    assert _pair(moments, column, (0,)) == g.moment((2,)) - 2
    assert _pair(moments, column, (2,)) == g.moment((4,)) - 2 * g.moment((2,))
    # phi(x^2 - 2) = 0 when phi(1) = 1 and phi(x^2) = 2
    assert _pair(MomentMatrix(table_functional(1, 2, {(0,): 1, (2,): 2}), 2), column, (0,)) == 0
    with pytest.raises(InsufficientMomentsError, match=r"^moment \(1,\) is not in the table$"):
        _pair(moments, IntegerColumn.of([(0, 1), (1, 1)]), (0,))


def _pair(moments, column, beta):
    """phi(b x^beta) for a basis monomial beta, paired by its position."""
    a = moments.position[beta]
    return Fraction(*moments.pair_code(column, moments.codes[a], moments.parity(a), beta))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_codes_are_injective_and_additive(data):
    # a moment matrix of degree N packs in radix 2N+2, and its keys have
    # entries <= 2N+1
    d = data.draw(st.integers(1, 4))
    radix = 2 * data.draw(st.integers(0, 4)) + 2
    index = st.tuples(*[st.integers(0, radix - 1)] * d)
    a, b = data.draw(index), data.draw(index)
    assert (pack(a, radix) == pack(b, radix)) == (a == b)
    alpha = tuple(data.draw(st.integers(0, x)) for x in a)
    beta = tuple(x - y for x, y in zip(a, alpha))
    assert pack(alpha, radix) + pack(beta, radix) == pack(a, radix)


def test_moment_matrix_shifts_by_codes():
    moments = MomentMatrix(gaussian_functional(2), 2)
    index = moments.index
    assert moments.radix == 6
    # the shifts the library makes, by position: each basis monomial's code,
    # and each degree-N monomial's code plus a unit; together they are every
    # shift of degree <= N+1
    shifts = {beta: index.codes[b] for b, beta in enumerate(moments.basis)}
    for a in range(index.starts[2], index.starts[3]):
        for j, unit in enumerate(index.units):
            e_j = tuple(int(i == j) for i in range(2))
            shifts[shift(moments.basis[a], e_j)] = index.codes[a] + unit
    assert sorted(shifts) == sorted(monomial_basis(2, 3))
    for beta, code in shifts.items():
        for a, alpha in enumerate(moments.basis):
            key = tuple(x + y for x, y in zip(alpha, beta))
            assert moments.codes[a] + code == pack(key, 6)
    assert [moments.code_position[c] for c in moments.codes] == list(range(6))


_FOUR_ATOMS = [
    (("0", "1"), "1/4"), (("1", "-1"), "1/4"), (("2", "1/2"), "1/4"), (("-1/3", "2"), "1/4"),
]
_THREE_ATOMS_3D = [(("-2", "-2", "1"), "1/3"), (("-1", "1", "1"), "1/3"), (("2", "2", "2"), "1/3")]


def _table_with_holes(atoms, max_degree, holes, changes=()):
    exact = atomic_functional(atoms)
    table = {
        beta: exact.moment(beta)
        for beta in monomial_basis(exact.d, max_degree)
        if beta not in holes
    }
    for beta, delta in changes:
        table[beta] += Fraction(delta)
    return table_functional(exact.d, max_degree, table)


@pytest.mark.parametrize(
    "atoms,top,holes,changes,missing",
    [
        (_FOUR_ATOMS, 2, [(0, 2), (3, 0)], (), (0, 2)),
        (_FOUR_ATOMS, 2, [(0, 3), (1, 3), (4, 0)], (), (0, 3)),
        (_FOUR_ATOMS, 2, [(2, 2), (1, 3), (0, 4)], (), (2, 2)),
        # (0, 4, 0) moved makes a projection at level 3 inconsistent; every
        # projection of a level is paired before any is solved, so the
        # missing moment is named, not the inconsistency
        (_THREE_ATOMS_3D, 3, [(3, 0, 3), (0, 5, 0), (0, 0, 6), (0, 0, 5)],
         [((0, 4, 0), "1/4")], (0, 5, 0)),
    ],
)
def test_first_missing_moment_of_a_table_with_holes(atoms, top, holes, changes, missing):
    table = _table_with_holes(atoms, 2 * top, holes, changes)
    with pytest.raises(InsufficientMomentsError) as raised:
        decompose(table, top)
    assert str(raised.value) == f"moment {missing} is not in the table"
    if changes:
        with pytest.raises(NotAStateError, match="projection of x\\^"):
            decompose(_table_with_holes(atoms, 2 * top, [], changes), top)


@pytest.mark.parametrize(
    "holes,missed",
    [
        ([(4, 1), (1, 4), (3, 2)], [(4, 1), (4, 1)]),
        ([(2, 3), (5, 0)], [(5, 0), (2, 3)]),
    ],
)
def test_build_names_the_first_missing_top_moment_per_coordinate(holes, missed, monkeypatch):
    # the top-level pairings of each coordinate stop at their first missing
    # moment of degree 2N+1, which leaves that preservation unset
    dec = decompose(_table_with_holes(_FOUR_ATOMS, 5, holes), 2)
    names = []
    moment = TableFunctional.moment

    def recorded(self, beta):
        try:
            return moment(self, beta)
        except InsufficientMomentsError as exc:
            names.append(str(exc))
            raise

    monkeypatch.setattr(TableFunctional, "moment", recorded)
    ops = build(dec)
    monkeypatch.undo()
    assert names == [f"moment {beta} is not in the table" for beta in missed]
    for j in (1, 2):
        with pytest.raises(InsufficientMomentsError, match="preservation at top level 2"):
            ops.zero_matrix(j, 2)


_MIXED = ([0, Fraction(1, 2), Fraction(-1, 2)], [0, Fraction(1, 3), Fraction(-1, 2)])


class _Unmasked(BetaFunctional):
    """The same weight, with its reflection mask forced to 0: no pairing is
    skipped."""

    def reflection_mask(self) -> int:
        return 0


class _CountingGaussian(GaussianFunctional):
    """Overrides moment and states no mask, so its mask is 0."""

    def __init__(self, d):
        super().__init__(d)
        self.fetched = []

    def moment(self, beta):
        self.fetched.append(tuple(beta))
        return super().moment(beta)


class _TrustedCountingGaussian(_CountingGaussian):
    """States the gaussian mask itself, so it is trusted."""

    def reflection_mask(self):
        return GaussianFunctional.reflection_mask(self)


class _ShiftedGaussian(GaussianFunctional):
    """The gaussian weight moved to center (1/2, -1, ...): no longer even in
    any coordinate, though it inherits from the even weight."""

    def moment(self, beta):
        center = (Fraction(1, 2), Fraction(-1))
        total = Fraction(1)
        for j, k in enumerate(beta):
            c = center[j % 2]
            # E[(X + c)^k] = sum_i C(k, i) c^(k-i) E[X^i]
            unit = tuple(int(i == j) for i in range(self.d))
            total *= sum(
                comb(k, i) * c ** (k - i) * super(_ShiftedGaussian, self).moment(
                    tuple(i * u for u in unit)
                )
                for i in range(k + 1)
            )
        return total


def test_reflection_masks_come_from_the_parameters():
    assert gaussian_functional(3).reflection_mask() == 0b111
    # a_j == b_j on the first and the third coordinate only
    assert beta_functional(*_MIXED).reflection_mask() == 0b101
    assert beta_functional([Fraction(1, 2)], [Fraction(2, 4)]).reflection_mask() == 1
    assert beta_functional([0, 1], [1, 0]).reflection_mask() == 0
    assert gamma_functional([0, 1]).reflection_mask() == 0
    # a symmetric atom set or table has no mask: only parameters give one
    atoms = atomic_functional([((1,), "1/2"), ((-1,), "1/2")])
    assert atoms.reflection_mask() == 0
    assert all(f.parity is None for f in decompose(atoms, 2).forms)
    assert table_functional(1, 2, {(0,): 1, (1,): 0, (2,): 1}).reflection_mask() == 0


_FIVE_ATOMS = atomic_functional([
    (("0", "1"), "1/5"), (("1", "-1"), "1/5"), (("2", "1/2"), "1/5"),
    (("-1/3", "2"), "1/5"), (("3", "3"), "1/5"),
])


@pytest.mark.parametrize(
    "phi, n",
    [
        (gaussian_functional(2), 4),
        (gaussian_functional(3), 3),
        (beta_functional(*_MIXED), 3),
        (beta_functional([Fraction(1, 2)], [Fraction(1, 2)]), 6),
        (_FIVE_ATOMS, 3),
        (table_functional(2, 7, {b: _FIVE_ATOMS.moment(b) for b in monomial_basis(2, 7)}), 3),
    ],
    ids=["gaussian-d2", "gaussian-d3", "mixed-beta-d3", "gegenbauer-d1", "atoms-d2", "atom-table-d2"],
)
def test_pair_ratio_with_the_parity_skip_is_the_full_sum(phi, n):
    dec = decompose(phi, n)
    moments, index, mask = dec.moments, dec.moments.index, dec.moments.mask
    # the kernel's shifts as the library addresses them: every basis
    # monomial by its position, and every top-level beta_k + e_j by the code
    # codes[a_k] + units[j] and the parity parities[a_k] ^ (1 << j)
    shifts = [(index.codes[b], moments.parity(b), beta) for b, beta in enumerate(index.basis)]
    for a in range(index.starts[n], index.starts[n + 1]):
        for j in range(phi.d):
            beta = shift(index.basis[a], tuple(int(i == j) for i in range(phi.d)))
            parity = (index.parities[a] ^ 1 << j) & mask if mask else None
            shifts.append((index.codes[a] + index.units[j], parity, beta))
    skipped = 0
    for form in dec.forms:
        # the parity of the leading monomial, the column's own position
        assert form.parity == moments.parity(form.terms[-1][0])
        bare = IntegerColumn(form.terms, form.denominator)  # no parity: no skip
        assert bare == form
        for code, parity, beta in shifts:
            assert code == pack(beta, moments.radix)
            assert parity == (odd_bits(beta) & mask if mask else None)
            full = sum(
                (Fraction(c, form.denominator) * phi.moment(shift(moments.basis[a], beta))
                 for a, c in form.terms),
                ZERO,
            )
            got = moments.pair_code(form, code, parity, beta)
            assert Fraction(*got) == Fraction(*moments.pair_code(bare, code, parity, beta)) == full
            if form.parity is not None and form.parity != parity:
                assert got == (0, 1)
                skipped += 1
    assert bool(skipped) == bool(mask)


def test_a_mixed_symmetry_beta_weight_gives_the_same_outputs_with_its_mask_and_without():
    masked, unmasked = beta_functional(*_MIXED), _Unmasked(*_MIXED)
    assert (masked.reflection_mask(), unmasked.reflection_mask()) == (0b101, 0)
    dec, ref = decompose(masked, 4), decompose(unmasked, 4)
    assert dec.levels == ref.levels
    assert [(f.terms, f.denominator) for f in dec.forms] == [
        (f.terms, f.denominator) for f in ref.forms
    ]
    assert dec.gram_rows == ref.gram_rows
    ops, ref_ops = build(dec), build(ref)
    assert (ops._plus, ops._zero, ops._minus) == (ref_ops._plus, ref_ops._zero, ref_ops._minus)
    seq, ref_seq = compute(ops, 4), compute(ref_ops, 4)
    assert (seq._omega, seq._alpha) == (ref_seq._omega, ref_seq._alpha)
    # the mask skips every pairing whose moments are odd in x_1 or x_3
    assert len(dec.moments._moments) < len(ref.moments._moments)
    radix = dec.moments.radix
    keys = [tuple(code // radix**i % radix for i in range(3)) for code in dec.moments._moments]
    assert all(odd_bits(beta) & 0b101 == 0 for beta in keys)


def test_hermite_fetches_only_moments_with_all_exponents_even():
    phi = _TrustedCountingGaussian(3)
    compute(build(decompose(phi, 3)), 3)
    assert all(b % 2 == 0 for beta in phi.fetched for b in beta)
    # the 20 even multi-indices of degree <= 6, each fetched once
    assert len(phi.fetched) == 20
    assert sorted(phi.fetched) == sorted(
        beta for beta in monomial_basis(3, 7) if all(b % 2 == 0 for b in beta)
    )
    # overriding moment without stating a mask drops it: the same pipeline
    # fetches all 120 multi-indices of degree <= 7, odd ones included
    unstated = _CountingGaussian(3)
    assert (phi.reflection_mask(), unstated.reflection_mask()) == (0b111, 0)
    compute(build(decompose(unstated, 3)), 3)
    assert sorted(unstated.fetched) == sorted(monomial_basis(3, 7))


def test_overriding_the_moments_of_an_even_weight_drops_its_mask():
    # a subclass of the gaussian weight whose moments are not even: with the
    # inherited mask, decompose would skip nonzero pairings and return
    # wrong bases without an error
    phi = _ShiftedGaussian(2)
    assert phi.reflection_mask() == 0
    assert phi.moment((1, 0)) == Fraction(1, 2) and phi.moment((0, 1)) == -1
    table = table_functional(2, 6, {beta: phi.moment(beta) for beta in monomial_basis(2, 6)})
    dec, ref = decompose(phi, 3), decompose(table, 3)
    assert [lv.gram for lv in dec.levels] == [lv.gram for lv in ref.levels]
    assert all(f.parity is None for f in dec.forms)
    # a subclass that states a mask of its own is trusted
    assert _Unmasked(*_MIXED).reflection_mask() == 0
    assert _TrustedCountingGaussian(2).reflection_mask() == 0b11



# ------------------------------------------------------------ null directions


def _table_twin(phi, max_degree):
    """The moment table of phi to this degree: the same moments, not positive."""
    return table_functional(phi.d, max_degree, {b: phi.moment(b) for b in monomial_basis(phi.d, max_degree)})


class _EditedAtoms(AtomicFunctional):
    """Two atoms with the moment (2, 0) moved from 1/2 to 1/4: Omega_1 is
    then [[0, 1/4], [1/4, 1/4]], which has a negative direction."""

    def moment(self, beta):
        return Fraction(1, 4) if tuple(beta) == (2, 0) else super().moment(beta)


class _TrustedEditedAtoms(_EditedAtoms):
    """States positivity itself, so it is trusted, wrongly here."""

    def positive(self):
        return True


def test_positive_is_declared_by_atom_sets_only():
    two = [(("0", "0"), "1/2"), (("1", "1"), "1/2")]
    assert atomic_functional(two).positive()
    assert not MomentFunctional(2).positive()
    assert not _table_twin(atomic_functional(two), 2).positive()
    assert [phi.positive() for phi in _functionals()] == [False] * 5 + [True]
    # new moments drop the inherited declaration, as they drop the mask: the
    # edited moments are no positive functional's, and decompose says so
    # as it does for their table
    edited = _EditedAtoms(two)
    assert not edited.positive()
    with pytest.raises(NotAStateError) as table_error:
        decompose(_table_twin(edited, 2), 1)
    with pytest.raises(NotAStateError, match=f"^{re.escape(str(table_error.value))}$"):
        decompose(edited, 1)
    # a subclass that declares positivity itself is trusted: the null x
    # direction then skips its nonzero pairing with y, and the negative
    # direction goes unseen
    trusted = _TrustedEditedAtoms(two)
    assert trusted.positive()
    assert decompose(trusted, 1).level(1).gram == ((0, 0), (0, Fraction(1, 4)))


_COORDINATE = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _degenerate_atom_sets(draw):
    """Rational atoms in R^d, d = 1..3: in general position, on a line, on a
    plane, or with repeated coordinates; repeated points merge."""
    d = draw(st.integers(1, 3))
    count = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(("general", "collinear", "coplanar", "repeated")))
    point = st.tuples(*[_COORDINATE] * d)
    if shape in ("collinear", "coplanar"):
        base, *directions = draw(st.lists(point, min_size=3, max_size=3))
        directions = directions[: 1 if shape == "collinear" else 2]
        steps = st.tuples(*[st.integers(-3, 3)] * len(directions))
        points = [
            tuple(b + sum(t * v[i] for t, v in zip(ts, directions)) for i, b in enumerate(base))
            for ts in draw(st.lists(steps, min_size=count, max_size=count))
        ]
    elif shape == "repeated":
        values = draw(st.lists(_COORDINATE, min_size=1, max_size=2))
        points = draw(st.lists(st.tuples(*[st.sampled_from(values)] * d), min_size=count, max_size=count))
    else:
        points = draw(st.lists(point, min_size=count, max_size=count))
    mass = {}
    for p in points:
        mass[p] = mass.get(p, 0) + draw(st.integers(1, 3))
    total = sum(mass.values())
    return atomic_functional([(p, Fraction(w, total)) for p, w in mass.items()]), draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(_degenerate_atom_sets())
def test_an_atom_set_gives_what_its_moment_table_gives(case):
    # the atom set skips every pairing with a null basis vector, the table
    # of its moments sums them all: every output must be the same
    phi, top = case
    table = _table_twin(phi, 2 * top + 1)
    dec, ref = decompose(phi, top), decompose(table, top)
    assert dec.levels == ref.levels
    assert [(f.terms, f.denominator) for f in dec.forms] == [
        (f.terms, f.denominator) for f in ref.forms
    ]
    assert dec.gram_rows == ref.gram_rows
    ops, ref_ops = build(dec), build(ref)
    assert (ops._plus, ops._zero, ops._minus) == (ref_ops._plus, ref_ops._zero, ref_ops._minus)
    seq, ref_seq = compute_from_functional(phi, top), compute_from_functional(table, top)
    assert (seq._omega, seq._alpha) == (ref_seq._omega, ref_seq._alpha)
    assert detect_atoms(phi, top) == detect_atoms(table, top)
    assert reconstruct_moment_table(seq, top) == reconstruct_moment_table(ref_seq, top)


@settings(max_examples=100, deadline=None)
@given(_degenerate_atom_sets(), st.integers(0, 5))
def test_an_atom_set_decomposes_as_its_moment_table(case, top):
    # the atom set pairs only the pivots of each lower level and no column
    # with a null parent; the table of its moments is not positive, so it
    # offers every column and pairs every diagonal: the same levels
    # (monomials, Grams, ranks, null masks), columns and integer Gram rows,
    # past the first vanishing level too
    phi, _ = case
    table = _table_twin(phi, 2 * top)
    assert phi.positive() and not table.positive()
    dec, ref = decompose(phi, top), decompose(table, top)
    assert dec.levels == ref.levels
    assert [(f.terms, f.denominator) for f in dec.forms] == [
        (f.terms, f.denominator) for f in ref.forms
    ]
    assert dec.gram_rows == ref.gram_rows


_COPLANAR = [
    (("-2", "1", "-3"), "1/4"), (("-1/2", "-2", "9/2"), "1/4"),
    (("0", "3/2", "-2"), "1/4"), (("1/3", "0", "4/3"), "1/4"),
]


def _null_pairings(phi, top, monkeypatch):
    """(calls, off, null): the pair_code calls of decompose and build, those
    that pair a null basis vector with anything but its own leading monomial,
    and the null basis vectors, by id, with their multi-indices."""
    calls = []
    pair_code = MomentMatrix.pair_code

    def record(self, column, shift, parity, beta):
        calls.append((column, shift, self.codes[column.terms[-1][0]]))
        return pair_code(self, column, shift, parity, beta)

    with monkeypatch.context() as patch:
        patch.setattr(MomentMatrix, "pair_code", record)
        dec = decompose(phi, top)
        build(dec)
    null = {
        id(f): beta for n in range(top + 1)
        for f, beta, is_null in zip(dec.level_forms(n), dec.level(n).monomials, dec.level(n).null_mask)
        if is_null
    }
    off = [c for c, shift, own in calls if id(c) in null and shift != own]
    return calls, off, null


def test_no_pairing_of_an_atom_set_reads_a_null_column_beyond_its_diagonal(monkeypatch):
    # four coplanar atoms in R^3 at level 4, n0 = 3: every column of levels
    # 3 and 4 is null.  The null polynomials form an ideal, so a column with
    # a null parent b_(beta - e_j) is known null and never paired; any other
    # null column is paired once, with its own leading monomial, which finds
    # it null
    phi = atomic_functional(_COPLANAR)
    calls, off, null = _null_pairings(phi, 4, monkeypatch)
    assert len(null) == 10 + 15
    assert off == []
    inherited = {
        key for key, beta in null.items()
        if any(b and beta[:j] + (b - 1,) + beta[j + 1:] in null.values() for j, b in enumerate(beta))
    }
    assert sorted(sum(null[key]) for key in inherited) == [4] * 15
    paired = Counter(id(c) for c, _, _ in calls if id(c) in null)
    assert paired == {key: 1 for key in null if key not in inherited}
    # the projections pair only each lower level's pivots: 330 calls when
    # every live column was paired and every null diagonal read
    assert len(calls) == 159
    # the table of the same moments is not positive: it pairs them all
    table_calls, table_off, _ = _null_pairings(_table_twin(phi, 9), 4, monkeypatch)
    assert table_off and len(calls) < len(table_calls)
