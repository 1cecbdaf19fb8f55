from __future__ import annotations

from fractions import Fraction
from operator import add

import pytest

from jacobi_mv import _linalg
from jacobi_mv.cap_operators import (
    CAPSystem,
    _top_pairings,
    build,
    verify_adjoints,
    verify_quantum_decomposition,
)
from jacobi_mv.errors import (
    InsufficientMomentsError,
    InternalConsistencyError,
    InvalidIndexError,
    NotAStateError,
)
from jacobi_mv.moments import (
    atomic_functional,
    beta_functional,
    functional_from_json,
    gamma_functional,
    gaussian_functional,
    table_functional,
)
from jacobi_mv.jacobi_sequences import compute, reconstruct_moment_table
from jacobi_mv.multiindex import enumerate_classes
from jacobi_mv.orthodecomp import MomentMatrix, decompose
from jacobi_mv.polyring import Polynomial, monomial_basis

from golden.regen import MEASURES
from polynomial_oracle import apply, top_pairings


def _functionals():
    return [
        gaussian_functional(2),
        gamma_functional([0, Fraction(1, 2)]),
        beta_functional([0], [0]),
        beta_functional([Fraction(1, 2)], [Fraction(-1, 2)]),
        atomic_functional([(("0", "0"), "1/2"), (("1", "1"), "1/2")]),
    ]


def test_creation_is_the_occupation_shift_in_the_monic_basis():
    # x_j x^nbar = x^(nbar+e_j) + lower terms and the bases are monic,
    # so plus matrices are 0/1 shift matrices for every functional
    for f in _functionals():
        ops = build(decompose(f, 3))
        d = f.d
        for j in range(1, d + 1):
            for n in range(3):
                src = enumerate_classes(d, n)
                dst = enumerate_classes(d, n + 1)
                plus = ops.plus_matrix(j, n)
                for col, n_bar in enumerate(src.classes):
                    target = tuple(c + (i == j - 1) for i, c in enumerate(n_bar))
                    for row in range(len(dst)):
                        expected = Fraction(1) if row == dst.index(target) else Fraction(0)
                        assert plus[row][col] == expected


def test_gamma_frozen_blocks():
    ops = build(decompose(gamma_functional([0]), 2))
    assert ops.zero_matrix(1, 0) == [[Fraction(1)]]  # alpha_0 = m_1 = 1
    assert ops.zero_matrix(1, 1) == [[Fraction(3)]]  # 2n + alpha + 1 at n=1
    assert ops.minus_matrix(1, 1) == [[Fraction(1)]]
    assert ops.minus_matrix(1, 0) == []


def test_gaussian_frozen_blocks():
    ops = build(decompose(gaussian_functional(1), 2))
    assert ops.zero_matrix(1, 0) == [[Fraction(0)]]
    assert ops.minus_matrix(1, 1) == [[Fraction(1, 2)]]  # x*x = b_2 + 1/2


def test_polynomial_forms_reassemble_multiplication():
    f = beta_functional([0, 1], [1, 0])
    dec = decompose(f, 3)
    ops = build(dec)
    for n in range(3):
        for b in dec.polynomials(n):
            for j in (1, 2):
                total = apply(ops, j, b, 1) + apply(ops, j, b, 0) + apply(ops, j, b, -1)
                assert total == b * Polynomial.variable(2, j)


def test_quantum_decomposition_report_ok():
    for f in _functionals():
        report = verify_quantum_decomposition(build(decompose(f, 3)))
        assert report.ok
        assert report.witnesses() == ()


def test_quantum_decomposition_detects_corruption():
    f = gaussian_functional(1)
    ops = build(decompose(f, 2))
    plus = {k: _linalg.copy(v) for k, v in ops._plus.items()}
    plus[(1, 0)][0][0] += 1  # corrupt a+_{1|0}
    bad = CAPSystem(ops.decomposition, plus, ops._zero, ops._minus)
    report = verify_quantum_decomposition(bad)
    assert not report.ok
    witnesses = report.witnesses()
    assert witnesses and witnesses[0].n == 0


LINE_ATOMS = [(("0",), "1/3"), (("1",), "1/3"), (("2",), "1/3")]


def _reference_quantum_decomposition(system):
    # the check by polynomial products: x_j b against the three operator
    # images, and phi(r * r) for the residual r
    decomp = system.decomposition
    phi = decomp.functional
    entries = []
    for n in range(decomp.max_degree):
        basis = decomp.polynomials(n)
        for j in range(1, system.d + 1):
            x_j = Polynomial.variable(system.d, j)
            for k, b in enumerate(basis):
                model = (
                    apply(system, j, b, 1) + apply(system, j, b, 0) + apply(system, j, b, -1)
                )
                residual = b * x_j - model
                entries.append((j, n, k, residual, phi.inner_product(residual, residual)))
    return entries


def _tampered(ops, block, key, amount):
    blocks = {"plus": ops._plus, "zero": ops._zero, "minus": ops._minus}
    changed = {k: _linalg.copy(v) for k, v in blocks[block].items()}
    changed[key][0][0] += amount
    blocks[block] = changed
    return CAPSystem(ops.decomposition, blocks["plus"], blocks["zero"], blocks["minus"])


def test_quantum_decomposition_matches_the_polynomial_reference():
    cases = [
        (gaussian_functional(2), 4),
        (gaussian_functional(3), 3),
        (beta_functional([0, 1], [1, 0]), 3),
        (gamma_functional([0, Fraction(1, 2)]), 3),
        (atomic_functional([(("0", "0"), "1/2"), (("1", "1"), "1/2")]), 3),
        (atomic_functional(LINE_ATOMS), 4),
    ]
    systems = [build(decompose(f, top)) for f, top in cases]
    for system in systems:
        report = verify_quantum_decomposition(system)
        assert report.ok and report.verdict == "exact" and report.null_witnesses() == ()
    # one entry of each block off by 1/3: residuals that are neither zero
    # nor null
    gaussian = build(decompose(gaussian_functional(2), 3))
    tampered = []
    for key in ((1, 0), (2, 1), (1, 2)):
        for block in ("plus", "zero", "minus"):
            if key[1] or block != "minus":  # a-_{j|0} is empty
                tampered.append(_tampered(gaussian, block, key, Fraction(1, 3)))
    assert len(tampered) == 8
    for system in tampered:
        report = verify_quantum_decomposition(system)
        assert not report.ok and report.verdict == "failed"
        assert any(not e.null for e in report.witnesses())
    # level 3 of three atoms on a line is null: a residual b_3 is not zero
    # but has norm zero
    line = _tampered(build(decompose(atomic_functional(LINE_ATOMS), 4)), "zero", (1, 3), 1)
    report = verify_quantum_decomposition(line)
    assert not report.ok and report.verdict == "null"
    assert report.witnesses() and all(e.null for e in report.witnesses())
    assert report.null_witnesses() == report.witnesses()
    for system in systems + tampered + [line]:
        report = verify_quantum_decomposition(system)
        got = [(e.j, e.n, e.index, e.residual, e.residual_norm_sq) for e in report.entries]
        expected = _reference_quantum_decomposition(system)
        assert got == expected
        assert report.ok == all(r.is_zero() for *_, r, _ in expected)
        assert [e for e in report.entries if not e.exact] == list(report.witnesses())
        assert [e for e in report.witnesses() if e.null] == list(report.null_witnesses())
        for e, (*_, r, norm_sq) in zip(report.entries, expected):
            assert e.exact == r.is_zero() and e.null == (norm_sq == 0)


def test_adjoint_identities_hold():
    for f in _functionals():
        dec = decompose(f, 3)
        ops = build(dec)
        assert verify_adjoints(ops).ok
        for j in range(1, f.d + 1):
            for n in range(3):
                gram_up = dec.level(n + 1).gram_matrix()
                gram_here = dec.level(n).gram_matrix()
                lhs = _linalg.mat_mul(gram_up, ops.plus_matrix(j, n))
                rhs = _linalg.mat_mul(
                    _linalg.transpose(ops.minus_matrix(j, n + 1)), gram_here
                )
                assert lhs == rhs


def test_adjoint_check_detects_corruption():
    f = gaussian_functional(2)
    ops = build(decompose(f, 2))
    assert verify_adjoints(ops).failures == ()

    def tampered(blocks, key, i, k):
        out = {b: (None if v is None else _linalg.copy(v)) for b, v in blocks.items()}
        out[key][i][k] += Fraction(1, 3)
        return out

    # Gram-weighted symmetry broken
    bad = CAPSystem(ops.decomposition, ops._plus, tampered(ops._zero, (1, 1), 0, 1), ops._minus)
    report = verify_adjoints(bad)
    assert not report.ok
    assert report.failures == ("preservation not self-adjoint at level 1, coordinate 1",)
    # x_1 * 1 given a component on b_(0,1): the adjoint pair of a+_{1|0}
    # fails, and so does its commutation with a+_2
    bad = CAPSystem(ops.decomposition, tampered(ops._plus, (1, 0), 1, 0), ops._zero, ops._minus)
    assert verify_adjoints(bad).failures == (
        "creation/annihilation adjoint pair fails at level 0, coordinate 1",
        "creation operators 1 and 2 fail to commute out of level 0",
    )
    bad = CAPSystem(ops.decomposition, ops._plus, ops._zero, tampered(ops._minus, (2, 1), 0, 0))
    assert verify_adjoints(bad).failures == (
        "creation/annihilation adjoint pair fails at level 0, coordinate 2",
    )


def test_creation_commutativity():
    f = gamma_functional([0, Fraction(3, 2), Fraction(1, 2)])
    ops = build(decompose(f, 3))
    for j in range(1, 4):
        for k in range(1, 4):
            for n in range(2):
                left = _linalg.mat_mul(ops.plus_matrix(j, n + 1), ops.plus_matrix(k, n))
                right = _linalg.mat_mul(ops.plus_matrix(k, n + 1), ops.plus_matrix(j, n))
                assert left == right


def test_top_level_preservation_needs_extra_degree():
    # table carries exactly the degrees the decomposition needs (2N), so
    # the top-level preservation block, which needs 2N+1, is unavailable
    g = gamma_functional([0])
    table = {}
    for k in range(5):
        table[(k,)] = g.moment((k,))
    f = table_functional(1, 4, table)
    ops = build(decompose(f, 2))
    with pytest.raises(InsufficientMomentsError):
        ops.zero_matrix(1, 2)
    # everything below the top level is unaffected
    assert ops.zero_matrix(1, 1) == [[Fraction(3)]]
    assert ops.minus_matrix(1, 2) is not None


def _top_level_cases():
    # dense, full-rank levels up to the top
    twelve = decompose(functional_from_json(MEASURES["twelve_atoms"]), 3)
    return [
        decompose(gaussian_functional(2), 3),
        decompose(gamma_functional([0, Fraction(1, 2)]), 3),
        decompose(beta_functional([0, Fraction(1, 2)], [Fraction(-1, 2), 1]), 3),
        decompose(atomic_functional([(("0", "0"), "1/3"), (("1", "0"), "1/3"), (("0", "2"), "1/3")]), 2),
        twelve,
    ]


def test_top_level_preservation_solves_the_pairing_system():
    # a0_{j|N} solves G_N Z = [<b_i, x_j b_k>], the pairings formed here by
    # polynomial products
    for dec in _top_level_cases():
        top = dec.max_degree
        lv = dec.level(top)
        ops = build(dec)
        for j in range(1, dec.d + 1):
            expected = _linalg.solve_consistent(lv.gram_matrix(), top_pairings(dec, j))
            assert ops.zero_matrix(j, top) == expected


# atomic functionals past their first vanishing level n0: (atoms, N)
PAST_N0 = (
    # three atoms on a line, n0 = 3
    ([(("0",), "1/3"), (("1",), "1/3"), (("2",), "1/3")], 6),
    # four collinear atoms in R^2, n0 = 4
    ([((str(1 + x), str(Fraction(-1, 2) + 2 * x)), "1/4") for x in range(4)], 4),
    # the README's two atoms, n0 = 2
    ([(("0", "0"), "1/2"), (("1", "1"), "1/2")], 5),
)


@pytest.mark.parametrize("atoms,top", PAST_N0)
def test_build_past_n0_drops_null_components(atoms, top):
    # past n0, x_j b keeps components outside the band that lie in the null
    # space (the null polynomials form an ideal); before, build raised here
    functional = atomic_functional(atoms)
    decomp = decompose(functional, top)
    ops = build(decomp)
    assert verify_adjoints(ops).ok
    report = verify_quantum_decomposition(ops)
    assert report.entries and all(e.null for e in report.entries)
    seq = compute(ops, top)
    moments = reconstruct_moment_table(seq, top)
    assert moments == {beta: functional.moment(beta) for beta in moments}
    assert sum(decomp.level(n).rank for n in range(top + 1)) == len(atoms)


def test_out_of_band_component_must_be_null():
    # a tampered split that adds a level-0 component of norm 1 to x b_2:
    # outside the band and not null, so build refuses it.  The gaussian
    # weight builds from its recurrence with no split, so its moment table
    # to degree 7 is tampered
    hermite = gaussian_functional(1)
    decomp = decompose(table_functional(1, 7, {b: hermite.moment(b) for b in monomial_basis(1, 7)}), 3)
    split = decomp.split_ratios

    def tampered(nums, dens):
        coords = split(nums, dens)
        if coords[3] == [Fraction(1)]:  # x * b_2 = b_3 + b_1
            coords[0] = [Fraction(1)]
        return coords

    decomp.split_ratios = tampered
    with pytest.raises(
        InternalConsistencyError,
        match=r"^x_1 \* \(basis vector 0 of degree 2\) has a component at degree 0 "
        "that is not null",
    ):
        build(decomp)
    # a stray component in the null space is dropped: one atom at 1 has b_1
    # = x - 1 null, and x b_3 = b_4 + b_1
    ops = build(decompose(atomic_functional([(("1",), "1")]), 4))
    assert ops.plus_matrix(1, 3) == [[Fraction(1)]]
    assert ops.minus_matrix(1, 3) == [[Fraction(0)]]


def test_quantum_decomposition_verdict_past_n0():
    # the README's two atoms at N = 5, past n0 = 2: ok asks every residual
    # to be zero, but the null polynomials form an ideal, so null residuals
    # are what a correct system leaves there
    two = atomic_functional(PAST_N0[2][0])
    report = verify_quantum_decomposition(build(decompose(two, 5)))
    assert len(report.entries) == 30 and all(e.null for e in report.entries)
    assert len(report.witnesses()) == 10
    assert not report.ok and report.verdict == "null"
    assert report.null_witnesses() == report.witnesses()
    # below n0 + 1 every residual is zero
    report = verify_quantum_decomposition(build(decompose(two, 2)))
    assert report.ok and report.verdict == "exact" and report.null_witnesses() == ()


def _jacobi_d3():
    # the jacobi weight of the classical benchmark's big job
    half, third = Fraction(1, 2), Fraction(1, 3)
    return beta_functional([0, half, -half], [half, 1, third])


def _twelve_atom_table(max_degree):
    # the twelve atoms in general position: full-rank, dense levels up to 3
    twelve = functional_from_json(MEASURES["twelve_atoms"])
    return table_functional(
        2, max_degree, {b: twelve.moment(b) for b in monomial_basis(2, max_degree)}
    )


# product weights, atomic functionals past n0 and a moment table of degree
# 2N+1: (functional, N).  The product weights have diagonal top pairings, the
# atoms past n0 zero ones; the table's are dense.
SHIFT_CASES = [
    pytest.param(gaussian_functional(2), 4, id="gaussian-d2"),
    pytest.param(_jacobi_d3(), 3, id="jacobi-d3"),
    pytest.param(atomic_functional(PAST_N0[2][0]), 5, id="two-atoms"),
    pytest.param(atomic_functional(PAST_N0[1][0]), 4, id="collinear-atoms"),
    pytest.param(_twelve_atom_table(7), 3, id="table"),
]


def _unit(d, j):
    return tuple(int(i == j - 1) for i in range(d))


def _fractions(ratios):
    """A matrix of integer ratios as Fractions."""
    return [[Fraction(*r) for r in row] for row in ratios]


@pytest.mark.parametrize("functional,top", SHIFT_CASES)
def test_creation_is_the_shift_the_top_annihilation_selects(functional, top):
    # every plus_{j|n} is the 0/1 matrix sending class k to the position of
    # beta_k + e_j, so build takes plus_{j|N-1}^T G_N as rows of G_N; the
    # product formed here must give the same annihilation block
    dec = decompose(functional, top)
    ops = build(dec)
    for j in range(1, dec.d + 1):
        for n in range(top):
            src, dst = dec.level(n).monomials, dec.level(n + 1).monomials
            targets = [dst.index(tuple(map(add, beta, _unit(dec.d, j)))) for beta in src]
            expected = [[Fraction(int(row == t)) for t in targets] for row in range(len(dst))]
            assert ops.plus_matrix(j, n) == expected
        rhs = _linalg.mat_mul(
            _linalg.transpose(ops.plus_matrix(j, top - 1)), dec.level(top).gram_matrix()
        )
        expected = _linalg.solve_consistent(dec.level(top - 1).gram_matrix(), rhs)
        assert ops.minus_matrix(j, top) == expected


@pytest.mark.parametrize("functional,top", SHIFT_CASES)
def test_top_pairings_match_the_polynomial_oracle(functional, top):
    # only the upper triangle is paired and mirrored: phi(b_i x_j b_k) is
    # symmetric in i and k
    dec = decompose(functional, top)
    gram = _linalg.integer_rows(dec.level(top).gram)
    rows = {}
    for j in range(1, dec.d + 1):
        pairings = _fractions(_top_pairings(dec, j, rows, gram))
        assert pairings == top_pairings(dec, j)
        assert pairings == _linalg.transpose(pairings)


def _jacobi_d3_table():
    # the big job's moments to degree 2N+1 = 11 as a table, which declares
    # no product
    phi = _jacobi_d3()
    return table_functional(3, 11, {b: phi.moment(b) for b in monomial_basis(3, 11)})


def _top_rows(dec):
    """The moment rows every coordinate's top pairings pair, keyed (i, code)."""
    gram = _linalg.integer_rows(dec.level(dec.max_degree).gram)
    rows = {}
    pairings = [_top_pairings(dec, j, rows, gram) for j in range(1, dec.d + 1)]
    return rows, pairings


def test_top_pairings_pair_the_upper_triangle_once():
    # one moment row value per (i, gamma) with i <= k, shared by the
    # coordinates: 343 at d = 3, N = 5, where the full rows took 28 * 21.
    # The big job's moments as a table pair the whole upper triangle
    dec = decompose(_jacobi_d3_table(), 5)
    rows, _ = _top_rows(dec)
    assert len(dec.level(5)) == 21 and len(enumerate_classes(3, 6).classes) == 28
    assert len(rows) == 343


def test_a_product_weight_pairs_no_top_moment_row(monkeypatch):
    # phi(x_j b_i b_k) factors over the coordinates, so the jacobi weight's
    # top preservation is diag(c0_(beta_j)) from its factors' recurrences:
    # build pairs no moment row.  Its table pairs the whole upper triangle,
    # 343 rows, finds every pairing off the diagonal 0, and solves to the
    # same blocks
    phi, table = _jacobi_d3(), _jacobi_d3_table()
    assert phi.product() and not table.product()
    dec, ref = decompose(phi, 5), decompose(table, 5)
    calls = []
    monkeypatch.setattr(MomentMatrix, "pair_code", lambda *args: calls.append(args))
    ops = build(dec)
    monkeypatch.undo()
    assert calls == []
    rows, full = _top_rows(ref)
    assert len(rows) == 343
    assert all(_linalg.is_diagonal(_fractions(p)) for p in full)
    ref_ops = build(ref)
    assert (ops._plus, ops._zero, ops._minus) == (ref_ops._plus, ref_ops._zero, ref_ops._minus)


def test_top_pairings_need_degree_2n_plus_1():
    # a table of degree exactly 2N leaves every top preservation block unset
    dec = decompose(_twelve_atom_table(6), 3)
    gram = _linalg.integer_rows(dec.level(3).gram)
    for j in (1, 2):
        with pytest.raises(InsufficientMomentsError):
            _top_pairings(dec, j, {}, gram)
    ops = build(dec)
    for j in (1, 2):
        with pytest.raises(InsufficientMomentsError):
            ops.zero_matrix(j, 3)
    # one degree more sets them, to the pairing system's solution; the
    # pairings are dense, so the mirrored lower triangle is checked too
    dec = decompose(_twelve_atom_table(7), 3)
    gram = _linalg.integer_rows(dec.level(3).gram)
    ops = build(dec)
    for j in (1, 2):
        pairings = top_pairings(dec, j)
        assert not _linalg.is_diagonal(pairings)
        assert _fractions(_top_pairings(dec, j, {}, gram)) == pairings
        assert ops.zero_matrix(j, 3) == _linalg.solve_consistent(dec.level(3).gram_matrix(), pairings)


def test_matrix_accessors_validate_indices():
    ops = build(decompose(gaussian_functional(1), 2))
    with pytest.raises(InvalidIndexError):
        ops.plus_matrix(1, 2)  # creation out of the top level is not stored
    with pytest.raises(InvalidIndexError):
        ops.zero_matrix(2, 0)
    with pytest.raises(InvalidIndexError):
        ops.minus_matrix(1, 5)


def test_matrix_accessors_refuse_non_integer_indices():
    # before, plus_matrix(1.0, 0) and zero_matrix(1, 1.0) returned a block:
    # a float compares equal to the int key of the block dictionaries
    ops = build(decompose(gaussian_functional(2), 2))
    for call in (
        lambda: ops.plus_matrix(1.0, 0),
        lambda: ops.zero_matrix(1, 1.0),
        lambda: ops.minus_matrix(2, 1.0),
    ):
        with pytest.raises(InvalidIndexError, match="must be an integer"):
            call()
    with pytest.raises(InvalidIndexError, match=r"^coordinate 3 outside 1\.\.2$"):
        ops.zero_matrix(3, 0)


def _perturbed_table(atoms, max_degree, changes):
    """The moment table of these atoms up to max_degree, with some entries moved."""
    exact = atomic_functional(atoms)
    d = exact.d
    table = {beta: exact.moment(beta) for beta in monomial_basis(d, max_degree)}
    for beta, delta in changes:
        table[beta] += Fraction(delta)
    return table_functional(d, max_degree, table)


def _inconsistent_top_systems(dec):
    """The per-coordinate loop: each top-level system solved on its own, in
    build's order (preservation j, then annihilation j), with the pairings
    formed by polynomial products; the names of the inconsistent ones."""
    top = dec.max_degree
    gram, below = dec.level(top).gram_matrix(), dec.level(top - 1).gram_matrix()
    names = []
    for j in range(1, dec.d + 1):
        if _linalg.solve_consistent(gram, top_pairings(dec, j)) is None:
            names.append(f"preservation system at level {top}, coordinate {j}")
        src, dst = dec.level(top - 1).monomials, dec.level(top).monomials
        rhs = [gram[dst.index(tuple(map(add, beta, _unit(dec.d, j))))] for beta in src]
        if _linalg.solve_consistent(below, rhs) is None:
            names.append(f"annihilation system at level {top}, coordinate {j}")
    return names


@pytest.mark.parametrize(
    "atoms,top,changes,first",
    [
        # preservation and annihilation of coordinate 2
        ([(("-2", "0"), "1/2"), (("0", "0"), "1/2")], 2,
         [((1, 4), 1), ((0, 4), "1/4")], "preservation system at level 2, coordinate 2"),
        # annihilation of coordinate 1 comes before preservation of coordinate 2
        ([(("-2", "1"), "1/3"), (("-1", "-2"), "1/3"), (("0", "-1"), "1/3")], 3,
         [((0, 7), "1/3"), ((6, 0), "1/3")], "annihilation system at level 3, coordinate 1"),
        # preservation of coordinates 2 and 3
        ([(("0", "-1", "-2"), "1/2"), (("1", "0", "0"), "1/2")], 2,
         [((0, 4, 1), "1/3")], "preservation system at level 2, coordinate 2"),
    ],
)
def test_stacked_top_solves_name_the_first_inconsistent_system(atoms, top, changes, first):
    # two systems are inconsistent; the one elimination per Gram names the
    # system and coordinate that solving them one by one meets first
    dec = decompose(_perturbed_table(atoms, 2 * top + 1, changes), top)
    names = _inconsistent_top_systems(dec)
    assert len(names) >= 2 and names[0] == first
    with pytest.raises(NotAStateError) as raised:
        build(dec)
    assert str(raised.value) == (
        f"{first} is inconsistent; no positive functional has these moments"
    )


def test_build_of_a_level_0_table_does_no_tuple_work_per_coordinate(monkeypatch):
    # the unit codes and creation positions come from the graded index, so
    # build makes as many pack, odd_bits and shift calls at d = 100 as at
    # d = 50; before, each coordinate packed its unit and shifted by it
    import jacobi_mv.cap_operators as cap_operators
    import jacobi_mv.multiindex as multiindex
    import jacobi_mv.orthodecomp as orthodecomp

    counts = []
    for d in (50, 100):
        units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        table = {(0,) * d: 1, **{e: Fraction(j + 1, j + 2) for j, e in enumerate(units)}}
        dec = decompose(table_functional(d, 1, table), 0)
        calls = {}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return wrapper

        for module in (multiindex, orthodecomp, cap_operators):
            for name in ("pack", "odd_bits", "shift"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        ops = build(dec)
        monkeypatch.undo()
        assert [ops.zero_matrix(j, 0) for j in (1, d)] == [
            [[Fraction(1, 2)]], [[Fraction(d, d + 1)]]
        ]
        counts.append(calls)
    assert counts[0] == counts[1]
