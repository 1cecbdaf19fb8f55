from __future__ import annotations

from fractions import Fraction

import pytest

from jacobi_mv import _linalg
from jacobi_mv.cap_operators import (
    CAPSystem,
    build,
    verify_adjoints,
    verify_quantum_decomposition,
)
from jacobi_mv.errors import (
    InsufficientMomentsError,
    InternalConsistencyError,
    InvalidIndexError,
)
from jacobi_mv.moments import (
    atomic_functional,
    beta_functional,
    functional_from_json,
    gamma_functional,
    gaussian_functional,
    table_functional,
)
from jacobi_mv.multiindex import enumerate_classes, shift
from jacobi_mv.orthodecomp import decompose
from jacobi_mv.polyring import Polynomial

from golden.regen import MEASURES


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
                    target = shift(n_bar, tuple(1 if i == j - 1 else 0 for i in range(d)))
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
                total = (
                    ops.creation(j, b) + ops.preservation(j, b) + ops.annihilation(j, b)
                )
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
                    system.creation(j, b)
                    + system.preservation(j, b)
                    + system.annihilation(j, b)
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
        assert verify_quantum_decomposition(system).ok
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
        assert not report.ok
        assert any(not e.null for e in report.witnesses())
    # level 3 of three atoms on a line is null: a residual b_3 is not zero
    # but has norm zero
    line = _tampered(build(decompose(atomic_functional(LINE_ATOMS), 4)), "zero", (1, 3), 1)
    report = verify_quantum_decomposition(line)
    assert not report.ok
    assert report.witnesses() and all(e.null for e in report.witnesses())
    for system in systems + tampered + [line]:
        report = verify_quantum_decomposition(system)
        got = [(e.j, e.n, e.index, e.residual, e.residual_norm_sq) for e in report.entries]
        expected = _reference_quantum_decomposition(system)
        assert got == expected
        assert report.ok == all(r.is_zero() for *_, r, _ in expected)
        assert [e for e in report.entries if not e.exact] == list(report.witnesses())
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
    zero = {k: (None if v is None else _linalg.copy(v)) for k, v in ops._zero.items()}
    zero[(1, 1)][0][1] += Fraction(1, 3)  # Gram-weighted symmetry broken
    bad = CAPSystem(ops.decomposition, ops._plus, zero, ops._minus)
    report = verify_adjoints(bad)
    assert not report.ok


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
        phi = dec.functional
        top = dec.max_degree
        lv = dec.level(top)
        basis = dec.polynomials(top)
        ops = build(dec)
        for j in range(1, dec.d + 1):
            x_j = Polynomial.variable(dec.d, j)
            pairings = [
                [phi.inner_product(b_i, b_k * x_j) for b_k in basis]
                for b_i in basis
            ]
            expected = _linalg.solve_consistent(lv.gram_matrix(), pairings)
            assert ops.zero_matrix(j, top) == expected


def test_out_of_band_component_is_an_error_not_a_silent_drop():
    # single atom: X b_3 = b_4 - b_1 exactly, with b_1 null; the three-term
    # structure only holds modulo the null space, and the build refuses to
    # discard the out-of-band coordinate silently
    one_atom = atomic_functional([(("1",), "1")])
    with pytest.raises(InternalConsistencyError):
        build(decompose(one_atom, 4))
    # shallow truncations never reach a source level n0+2, so they build
    ops = build(decompose(one_atom, 2))
    assert ops.plus_matrix(1, 0) == [[Fraction(1)]]


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
        lambda: ops.creation(1.0, Polynomial.monomial(2, (0, 0))),
    ):
        with pytest.raises(InvalidIndexError, match="must be an integer"):
            call()
    with pytest.raises(InvalidIndexError, match=r"^coordinate 3 outside 1\.\.2$"):
        ops.zero_matrix(3, 0)
