from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jacobi_mv import _linalg
from jacobi_mv.cap_operators import build
from jacobi_mv.errors import (
    InsufficientDepthError,
    InsufficientMomentsError,
    InternalConsistencyError,
    InvalidIndexError,
)
from jacobi_mv.jacobi_sequences import (
    compute,
    compute_from_functional,
    detect_atoms,
    rank_profile,
    reconstruct_moment_table,
    reconstruct_moments,
)
from jacobi_mv.moments import (
    atomic_functional,
    beta_functional,
    gamma_functional,
    gaussian_functional,
    table_functional,
)
from jacobi_mv.orthodecomp import decompose
from jacobi_mv.polyring import monomial_basis

TWO_ATOMS = [(("0", "0"), "1/2"), (("1", "1"), "1/2")]
THREE_ATOMS = [(("-1",), "1/4"), (("0",), "1/2"), (("2",), "1/4")]


def test_gaussian_frozen_omega():
    seq = compute_from_functional(gaussian_functional(2), 2)
    assert seq.classes(2).classes == ((2, 0), (1, 1), (0, 2))
    assert seq.omega_matrix(0) == [[Fraction(1)]]
    assert seq.omega_matrix(2) == [
        [Fraction(1, 2), 0, 0],
        [0, Fraction(1, 4), 0],
        [0, 0, Fraction(1, 2)],
    ]
    for n in range(3):
        for j in (1, 2):
            assert _linalg.is_zero_matrix(seq.alpha_matrix(j, n))


def test_gamma_frozen_alpha():
    seq = compute_from_functional(gamma_functional([0, 0]), 2)
    assert seq.alpha_matrix(1, 1) == [[Fraction(3), 0], [0, Fraction(1)]]
    assert seq.alpha_matrix(2, 1) == [[Fraction(1), 0], [0, Fraction(3)]]


def test_omega_level_zero_is_one_for_any_functional():
    for f in (
        gaussian_functional(1),
        beta_functional([Fraction(1, 2)], [Fraction(-1, 2)]),
        atomic_functional(TWO_ATOMS),
    ):
        seq = compute_from_functional(f, 1)
        assert seq.omega_matrix(0) == [[Fraction(1)]]


def test_omega_symmetric_psd_and_alpha_gram_symmetric():
    for f in (
        gaussian_functional(2),
        gamma_functional([Fraction(1, 2), Fraction(3, 2)]),
        beta_functional([0, 1], [1, 0]),
        atomic_functional(TWO_ATOMS),
    ):
        seq = compute_from_functional(f, 3)
        for n in range(4):
            om = seq.omega_matrix(n)
            assert _linalg.is_symmetric(om)
            assert _linalg.ldlt_psd(om).psd
            for j in range(1, f.d + 1):
                al = seq.alpha_matrix(j, n)
                assert _linalg.mat_mul(om, al) == _linalg.mat_mul(
                    _linalg.transpose(al), om
                )


def test_alpha_for_direction_is_linear():
    seq = compute_from_functional(gamma_functional([0, Fraction(1, 2)]), 2)
    v = (Fraction(2), Fraction(-1, 3))
    combined = seq.alpha_for_direction(v, 1)
    expected = _linalg.mat_add(
        _linalg.mat_scale(seq.alpha_matrix(1, 1), v[0]),
        _linalg.mat_scale(seq.alpha_matrix(2, 1), v[1]),
    )
    assert combined == expected


def test_compute_requires_deep_enough_ops():
    ops = build(decompose(gaussian_functional(1), 2))
    with pytest.raises(InvalidIndexError):
        compute(ops, 3)


def test_rank_profile_examples():
    full = compute_from_functional(gaussian_functional(2), 3)
    assert rank_profile(full) == [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)]
    two = compute_from_functional(atomic_functional(TWO_ATOMS), 3)
    assert rank_profile(two) == [(0, 1, 1), (1, 1, 2), (2, 0, 3), (3, 0, 4)]


def test_single_atom_omega_vanishes_at_level_one():
    seq = compute_from_functional(atomic_functional([(("3/2",), "1")]), 2)
    assert _linalg.is_zero_matrix(seq.omega_matrix(1))
    assert rank_profile(seq) == [(0, 1, 1), (1, 0, 1), (2, 0, 1)]


def test_detect_atoms_two_point_measure():
    det = detect_atoms(atomic_functional(TWO_ATOMS), 4)
    assert det.found and det.n0 == 2 and det.atom_bound == 3
    assert det.ranks[:3] == (1, 1, 0)


def test_detect_atoms_single_atom_and_inconclusive():
    det = detect_atoms(atomic_functional([(("7",), "1")]), 3)
    assert det.found and det.n0 == 1 and det.atom_bound == 1
    non = detect_atoms(gaussian_functional(1), 6)
    assert not non.found and non.n0 is None and non.atom_bound is None


def test_detect_atoms_rejects_non_state_zero_pattern():
    # x is null yet x^4 has mass: PSD levelwise but no state extends it,
    # and the vanishing level does not persist
    t = table_functional(1, 4, {(0,): 1, (1,): 0, (2,): 0, (3,): 0, (4,): 1})
    with pytest.raises(InternalConsistencyError):
        detect_atoms(t, 2)


def test_reconstruct_round_trip_gaussian():
    f = gaussian_functional(2)
    seq = compute_from_functional(f, 4)
    for beta in monomial_basis(2, 4):
        assert reconstruct_moments(seq, beta) == f.moment(beta)


def test_reconstruct_round_trip_skewed_families():
    for f in (
        gamma_functional([0, Fraction(1, 2)]),
        beta_functional([Fraction(1, 2)], [Fraction(-1, 2)]),
        atomic_functional(THREE_ATOMS),
    ):
        seq = compute_from_functional(f, 4)
        for beta in monomial_basis(f.d, 4):
            assert reconstruct_moments(seq, beta) == f.moment(beta)


def test_reconstruct_vacuum_and_first_moment():
    seq = compute_from_functional(gamma_functional([0]), 3)
    assert reconstruct_moments(seq, (0,)) == 1
    assert reconstruct_moments(seq, (1,)) == 1


def test_reconstruct_moment_table_matches():
    f = beta_functional([0, 0], [0, 0])
    seq = compute_from_functional(f, 3)
    table = reconstruct_moment_table(seq, 3)
    for beta, value in table.items():
        assert value == f.moment(beta)


def test_reconstruct_moment_table_builds_the_ladder_once(monkeypatch):
    import jacobi_mv.jacobi_sequences as sequences

    built = []
    ladder = sequences._ladder
    monkeypatch.setattr(sequences, "_ladder", lambda seq: built.append(seq) or ladder(seq))
    seq = compute_from_functional(atomic_functional(TWO_ATOMS), 3)
    table = reconstruct_moment_table(seq, 3)
    assert len(built) == 1 and len(table) == 10
    assert all(reconstruct_moments(seq, beta) == v for beta, v in table.items())


def test_reconstruct_depth_and_index_validation():
    seq = compute_from_functional(gaussian_functional(1), 2)
    with pytest.raises(InsufficientDepthError):
        reconstruct_moments(seq, (3,))
    with pytest.raises(InvalidIndexError):
        reconstruct_moments(seq, (1, 1))
    with pytest.raises(InvalidIndexError):
        reconstruct_moments(seq, (-1,))


def test_alpha_top_level_needs_extra_moment_degree():
    g = gamma_functional([0])
    table = {(k,): g.moment((k,)) for k in range(5)}
    f = table_functional(1, 4, table)
    seq = compute_from_functional(f, 2)
    assert seq.alpha_available(1, 1)
    assert not seq.alpha_available(1, 2)
    with pytest.raises(InsufficientMomentsError):
        seq.alpha_matrix(1, 2)
    # reconstruction to full depth only needs alpha below the top
    for beta in monomial_basis(1, 2):
        assert reconstruct_moments(seq, beta) == f.moment(beta)


def test_basis_independence_of_omega_and_alpha():
    f = beta_functional([Fraction(1, 2), 0], [Fraction(-1, 2), 1])
    dec = decompose(f, 3)
    base = compute(build(dec), 3)
    rng = random.Random(11)
    scales = [
        [Fraction(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in dec.level(n).polynomials]
        for n in range(4)
    ]
    other = compute(build(dec.rescale(scales)), 3)
    for n in range(4):
        assert base.omega_matrix(n) == other.omega_matrix(n)
        for j in (1, 2):
            assert base.alpha_matrix(j, n) == other.alpha_matrix(j, n)
