"""Hand values for the benchmark's reference code (python3 -m pytest bench)."""

import math
from fractions import Fraction as F

import reference


def test_hermite_monic_norms_are_k_factorial_over_2_to_the_k():
    h, b = reference.recurrence_data(reference.hermite_moments(12), 6)
    assert h == [F(math.factorial(k), 2**k) for k in range(6)]
    assert b == [0] * 6


def test_hermite_d2_level2_omega_diagonal():
    # README: the 2-D hermite weight at level 2 has entries 1/2, 1/4, 1/2
    h, _ = reference.recurrence_data(reference.hermite_moments(6), 3)
    classes = [(2, 0), (1, 1), (0, 2)]
    assert [h[i] * h[j] for i, j in classes] == [F(1, 2), F(1, 4), F(1, 2)]


def test_laguerre_recurrence_matches_the_classical_coefficients():
    # monic Laguerre: b_k = 2k + alpha + 1, h_k = k! Gamma(k+alpha+1)/Gamma(alpha+1)
    alpha = F(1, 2)
    h, b = reference.recurrence_data(reference.laguerre_moments(alpha, 10), 5)
    assert b == [2 * k + alpha + 1 for k in range(5)]
    assert h == [math.factorial(k) * math.prod(alpha + i for i in range(1, k + 1)) for k in range(5)]


def test_legendre_moments_and_norms():
    # uniform weight on [-1, 1]: m_2 = 1/3, m_4 = 1/5; monic h_1 = 1/3, h_2 = 4/45
    m = reference.jacobi_moments(F(0), F(0), 6)
    assert m == [1, 0, F(1, 3), 0, F(1, 5), 0]
    h, b = reference.recurrence_data(m, 3)
    assert h == [1, F(1, 3), F(4, 45)]
    assert b == [0, 0, 0]


def test_jacobi_first_recurrence_coefficient_is_the_mean():
    # b_0 = m_1 = (b - a) / (a + b + 2)
    a, b = F(0), F(1, 2)
    m = reference.jacobi_moments(a, b, 4)
    assert m[1] == (b - a) / (a + b + 2)
    assert reference.recurrence_data(m, 2)[1][0] == m[1]


def test_vandermonde_ranks_and_atom_sums():
    two = [((F(0), F(0)), F(1, 2)), ((F(1), F(1)), F(1, 2))]
    assert reference.vandermonde_ranks(two, 3) == [1, 2, 2, 2]
    collinear = [((F(t), F(2 * t)), F(1, 3)) for t in range(3)]
    assert reference.vandermonde_ranks(collinear, 3) == [1, 2, 3, 3]
    assert reference.atom_moment(two, (2, 1)) == F(1, 2)
    assert reference.atom_moment(collinear, (1, 1)) == F(0 + 2 + 8, 3)
