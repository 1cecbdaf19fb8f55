"""Acceptance gate: one test per published guarantee, exact arithmetic only.

Every test prints a single "[criterion k] PASS/FAIL" line so the gate can
be read off a test log at a glance.  All comparisons are exact rational
equality; nothing here is tolerance-based.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from jacobi_mv import _linalg
from jacobi_mv.cap_operators import (
    build,
    verify_adjoints,
    verify_quantum_decomposition,
)
from jacobi_mv.closed_forms import (
    closed_form_alpha,
    closed_form_omega,
    creation_power,
    family_polynomial,
    family_spec,
    master_omega,
    stated_omega,
    verify_family,
)
from jacobi_mv.jacobi_sequences import (
    compute,
    compute_from_functional,
    detect_atoms,
    rank_profile,
    reconstruct_moments,
)
from jacobi_mv.moments import (
    atomic_functional,
    beta_functional,
    gamma_functional,
    gaussian_functional,
)
from jacobi_mv.multiindex import enumerate_classes, representative_tuple
from jacobi_mv.orthodecomp import decompose
from jacobi_mv.polyring import Polynomial, monomial_basis

TWO_ATOMS = [((0, 0), Fraction(1, 2)), ((1, 1), Fraction(1, 2))]
THREE_ATOMS = [
    ((-1,), Fraction(1, 4)),
    ((0,), Fraction(1, 2)),
    ((2,), Fraction(1, 4)),
]

FAMILY_ROSTER = (
    family_spec("hermite", d=2),
    family_spec("laguerre", alpha=[Fraction(1, 2), Fraction(3, 2)]),
    family_spec("jacobi", a=[0, 1], b=[1, 0]),
    family_spec("gegenbauer", lam=[Fraction(1, 3)]),
    family_spec("chebyshev1", d=1),
    family_spec("chebyshev2", d=1),
    family_spec("legendre", d=2),
)


def _report(number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}", flush=True)
        raise
    print(f"[criterion {number}] PASS: {description}", flush=True)


def _diag(values):
    k = len(values)
    return [
        [Fraction(values[i]) if i == j else Fraction(0) for j in range(k)]
        for i in range(k)
    ]


def _factorial(n_bar) -> int:
    out = 1
    for k in n_bar:
        out *= math.factorial(k)
    return out


def test_criterion_1_hermite():
    def check():
        for d in (1, 2, 3):
            seq = compute_from_functional(gaussian_functional(d), 4)
            for n in range(5):
                classes = enumerate_classes(d, n).classes
                expected = _diag([Fraction(_factorial(nb), 2**n) for nb in classes])
                assert seq.omega_matrix(n) == expected
                for j in range(1, d + 1):
                    assert _linalg.is_zero_matrix(seq.alpha_matrix(j, n))

    _report(
        1,
        "gaussian omega_n = diag((1/2)^|nbar| nbar!) with alpha = 0 for d in {1,2,3}, n <= 4",
        check,
    )


def test_criterion_2_laguerre():
    def check():
        for alphas in ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(3, 2))):
            seq = compute_from_functional(gamma_functional(alphas), 3)
            for n in range(4):
                classes = enumerate_classes(2, n).classes
                diag = []
                for nb in classes:
                    value = Fraction(_factorial(nb))
                    for al, k in zip(alphas, nb):
                        for p in range(1, k + 1):
                            value *= al + p
                    diag.append(value)
                assert seq.omega_matrix(n) == _diag(diag)
                for j in (1, 2):
                    expected = _diag(
                        [2 * nb[j - 1] + alphas[j - 1] + 1 for nb in classes]
                    )
                    assert seq.alpha_matrix(j, n) == expected

    _report(
        2,
        "gamma omega_n = diag(nbar! prod_l prod_p (alpha_l+p)) and "
        "alpha_{e_l|n} = diag(2 n_l + alpha_l + 1) for two parameter sets, n <= 3",
        check,
    )


def test_criterion_3_jacobi():
    def check():
        params = (
            ((0,), (0,)),
            ((Fraction(1, 2),), (Fraction(-1, 2),)),
            ((0, 1), (1, 0)),
        )
        for a, b in params:
            spec = family_spec("jacobi", a=a, b=b)
            assert verify_family(spec, 3).ok
            seq = compute_from_functional(spec.functional(), 3)
            for n in range(4):
                entries = closed_form_omega(spec, n)
                assert seq.omega_matrix(n) == _diag([e.omega_value for e in entries])
                for j in range(1, spec.d + 1):
                    assert seq.alpha_matrix(j, n) == closed_form_alpha(spec, n, j)

    _report(
        3,
        "beta-weight omega/alpha match the recurrence closed forms for three "
        "(a, b) parameter sets, n <= 3",
        check,
    )


def test_criterion_4_specialization_coherence():
    def check():
        exact = (
            family_spec("gegenbauer", lam=[Fraction(1, 3)]),
            family_spec("gegenbauer", lam=[Fraction(1, 3), Fraction(1, 4)]),
            family_spec("chebyshev2", d=1),
            family_spec("chebyshev2", d=2),
        )
        for spec in exact:
            for n_bar in monomial_basis(spec.d, 3):
                value, notes = stated_omega(spec, n_bar)
                assert notes == ()
                assert value == master_omega(spec, n_bar)
            assert verify_family(spec, 3, variant="stated").ok
        legendre = family_spec("legendre", d=1)
        stated = verify_family(legendre, 3, variant="stated")
        assert not stated.ok
        witness = stated.levels[2]
        assert witness.omega_pipeline == [[Fraction(4, 45)]]
        assert witness.omega_closed == [[Fraction(16, 45)]]
        assert verify_family(legendre, 3).ok

    _report(
        4,
        "gegenbauer/chebyshev2 quoted forms coincide with the substituted "
        "jacobi form (d <= 2, n <= 3); the legendre quoted form is refuted "
        "with an exact witness and the pipeline sides with the substitution",
        check,
    )


def test_criterion_5_structural_identities():
    def check():
        cases = [(spec.functional(), True) for spec in FAMILY_ROSTER]
        cases.append((atomic_functional(TWO_ATOMS), False))
        cases.append((atomic_functional(THREE_ATOMS), False))
        for f, diagonal in cases:
            ops = build(decompose(f, 4))
            assert verify_quantum_decomposition(ops).ok
            assert verify_adjoints(ops).ok
            seq = compute(ops, 4)
            for n in range(5):
                om = seq.omega_matrix(n)
                assert _linalg.is_symmetric(om)
                assert _linalg.ldlt_psd(om).psd
                if diagonal:
                    assert _linalg.is_diagonal(om)
                for j in range(1, f.d + 1):
                    al = seq.alpha_matrix(j, n)
                    assert _linalg.mat_mul(om, al) == _linalg.mat_mul(
                        _linalg.transpose(al), om
                    )
                    if diagonal:
                        assert _linalg.is_diagonal(al)

    _report(
        5,
        "quantum decomposition, adjointness, creation commutativity, PSD "
        "symmetric omega and omega-symmetric alpha hold exactly for every "
        "test functional at n <= 4",
        check,
    )


def test_criterion_6_atomic_detection():
    def check():
        rng = random.Random(425)
        for _ in range(10):
            d = rng.choice((1, 2))
            k = rng.choice((1, 2, 3))
            points = set()
            while len(points) < k:
                points.add(
                    tuple(
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(d)
                    )
                )
            weights = [rng.randint(1, 5) for _ in range(k)]
            total = sum(weights)
            atoms = [
                (pt, Fraction(w, total)) for pt, w in zip(sorted(points), weights)
            ]
            f = atomic_functional(atoms)
            det = detect_atoms(f, 4)
            assert det.found
            n0 = det.n0
            assert 1 <= n0 <= 4
            assert all(r > 0 for r in det.ranks[:n0])
            assert all(r == 0 for r in det.ranks[n0:])
            assert det.atom_bound == math.comb(n0 - 1 + d, d)
            assert k <= det.atom_bound
            seq = compute_from_functional(f, n0 + 1)
            for n, r, _dim in rank_profile(seq):
                assert (r == 0) == _linalg.is_zero_matrix(seq.omega_matrix(n))
                assert (r == 0) == (n >= n0)

    _report(
        6,
        "10 seeded atomic measures (k <= 3, d <= 2): omega vanishes first at "
        "n0, stays zero, rank deficiency propagates, and k <= C(n0-1+d, d)",
        check,
    )


def test_criterion_7_moment_round_trip():
    def check():
        functionals = (
            gaussian_functional(2),
            gamma_functional([0, Fraction(1, 2)]),
            beta_functional([0, 0], [0, 0]),
            atomic_functional(THREE_ATOMS),
        )
        for f in functionals:
            seq = compute_from_functional(f, 4)
            for beta in monomial_basis(f.d, 4):
                assert reconstruct_moments(seq, beta) == f.moment(beta)

    _report(
        7,
        "moments reconstruct exactly from (omega, alpha) for gaussian, gamma, "
        "beta and a 3-atom measure, |beta| <= 4",
        check,
    )


def test_criterion_8_basis_independence():
    # the paper's definitions, read off chains of polynomials: neither side
    # of the comparisons depends on the basis chosen inside each level
    def check():
        three = atomic_functional(
            [((0, 0), Fraction(1, 3)), ((1, 0), Fraction(1, 3)), ((0, 2), Fraction(1, 3))]
        )
        for phi in [spec.functional() for spec in FAMILY_ROSTER] + [three]:
            ops = build(decompose(phi, 3))
            seq = compute(ops, 3)
            for n in range(4):
                chains = []
                for nbar in seq.classes(n).classes:
                    u = Polynomial.one(phi.d)
                    for i in representative_tuple(nbar):
                        u = ops.creation(i, u)
                    chains.append(u)
                omega = seq.omega_matrix(n)
                assert omega == [[phi.inner_product(u, v) for v in chains] for u in chains]
                for j in range(1, phi.d + 1):
                    if not seq.alpha_available(j, n):
                        continue
                    images = [ops.preservation(j, v) for v in chains]
                    assert _linalg.mat_mul(omega, seq.alpha_matrix(j, n)) == [
                        [phi.inner_product(u, v) for v in images] for u in chains
                    ]

    _report(
        8,
        "omega_n is the Gram matrix of the creation chains a+_{i_n}...a+_{i_1} 1 "
        "and omega_n alpha_{j|n} pairs them with their preservation images, "
        "one functional per family and three atoms in R^2, N = 3",
        check,
    )


def test_criterion_9_creation_power_factors():
    def check():
        specs = (
            family_spec("hermite", d=1),
            family_spec("laguerre", alpha=[Fraction(1, 2)]),
            family_spec("jacobi", a=[Fraction(1, 2)], b=[Fraction(-1, 2)]),
            family_spec("gegenbauer", lam=[Fraction(1, 3)]),
            family_spec("chebyshev1", d=1),
            family_spec("chebyshev2", d=1),
            family_spec("legendre", d=1),
        )
        for spec in specs:
            ops = build(decompose(spec.functional(), 4))
            for base in ((0,), (1,)):
                for m in range(1, 4):
                    if base[0] + m > 4:
                        continue
                    factor, shifted = creation_power(spec, base, 1, m)
                    lhs = family_polynomial(spec, base)
                    for _ in range(m):
                        lhs = ops.creation(1, lhs)
                    assert lhs == family_polynomial(spec, shifted).scale(factor)

    _report(
        9,
        "iterated creation sends each classical polynomial to the predicted "
        "scalar times the shifted one, every family, m <= 3",
        check,
    )
