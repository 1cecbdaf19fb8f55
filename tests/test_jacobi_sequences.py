from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacobi_mv import _linalg
from jacobi_mv.cap_operators import build
from jacobi_mv.closed_forms import FAMILIES, family_spec
from jacobi_mv.errors import (
    DimensionMismatchError,
    Error as JacobiError,
    InsufficientDepthError,
    InsufficientMomentsError,
    InternalConsistencyError,
    InvalidIndexError,
    RepresentationError,
    UnsupportedParameterError,
)
from jacobi_mv.jacobi_sequences import (
    JacobiSequencePair,
    compute,
    compute_from_functional,
    detect_atoms,
    rank_profile,
    reconstruct_moment_table,
    reconstruct_moments,
)
from jacobi_mv.moments import (
    TableFunctional,
    atomic_functional,
    beta_functional,
    gamma_functional,
    gaussian_functional,
    table_functional,
)
from jacobi_mv.multiindex import enumerate_classes
from jacobi_mv.orthodecomp import MomentMatrix, decompose
from jacobi_mv.polyring import monomial_basis

def _rationals(low=None):
    """Rationals p/q, or low + p/q (so above low) when low is given."""
    if low is None:
        return st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))
    return st.builds(lambda p, q: low + Fraction(p, q), st.integers(1, 12), st.integers(1, 4))


@st.composite
def _decompositions(draw):
    """A decomposition of one of the seven families or of random rational atoms."""
    kind = draw(st.sampled_from(FAMILIES + ("atoms",)))
    d = draw(st.integers(1, 2))
    params = lambda low: draw(st.lists(_rationals(low), min_size=d, max_size=d))
    if kind == "atoms":
        points = draw(st.lists(st.tuples(*[_rationals()] * d), min_size=1,
                               max_size=9, unique=True))
        functional = atomic_functional([(p, Fraction(1, len(points))) for p in points])
    elif kind == "laguerre":
        functional = family_spec(kind, alpha=params(-1)).functional()
    elif kind == "jacobi":
        functional = family_spec(kind, a=params(-1), b=params(-1)).functional()
    elif kind == "gegenbauer":
        functional = family_spec(kind, lam=params(Fraction(-1, 2))).functional()
    else:
        functional = family_spec(kind, d=d).functional()
    return decompose(functional, draw(st.integers(1, 4 - d)))


@settings(deadline=None)
@given(_decompositions())
def test_alpha_on_every_level_is_the_solution_of_the_chain_system(dec):
    # compute reads alpha = Z off a full-rank level and combines the rows
    # of Z through the reduced Gram on a rank-deficient one; either way it
    # must be what solving G_n a = G_n Z gives, formed here independently.
    # Both rest on the monic level bases, so every column must end in its
    # leading 1
    levels = range(dec.max_degree + 1)
    assert all(
        form.terms[-1] == (dec.starts[n] + k, form.denominator)
        for n in levels
        for k, form in enumerate(dec.level_forms(n))
    )
    ops = build(dec)
    seq = compute(ops, dec.max_degree)
    for lv in dec.levels:
        for j in range(1, dec.d + 1):
            if not seq.alpha_available(j, lv.n):
                continue
            gz = _linalg.mat_mul(lv.gram_matrix(), ops.zero_matrix(j, lv.n))
            expected = _linalg.solve_consistent(lv.gram_matrix(), gz)
            assert seq.alpha_matrix(j, lv.n) == expected


def test_compute_solves_only_on_rank_deficient_levels(monkeypatch):
    # gaussian levels all have full rank; three atoms in general position
    # in R^2 leave level 2 (three classes) null, so its alpha is 0 with no
    # elimination (one elimination of all three rows before); x_1 is
    # constant on the last atom set, so levels 1 and 2 are partially null
    # and each eliminates only its one row with a nonzero Gram diagonal.
    # Every elimination goes through the integer kernel, counted here
    three = [(("0", "0"), "1/3"), (("1", "0"), "1/3"), (("0", "2"), "1/3")]
    constant = [(("0", "0"), "1/2"), (("0", "1"), "1/4"), (("0", "3"), "1/4")]
    eliminate = _linalg._eliminate
    for functional, top, sizes in (
        (gaussian_functional(2), 3, []),
        (atomic_functional(three), 2, []),
        (atomic_functional(constant), 2, [1, 1]),
    ):
        ops = build(decompose(functional, top))
        calls = []
        monkeypatch.setattr(
            _linalg, "_eliminate", lambda m, stop: calls.append(len(m)) or eliminate(m, stop)
        )
        seq = compute(ops, top)
        monkeypatch.undo()
        assert calls == sizes
    # on the partially null levels the rows of the null directions are 0
    for n in (1, 2):
        g = seq.omega_matrix(n)
        for j in (1, 2):
            alpha = seq.alpha_matrix(j, n)
            assert all(not any(row) for row, r in zip(alpha, g) if not any(r))


def test_null_level_alpha_is_zero():
    three = [(("0", "0"), "1/3"), (("1", "0"), "1/3"), (("0", "2"), "1/3")]
    seq = compute(build(decompose(atomic_functional(three), 2)), 2)
    assert not any(map(any, seq.omega_matrix(2)))
    for j in (1, 2):
        assert seq.alpha_matrix(j, 2) == _linalg.zeros(3, 3)


def test_rank_deficient_alpha_is_the_free_variables_zero_solution():
    # x_1 is constant on these atoms, so the null directions come first and
    # the pivots of G_1 and G_2 are not their leading columns; the reference
    # is the elimination of G_n a = G_n Z itself
    atoms = [(("0", "0"), "1/2"), (("0", "1"), "1/4"), (("0", "3"), "1/4")]
    ops = build(decompose(atomic_functional(atoms), 2))
    seq = compute(ops, 2)
    for n in (1, 2):
        g = seq.omega_matrix(n)
        rows = [_linalg._primitive(nums) for nums, _ in _linalg.integer_rows(g)]
        assert _linalg._eliminate(rows, len(g)) == [len(g) - 1]
        for j in (1, 2):
            z = ops.zero_matrix(j, n)
            reference = _linalg.solve_consistent(g, _linalg.mat_mul(g, z))
            assert seq.alpha_matrix(j, n) == reference


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
            assert not any(map(any, seq.alpha_matrix(j, n)))


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


def test_alpha_for_direction_needs_exactly_d_entries():
    # before, a short direction summed only the coordinates given
    seq = compute_from_functional(gaussian_functional(2), 2)
    for v in ([], [1], [1, 0, 0]):
        with pytest.raises(InvalidIndexError, match="direction vector must have d entries"):
            seq.alpha_for_direction(v, 1)
    # before, '12' read as the direction (1, 2) and 5 raised a bare TypeError
    for v in ("12", 5):
        with pytest.raises(UnsupportedParameterError, match="direction list must be a sequence"):
            seq.alpha_for_direction(v, 1)
    # before, a float entry gave entries like 82866233143617127/36028797018963968
    seq = compute_from_functional(gamma_functional([0, 1]), 2)
    with pytest.raises(UnsupportedParameterError, match="got float 0.1"):
        seq.alpha_for_direction([0.1, 1], 1)
    assert seq.alpha_for_direction(["1/10", 1], 1) == _linalg.mat_add(
        _linalg.mat_scale(seq.alpha_matrix(1, 1), Fraction(1, 10)), seq.alpha_matrix(2, 1)
    )


def test_degree_arguments_refuse_non_integers():
    # before, each of these raised a bare TypeError from range or a sum;
    # detect_atoms then named decompose's max_degree instead of its own
    # max_level
    g = gaussian_functional(2)
    ops = build(decompose(g, 2))
    seq = compute(ops, 2)
    for call, what in (
        (lambda: compute(ops, 1.0), "max_level"),
        (lambda: detect_atoms(g, 1.0), "max_level"),
        (lambda: detect_atoms(g, 1.5), "max_level"),
        (lambda: reconstruct_moment_table(seq, 1.0), "max_degree"),
        (lambda: reconstruct_moments(seq, (1.0, 0)), "multi-index entry"),
    ):
        with pytest.raises(InvalidIndexError, match=f"^{what} must be an integer"):
            call()
    for call in (lambda: compute(ops, -1), lambda: detect_atoms(g, -1)):
        with pytest.raises(InvalidIndexError, match=r"^max_level must be >= 0, got -1$"):
            call()
    with pytest.raises(InvalidIndexError, match=r"^negative entry in multi-index \(-1, 0\)$"):
        reconstruct_moments(seq, (-1, 0))


def test_compute_requires_deep_enough_ops():
    ops = build(decompose(gaussian_functional(1), 2))
    with pytest.raises(InvalidIndexError):
        compute(ops, 3)


def test_sequence_accessors_refuse_non_integer_indices():
    # before, classes, omega_matrix, alpha_matrix and alpha_available raised
    # a bare TypeError on a float level, and alpha_available(0, n) read the
    # last coordinate's entry
    seq = compute_from_functional(gaussian_functional(2), 2)
    for call in (
        lambda: seq.classes(1.0),
        lambda: seq.omega_matrix(1.0),
        lambda: seq.alpha_matrix(1, 1.0),
        lambda: seq.alpha_matrix(1.0, 1),
        lambda: seq.alpha_available(1, 1.0),
        lambda: seq.alpha_available(1.0, 1),
    ):
        with pytest.raises(InvalidIndexError, match="must be an integer"):
            call()
    for j in (0, 3):
        with pytest.raises(InvalidIndexError, match=rf"^coordinate {j} outside 1\.\.2$"):
            seq.alpha_available(j, 1)
    with pytest.raises(InvalidIndexError, match=r"^level 3 outside 0\.\.2$"):
        seq.omega_matrix(3)


def test_rank_profile_examples():
    full = compute_from_functional(gaussian_functional(2), 3)
    assert rank_profile(full) == [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)]
    two = compute_from_functional(atomic_functional(TWO_ATOMS), 3)
    assert rank_profile(two) == [(0, 1, 1), (1, 1, 2), (2, 0, 3), (3, 0, 4)]


def test_single_atom_omega_vanishes_at_level_one():
    seq = compute_from_functional(atomic_functional([(("3/2",), "1")]), 2)
    assert not any(map(any, seq.omega_matrix(1)))
    assert rank_profile(seq) == [(0, 1, 1), (1, 0, 1), (2, 0, 1)]


def test_detect_atoms_two_point_measure():
    det = detect_atoms(atomic_functional(TWO_ATOMS), 4)
    assert det.found and det.n0 == 2 and det.atom_bound == 3 and det.atom_count == 2
    assert det.ranks == (1, 1, 0, 0, 0)


def test_detect_atoms_single_atom_and_inconclusive():
    det = detect_atoms(atomic_functional([(("7",), "1")]), 3)
    assert det.found and det.n0 == 1 and det.atom_bound == 1 and det.atom_count == 1
    non = detect_atoms(gaussian_functional(1), 6)
    assert not non.found and non.n0 is None and non.atom_bound is None
    assert non.atom_count is None


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
    # the pair keeps its ladder: moment by moment reuses the table's
    assert len(built) == 1


@st.composite
def _functionals_and_levels(draw):
    """Random rational atoms (sometimes collinear, repeats merged) or a gamma
    or beta functional with random parameters, in d = 1..3, and a level."""
    kind = draw(st.sampled_from(("atoms", "gamma", "beta")))
    d = draw(st.integers(1, 3))
    point = st.tuples(*[_rationals()] * d)
    if kind == "atoms":
        points = draw(st.lists(point, min_size=1, max_size=8))
        if d > 1 and draw(st.booleans()):
            base, direction = draw(point), draw(point)
            steps = draw(st.lists(st.integers(-3, 3), min_size=len(points), max_size=len(points)))
            points = [tuple(b + t * v for b, v in zip(base, direction)) for t in steps]
        mass = {}
        for p in points:
            mass[p] = mass.get(p, 0) + draw(st.integers(1, 3))
        total = sum(mass.values())
        functional = atomic_functional([(p, Fraction(w, total)) for p, w in mass.items()])
    else:
        params = lambda: draw(st.lists(_rationals(-1), min_size=d, max_size=d))
        if kind == "gamma":
            functional = gamma_functional(params())
        else:
            functional = beta_functional(params(), params())
    return functional, draw(st.integers(0, 6 - d))


@settings(deadline=None, max_examples=60)
@given(_functionals_and_levels())
def test_moment_table_equals_the_functional(case):
    # the functional's own moment is the oracle; the keys come in
    # monomial_basis order, the order of the CLI's rows
    functional, top = case
    seq = compute_from_functional(functional, top)
    table = reconstruct_moment_table(seq, top)
    assert list(table) == monomial_basis(functional.d, top)
    assert table == {beta: functional.moment(beta) for beta in table}


def test_one_ladder_step_per_moment(monkeypatch):
    # the table takes each state from one state of the degree below;
    # reconstruct_moments walks beta, X_1 first and X_d last
    import jacobi_mv.jacobi_sequences as sequences

    steps = []
    step = sequences._step
    monkeypatch.setattr(
        sequences,
        "_step",
        lambda seq, ladder, state, j, top: steps.append(j) or step(seq, ladder, state, j, top),
    )
    for functional, top in (
        (gaussian_functional(1), 5),
        (gamma_functional([0, Fraction(1, 2)]), 4),
        (atomic_functional([(("0", "0", "1"), "1/2"), (("1", "-1", "2"), "1/2")]), 3),
    ):
        d = functional.d
        seq = compute_from_functional(functional, top)
        for n in range(top + 1):
            steps.clear()
            reconstruct_moment_table(seq, n)
            assert len(steps) == math.comb(n + d, d) - 1
            # X^beta vac = X_j X^(beta - e_j) vac, j the last nonzero coordinate
            assert steps == [max(j for j, b in enumerate(beta, start=1) if b)
                             for beta in monomial_basis(d, n)[1:]]
        for beta in monomial_basis(d, top):
            steps.clear()
            reconstruct_moments(seq, beta)
            assert steps == [j for j, power in enumerate(beta, start=1) for _ in range(power)]


def _hand_built(omega, alpha):
    """A d = 1 pair on levels 0..len(omega)-1 with 1x1 blocks."""
    wrap = lambda x: None if x is None else [[Fraction(x)]]
    top = len(omega) - 1
    return JacobiSequencePair(
        1, top, [enumerate_classes(1, n) for n in range(top + 1)],
        [wrap(x) for x in omega], [[wrap(x)] for x in alpha],
    )


def test_ladder_and_step_errors_on_hand_built_pairs():
    import jacobi_mv.jacobi_sequences as sequences

    # Omega_0 = 0 cannot carry the adjoint of A+ against Omega_1 = 1:
    # 0 * A- = 1 has no solution
    broken = _hand_built([0, 1], [0, 0])
    for call in (
        lambda: reconstruct_moments(broken, (1,)),
        lambda: reconstruct_moment_table(broken, 1),
    ):
        with pytest.raises(
            RepresentationError,
            match="^annihilation adjoint system at level 1, coordinate 1 is inconsistent",
        ):
            call()
    # an unset alpha is refused where a step needs it, not before
    unset = _hand_built([1, 1], [None, 0])
    assert reconstruct_moments(unset, (0,)) == 1
    with pytest.raises(InsufficientMomentsError, match="^alpha at top level 0"):
        reconstruct_moments(unset, (1,))
    # a step from the truncation level would leave the ladder
    seq = _hand_built([1, 1], [0, 0])
    ladder = sequences._ladder(seq)
    top_state = sequences._step(seq, ladder, [[Fraction(1)]], 1, 1)
    assert top_state == [[0], [1]]
    with pytest.raises(InsufficientDepthError, match="^operator chain exceeds the truncation at level 1$"):
        sequences._step(seq, ladder, top_state, 1, 2)


@settings(deadline=None, max_examples=40)
@given(_functionals_and_levels())
def test_ladder_adjoints_are_the_per_coordinate_solutions(case):
    # the ladder solves the d adjoint systems of a level together; each
    # block must be what its own solve of Omega_{n-1} A- = (rows of
    # Omega_n hit by A+_{j|n-1}) gives
    import jacobi_mv.jacobi_sequences as sequences

    functional, top = case
    seq = compute_from_functional(functional, top)
    plus, minus = sequences._ladder(seq)
    for j in range(1, seq.d + 1):
        step = tuple(int(i == j - 1) for i in range(seq.d))
        for n in range(top):
            nxt = seq.classes(n + 1)
            shifted = [tuple(b + s for b, s in zip(c, step)) for c in seq.classes(n).classes]
            assert plus[(j, n)] == [nxt.index(c) for c in shifted]
        for n in range(1, top + 1):
            rows = [seq.omega_matrix(n)[i] for i in plus[(j, n - 1)]]
            assert minus[(j, n)] == _linalg.solve_consistent(seq.omega_matrix(n - 1), rows)


def test_the_first_inconsistent_adjoint_system_is_named_coordinate_first():
    # d = 2 with Omega_0 = 0, Omega_1 = diag(0, 1) and Omega_2 = 1: the
    # systems of (j, n) = (2, 1), (1, 2) and (2, 2) are inconsistent, and
    # coordinate 1 is tried at every level before coordinate 2
    import jacobi_mv.jacobi_sequences as sequences

    bases = [enumerate_classes(2, n) for n in range(3)]
    assert bases[1].classes == ((1, 0), (0, 1))
    omega = [[[Fraction(0)]], [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]],
             [[Fraction(int(i == k)) for k in range(3)] for i in range(3)]]
    alpha = [[_linalg.zeros(len(b), len(b))] * 2 for b in bases]
    pair = JacobiSequencePair(2, 2, bases, omega, alpha)
    text = "^annihilation adjoint system at level 2, coordinate 1 is inconsistent with the omega sequence$"
    for call in (
        lambda: sequences._ladder(pair),
        lambda: reconstruct_moments(pair, (1, 0)),
        lambda: reconstruct_moment_table(pair, 2),
    ):
        with pytest.raises(RepresentationError, match=text):
            call()


def test_each_state_keeps_only_the_levels_that_reach_the_vacuum(monkeypatch):
    # a state of degree m in a moment of degree M holds levels
    # 0..min(m, M - m); the table's states come in monomial_basis order
    import jacobi_mv.jacobi_sequences as sequences

    held = []
    step = sequences._step
    monkeypatch.setattr(
        sequences,
        "_step",
        lambda *args: held.append(len(image := step(*args))) or image,
    )
    for functional, top in (
        (gaussian_functional(1), 6),
        (gamma_functional([0, Fraction(1, 2)]), 5),
        (atomic_functional([(("0", "0", "1"), "1/2"), (("1", "-1", "2"), "1/2")]), 3),
    ):
        d = functional.d
        seq = compute_from_functional(functional, top)
        for total in range(top + 1):
            held.clear()
            reconstruct_moment_table(seq, total)
            assert held == [min(sum(beta), total - sum(beta)) + 1
                            for beta in monomial_basis(d, total)[1:]]
        for beta in monomial_basis(d, top):
            held.clear()
            reconstruct_moments(seq, beta)
            total = sum(beta)
            assert held == [min(t, total - t) + 1 for t in range(1, total + 1)]


def _full_state_step(seq, ladder, state, j):
    """X_j on every level 0..m+1 of the image of a degree-m state: the
    untruncated step, as a reference for the truncated one."""
    plus, minus = ladder
    top = len(state)
    image = []
    for n in range(top + 1):
        level = [Fraction(0)] * len(seq.classes(n))
        if n:
            for k, i in enumerate(plus[(j, n - 1)]):
                level[i] = state[n - 1][k]
        blocks = []
        if n < top and any(state[n]):
            blocks.append((seq.alpha_matrix(j, n), state[n]))
        if n + 1 < top and any(state[n + 1]):
            blocks.append((minus[(j, n + 1)], state[n + 1]))
        for matrix, vector in blocks:
            level = [c + sum(a * v for a, v in zip(row, vector))
                     for c, row in zip(level, matrix)]
        image.append(level)
    return image


def _full_state_moment(seq, beta):
    from jacobi_mv.jacobi_sequences import _ladder

    ladder = _ladder(seq)
    state = [[Fraction(1)]]
    for j, power in enumerate(beta, start=1):
        for _ in range(power):
            state = _full_state_step(seq, ladder, state, j)
    return seq.omega_matrix(0)[0][0] * state[0][0]


def _outcome(call):
    """A call's value, or the type and text of the library error it raised."""
    try:
        return call()
    except JacobiError as exc:
        return type(exc), str(exc)


@st.composite
def _hand_built_singular_pairs(draw):
    """d = 1 pairs whose Omega_n are drawn from 0..6, so often singular, and
    in about half of them vanish from some level on; alpha is set below
    the top level.  A nonzero Omega after a
    zero one makes the adjoint system inconsistent, and both sides must
    raise the same error."""
    top = draw(st.integers(0, 5))
    omega = draw(st.lists(st.builds(Fraction, st.integers(0, 6), st.integers(1, 3)),
                          min_size=top + 1, max_size=top + 1))
    if draw(st.booleans()):
        vanish = draw(st.integers(0, top))
        omega = omega[:vanish] + [0] * (top + 1 - vanish)
    alpha = draw(st.lists(_rationals(), min_size=top, max_size=top))
    return _hand_built(omega, alpha + [draw(st.sampled_from((None, 0)))])


@settings(deadline=None, max_examples=40)
@given(st.one_of(_functionals_and_levels(), _hand_built_singular_pairs()))
def test_truncated_states_give_the_full_state_moments(case):
    if isinstance(case, JacobiSequencePair):
        seq = case
    else:
        functional, top = case
        seq = compute_from_functional(functional, top)
    top = seq.max_level
    for beta in monomial_basis(seq.d, top):
        expected = _outcome(lambda: _full_state_moment(seq, beta))
        assert _outcome(lambda: reconstruct_moments(seq, beta)) == expected
    for total in range(top + 1):
        expected = _outcome(lambda: {beta: _full_state_moment(seq, beta)
                                     for beta in monomial_basis(seq.d, total)})
        assert _outcome(lambda: reconstruct_moment_table(seq, total)) == expected


def test_an_unset_alpha_out_of_reach_of_the_vacuum_is_not_read():
    # alpha_{1|1} would act on level 1 of X_1 vac, but the moment of degree
    # 2 needs only level 0 of X_1^2 vac; the full-state step read it and
    # raised
    pair = _hand_built([1, 1, 1], [0, None, 0])
    with pytest.raises(InsufficientMomentsError, match="^alpha at top level 1 "):
        _full_state_moment(pair, (2,))
    assert reconstruct_moment_table(pair, 2) == {(0,): 1, (1,): 0, (2,): 1}
    assert reconstruct_moments(pair, (2,)) == 1


def test_reconstruct_depth_and_index_validation(monkeypatch):
    import jacobi_mv.jacobi_sequences as sequences

    seq = compute_from_functional(gaussian_functional(1), 2)
    with pytest.raises(InsufficientDepthError):
        reconstruct_moments(seq, (3,))
    with pytest.raises(DimensionMismatchError, match=r"^multi-index length 2 != dimension 1$"):
        reconstruct_moments(seq, (1, 1))
    with pytest.raises(InvalidIndexError, match=r"^negative entry in multi-index \(-1,\)$"):
        reconstruct_moments(seq, (-1,))
    # before, a negative degree gave {} and a degree past the truncation
    # raised only after every lower degree was built; both now refuse
    # before the ladder exists
    monkeypatch.setattr(sequences, "_ladder", lambda seq: pytest.fail("ladder built"))
    with pytest.raises(InvalidIndexError, match=r"^max_degree must be >= 0, got -1$"):
        reconstruct_moment_table(seq, -1)
    depth = r"^moment of degree 3 needs an operator chain through level 3, beyond the truncation at 2$"
    for max_degree in (3, 5):
        with pytest.raises(InsufficientDepthError, match=depth):
            reconstruct_moment_table(seq, max_degree)


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


# ---------------------------------------------------------------- the stop at n0

# the benchmark's six atoms in general position in R^2: ranks 1, 2, 3, so n0 = 3
SIX_ATOMS = [
    ((x, y), Fraction(w, 12))
    for x, y, w in zip(("-2", "-1/2", "0", "1/3", "1", "3/2"),
                       ("1", "-2", "3/2", "0", "-1/2", "1/3"), (1, 2, 3, 1, 2, 3))
]


def _table_of(functional, max_degree):
    """The functional's moments to max_degree as a table, which is never positive."""
    moments = {beta: functional.moment(beta) for beta in monomial_basis(functional.d, max_degree)}
    return table_functional(functional.d, max_degree, moments)


def _pair_calls(monkeypatch, call):
    calls = []
    pair_code = MomentMatrix.pair_code
    monkeypatch.setattr(MomentMatrix, "pair_code",
                        lambda self, *args: calls.append(args) or pair_code(self, *args))
    call()
    monkeypatch.undo()
    return len(calls)


def test_an_atom_set_pairs_nothing_past_its_vanishing_level(monkeypatch):
    # every level past n0 is null, so neither the scan nor the sequences
    # pair anything there: the pair_code count stays that of level n0
    phi = atomic_functional(SIX_ATOMS)
    scans = {top: _pair_calls(monkeypatch, lambda: detect_atoms(phi, top)) for top in range(3, 7)}
    pairs = {
        top: _pair_calls(monkeypatch, lambda: compute_from_functional(phi, top))
        for top in range(3, 6)
    }
    assert len(set(scans.values())) == 1, scans
    assert len(set(pairs.values())) == 1, pairs
    det = detect_atoms(phi, 6)
    assert (det.n0, det.ranks, det.atom_count) == (3, (1, 2, 3, 0, 0, 0, 0), 6)
    # the table of the same moments pairs every level in full
    table = _table_of(phi, 13)
    assert _pair_calls(monkeypatch, lambda: detect_atoms(table, 6)) > scans[6]
    assert detect_atoms(table, 6) == det


def test_a_trusted_positive_table_needs_no_moment_past_its_vanishing_level():
    # the two atoms' moments to degree 5 = 2 n0 + 1 only, from a subclass
    # that declares itself positive: the scan and the sequences to level 4
    # read no moment past degree 5, and every alpha past n0 is a set 0
    class Trusted(TableFunctional):
        def positive(self):
            return True

    phi = atomic_functional(TWO_ATOMS)
    trusted = Trusted(2, 5, {beta: phi.moment(beta) for beta in monomial_basis(2, 5)})
    assert detect_atoms(trusted, 4) == detect_atoms(phi, 4)
    seq = compute_from_functional(trusted, 4)
    assert seq.max_level == 4
    for n in (3, 4):
        size = len(enumerate_classes(2, n))
        assert seq.omega_matrix(n) == _linalg.zeros(size, size)
        assert seq.alpha_available(1, n) and seq.alpha_matrix(2, n) == _linalg.zeros(size, size)
    assert reconstruct_moment_table(seq, 4) == {b: phi.moment(b) for b in monomial_basis(2, 4)}


@st.composite
def _atom_sets(draw):
    """Distinct rational atoms in general position, on a line or on a plane,
    in d = 1..3, with positive weights; at most 4 atoms in d = 3."""
    shape = draw(st.sampled_from(("general", "collinear", "coplanar")))
    d = draw(st.integers({"general": 1, "collinear": 2, "coplanar": 3}[shape], 3))
    count = draw(st.integers(1, 5 if d < 3 else 4))
    point = st.tuples(*[_rationals()] * d)
    if shape == "general":
        points = draw(st.lists(point, min_size=count, max_size=count, unique=True))
    else:
        base, u, v = draw(point), draw(point), draw(point)
        second = _rationals() if shape == "coplanar" else st.just(0)
        steps = draw(st.lists(st.tuples(_rationals(), second), min_size=count, max_size=count))
        # u and v may be dependent, so distinct steps can meet at one point
        points = list(dict.fromkeys(
            tuple(b + s * x + t * y for b, x, y in zip(base, u, v)) for s, t in steps
        ))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    return [(p, Fraction(w, sum(weights))) for p, w in zip(points, weights)]


@settings(deadline=None, max_examples=25)
@given(_atom_sets())
def test_the_atom_count_is_the_number_of_atoms(atoms):
    # n0 <= the atom count, since every level below n0 has rank >= 1
    phi = atomic_functional(atoms)
    for functional in (phi, _table_of(phi, 2 * len(atoms))):
        det = detect_atoms(functional, len(atoms))
        assert det.found and det.atom_count == len(atoms)


@settings(deadline=None, max_examples=20)
@given(_atom_sets())
def test_an_atom_list_stopped_at_n0_gives_what_its_table_gives(atoms):
    # the table takes the full path, every level formed, paired and
    # eliminated; the atom list stops at n0 and sets the levels past it to 0
    phi = atomic_functional(atoms)
    top = detect_atoms(phi, len(atoms)).n0 + 2
    table = _table_of(phi, 2 * top + 1)
    assert detect_atoms(phi, top).ranks == detect_atoms(table, top).ranks
    seq, full = compute_from_functional(phi, top), compute_from_functional(table, top)
    assert seq.max_level == full.max_level == top
    for n in range(top + 1):
        assert seq.classes(n).classes == full.classes(n).classes
        assert seq.omega_matrix(n) == full.omega_matrix(n)
        for j in range(1, phi.d + 1):
            assert seq.alpha_available(j, n) and full.alpha_available(j, n)
            assert seq.alpha_matrix(j, n) == full.alpha_matrix(j, n)
