"""The three workloads: seeded job lists, their inputs, and their checks.

Each workload is a fixed list of jobs.  The seed picks the inputs (which
coordinate gets which parameter, the atom coordinates and weights); the
sizes of the jobs never depend on it, so every seed does the same amount of
work of the same kind.  Every job's output is checked against reference.py,
which computes apart from jacobi_mv, or against a property the method must
have.  No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import reference

import jacobi_mv
import jacobi_mv.cli

F = Fraction


class CheckFailed(Exception):
    """A job's output disagrees with the reference or a required property."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    """One operation: `call` is timed, `finish` and `check` are not."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    finish: Callable[[object], object] = lambda raw: raw
    values: Callable[[object], List[Fraction]] = lambda result: []


@dataclass
class Workload:
    jobs: List[Job]
    big_job: str
    byte_stable: bool = False  # results must repeat byte for byte across passes


def _compositions(d: int, n: int) -> List[tuple]:
    if d == 1:
        return [(n,)]
    return [(k,) + rest for k in range(n + 1) for rest in _compositions(d - 1, n - k)]


def _diagonal_check(matrix, expected, what: str) -> None:
    size = len(expected)
    _require(len(matrix) == size and all(len(row) == size for row in matrix), f"{what}: shape")
    for i in range(size):
        for j in range(size):
            want = expected[i] if i == j else 0
            _require(matrix[i][j] == want, f"{what}[{i}][{j}] = {matrix[i][j]}, expected {want}")


def _matrix_values(matrix) -> List[Fraction]:
    return [F(x) for row in matrix for x in row]


# ------------------------------------------------------------------ classical

FAMILY_ORDER = ("hermite", "laguerre", "jacobi", "gegenbauer", "chebyshev1", "chebyshev2", "legendre")
# per-coordinate parameters; the seed permutes them (and reflects jacobi
# pairs a <-> b, i.e. x -> -x), which keeps every job's cost the same
LAGUERRE_ALPHA = (F(1, 2), F(0), F(1), F(-1, 3))
JACOBI_AB = ((F(0), F(1, 2)), (F(1, 2), F(1)), (F(-1, 2), F(1, 3)), (F(1), F(-1, 3)))
GEGENBAUER_LAMBDA = (F(1, 3), F(1), F(3, 2), F(2, 5))
CLASSICAL_LEVEL = {1: 8, 2: 4, 3: 3, 4: 2}
CLASSICAL_BIG = ("jacobi", 3, 5)  # the interactive target of the roadmap


def _classical_params(family: str, d: int, rng: random.Random):
    """(family_spec kwargs, per-coordinate reference weights)."""
    order = list(range(d))
    rng.shuffle(order)
    if family == "hermite":
        return {"d": d}, [("hermite", ())] * d
    if family == "laguerre":
        alpha = [LAGUERRE_ALPHA[i] for i in order]
        return {"alpha": alpha}, [("laguerre", (x,)) for x in alpha]
    if family == "jacobi":
        pairs = [JACOBI_AB[i] if rng.random() < 0.5 else JACOBI_AB[i][::-1] for i in order]
        return (
            {"a": [p[0] for p in pairs], "b": [p[1] for p in pairs]},
            [("jacobi", p) for p in pairs],
        )
    if family == "gegenbauer":
        lam = [GEGENBAUER_LAMBDA[i] for i in order]
        return {"lam": lam}, [("jacobi", (x - F(1, 2), x - F(1, 2))) for x in lam]
    ab = {"chebyshev1": F(-1, 2), "chebyshev2": F(1, 2), "legendre": F(0)}[family]
    return {"d": d}, [("jacobi", (ab, ab))] * d


def _classical_job(family: str, d: int, level: int, rng: random.Random) -> Job:
    kwargs, weights = _classical_params(family, d, rng)
    spec = jacobi_mv.family_spec(family, **kwargs)

    @functools.cache
    def recurrence():
        return [
            reference.recurrence_data(reference.coordinate_moments(f, p, 2 * (level + 1)), level + 1)
            for f, p in weights
        ]

    def check(report) -> None:
        name = f"{family} d={d} N={level}"
        h_b = recurrence()
        _require(report.ok, f"{name}: report.ok is false")
        _require(len(report.levels) == level + 1, f"{name}: level count")
        for lv in report.levels:
            classes = [tuple(c) for c in lv.classes]
            _require(sorted(classes) == sorted(_compositions(d, lv.n)), f"{name}: classes at level {lv.n}")
            omega = [math.prod(h_b[j][0][c[j]] for j in range(d)) for c in classes]
            _diagonal_check(lv.omega_pipeline, omega, f"{name}: Omega_{lv.n}")
            _require(len(lv.alphas) == d, f"{name}: alpha count at level {lv.n}")
            for comparison in lv.alphas:
                j = comparison.j - 1
                alpha = [h_b[j][1][c[j]] for c in classes]
                _diagonal_check(comparison.pipeline, alpha, f"{name}: alpha_{comparison.j}|{lv.n}")

    def values(report) -> List[Fraction]:
        out = []
        for lv in report.levels:
            out += _matrix_values(lv.omega_pipeline)
            for comparison in lv.alphas:
                out += _matrix_values(comparison.pipeline)
        return out

    return Job(
        f"{family}-d{d}-N{level}",
        lambda: jacobi_mv.verify_family(spec, level, variant="master"),
        check,
        values=values,
    )


def classical(seed: int, work_dir: str) -> Workload:
    """verify_family for all seven families over d = 1..4, plus the big job."""
    rng = random.Random(seed)
    jobs = [
        _classical_job(family, d, CLASSICAL_LEVEL[d], rng)
        for d in sorted(CLASSICAL_LEVEL)
        for family in FAMILY_ORDER
    ]
    family, d, level = CLASSICAL_BIG
    jobs.append(_classical_job(family, d, level, rng))
    return Workload(jobs, big_job=jobs[-1].name)


# --------------------------------------------------------------------- atom sets


# fixed weighted point sets in general position on each shape; the seed
# permutes the coordinates and flips their signs, which keeps every bit size,
# and with it the cost, the same for every seed
X = (F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(3, 2))
Y = (F(1), F(-2), F(3, 2), F(0), F(-1, 2), F(1, 3))
WEIGHT_NUMERATORS = (1, 2, 3, 1, 2, 3)
SHAPES = {
    "general": (2, lambda x, y: (x, y)),
    "collinear": (2, lambda x, y: (1 + x, F(-1, 2) + 2 * x)),
    "coplanar": (3, lambda x, y: (x, y, x - 2 * y + 1)),
    "line": (1, lambda x, y: (x,)),
}


def atom_set(shape: str, count: int, rng: random.Random):
    """`count` weighted atoms on the shape, under a seeded signed permutation.

    general: anywhere in R^2; collinear: on a line in R^2; coplanar: on the
    plane x3 = x1 - 2 x2 + 1 in R^3; line: R^1.
    """
    d, place = SHAPES[shape]
    order = list(range(d))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    weights = [F(k, sum(WEIGHT_NUMERATORS[:count])) for k in WEIGHT_NUMERATORS[:count]]
    atoms = []
    for x, y, w in zip(X[:count], Y[:count], weights):
        point = place(x, y)
        atoms.append((tuple(signs[k] * point[order[k]] for k in range(d)), w))
    return sorted(atoms)


def general_position_ranks(shape: str, atoms, levels: int) -> List[int]:
    """The Vandermonde ranks up to `levels`, required to be the generic ones
    for the shape (no point set in special position within it)."""
    free = {"general": 2, "coplanar": 2}.get(shape, 1)
    generic = [min(len(atoms), math.comb(n + free, free)) for n in range(levels + 1)]
    ranks = reference.vandermonde_ranks(atoms, levels)
    _require(ranks == generic, f"{shape} atom set is in special position: ranks {ranks}")
    return ranks


def _atoms_doc(atoms) -> dict:
    return {
        "d": len(atoms[0][0]),
        "atoms": [{"x": [str(c) for c in x], "w": str(w)} for x, w in atoms],
    }


def _table_doc(atoms, max_degree: int) -> dict:
    d = len(atoms[0][0])
    monos = sorted(reference.monomials_up_to(d, max_degree), key=lambda b: (sum(b), b))
    return {
        "d": d,
        "max_degree": max_degree,
        "moments": [
            {"beta": list(beta), "value": str(reference.atom_moment(atoms, beta))} for beta in monos
        ],
    }


# ------------------------------------------------------------------- atomic

# (shape, atoms, level N of omega/alpha/reconstruct, level of the atoms
# scan).  N stays where cap_operators.build still succeeds on these sets;
# detect_atoms only decomposes, so its scan goes deeper.
ATOMIC_SETS = (
    ("general", 6, 4, 5),
    ("collinear", 4, 3, 5),
    ("coplanar", 4, 2, 4),
    ("line", 4, 5, 6),
)
ATOMIC_COMMANDS = ("atoms", "omega", "alpha", "reconstruct")
ATOMIC_BIG = "coplanar-atoms-atoms"


def _atomic_reference(shape: str, atoms, scan: int) -> Callable:
    """The reference figures of one atom set, made at its first check, not
    at set-up: (n0, per-level ranks, coordinate means)."""

    @functools.cache
    def figures():
        d = len(atoms[0][0])
        ranks = general_position_ranks(shape, atoms, scan)
        n0 = next(n for n in range(1, len(ranks)) if ranks[n] == ranks[n - 1])
        level_ranks = [ranks[0]] + [ranks[n] - ranks[n - 1] for n in range(1, len(ranks))]
        mean = [reference.atom_moment(atoms, [int(i == j) for i in range(d)]) for j in range(d)]
        return n0, level_ranks, mean

    return figures


def _atomic_check(command: str, atoms, level: int, figures: Callable) -> Callable:
    d = len(atoms[0][0])
    count = len(atoms)

    def check(text: str) -> None:
        n0, level_ranks, mean = figures()
        doc = json.loads(text)
        if command == "atoms":
            _require(doc["n0"] == n0, f"n0 = {doc['n0']}, Vandermonde ranks give {n0}")
            _require(doc["atom_bound"] == math.comb(n0 - 1 + d, d), "atom_bound")
            return
        if command == "reconstruct":
            rows = doc["moments"]
            _require(len(rows) == math.comb(level + d, d), "reconstruct rows")
            for row in rows:
                want = reference.atom_moment(atoms, row["beta"])
                _require(F(row["value"]) == want, f"moment {row['beta']} = {row['value']}, atom sum {want}")
                _require(F(row["input"]) == want and row["match"], f"moment {row['beta']} input")
            _require(doc["ok"], "reconstruct: ok is false")
            return
        levels = doc["levels"]
        _require(len(levels) == level + 1, f"{command}: level count")
        if command == "alpha":
            for entry in levels[0]["alpha"]:
                got = entry["matrix"]
                _require(got == [[str(mean[entry["j"] - 1])]], f"alpha_{entry['j']}|0 = {got}, mean {mean}")
            return
        omega = [[[F(x) for x in row] for row in lv["omega"]] for lv in levels]
        omega_ranks = [reference.rank(matrix) for matrix in omega]
        _require(omega_ranks == level_ranks[: level + 1], f"Omega ranks {omega_ranks}, Vandermonde differences {level_ranks}")
        _require(level + 1 >= n0 and sum(omega_ranks[:n0]) == count, "ranks below n0 do not sum to the atom count")
        _require(omega[0] == [[1]], "Omega_0 != 1")
        # Omega_1 is the covariance matrix, its classes are the unit vectors
        coordinate = [list(c).index(1) for c in levels[1]["classes"]]
        for i, ci in enumerate(coordinate):
            for j, cj in enumerate(coordinate):
                beta = [int(k == ci) + int(k == cj) for k in range(d)]
                cov = reference.atom_moment(atoms, beta) - mean[ci] * mean[cj]
                _require(omega[1][i][j] == cov, f"Omega_1[{i}][{j}] != covariance {cov}")

    return check


def _document_values(text: str) -> List[Fraction]:
    doc = json.loads(text)
    out = []
    for row in doc.get("moments", []):
        out.append(F(row["value"]))
    for lv in doc.get("levels", []):
        if "omega" in lv:
            out += _matrix_values(lv["omega"])
        for entry in lv.get("alpha", []):
            out += _matrix_values(entry["matrix"])
    return out


def _take(path: str) -> Optional[str]:
    """The file's text, or None; removes the file, so that a document left
    by an earlier call cannot pass for the next one."""
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    os.remove(path)
    return text


def _cli_job(name: str, argv: List[str], output: str, check: Callable, latest: Dict, twin: Optional[str]) -> Job:
    """In-process jacobi_mv.cli.main writing to a file.

    Exit status 2 (an error message, no document) fails the operation.
    Status 0 and 1 write a document, which is checked; status 1 is the
    program reporting its own mismatch, so it is a wrong output.  `twin`
    names the atom-list job whose document this moment-table job must equal
    byte for byte; it runs earlier in the same pass.
    """

    def call():
        try:
            status = jacobi_mv.cli.main(argv + ["--output", output])
        except SystemExit as exc:  # argparse rejects the arguments
            raise RuntimeError(f"{name}: exited with {exc.code}") from None
        if status == 2:
            raise RuntimeError(f"{name}: exit status 2")
        return status

    def full_check(result) -> None:
        status, text = result
        _require(text is not None, f"{name}: exit status {status} and no document written")
        latest[name] = text
        check(text)
        _require(status == 0, f"{name}: exit status {status}")
        if twin is not None:
            _require(text == latest.get(twin), f"{name}: bytes differ from {twin}")

    return Job(
        name,
        call,
        full_check,
        finish=lambda status: (status, _take(output)),
        values=lambda result: _document_values(result[1]) if result[1] is not None else [],
    )


def atomic(seed: int, work_dir: str) -> Workload:
    """CLI commands on seeded atom sets, from atom lists and moment tables."""
    rng = random.Random(seed)
    os.makedirs(work_dir, exist_ok=True)
    jobs = []
    latest: Dict[str, str] = {}
    for name, count, level, scan in ATOMIC_SETS:
        atoms = atom_set(name, count, rng)
        figures = _atomic_reference(name, atoms, scan)
        table_degree = max(2 * scan, 2 * level + 1)
        sources = {
            "atoms": _atoms_doc(atoms),
            "table": _table_doc(atoms, table_degree),
        }
        for source, doc in sources.items():
            path = os.path.join(work_dir, f"{name}-{source}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            for command in ATOMIC_COMMANDS:
                depth = scan if command == "atoms" else level
                job_name = f"{name}-{source}-{command}"
                output = os.path.join(work_dir, f"{job_name}.out.json")
                argv = [command, "--measure", path, "--max-level", str(depth)]
                check = _atomic_check(command, atoms, level, figures)
                twin = f"{name}-atoms-{command}" if source == "table" else None
                jobs.append(_cli_job(job_name, argv, output, check, latest, twin))

    return Workload(jobs, big_job=ATOMIC_BIG, byte_stable=True)


# ----------------------------------------------------------------- roundtrip

# (name, kind, d, level N); the pair is computed to level N at set-up, the
# job reconstructs every moment of degree <= N and re-derives the pair to
# level N // 2 from that table
ROUNDTRIP_CASES = (
    ("gaussian-d2", "gaussian", 2, 6),
    ("gamma-d3", "gamma", 3, 4),
    ("beta-d2", "beta", 2, 5),
    ("gamma-d1", "gamma", 1, 10),
    ("atomic-general-d2", "atomic", 2, 4),
    ("atomic-line-d1", "atomic", 1, 5),
)
ROUNDTRIP_BIG = "gamma-d3"
GAMMA_ALPHA = (F(1, 2), F(0), F(2, 3))
BETA_AB = ((F(0), F(1, 2)), (F(1, 3), F(-1, 2)))


def _roundtrip_functional(kind: str, d: int, level: int, rng: random.Random):
    """(jacobi_mv functional, reference moment of a multi-index)."""
    order = list(range(d))
    rng.shuffle(order)
    if kind == "atomic":
        atoms = atom_set("general" if d > 1 else "line", 5, rng)
        return jacobi_mv.atomic_functional(atoms), lambda beta: reference.atom_moment(atoms, beta)
    if kind == "gaussian":
        weights = [("hermite", ())] * d
        functional = jacobi_mv.gaussian_functional(d)
    elif kind == "gamma":
        alpha = [GAMMA_ALPHA[i] for i in order]
        weights = [("laguerre", (x,)) for x in alpha]
        functional = jacobi_mv.gamma_functional(alpha)
    else:
        pairs = [BETA_AB[i] if rng.random() < 0.5 else BETA_AB[i][::-1] for i in order]
        weights = [("jacobi", p) for p in pairs]
        functional = jacobi_mv.beta_functional([p[0] for p in pairs], [p[1] for p in pairs])

    @functools.cache
    def per_coordinate():
        return [reference.coordinate_moments(f, p, level + 1) for f, p in weights]

    return functional, lambda beta: math.prod(m[k] for m, k in zip(per_coordinate(), beta))


def _roundtrip_job(name: str, kind: str, d: int, level: int, rng: random.Random) -> Job:
    functional, moment = _roundtrip_functional(kind, d, level, rng)
    seq = jacobi_mv.compute_from_functional(functional, level)
    half = level // 2

    def call():
        table = jacobi_mv.reconstruct_moment_table(seq, level)
        again = jacobi_mv.compute_from_functional(jacobi_mv.table_functional(d, level, table), half)
        return table, again

    def check(result) -> None:
        table, again = result
        _require(sorted(table) == sorted(reference.monomials_up_to(d, level)), f"{name}: table keys")
        for beta, value in table.items():
            _require(value == moment(beta), f"{name}: moment {beta} = {value}, reference {moment(beta)}")
        for n in range(half + 1):
            _require(again.omega_matrix(n) == seq.omega_matrix(n), f"{name}: Omega_{n} differs")
            for j in range(1, d + 1):
                # the top alpha needs degree 2*half + 1, which an even N lacks
                if n < half or again.alpha_available(j, n):
                    _require(again.alpha_matrix(j, n) == seq.alpha_matrix(j, n), f"{name}: alpha_{j}|{n} differs")

    def values(result) -> List[Fraction]:
        table, again = result
        out = list(table.values())
        for n in range(half + 1):
            out += _matrix_values(again.omega_matrix(n))
            for j in range(1, d + 1):
                if again.alpha_available(j, n):
                    out += _matrix_values(again.alpha_matrix(j, n))
        return out

    return Job(name, call, check, values=values)


def roundtrip(seed: int, work_dir: str) -> Workload:
    """Sequences -> moment table -> sequences, for product and atomic functionals."""
    rng = random.Random(seed)
    jobs = [_roundtrip_job(name, kind, d, level, rng) for name, kind, d, level in ROUNDTRIP_CASES]
    return Workload(jobs, big_job=ROUNDTRIP_BIG)


WORKLOADS = {"classical": classical, "atomic": atomic, "roundtrip": roundtrip}
