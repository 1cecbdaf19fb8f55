"""Every function of src/jacobi_mv that the system's traffic never enters is
named here, with the reason it is kept.

The traffic is fixed: every CLI command on the seven families and on the
measure files of the CI steps, the README's python blocks, and one pass of
every job of the benchmark's three workloads, set-up included.  Run as a
script, this file runs that traffic in its own interpreter under a profile
hook and prints the entered functions of the package as JSON, a list of
(file under src/jacobi_mv, first line) pairs:

    python tests/test_reachability.py

The hook starts before jacobi_mv is imported, so calls made at import time
count.  The test runs the script in a fresh interpreter, because the memos
of enumerate_classes and graded_index would otherwise be warm or cold
depending on which tests ran first.  It fails when the functions never
entered differ from UNREACHED in either direction: a new function that no
traffic reaches must be deleted or listed with its reason, and a listed
function that the traffic enters must leave the list.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "jacobi_mv")
BENCH = os.path.join(ROOT, "bench")
README = os.path.join(ROOT, "README.md")

# module.qualname -> why the traffic never enters it and it stays
UNREACHED = {
    # error and certificate paths that no traffic input takes
    "_linalg.first_inconsistent": "names the first inconsistent projection or top solve of a non-PSD table",
    "moments.MomentFunctional.mass_factor": "raises NoMassFactorError for a source with no classical weight",
    # the benchmark's trace targets (bench/spans.py TARGETS)
    "_linalg.solve_consistent": "traced by bench/spans.py; the tests' reference for the integer solves",
    "moments.MomentFunctional.inner_product": "traced by bench/spans.py; the tests' polynomial pairing",
    "polyring.Polynomial.__mul__": "traced by bench/spans.py; the tests' polynomial products",
    "polyring.Polynomial._check_same_d": "called by __mul__ and __add__",
    "polyring.Polynomial.scale": "called by __mul__ for a scalar; the tests' projections scale by it",
    # abstract methods
    "moments.MomentFunctional.moment": "abstract: each functional defines its own",
    "moments._Sequence1D._next": "abstract: each one-variable sequence defines its own",
    # value semantics of the immutable types
    "polyring.Polynomial.__eq__": "value equality, which the tests compare by",
    "polyring.Polynomial.__hash__": "hash consistent with __eq__",
    "polyring.Polynomial.__repr__": "readable form in failure messages",
    "polyring.Polynomial.__setattr__": "refuses mutation of an immutable value",
    "symbolic.GammaProduct.__eq__": "value equality, which the tests compare by",
    "symbolic.GammaProduct.__hash__": "hash consistent with __eq__",
    "symbolic.GammaProduct.__repr__": "readable form in failure messages",
    "symbolic.GammaProduct.__setattr__": "refuses mutation of an immutable value",
    # checks that the tests run
    "cap_operators.verify_quantum_decomposition": "exported check of x_j b = (a+ + a0 + a-) b, run by the tests",
    "cap_operators.QuantumDecompositionEntry.exact": "a field of verify_quantum_decomposition's report",
    "cap_operators.QuantumDecompositionEntry.null": "a field of verify_quantum_decomposition's report",
    "cap_operators.QuantumDecompositionReport.verdict": "a field of verify_quantum_decomposition's report",
    "cap_operators.QuantumDecompositionReport.witnesses": "a field of verify_quantum_decomposition's report",
    "cap_operators.QuantumDecompositionReport.null_witnesses": "a field of verify_quantum_decomposition's report",
    "cap_operators.verify_adjoints": "exported check that a-_{n+1} is the adjoint of a+_n, run by the tests",
    "_linalg.mat_mul": "verify_adjoints' products; the tests' reference products",
    "jacobi_sequences.rank_profile": "exported rank check of every Omega_n, run by the tests",
    "_linalg.rank": "rank_profile's rank of a hand-built pair, which has no Level",
    # documented API
    "closed_forms.family_polynomial": "exported closed form of a family's orthogonal polynomial (README)",
    "closed_forms.family_norm_squared": "exported closed form of a family's squared norm (README)",
    "closed_forms.creation_power": "exported creation chain (README's multi-index gate), run by the tests",
    "closed_forms.closed_form_omega": "exported closed form of Omega_n (README)",
    "closed_forms.closed_form_alpha": "exported closed form of alpha_{j|n}",
    "jacobi_sequences.JacobiSequencePair.alpha_for_direction": "alpha along a direction (README's exact-number gate)",
    "_linalg.mat_add": "alpha_for_direction's sum over coordinates",
    "orthodecomp.Decomposition.split": "level coordinates of a vector (README's exact-number gate)",
    "orthodecomp.Decomposition._exact_vector": "the gate of split and polynomial",
    "orthodecomp.Decomposition.expand": "a level combination as a vector (README's exact-number gate)",
    "orthodecomp.Decomposition.polynomial": "a vector as a Polynomial (README's exact-number gate)",
    # helpers that the independent test checks build on
    "polyring.Polynomial.one": "the tests' constant polynomial",
    "polyring.Polynomial.monomial": "the tests' monomials (README's multi-index gate)",
    "polyring.Polynomial.variable": "the tests' coordinate polynomials x_j",
    "polyring.Polynomial.is_zero": "the tests' zero test of residuals",
    "polyring.Polynomial.degree_slice": "the tests' leading forms",
    "polyring.Polynomial.__add__": "the tests' polynomial sums",
    "polyring.Polynomial.__sub__": "the tests' polynomial differences",
    "polyring.Polynomial.__neg__": "called by __sub__",
    "multiindex.representative_tuple": "the tests' symmetric-tensor tuple of a class",
    "multiindex.ClassBasis.index": "the tests' position of a class (README's multi-index gate)",
}

# ------------------------------------------------------------------ traffic

# the seven families at d = 2; the jacobi a list starts with a negative
# value, which the CLI joins to its option
FAMILY_ARGS = {
    "hermite": ["--d", "2"],
    "laguerre": ["--alpha", "1/2,0"],
    "jacobi": ["--a", "-1/2,1/2", "--b", "1/2,1/3"],
    "gegenbauer": ["--lambda", "1/3,3/2"],
    "chebyshev1": ["--d", "2"],
    "chebyshev2": ["--d", "2"],
    "legendre": ["--d", "2"],
}
COMMANDS = ("decompose", "cap", "omega", "alpha", "verify", "atoms", "reconstruct")
FAMILY_LEVEL = 3
COPLANAR = [
    (["-2", "1", "-3"], "1/4"),
    (["-1/2", "-2", "9/2"], "1/4"),
    (["0", "3/2", "-2"], "1/4"),
    (["1/3", "0", "4/3"], "1/4"),
]
SIX_POINTS = list(zip(["-2", "-1/2", "0", "1/3", "1", "3/2"], ["1", "-2", "3/2", "0", "-1/2", "1/3"]))
TWO_ATOMS = '{"d": 2, "atoms": [{"x": ["0", "0"], "w": "1/2"}, {"x": ["1", "1"], "w": "1/2"}]}'
LINE = '{"d": 2, "atoms": [{"x": ["0", "1"], "w": "1/2"}, {"x": ["1", "2"], "w": "1/4"}, {"x": ["3", "4"], "w": "1/4"}]}'
TWO_ATOMS_MOMENTS = (
    '{"beta": [0, 0], "value": "1"}, {"beta": [1, 0], "value": "1/2"}, '
    '{"beta": [0, 1], "value": "1/2"}, {"beta": [2, 0], "value": "1/2"}, '
    '{"beta": [1, 1], "value": "1/2"}, {"beta": [0, 2], "value": "1/2"}'
)
TWO_ATOMS_CUBIC = (
    '{"beta": [3, 0], "value": "1/2"}, {"beta": [2, 1], "value": "1/2"}, '
    '{"beta": [1, 2], "value": "1/2"}, {"beta": [0, 3], "value": "1/2"}'
)
# (file name, its text, max level) of the measure files the CI steps write
# by hand; the generated tables follow in _ci_tables
CI_MEASURES = [
    ("two_atoms.json", TWO_ATOMS, 5),
    ("line.json", LINE, 3),
    (
        "line_forms.json",
        '{"d": 2, "atoms": [{"x": ["0.0", "+1"], "w": "0.5"}, {"x": [" 1 ", "2/1"], "w": "025e-2"}, {"x": ["3e0", "004"], "w": "1/4"}]}',
        2,
    ),
    ("two_atoms_2.json", '{"d": 2, "max_degree": 2, "moments": [%s]}' % TWO_ATOMS_MOMENTS, 1),
    (
        "two_atoms_3.json",
        '{"d": 2, "max_degree": 3, "moments": [%s, %s]}' % (TWO_ATOMS_MOMENTS, TWO_ATOMS_CUBIC),
        1,
    ),
    ("negative.json", '{"d": 1, "max_degree": 2, "moments": [{"beta": [0], "value": "1"}, {"beta": [1], "value": "0"}, {"beta": [2], "value": "-1"}]}', 1),
    ("exponent.json", '{"d": 1, "atoms": [{"x": ["1e10000000"], "w": "1"}]}', 1),
    ("bool_weight.json", '{"d": 1, "atoms": [{"x": ["0"], "w": true}]}', 1),
    ("float_coordinate.json", '{"d": 1, "atoms": [{"x": [0.5], "w": "1"}]}', 1),
    ("negative_index.json", '{"d":2,"max_degree":2,"moments":[{"beta":[0,0],"value":"1"},{"beta":[1,-1],"value":"1"}]}', 1),
    ("short_index.json", '{"d":2,"max_degree":2,"moments":[{"beta":[0,0],"value":"1"},{"beta":[0],"value":"1"}]}', 1),
]


def _cli(argv):
    import jacobi_mv.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        jacobi_mv.cli.main(argv)


def _ci_tables(work):
    """The moment tables the CI steps generate, written as they write them,
    with their max levels."""
    from jacobi_mv.moments import (
        atomic_functional,
        beta_functional,
        functional_from_json,
        gamma_functional,
        gaussian_functional,
    )
    from jacobi_mv.polyring import monomial_basis

    out = []

    def table(name, phi, d, degree, level):
        moments = [{"beta": list(b), "value": str(phi.moment(b))} for b in monomial_basis(d, degree)]
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"d": d, "max_degree": degree, "moments": moments}, handle)
        out.append((path, level))

    table("hermite_d2.json", gaussian_functional(2), 2, 7, 3)
    table("jacobi_d3.json", beta_functional(["0", "1/2", "-1/2"], ["1/2", "1", "1/3"]), 3, 7, 3)
    table("laguerre_d3.json", gamma_functional(["1/2", "0", "2/3"]), 3, 7, 3)
    phi = atomic_functional(COPLANAR)
    path = os.path.join(work, "coplanar_atoms.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(phi.to_json_dict(), handle)
    out.append((path, 4))
    table("coplanar_table.json", phi, 3, 9, 4)
    six = atomic_functional([(p, Fraction(w, 12)) for p, w in zip(SIX_POINTS, (1, 2, 3, 1, 2, 3))])
    path = os.path.join(work, "six_atoms.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(six.to_json_dict(), handle)
    out.append((path, 5))
    table("six_table.json", six, 2, 13, 5)
    table("line_table.json", functional_from_json(json.loads(LINE)), 2, 7, 3)
    return out


def _bench_pass(work):
    """One pass of every job of the benchmark's workloads: set-up, call,
    finish, check and values, as bench/run.py runs them."""
    sys.path.insert(1, BENCH)
    import workloads

    for name, make in workloads.WORKLOADS.items():
        workload = make(1, os.path.join(work, name))
        finished = [(job, job.finish(job.call())) for job in workload.jobs]
        for job, result in finished:
            job.check(result)
            job.values(result)


def run_traffic():
    with tempfile.TemporaryDirectory() as work:
        document = os.path.join(work, "out.json")
        for family, params in FAMILY_ARGS.items():
            for command in COMMANDS:
                argv = [command, "--family", family, *params, "--max-level", str(FAMILY_LEVEL)]
                variants = [[], ["--convention", "paper"], ["--format", "csv"], ["--output", document]]
                if command == "verify":
                    variants.append(["--variant", "stated"])
                for extra in variants:
                    _cli(argv + extra)
        measures = []
        for name, text, level in CI_MEASURES:
            path = os.path.join(work, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            measures.append((path, level))
        for path, level in measures + _ci_tables(work):
            for command in COMMANDS:
                _cli([command, "--measure", path, "--max-level", str(level)])
        with open(README, encoding="utf-8") as handle:
            readme = handle.read()
        namespace = {}
        for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL):
            exec(compile(block, README, "exec"), namespace)
        _bench_pass(work)


def _entered():
    """Run the traffic under a profile hook; the entered (file, line) pairs."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.path.insert(0, SRC)
    sys.setprofile(hook)
    try:
        import jacobi_mv

        init = os.path.join(PACKAGE, "__init__.py")
        if os.path.abspath(jacobi_mv.__file__) != init:
            raise SystemExit(f"imported jacobi_mv from {jacobi_mv.__file__}, not {init}")
        run_traffic()
    finally:
        sys.setprofile(None)
    prefix = PACKAGE + os.sep
    return sorted(
        (os.path.relpath(code.co_filename, PACKAGE), code.co_firstlineno)
        for code in codes
        if os.path.abspath(code.co_filename).startswith(prefix)
    )


# -------------------------------------------------------------------- check


def defined_functions():
    """module.qualname -> (file, first line) of every function in the package.

    The first line is that of the first decorator, as in co_firstlineno;
    the qualname is read from the source, since co_qualname is new in 3.11.
    """
    out = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[f"{module}.{qualname}"] = (path, first)
                visit(child, module, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, prefix + child.name + ".")
            else:
                visit(child, module, path, prefix)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            visit(tree, name[:-3], name, "")
    return out


def test_never_entered_functions_are_the_allow_list():
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(pair) for pair in json.loads(proc.stdout)}
    functions = defined_functions()
    never = {name for name, where in functions.items() if where not in entered}
    assert not never - set(UNREACHED), f"never entered and not in UNREACHED: {sorted(never - set(UNREACHED))}"
    assert not set(UNREACHED) - never, f"in UNREACHED but entered or gone: {sorted(set(UNREACHED) - never)}"
    assert all(reason.strip() for reason in UNREACHED.values())


if __name__ == "__main__":
    json.dump(_entered(), sys.stdout)
    print()
