"""Command-line front end.

One subcommand per row of the command table `_COMMANDS`.
The functional comes either from a named weight family (--family plus its
parameters) or from a measure file (--measure, JSON atom list or moment
table).  Output is deterministic JSON (or CSV for flat payloads): same
config, same bytes.  Exit codes: 0 success, 1 a verification or round
trip reported a mismatch, 2 bad input.

The argument parser is built on the first call of `main` and reused by
every later call in the process; importing the module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import _linalg
from .closed_forms import FAMILIES, family_spec, verify_family
from .errors import Error, InputError, InsufficientMomentsError
from .jacobi_sequences import compute_from_functional, detect_atoms, reconstruct_moment_table
from .cap_operators import build
from .moments import MomentFunctional, functional_from_json
from .orthodecomp import decompose
from .symbolic import ONE


@dataclass
class RunConfig:
    """One CLI invocation, already parsed but not yet validated."""

    command: str
    family: Optional[str] = None
    a: Optional[str] = None
    b: Optional[str] = None
    alpha: Optional[str] = None
    lam: Optional[str] = None
    d: Optional[int] = None
    measure: Optional[str] = None
    max_level: Optional[int] = None
    convention: str = "normalized"
    format: str = "json"
    output: Optional[str] = None
    variant: str = "master"


class _FamilyOption(NamedTuple):
    """One parameter of --family: its flag, where it goes, and its help line."""

    flag: str
    field: str  # the RunConfig field and the family_spec keyword
    help: str
    rational: bool = True  # a comma-separated list of rationals, else an integer


# in the order the parser lists them
_FAMILY_OPTIONS = (
    _FamilyOption("--a", "a", "jacobi a parameters, e.g. 0,1/2"),
    _FamilyOption("--b", "b", "jacobi b parameters"),
    _FamilyOption("--alpha", "alpha", "laguerre alpha parameters"),
    _FamilyOption("--lambda", "lam", "gegenbauer lambda parameters"),
    _FamilyOption("--d", "d", "dimension", rational=False),
)


def _load_measure(path: str) -> MomentFunctional:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise InputError(f"measure file not found: {path}")
    except OSError as exc:
        raise InputError(f"cannot read measure file {path}: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}")
    return functional_from_json(doc)


def _resolve(config: RunConfig):
    """Return (functional, spec-or-None) from the single configured source."""
    if config.family is not None and config.measure is not None:
        raise InputError("give either --family or --measure, not both")
    given = [(o, getattr(config, o.field)) for o in _FAMILY_OPTIONS]
    given = [(o, value) for o, value in given if value is not None]
    if config.family is not None:
        params = {o.field: value.split(",") if o.rational else value for o, value in given}
        spec = family_spec(config.family, **params)
        return spec.functional(), spec
    if config.measure is not None:
        if given:
            raise InputError(f"{given[0][0].flag} applies to --family, not --measure")
        return _load_measure(config.measure), None
    raise InputError("no functional source: give --family or --measure")


def _matrix_doc(matrix, rows, cols) -> dict:
    return {
        "rows": [list(c) for c in rows],
        "cols": [list(c) for c in cols],
        "matrix": _linalg.to_string_matrix(matrix),
    }


def _label(index) -> str:
    """A class or multi-index as one CSV cell: 1|0|2."""
    return "|".join(str(v) for v in index)


def _diagonal_cells(name: str, n: int, matrix, classes) -> List[Tuple[str, Fraction]]:
    """(class label, diagonal entry) per class; csv refuses other matrices."""
    if not _linalg.is_diagonal(matrix):
        raise InputError(
            f"{name} at level {n} is not diagonal; "
            "csv flattens diagonal matrices only, use --format json"
        )
    return [(_label(cls), matrix[k][k]) for k, cls in enumerate(classes)]


# ------------------------------------------------------------------ commands


def _cmd_decompose(config: RunConfig, functional, spec):
    decomp = decompose(functional, config.max_level)
    levels = []
    for n in range(config.max_level + 1):
        lv = decomp.level(n)
        levels.append(
            {
                "n": n,
                "monomials": [list(m) for m in lv.monomials],
                "polynomials": [p.to_json_dict() for p in decomp.polynomials(n)],
                "gram": _linalg.to_string_matrix(lv.gram_matrix()),
                "rank": lv.rank,
                "null": list(lv.null_mask),
            }
        )
    return 0, {"d": decomp.d, "max_degree": config.max_level, "levels": levels}


def _cmd_cap(config: RunConfig, functional, spec):
    decomp = decompose(functional, config.max_level)
    ops = build(decomp)
    levels = []
    for n in range(config.max_level + 1):
        here = decomp.level(n).monomials
        above = decomp.level(n + 1).monomials if n < config.max_level else None
        below = decomp.level(n - 1).monomials if n > 0 else ()
        operators = []
        for j in range(1, decomp.d + 1):
            plus_doc = None if above is None else _matrix_doc(ops.plus_matrix(j, n), above, here)
            try:
                zero_doc = _matrix_doc(ops.zero_matrix(j, n), here, here)
            except InsufficientMomentsError:
                zero_doc = None
            minus_doc = _matrix_doc(ops.minus_matrix(j, n), below, here)
            operators.append(
                {"j": j, "plus": plus_doc, "zero": zero_doc, "minus": minus_doc}
            )
        levels.append({"n": n, "operators": operators})
    return 0, {"d": decomp.d, "max_degree": config.max_level, "levels": levels}


def _cmd_omega(config: RunConfig, functional, spec):
    seq = compute_from_functional(functional, config.max_level)
    if config.convention == "paper":
        # entries absorb the rational part of the mass; the rest stays symbolic
        mass = functional.mass_factor()
        fold, symbolic = mass.rational_part(), mass.irrational_part()
    else:
        fold, symbolic = Fraction(1), ONE
    omegas = [
        _linalg.mat_scale(seq.omega_matrix(n), fold)
        for n in range(config.max_level + 1)
    ]
    if config.format == "csv":
        lines = ["n,class,value,mass_factor"]
        for n, matrix in enumerate(omegas):
            for label, value in _diagonal_cells("omega", n, matrix, seq.classes(n).classes):
                lines.append(f"{n},{label},{value},{symbolic.compact_str()}")
        return 0, "\n".join(lines)
    levels = [
        {
            "n": n,
            "classes": [list(c) for c in seq.classes(n).classes],
            "omega": _linalg.to_string_matrix(matrix),
            "convention": config.convention,
            "mass_factor": symbolic.compact_str(),
            "mass_factor_struct": symbolic.to_json_dict(),
        }
        for n, matrix in enumerate(omegas)
    ]
    return 0, {"d": seq.d, "max_level": config.max_level, "levels": levels}


def _cmd_alpha(config: RunConfig, functional, spec):
    seq = compute_from_functional(functional, config.max_level)
    alphas = [
        [seq.alpha_matrix(j, n) for j in range(1, seq.d + 1)]
        for n in range(config.max_level + 1)
    ]
    if config.format == "csv":
        lines = ["n,j,class,value"]
        for n, per_level in enumerate(alphas):
            for j, matrix in enumerate(per_level, start=1):
                for label, value in _diagonal_cells(f"alpha_{j}", n, matrix,
                                                    seq.classes(n).classes):
                    lines.append(f"{n},{j},{label},{value}")
        return 0, "\n".join(lines)
    levels = [
        {
            "n": n,
            "classes": [list(c) for c in seq.classes(n).classes],
            "alpha": [
                {"j": j, "matrix": _linalg.to_string_matrix(matrix)}
                for j, matrix in enumerate(per_level, start=1)
            ],
            "convention": config.convention,
            "mass_factor": "1",
        }
        for n, per_level in enumerate(alphas)
    ]
    return 0, {"d": seq.d, "max_level": config.max_level, "levels": levels}


def _cmd_verify(config: RunConfig, functional, spec):
    report = verify_family(spec, config.max_level, variant=config.variant)
    return (0 if report.ok else 1), report.to_json_dict()


def _cmd_atoms(config: RunConfig, functional, spec):
    result = detect_atoms(functional, config.max_level)
    if config.format == "csv":
        cells = ("" if v is None else str(v) for v in (result.n0, result.atom_bound))
        return 0, "n0,atom_bound\n" + ",".join(cells)
    return 0, {"n0": result.n0, "atom_bound": result.atom_bound}


def _cmd_reconstruct(config: RunConfig, functional, spec):
    seq = compute_from_functional(functional, config.max_level)
    rows = []
    for beta, value in reconstruct_moment_table(seq, config.max_level).items():
        expected = functional.moment(beta)
        rows.append(
            {
                "beta": list(beta),
                "value": str(value),
                "input": str(expected),
                "match": value == expected,
            }
        )
    ok = all(row["match"] for row in rows)
    if config.format == "csv":
        lines = [f"{_label(r['beta'])},{r['value']},{r['input']},{str(r['match']).lower()}"
                 for r in rows]
        return (0 if ok else 1), "\n".join(["beta,value,input,match"] + lines)
    doc = {"d": functional.d, "max_level": config.max_level, "moments": rows, "ok": ok}
    return (0 if ok else 1), doc


class _Command(NamedTuple):
    """One subcommand: its handler, its help line, and the options it takes.

    The handler takes (config, functional, spec) and returns the exit status
    and either a JSON-able document or the CSV text.
    """

    handler: Callable
    help: str
    csv: bool = False  # --format csv flattens its document
    paper: bool = False  # --convention paper rescales its document
    closed_form: bool = False  # compares with closed forms: needs --family, takes --variant


# the subcommands, in the order the parser lists them
_COMMANDS = {
    "decompose": _Command(_cmd_decompose, "dump the graded orthogonal basis and Gram matrices"),
    "cap": _Command(_cmd_cap, "dump creation/preservation/annihilation matrices per level"),
    "omega": _Command(_cmd_omega, "print the omega matrices over occupation classes",
                      csv=True, paper=True),
    "alpha": _Command(_cmd_alpha, "print the alpha matrices per coordinate",
                      csv=True, paper=True),
    "verify": _Command(_cmd_verify, "compare the pipeline against a family's closed forms",
                       closed_form=True),
    "atoms": _Command(_cmd_atoms, "look for a vanishing omega level (finitely-atomic test)",
                      csv=True),
    "reconstruct": _Command(_cmd_reconstruct, "round-trip moments through the recurrence data",
                            csv=True),
}


def _validate(config: RunConfig) -> _Command:
    command = _COMMANDS.get(config.command)
    if command is None:
        raise InputError(f"unknown command {config.command!r}")
    if config.max_level is None or config.max_level < 0:
        raise InputError("--max-level must be an integer >= 0")
    if config.convention not in ("normalized", "paper"):
        raise InputError(f"unknown convention {config.convention!r}")
    if config.format not in ("json", "csv"):
        raise InputError(f"unknown format {config.format!r}")
    if config.format == "csv" and not command.csv:
        raise InputError(f"{config.command} documents are nested; use --format json")
    if config.variant not in ("master", "stated"):
        raise InputError(f"unknown variant {config.variant!r}")
    if config.convention == "paper" and not command.paper:
        paper = "/".join(name for name, c in _COMMANDS.items() if c.paper)
        raise InputError(f"--convention paper applies to {paper} output only")
    if command.closed_form and config.family is None:
        raise InputError(f"{config.command} compares against closed forms; it needs --family")
    return command


def run(config: RunConfig) -> Tuple[int, str]:
    """Execute one command; returns (exit status, emitted text).

    Status 2 carries an error message instead of a document.  Library
    errors become input errors here: the CLI's inputs are the only way
    to reach them.  An exact number may have more digits than the
    interpreter converts between int and str by default (4300 since
    Python 3.11), so that limit is lifted for the run and restored after.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:  # Python before 3.10.7 has no limit
        return _run(config)
    sys.set_int_max_str_digits(0)
    try:
        return _run(config)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(config: RunConfig) -> Tuple[int, str]:
    try:
        command = _validate(config)
        status, document = command.handler(config, *_resolve(config))
    except InputError as exc:
        return 2, f"error: {exc}"
    except Error as exc:
        return 2, f"error: {type(exc).__name__}: {exc}"
    if isinstance(document, str):
        return status, document
    return status, json.dumps(document, separators=(",", ":"))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobi-mv",
        description=(
            "Exact Jacobi sequences (omega, alpha) of moment functionals "
            "on R^d, with closed-form verification for the classical "
            "weight families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options every subcommand shares, added once
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--family", choices=FAMILIES)
    for option in _FAMILY_OPTIONS:
        shared.add_argument(option.flag, dest=option.field, help=option.help,
                            type=None if option.rational else int)
    shared.add_argument("--measure", help="path to an atom-list or moment-table JSON file")
    shared.add_argument("--max-level", "--max-degree", dest="max_level", type=int,
                        required=True, help="highest level/degree to compute")
    shared.add_argument("--convention", choices=("normalized", "paper"), default="normalized",
                        help="omega scaling: normalized state or unnormalized weight")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--output", help="write the document here instead of stdout")
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help, parents=[shared])
        if command.closed_form:
            cmd.add_argument("--variant", choices=("master", "stated"), default="master",
                             help="closed-form route: jacobi substitution or quoted forms")
    return parser


_NEGATIVE = re.compile(r"-\.?\d")


def _names_family_option(token: str) -> bool:
    """Whether argparse reads `token` as a family option.

    That is the option it names, else the only one it abbreviates; no other
    long option of the CLI starts like a family option.
    """
    named = [o for o in _FAMILY_OPTIONS if o.flag == token]
    named = named or [o for o in _FAMILY_OPTIONS if o.flag.startswith(token)]
    return len(named) == 1


def _join_negative_values(argv: List[str]) -> List[str]:
    """Write `--a -1/2` as `--a=-1/2`, and `--alph -1/3` as `--alph=-1/3`.

    argparse takes a value that starts with "-" for an option name unless
    it is a plain negative number, so `-1/2` and `-1/3,0` would be refused.
    Every family option is joined, `--d` too, so `--d -1/2` is refused as
    the invalid integer it is, like `--d=-1/2`.
    """
    out: List[str] = []
    for token in argv:
        if out and _NEGATIVE.match(token) and _names_family_option(out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = _join_negative_values(sys.argv[1:] if argv is None else argv)
    # the namespace holds RunConfig's fields; only verify parses --variant
    config = RunConfig(**vars(_build_parser().parse_args(args)))
    status, text = run(config)
    if status == 2:
        print(text, file=sys.stderr)
        return status
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write output file {config.output}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
