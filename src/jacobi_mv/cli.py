"""Command-line front end.

Subcommands: decompose, cap, omega, alpha, verify, atoms, reconstruct.
The functional comes either from a named weight family (--family plus its
parameters) or from a measure file (--measure, JSON atom list or moment
table).  Output is deterministic JSON (or CSV for flat payloads): same
config, same bytes.  Exit codes: 0 success, 1 a verification or round
trip reported a mismatch, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import _linalg
from .closed_forms import FAMILIES, family_spec, verify_family
from .errors import Error, InputError, InsufficientMomentsError
from .jacobi_sequences import compute_from_functional, detect_atoms, reconstruct_moment_table
from .cap_operators import build
from .moments import MomentFunctional, functional_from_json
from .orthodecomp import decompose
from .symbolic import ONE

COMMANDS = ("decompose", "cap", "omega", "alpha", "verify", "atoms", "reconstruct")


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


def _parse_rationals(text: str, what: str) -> Tuple[Fraction, ...]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            out.append(Fraction(piece))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad {what} value {piece!r}: expected a rational like 3 or 1/2") from exc
    return tuple(out)


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
    if config.family is not None:
        spec = family_spec(
            config.family,
            d=config.d,
            a=_parse_rationals(config.a, "a") if config.a is not None else None,
            b=_parse_rationals(config.b, "b") if config.b is not None else None,
            alpha=_parse_rationals(config.alpha, "alpha") if config.alpha is not None else None,
            lam=_parse_rationals(config.lam, "lambda") if config.lam is not None else None,
        )
        return spec.functional(), spec
    if config.measure is not None:
        return _load_measure(config.measure), None
    raise InputError("no functional source: give --family or --measure")


def _dump_json(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _matrix_doc(matrix, rows, cols) -> dict:
    return {
        "rows": [list(c) for c in rows],
        "cols": [list(c) for c in cols],
        "matrix": _linalg.to_string_matrix(matrix),
    }


# ------------------------------------------------------------------ commands


def _cmd_decompose(config: RunConfig) -> Tuple[int, str]:
    functional, _ = _resolve(config)
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
    doc = {"d": decomp.d, "max_degree": config.max_level, "levels": levels}
    return 0, _dump_json(doc)


def _cmd_cap(config: RunConfig) -> Tuple[int, str]:
    functional, _ = _resolve(config)
    decomp = decompose(functional, config.max_level)
    ops = build(decomp)
    levels = []
    for n in range(config.max_level + 1):
        here = decomp.level(n).monomials
        above = decomp.level(n + 1).monomials if n < config.max_level else None
        below = decomp.level(n - 1).monomials if n > 0 else ()
        operators = []
        for j in range(1, decomp.d + 1):
            plus_doc = None
            if above is not None:
                plus_doc = _matrix_doc(ops.plus_matrix(j, n), above, here)
            try:
                zero_doc = _matrix_doc(ops.zero_matrix(j, n), here, here)
            except InsufficientMomentsError:
                zero_doc = None
            minus_doc = _matrix_doc(ops.minus_matrix(j, n), below, here)
            operators.append(
                {"j": j, "plus": plus_doc, "zero": zero_doc, "minus": minus_doc}
            )
        levels.append({"n": n, "operators": operators})
    doc = {"d": decomp.d, "max_degree": config.max_level, "levels": levels}
    return 0, _dump_json(doc)


def _cmd_omega(config: RunConfig) -> Tuple[int, str]:
    functional, _ = _resolve(config)
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
            if not _linalg.is_diagonal(matrix):
                raise InputError(
                    f"omega at level {n} is not diagonal; csv flattens "
                    "diagonal matrices only, use --format json"
                )
            for k, cls in enumerate(seq.classes(n).classes):
                label = "|".join(str(v) for v in cls)
                lines.append(f"{n},{label},{matrix[k][k]},{symbolic.compact_str()}")
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
    doc = {"d": seq.d, "max_level": config.max_level, "levels": levels}
    return 0, _dump_json(doc)


def _cmd_alpha(config: RunConfig) -> Tuple[int, str]:
    functional, _ = _resolve(config)
    seq = compute_from_functional(functional, config.max_level)
    alphas = [
        [seq.alpha_matrix(j, n) for j in range(1, seq.d + 1)]
        for n in range(config.max_level + 1)
    ]
    if config.format == "csv":
        lines = ["n,j,class,value"]
        for n, per_level in enumerate(alphas):
            for j, matrix in enumerate(per_level, start=1):
                if not _linalg.is_diagonal(matrix):
                    raise InputError(
                        f"alpha_{j} at level {n} is not diagonal; "
                        "csv flattens diagonal matrices only, use --format json"
                    )
                for k, cls in enumerate(seq.classes(n).classes):
                    label = "|".join(str(v) for v in cls)
                    lines.append(f"{n},{j},{label},{matrix[k][k]}")
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
    doc = {"d": seq.d, "max_level": config.max_level, "levels": levels}
    return 0, _dump_json(doc)


def _cmd_verify(config: RunConfig) -> Tuple[int, str]:
    if config.family is None:
        raise InputError("verify compares against closed forms; it needs --family")
    _, spec = _resolve(config)
    report = verify_family(spec, config.max_level, variant=config.variant)
    return (0 if report.ok else 1), _dump_json(report.to_json_dict())


def _cmd_atoms(config: RunConfig) -> Tuple[int, str]:
    functional, _ = _resolve(config)
    result = detect_atoms(functional, config.max_level)
    n0 = result.n0 if result.found else None
    bound = result.atom_bound if result.found else None
    if config.format == "csv":
        left = "" if n0 is None else str(n0)
        right = "" if bound is None else str(bound)
        return 0, f"n0,atom_bound\n{left},{right}"
    return 0, _dump_json({"n0": n0, "atom_bound": bound})


def _cmd_reconstruct(config: RunConfig) -> Tuple[int, str]:
    functional, _ = _resolve(config)
    seq = compute_from_functional(functional, config.max_level)
    rows = []
    ok = True
    for beta, value in reconstruct_moment_table(seq, config.max_level).items():
        expected = functional.moment(beta)
        match = value == expected
        ok = ok and match
        rows.append(
            {
                "beta": list(beta),
                "value": str(value),
                "input": str(expected),
                "match": match,
            }
        )
    if config.format == "csv":
        lines = ["beta,value,input,match"]
        for row in rows:
            label = "|".join(str(v) for v in row["beta"])
            lines.append(
                f"{label},{row['value']},{row['input']},{str(row['match']).lower()}"
            )
        return (0 if ok else 1), "\n".join(lines)
    doc = {
        "d": functional.d,
        "max_level": config.max_level,
        "moments": rows,
        "ok": ok,
    }
    return (0 if ok else 1), _dump_json(doc)


_HANDLERS = {
    "decompose": _cmd_decompose,
    "cap": _cmd_cap,
    "omega": _cmd_omega,
    "alpha": _cmd_alpha,
    "verify": _cmd_verify,
    "atoms": _cmd_atoms,
    "reconstruct": _cmd_reconstruct,
}


def _validate(config: RunConfig) -> None:
    if config.command not in COMMANDS:
        raise InputError(f"unknown command {config.command!r}")
    if config.max_level is None or config.max_level < 0:
        raise InputError("--max-level must be an integer >= 0")
    if config.convention not in ("normalized", "paper"):
        raise InputError(f"unknown convention {config.convention!r}")
    if config.format not in ("json", "csv"):
        raise InputError(f"unknown format {config.format!r}")
    if config.format == "csv" and config.command in ("decompose", "cap", "verify"):
        raise InputError(f"{config.command} documents are nested; use --format json")
    if config.variant not in ("master", "stated"):
        raise InputError(f"unknown variant {config.variant!r}")
    if config.convention == "paper" and config.command not in ("omega", "alpha"):
        raise InputError(
            "--convention paper applies to omega/alpha output only"
        )


def run(config: RunConfig) -> Tuple[int, str]:
    """Execute one command; returns (exit status, emitted text).

    Status 2 carries an error message instead of a document.  Library
    errors become input errors here: the CLI's inputs are the only way
    to reach them.
    """
    try:
        _validate(config)
        return _HANDLERS[config.command](config)
    except InputError as exc:
        return 2, f"error: {exc}"
    except Error as exc:
        return 2, f"error: {type(exc).__name__}: {exc}"


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
    help_text = {
        "decompose": "dump the graded orthogonal basis and Gram matrices",
        "cap": "dump creation/preservation/annihilation matrices per level",
        "omega": "print the omega matrices over occupation classes",
        "alpha": "print the alpha matrices per coordinate",
        "verify": "compare the pipeline against a family's closed forms",
        "atoms": "look for a vanishing omega level (finitely-atomic test)",
        "reconstruct": "round-trip moments through the recurrence data",
    }
    # the options every subcommand shares, added once
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--family", choices=FAMILIES)
    shared.add_argument("--a", help="jacobi a parameters, e.g. 0,1/2")
    shared.add_argument("--b", help="jacobi b parameters")
    shared.add_argument("--alpha", help="laguerre alpha parameters")
    shared.add_argument("--lambda", dest="lam", help="gegenbauer lambda parameters")
    shared.add_argument("--d", type=int, help="dimension")
    shared.add_argument("--measure", help="path to an atom-list or moment-table JSON file")
    shared.add_argument(
        "--max-level",
        "--max-degree",
        dest="max_level",
        type=int,
        required=True,
        help="highest level/degree to compute",
    )
    shared.add_argument(
        "--convention",
        choices=("normalized", "paper"),
        default="normalized",
        help="omega scaling: normalized state or unnormalized weight",
    )
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--output", help="write the document here instead of stdout")
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=help_text[name], parents=[shared])
        if name == "verify":
            cmd.add_argument(
                "--variant",
                choices=("master", "stated"),
                default="master",
                help="closed-form route: jacobi substitution or quoted forms",
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # the namespace holds RunConfig's fields; only verify parses --variant
    config = RunConfig(**vars(_build_parser().parse_args(argv)))
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
