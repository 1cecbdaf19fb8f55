"""Golden CLI documents: the byte-identity guard for refactors of the pipeline.

Each case runs ``cli.run(RunConfig(...))`` and stores ``"<status>\\n<text>"``
in ``<case>.txt`` next to this file.  ``tests/test_golden.py`` reruns every
case and compares byte for byte.  Regenerate only when an output is meant to
change:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from jacobi_mv.cli import RunConfig, run

HERE = Path(__file__).resolve().parent

PIPELINE = ("decompose", "cap", "omega", "alpha", "atoms", "reconstruct")


def _atoms(d, atoms):
    return {"d": d, "atoms": [{"x": list(x), "w": w} for x, w in atoms]}


def _table(d, max_degree, moments):
    return {
        "d": d,
        "max_degree": max_degree,
        "moments": [{"beta": list(b), "value": v} for b, v in moments],
    }


# measure files, written to a scratch directory for every run
MEASURES = {
    # the README's two-atom measure and three atoms in general position
    "two_atoms": _atoms(2, [(("0", "0"), "1/2"), (("1", "1"), "1/2")]),
    "three_atoms": _atoms(
        2, [(("0", "0"), "1/3"), (("1", "0"), "1/3"), (("0", "2"), "1/3")]
    ),
    # gamma(0) x gamma(1/2) moments up to degree 4: level 2 needs exactly
    # these, so top-level preservation and alpha are out of reach
    "short_table": _table(
        2,
        4,
        [
            ((0, 0), "1"), ((1, 0), "1"), ((0, 1), "3/2"),
            ((2, 0), "2"), ((1, 1), "3/2"), ((0, 2), "15/4"),
            ((3, 0), "6"), ((2, 1), "3"), ((1, 2), "15/4"), ((0, 3), "105/8"),
            ((4, 0), "24"), ((3, 1), "9"), ((2, 2), "15/2"), ((1, 3), "105/8"),
            ((0, 4), "945/16"),
        ],
    ),
    # phi((x-1)^2) = -1: a negative Gram pivot
    "negative_table": _table(1, 2, [((0,), "1"), ((1,), "1"), ((2,), "0")]),
    # x is null but phi(x * x^2) = 1: an inconsistent projection
    "inconsistent_table": _table(
        1, 4, [((0,), "1"), ((1,), "0"), ((2,), "0"), ((3,), "1"), ((4,), "0")]
    ),
    "one_atom": _atoms(1, [(("1",), "1")]),
    # twelve atoms in general position in R^2: every level up to 3 has full
    # rank and a dense, non-diagonal Gram, and top-level alpha is available
    "twelve_atoms": _atoms(
        2,
        [
            ((x, y), "1/12")
            for x, y in [
                ("0", "0"), ("1", "0"), ("0", "1"), ("2", "1"),
                ("-1", "2"), ("1", "-2"), ("3", "1"), ("-2", "-1"),
                ("1/2", "3"), ("2", "-1/3"), ("-1", "-3"), ("3", "3"),
            ]
        ],
    ),
}


def _cases():
    """(case name, RunConfig keyword arguments); measure names resolve later."""
    families = {
        "hermite_d2_n3": dict(family="hermite", d=2, max_level=3),
        "laguerre_d1_n4": dict(family="laguerre", alpha="1/2", max_level=4),
        "jacobi_d2_n3": dict(family="jacobi", a="1/2,0", b="-1/2,1", max_level=3),
    }
    out = []
    for source, kwargs in families.items():
        for command in PIPELINE + ("verify",):
            out.append((f"{source}.{command}", dict(command=command, **kwargs)))
        out.append(
            (f"{source}.omega_paper", dict(command="omega", convention="paper", **kwargs))
        )
    for command in ("omega", "alpha"):
        out.append(
            (f"hermite_d2_n3.{command}_csv", dict(command=command, format="csv",
                                                  **families["hermite_d2_n3"]))
        )
    # laguerre with a different alpha per coordinate: a coordinate-index slip
    # in a per-coordinate mass or omega factor changes these bytes
    out.append(("laguerre_d3_n3.verify", dict(command="verify", family="laguerre",
                                              alpha="0,1/2,-1/3", max_level=3)))
    # the creation lemma at d = 4, with a different alpha per coordinate
    out.append(("laguerre_d4_n3.verify", dict(command="verify", family="laguerre",
                                              alpha="1/2,0,1,-1/3", max_level=3)))
    # the classical benchmark's big job: the deepest creation powers the
    # benchmark checks, m = 1..5 from F_0
    out.append(("jacobi_d3_n5.verify", dict(command="verify", family="jacobi",
                                            a="0,1/2,-1/2", b="1/2,1,1/3", max_level=5)))
    # the only reconstruct documents in d = 3: states reach level 4 of 15
    # classes, so a slip in which state levels a ladder step keeps shows here
    out.append(("laguerre_d3_n4.reconstruct", dict(command="reconstruct", family="laguerre",
                                                   alpha="1/2,0,2/3", max_level=4)))
    # the symmetric jacobi specializations, under both closed-form routes;
    # chebyshev1 and legendre stated mismatch (exit 1)
    symmetric = {
        "gegenbauer_d2_n3": dict(family="gegenbauer", lam="1/3,2/5", max_level=3),
        "chebyshev1_d2_n3": dict(family="chebyshev1", d=2, max_level=3),
        "chebyshev2_d1_n4": dict(family="chebyshev2", d=1, max_level=4),
        "legendre_d2_n3": dict(family="legendre", d=2, max_level=3),
    }
    for source, kwargs in symmetric.items():
        for variant in ("master", "stated"):
            out.append((f"{source}.verify_{variant}",
                        dict(command="verify", variant=variant, **kwargs)))
    for source in ("two_atoms", "three_atoms"):
        for command in PIPELINE:
            out.append((f"{source}_n4.{command}", dict(command=command, measure=source,
                                                        max_level=4)))
        out.append((f"{source}_n6.atoms", dict(command="atoms", measure=source,
                                                max_level=6)))
    for command in PIPELINE:
        out.append((f"short_table_n2.{command}", dict(command=command,
                                                       measure="short_table",
                                                       max_level=2)))
    out += [
        ("negative_table_n1.decompose", dict(command="decompose",
                                             measure="negative_table", max_level=1)),
        ("inconsistent_table_n2.omega", dict(command="omega",
                                             measure="inconsistent_table", max_level=2)),
        ("two_atoms_n5.cap", dict(command="cap", measure="two_atoms", max_level=5)),
        ("one_atom_n4.omega", dict(command="omega", measure="one_atom", max_level=4)),
    ]
    for command in ("cap", "omega", "alpha", "reconstruct"):
        out.append((f"twelve_atoms_n3.{command}", dict(command=command,
                                                        measure="twelve_atoms",
                                                        max_level=3)))
    return out


CASES = _cases()


def render(kwargs: dict, measure_dir: Path) -> str:
    """The golden bytes of one case: exit status, newline, emitted text."""
    kwargs = dict(kwargs)
    if "measure" in kwargs:
        kwargs["measure"] = str(measure_dir / f"{kwargs['measure']}.json")
    status, text = run(RunConfig(**kwargs))
    return f"{status}\n{text}"


def write_measures(measure_dir: Path) -> None:
    for name, doc in MEASURES.items():
        (measure_dir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        measure_dir = Path(scratch)
        write_measures(measure_dir)
        for name, kwargs in CASES:
            text = render(kwargs, measure_dir)
            (HERE / f"{name}.txt").write_text(text, encoding="utf-8", newline="")
    print(f"wrote {len(CASES)} golden documents to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
