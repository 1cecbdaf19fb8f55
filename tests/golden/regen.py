"""Golden CLI documents: the byte-identity guard for refactors of the pipeline.

Each case runs ``cli.run(RunConfig(...))`` and stores ``"<status>\\n<text>"``
in ``<case>.txt`` next to this file.  ``tests/test_golden.py`` reruns every
case and compares byte for byte.  The sweep, a wider grid of cases, is kept
as digests only: ``sweep.json`` maps each sweep case id to the SHA-256 of
its ``"<status>\\n<text>"``.  Regenerate only when an output is meant to
change:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from jacobi_mv.cli import RunConfig, run
from jacobi_mv.moments import (
    beta_functional,
    functional_from_json,
    gamma_functional,
    gaussian_functional,
)
from jacobi_mv.polyring import monomial_basis

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


# ------------------------------------------------------------------ the sweep

SWEEP_SEED = 41
# the seven families at d = 1..4, each at its level
SWEEP_LEVELS = {1: 6, 2: 4, 3: 4, 4: 3}
SWEEP_FAMILIES = {
    "hermite": lambda d: dict(d=d),
    "laguerre": lambda d: dict(alpha=",".join(["1/2", "0", "1", "-1/3"][:d])),
    "jacobi": lambda d: dict(a=",".join(["0", "1/2", "-1/2", "1"][:d]),
                             b=",".join(["1/2", "1", "1/3", "-1/3"][:d])),
    "gegenbauer": lambda d: dict(lam=",".join(["1/3", "1", "3/2", "2/5"][:d])),
    "chebyshev1": lambda d: dict(d=d),
    "chebyshev2": lambda d: dict(d=d),
    "legendre": lambda d: dict(d=d),
}
SWEEP_VARIANTS = {"plain": {}, "paper": dict(convention="paper"), "csv": dict(format="csv")}
# the shapes of the seeded atom sets at each d, and the sets per shape
SWEEP_SHAPES = {1: ("general", "grid"), 2: ("general", "collinear", "grid"),
                3: ("general", "collinear", "coplanar", "grid")}
SWEEP_SETS = 4
# the benchmark's atom shapes, unpermuted: (name, atom count, point of (x, y))
BENCH_X = ("-2", "-1/2", "0", "1/3", "1", "3/2")
BENCH_Y = ("1", "-2", "3/2", "0", "-1/2", "1/3")
BENCH_SHAPES = (
    ("general", 6, lambda x, y: (x, y)),
    ("collinear", 4, lambda x, y: (1 + x, Fraction(-1, 2) + 2 * x)),
    ("coplanar", 4, lambda x, y: (x, y, x - 2 * y + 1)),
    ("line", 4, lambda x, y: (x,)),
)


def _table_of(phi, max_degree: int) -> dict:
    """The functional's moments to max_degree as a table, as the CI writes it."""
    return _table(phi.d, max_degree,
                  [(b, str(phi.moment(b))) for b in monomial_basis(phi.d, max_degree)])


def _seeded_atoms(rng: random.Random, shape: str, d: int, count: int) -> dict:
    """count distinct rational atoms on the shape, with positive weights.

    general: anywhere in R^d; collinear: on the line base + s u; coplanar:
    on the plane base + s u + t v in R^3; grid: integer points in
    [-3, 4]^d, where several sit in special position.  u is never 0, so
    the line and the plane hold as many points as asked for.
    """
    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    base, v = [rational() for _ in range(d)], [rational() for _ in range(d)]
    u = [Fraction(rng.randint(1, 6), rng.randint(1, 4))] + [rational() for _ in range(d - 1)]
    points = []
    while len(points) < count:
        if shape == "grid":
            point = tuple(Fraction(rng.randint(-3, 4)) for _ in range(d))
        elif shape == "general":
            point = tuple(rational() for _ in range(d))
        else:
            s, t = rational(), rational() if shape == "coplanar" else 0
            point = tuple(b + s * x + t * y for b, x, y in zip(base, u, v))
        if point not in points:
            points.append(point)
    weights = [rng.randint(1, 4) for _ in points]
    return _atoms(d, [(tuple(map(str, p)), str(Fraction(w, sum(weights))))
                      for p, w in zip(points, weights)])


def _sweep():
    """(sweep cases, the measure documents they name)."""
    cases, measures = [], {}
    for d, level in SWEEP_LEVELS.items():
        for family, params in SWEEP_FAMILIES.items():
            kwargs = dict(family=family, max_level=level, **params(d))
            for command in PIPELINE + ("verify",):
                for variant, extra in SWEEP_VARIANTS.items():
                    cases.append((f"{family}-d{d}.{command}.{variant}",
                                  dict(command=command, **kwargs, **extra)))
            cases.append((f"{family}-d{d}.verify.stated",
                          dict(command="verify", variant="stated", **kwargs)))

    def measure(name, doc, levels):
        measures[name] = doc
        for command, level in levels.items():
            cases.append((f"{name}.{command}.n{level}",
                          dict(command=command, measure=name, max_level=level)))

    def twins(name, doc, degree, levels):
        """An atom list and its moment table to degree, at the same levels."""
        measure(f"{name}-atoms", doc, levels)
        measure(f"{name}-table", _table_of(functional_from_json(doc), degree), levels)

    rng = random.Random(SWEEP_SEED)
    for d, shapes in SWEEP_SHAPES.items():
        for shape in shapes:
            for k in range(SWEEP_SETS):
                doc = _seeded_atoms(rng, shape, d, rng.randint(1, 8))
                twins(f"{shape}-d{d}-{k}", doc, 7, dict.fromkeys(PIPELINE, 3))
    # the benchmark's atom shapes and their tables, past n0
    for name, count, place in BENCH_SHAPES:
        points = [place(Fraction(x), Fraction(y)) for x, y in zip(BENCH_X, BENCH_Y)][:count]
        weights = (1, 2, 3, 1, 2, 3)[:count]
        doc = _atoms(len(points[0]), [(tuple(map(str, p)), str(Fraction(w, sum(weights))))
                                      for p, w in zip(points, weights)])
        twins(f"bench-{name}", doc, 13, dict(dict.fromkeys(PIPELINE, 5), atoms=6))
    # the tables and atom lists the CI steps write, at the CI's levels
    for name, phi, degree, level in (
        ("ci-hermite-d2", gaussian_functional(2), 7, 3),
        ("ci-laguerre-d3", gamma_functional(["1/2", "0", "2/3"]), 7, 3),
        ("ci-jacobi-d3", beta_functional(["0", "1/2", "-1/2"], ["1/2", "1", "1/3"]), 7, 3),
    ):
        measure(name, _table_of(phi, degree), dict.fromkeys(PIPELINE, level))
    line = _atoms(2, [(("0", "1"), "1/2"), (("1", "2"), "1/4"), (("3", "4"), "1/4")])
    coplanar = _atoms(3, [(("-2", "1", "-3"), "1/4"), (("-1/2", "-2", "9/2"), "1/4"),
                          (("0", "3/2", "-2"), "1/4"), (("1/3", "0", "4/3"), "1/4")])
    twins("ci-line", line, 7, dict.fromkeys(PIPELINE, 3))
    twins("ci-coplanar", coplanar, 9, dict.fromkeys(PIPELINE, 4))
    return cases, measures


SWEEP_CASES, SWEEP_MEASURES = _sweep()


def sweep_digests(measure_dir: Path) -> dict:
    """Case id -> SHA-256 of the case's golden bytes, for every sweep case."""
    for name, doc in SWEEP_MEASURES.items():
        (measure_dir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return {
        name: hashlib.sha256(render(kwargs, measure_dir).encode("utf-8")).hexdigest()
        for name, kwargs in SWEEP_CASES
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        measure_dir = Path(scratch)
        write_measures(measure_dir)
        for name, kwargs in CASES:
            text = render(kwargs, measure_dir)
            (HERE / f"{name}.txt").write_text(text, encoding="utf-8", newline="")
        digests = sweep_digests(measure_dir)
    with open(HERE / "sweep.json", "w", encoding="utf-8", newline="") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(CASES)} golden documents and {len(digests)} sweep digests to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
