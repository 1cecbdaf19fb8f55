from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jacobi_mv.cli import RunConfig, _build_parser, main, run
from jacobi_mv.moments import atomic_functional
from jacobi_mv.multiindex import MAX_DIMENSION
from jacobi_mv.polyring import monomial_basis

ROOT = Path(__file__).resolve().parent.parent

TWO_ATOM_DOC = {
    "d": 2,
    "atoms": [
        {"x": ["0", "0"], "w": "1/2"},
        {"x": ["1", "1"], "w": "1/2"},
    ],
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_same_config_same_bytes():
    config = RunConfig("omega", family="laguerre", alpha="1/2,3/2", max_level=2,
                       convention="paper")
    first = run(config)
    second = run(RunConfig("omega", family="laguerre", alpha="1/2,3/2",
                           max_level=2, convention="paper"))
    assert first == second
    assert first[0] == 0


def test_omega_hermite_paper_frozen():
    status, text = run(
        RunConfig("omega", family="hermite", d=2, max_level=2, convention="paper")
    )
    assert status == 0
    doc = json.loads(text)
    assert doc["d"] == 2 and doc["max_level"] == 2
    lv = doc["levels"][2]
    assert lv["classes"] == [[2, 0], [1, 1], [0, 2]]
    assert lv["omega"] == [
        ["1/2", "0", "0"],
        ["0", "1/4", "0"],
        ["0", "0", "1/2"],
    ]
    assert lv["mass_factor"] == "pi^(1)"
    assert lv["mass_factor_struct"] == {
        "rational": "1",
        "two_pow": "0",
        "pi_pow": "1",
        "gamma": [],
    }


def test_omega_paper_folds_rational_mass_part():
    status, text = run(
        RunConfig("omega", family="laguerre", alpha="1/2,3/2", max_level=1,
                  convention="paper")
    )
    assert status == 0
    doc = json.loads(text)
    assert doc["levels"][0]["omega"] == [["3/8"]]
    assert doc["levels"][1]["omega"] == [["9/16", "0"], ["0", "15/16"]]
    assert doc["levels"][1]["mass_factor"] == "pi^(1)"


def test_omega_normalized_mass_factor_is_one():
    status, text = run(RunConfig("omega", family="hermite", d=1, max_level=1))
    assert status == 0
    doc = json.loads(text)
    assert doc["levels"][0]["omega"] == [["1"]]
    assert doc["levels"][1]["omega"] == [["1/2"]]
    assert all(lv["mass_factor"] == "1" for lv in doc["levels"])


def test_atoms_exact_bytes(tmp_path):
    path = _write(tmp_path, "two.json", TWO_ATOM_DOC)
    status, text = run(RunConfig("atoms", measure=path, max_level=4))
    assert status == 0
    assert text == '{"n0":2,"atom_bound":3}'


def test_atoms_inconclusive_and_csv(tmp_path):
    status, text = run(RunConfig("atoms", family="hermite", d=1, max_level=3))
    assert status == 0
    assert text == '{"n0":null,"atom_bound":null}'
    status, text = run(
        RunConfig("atoms", family="hermite", d=1, max_level=3, format="csv")
    )
    assert (status, text) == (0, "n0,atom_bound\n,")
    path = _write(tmp_path, "two.json", TWO_ATOM_DOC)
    status, text = run(RunConfig("atoms", measure=path, max_level=4, format="csv"))
    assert (status, text) == (0, "n0,atom_bound\n2,3")


def test_verify_exit_codes():
    status, text = run(RunConfig("verify", family="legendre", d=1, max_level=2))
    assert status == 0
    assert json.loads(text)["ok"] is True
    status, text = run(
        RunConfig("verify", family="legendre", d=1, max_level=2, variant="stated")
    )
    assert status == 1
    doc = json.loads(text)
    assert doc["ok"] is False
    assert doc["levels"][2]["omega_closed"] == [["16/45"]]
    assert doc["levels"][2]["omega_pipeline"] == [["4/45"]]


def test_verify_requires_family_and_json(tmp_path):
    path = _write(tmp_path, "two.json", TWO_ATOM_DOC)
    status, text = run(RunConfig("verify", measure=path, max_level=2))
    assert status == 2 and "needs --family" in text
    status, text = run(
        RunConfig("verify", family="hermite", d=1, max_level=1, format="csv")
    )
    assert status == 2 and "use --format json" in text


@pytest.mark.parametrize("command", ["decompose", "cap", "verify"])
def test_nested_documents_refuse_csv(command, capsys):
    status, text = run(
        RunConfig(command, family="hermite", d=1, max_level=1, format="csv")
    )
    assert (status, text) == (2, f"error: {command} documents are nested; use --format json")
    argv = [command, "--family", "hermite", "--d", "1", "--max-level", "1", "--format", "csv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "use --format json" in captured.err


def test_error_messages_are_distinct(tmp_path):
    status, text = run(RunConfig("atoms", measure="/no/such/file", max_level=2))
    assert status == 2 and text.startswith("error: measure file not found")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    status, text = run(RunConfig("atoms", measure=str(bad), max_level=2))
    assert status == 2 and text.startswith("error: malformed JSON")

    path = _write(tmp_path, "two.json", TWO_ATOM_DOC)
    status, text = run(
        RunConfig("atoms", family="hermite", d=1, measure=path, max_level=2)
    )
    assert status == 2 and "not both" in text

    status, text = run(RunConfig("atoms", max_level=2))
    assert status == 2 and "no functional source" in text

    status, text = run(RunConfig("omega", family="laguerre", alpha="x", max_level=1))
    assert (status, text) == (2, "error: UnsupportedParameterError: bad laguerre alpha: 'x'")

    # the family's own checks come before its parameters are read
    status, text = run(RunConfig("omega", family="hermite", d=1, a="x", max_level=1))
    assert (status, text) == (2, "error: UnsupportedParameterError: hermite takes no parameters")

    status, text = run(RunConfig("omega", family="hermite", d=1))
    assert status == 2 and "--max-level" in text


def test_library_errors_surface_with_type_name(tmp_path):
    table = {
        "d": 1,
        "max_degree": 2,
        "moments": [
            {"beta": [0], "value": "1"},
            {"beta": [1], "value": "0"},
            {"beta": [2], "value": "1"},
        ],
    }
    path = _write(tmp_path, "short.json", table)
    status, text = run(RunConfig("omega", measure=path, max_level=2))
    assert status == 2 and text.startswith("error: InsufficientMomentsError")

    empty = _write(tmp_path, "empty.json", {"d": 1})
    status, text = run(RunConfig("atoms", measure=empty, max_level=1))
    assert status == 2 and text.startswith("error: UnsupportedParameterError")


@pytest.mark.parametrize(
    "doc,cause",
    [
        ({"d": 2, "atoms": [{"x": ["0", "0"]}]}, "atom entry needs a 'w' field"),
        (
            {"d": 1, "moments": [{"beta": [0], "value": "1"}]},
            "moment table needs a 'max_degree' field",
        ),
        (5, "needs an 'atoms' or 'moments' field"),
        (
            {"d": "x", "max_degree": 2, "moments": []},
            "moment table field 'd' must be an integer, got 'x'",
        ),
        (
            {"d": 1, "max_degree": 2, "moments": 3},
            "moment table field 'moments' must be a list, got 3",
        ),
        (
            {"d": 1, "max_degree": 2, "moments": [{"beta": 3, "value": "1"}]},
            "moment entry field 'beta' must be a list, got 3",
        ),
        ({"d": 2, "atoms": 7}, "atom list field 'atoms' must be a list, got 7"),
        (
            {"d": 1, "atoms": [{"x": 5, "w": "1"}]},
            "atom entry field 'x' must be a list, got 5",
        ),
        (
            {"d": "x", "atoms": [{"x": ["1"], "w": "1"}]},
            "atom list field 'd' must be an integer, got 'x'",
        ),
        (
            {"d": 1.5, "max_degree": 2, "moments": []},
            "moment table field 'd' must be an integer, got 1.5",
        ),
        # before, each escaped as a ZeroDivisionError traceback with exit 1
        ({"d": 1, "atoms": [{"x": ["1/0"], "w": "1"}]}, "bad atom coordinate: '1/0'"),
        ({"d": 1, "atoms": [{"x": ["0"], "w": "1/0"}]}, "bad atom weight: '1/0'"),
        (
            {"d": 1, "max_degree": 0, "moments": [{"beta": [0], "value": "1/0"}]},
            "bad moment[(0,)]: '1/0'",
        ),
        # before, the last entry for a repeated beta silently won
        (
            {
                "d": 1,
                "max_degree": 2,
                "moments": [
                    {"beta": [0], "value": "1"},
                    {"beta": [2], "value": "1"},
                    {"beta": [2], "value": "3"},
                ],
            },
            "moment table lists beta [2] twice",
        ),
        # before, JSON false and true were taken as the numbers 0 and 1
        (
            {"d": 1, "atoms": [{"x": [False], "w": "1"}]},
            "atom coordinate must be exact (int, Fraction or 'p/q' string), got bool False",
        ),
        (
            {"d": 1, "atoms": [{"x": ["0"], "w": True}]},
            "atom weight must be exact (int, Fraction or 'p/q' string), got bool True",
        ),
    ],
)
def test_malformed_measure_file_exits_2_with_its_cause(tmp_path, capsys, doc, cause):
    path = _write(tmp_path, "bad.json", doc)
    code = main(["atoms", "--measure", path, "--max-level", "1"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: UnsupportedParameterError: ")
    assert cause in out.err and "Traceback" not in out.err


def test_output_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "doc.json"
    code = main(["atoms", "--family", "hermite", "--d", "1", "--max-level", "1",
                 "--output", str(target)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"error: cannot write output file {target}")
    assert not target.exists()


def test_paper_convention_limited_to_omega_alpha(tmp_path):
    status, text = run(
        RunConfig("decompose", family="hermite", d=1, max_level=1, convention="paper")
    )
    assert status == 2 and "omega/alpha" in text
    path = _write(tmp_path, "two.json", TWO_ATOM_DOC)
    status, text = run(
        RunConfig("omega", measure=path, max_level=1, convention="paper")
    )
    assert status == 2 and text.startswith("error: NoMassFactorError")


def test_omega_csv_frozen_rows():
    status, text = run(
        RunConfig("omega", family="legendre", d=1, max_level=2, format="csv")
    )
    assert status == 0
    assert text.split("\n") == [
        "n,class,value,mass_factor",
        "0,0,1,1",
        "1,1,1/3,1",
        "2,2,4/45,1",
    ]


def test_omega_csv_rejects_non_diagonal(tmp_path):
    path = _write(tmp_path, "two.json", TWO_ATOM_DOC)
    status, text = run(RunConfig("omega", measure=path, max_level=1, format="csv"))
    assert status == 2 and "not diagonal" in text


def test_alpha_csv_frozen_rows():
    status, text = run(
        RunConfig("alpha", family="laguerre", alpha="0,0", max_level=1, format="csv")
    )
    assert status == 0
    assert text.split("\n") == [
        "n,j,class,value",
        "0,1,0|0,1",
        "0,2,0|0,1",
        "1,1,1|0,3",
        "1,1,0|1,1",
        "1,2,1|0,1",
        "1,2,0|1,3",
    ]


def test_alpha_json_mass_factor_is_convention_free():
    for convention in ("normalized", "paper"):
        status, text = run(
            RunConfig("alpha", family="laguerre", alpha="1/2,3/2", max_level=1,
                      convention=convention)
        )
        assert status == 0
        doc = json.loads(text)
        assert all(lv["mass_factor"] == "1" for lv in doc["levels"])
    assert doc["levels"][1]["alpha"][0]["matrix"] == [["7/2", "0"], ["0", "3/2"]]


def test_reconstruct_round_trip_and_csv():
    status, text = run(RunConfig("reconstruct", family="hermite", d=1, max_level=2))
    assert status == 0
    doc = json.loads(text)
    assert doc["ok"] is True
    assert all(row["match"] for row in doc["moments"])
    status, text = run(
        RunConfig("reconstruct", family="hermite", d=1, max_level=2, format="csv")
    )
    assert status == 0
    assert text.split("\n") == [
        "beta,value,input,match",
        "0,1,1,true",
        "1,0,0,true",
        "2,1/2,1/2,true",
    ]


def test_decompose_and_cap_document_shapes():
    status, text = run(RunConfig("decompose", family="hermite", d=1, max_level=1))
    assert status == 0
    doc = json.loads(text)
    assert doc["levels"][1]["gram"] == [["1/2"]]
    assert doc["levels"][1]["rank"] == 1
    assert doc["levels"][1]["null"] == [False]

    status, text = run(RunConfig("cap", family="hermite", d=1, max_level=1))
    assert status == 0
    doc = json.loads(text)
    top = doc["levels"][1]["operators"][0]
    assert top["plus"] is None
    assert top["zero"]["matrix"] == [["0"]]
    assert top["minus"]["matrix"] == [["1/2"]]


def test_validation_rejects_unknown_settings():
    status, text = run(RunConfig("frobnicate", family="hermite", d=1, max_level=1))
    assert status == 2 and "unknown command" in text
    status, text = run(
        RunConfig("omega", family="hermite", d=1, max_level=1, format="tsv")
    )
    assert status == 2 and "unknown format" in text
    status, text = run(
        RunConfig("omega", family="hermite", d=1, max_level=1, convention="mass")
    )
    assert status == 2 and "unknown convention" in text


def test_main_routes_stdout_and_stderr(capsys):
    code = main(["atoms", "--family", "hermite", "--d", "1", "--max-level", "2"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == '{"n0":null,"atom_bound":null}\n'
    assert out.err == ""

    code = main(["atoms", "--measure", "/no/such/file", "--max-level", "2"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: measure file not found")


def test_main_writes_output_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code = main(
        ["omega", "--family", "gegenbauer", "--lambda", "1/3",
         "--max-level", "1", "--output", str(target)]
    )
    out = capsys.readouterr()
    assert code == 0 and out.out == ""
    content = target.read_text(encoding="utf-8")
    assert content.endswith("\n")
    assert json.loads(content)["d"] == 1


def test_main_accepts_max_degree_alias():
    code = main(["decompose", "--family", "hermite", "--d", "1", "--max-degree", "1"])
    assert code == 0


def test_main_verify_laguerre_documented_invocation(capsys):
    code = main(
        ["verify", "--family", "laguerre", "--alpha", "0,0", "--d", "2",
         "--max-level", "3"]
    )
    out = capsys.readouterr()
    assert code == 0
    assert json.loads(out.out)["ok"] is True


def test_main_verify_variant_flag(capsys):
    code = main(
        ["verify", "--family", "chebyshev1", "--d", "1",
         "--max-level", "1", "--variant", "stated"]
    )
    out = capsys.readouterr()
    assert code == 1
    assert json.loads(out.out)["ok"] is False


# argparse texts at 80 columns, pinned from the parser as first released
_FAMILY_CHOICES = "{hermite,laguerre,jacobi,gegenbauer,chebyshev1,chebyshev2,legendre}"

_TOP_USAGE = "usage: jacobi-mv [-h] {decompose,cap,omega,alpha,verify,atoms,reconstruct} ...\n"

_TOP_HELP = _TOP_USAGE + """
Exact Jacobi sequences (omega, alpha) of moment functionals on R^d, with
closed-form verification for the classical weight families.

positional arguments:
  {decompose,cap,omega,alpha,verify,atoms,reconstruct}
    decompose           dump the graded orthogonal basis and Gram matrices
    cap                 dump creation/preservation/annihilation matrices per
                        level
    omega               print the omega matrices over occupation classes
    alpha               print the alpha matrices per coordinate
    verify              compare the pipeline against a family's closed forms
    atoms               look for a vanishing omega level (finitely-atomic
                        test)
    reconstruct         round-trip moments through the recurrence data

options:
  -h, --help            show this help message and exit
"""

# the usage line is wrapped against the width of "jacobi-mv <command>"
_USAGE = {
    "decompose": f"""usage: jacobi-mv decompose [-h]
                           [--family {_FAMILY_CHOICES}]
                           [--a A] [--b B] [--alpha ALPHA] [--lambda LAM]
                           [--d D] [--measure MEASURE] --max-level MAX_LEVEL
                           [--convention {{normalized,paper}}]
                           [--format {{json,csv}}] [--output OUTPUT]
""",
    "verify": f"""usage: jacobi-mv verify [-h]
                        [--family {_FAMILY_CHOICES}]
                        [--a A] [--b B] [--alpha ALPHA] [--lambda LAM] [--d D]
                        [--measure MEASURE] --max-level MAX_LEVEL
                        [--convention {{normalized,paper}}]
                        [--format {{json,csv}}] [--output OUTPUT]
                        [--variant {{master,stated}}]
""",
    "reconstruct": f"""usage: jacobi-mv reconstruct [-h]
                             [--family {_FAMILY_CHOICES}]
                             [--a A] [--b B] [--alpha ALPHA] [--lambda LAM]
                             [--d D] [--measure MEASURE] --max-level MAX_LEVEL
                             [--convention {{normalized,paper}}]
                             [--format {{json,csv}}] [--output OUTPUT]
""",
}
for _name in ("cap", "omega", "alpha", "atoms"):
    _pad = " " * len(f"usage: jacobi-mv {_name} ")
    _USAGE[_name] = f"""usage: jacobi-mv {_name} [-h]
{_pad}[--family {_FAMILY_CHOICES}]
{_pad}[--a A] [--b B] [--alpha ALPHA] [--lambda LAM] [--d D]
{_pad}[--measure MEASURE] --max-level MAX_LEVEL
{_pad}[--convention {{normalized,paper}}] [--format {{json,csv}}]
{_pad}[--output OUTPUT]
"""

_OPTIONS = f"""
options:
  -h, --help            show this help message and exit
  --family {_FAMILY_CHOICES}
  --a A                 jacobi a parameters, e.g. 0,1/2
  --b B                 jacobi b parameters
  --alpha ALPHA         laguerre alpha parameters
  --lambda LAM          gegenbauer lambda parameters
  --d D                 dimension
  --measure MEASURE     path to an atom-list or moment-table JSON file
  --max-level MAX_LEVEL, --max-degree MAX_LEVEL
                        highest level/degree to compute
  --convention {{normalized,paper}}
                        omega scaling: normalized state or unnormalized weight
  --format {{json,csv}}
  --output OUTPUT       write the document here instead of stdout
"""

_VARIANT = """  --variant {master,stated}
                        closed-form route: jacobi substitution or quoted forms
"""


def _main_exit(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out = capsys.readouterr()
    return info.value.code, out.out, out.err


def test_top_level_help_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _main_exit(["--help"], capsys) == (0, _TOP_HELP, "")


@pytest.mark.parametrize(
    "command", ["decompose", "cap", "omega", "alpha", "verify", "atoms", "reconstruct"]
)
def test_subcommand_help_text(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _USAGE[command] + _OPTIONS + (_VARIANT if command == "verify" else "")
    assert _main_exit([command, "--help"], capsys) == (0, expected, "")


def test_usage_error_texts(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _main_exit(["omega", "--family", "hermite"], capsys) == (
        2,
        "",
        _USAGE["omega"]
        + "jacobi-mv omega: error: the following arguments are required: "
        "--max-level/--max-degree\n",
    )
    argv = ["verify", "--family", "hermite", "--max-level", "1", "--variant", "other"]
    assert _main_exit(argv, capsys) == (
        2,
        "",
        _USAGE["verify"]
        + "jacobi-mv verify: error: argument --variant: invalid choice: 'other' "
        "(choose from 'master', 'stated')\n",
    )
    assert _main_exit(["frobnicate", "--max-level", "1"], capsys) == (
        2,
        "",
        _TOP_USAGE
        + "jacobi-mv: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'decompose', 'cap', 'omega', 'alpha', 'verify', 'atoms', "
        "'reconstruct')\n",
    )


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process main call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "spaced",
    [
        ["omega", "--family", "jacobi", "--a", "-1/2", "--b", "0", "--max-level", "1"],
        ["omega", "--family", "laguerre", "--alpha", "-1/3,0", "--max-level", "1"],
        ["alpha", "--family", "gegenbauer", "--lambda", "-1/4", "--max-level", "2"],
        ["omega", "--family", "jacobi", "--a", "-1/2,0", "--b", "-.5,1", "--max-level", "1"],
        ["omega", "--family", "jacobi", "--a", "-1", "--b", "0", "--max-level", "1"],
        # an integer option refuses -1/2 for what it is, not as a missing value
        ["omega", "--family", "hermite", "--d", "-1/2", "--max-level", "1"],
        ["omega", "--family", "hermite", "--d", "-2", "--max-level", "1"],
    ],
)
def test_negative_rational_value_after_a_space(spaced, capsys):
    # argparse reads -1/2 as an option name; the = form always worked
    joined = list(spaced)
    for option in ("--a", "--b", "--alpha", "--lambda", "--d"):
        if option in joined:
            k = joined.index(option)
            joined[k : k + 2] = [f"{option}={joined[k + 1]}"]
    assert _outcome(spaced, capsys) == _outcome(joined, capsys)


def test_negative_rational_after_an_integer_option_names_the_value(capsys):
    # before, the spaced form said "expected one argument"
    code, out, err = _outcome(["omega", "--family", "hermite", "--d", "-1/2", "--max-level", "1"],
                              capsys)
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --d: invalid int value: '-1/2'\n")


# --a is an option of its own, so --alpha is abbreviated from --al on
@pytest.mark.parametrize(
    "family,option,value",
    [("laguerre", "--alpha"[:k], "-1/3") for k in range(4, 8)]
    + [("gegenbauer", "--lambda"[:k], "-1/4") for k in range(3, 9)],
)
def test_negative_value_after_an_abbreviated_option(family, option, value, capsys):
    spaced = _outcome(["omega", "--family", family, option, value, "--max-level", "1"], capsys)
    joined = _outcome(["omega", "--family", family, f"{option}={value}", "--max-level", "1"],
                      capsys)
    assert spaced == joined and spaced[0] == 0


@pytest.mark.parametrize(
    "options,named",
    [
        (["--d", "3"], "--d"),
        (["--a", "0"], "--a"),
        (["--b", "-1/2"], "--b"),
        (["--alpha", "1/2"], "--alpha"),
        (["--lambda", "1/3"], "--lambda"),
        (["--d", "3", "--alpha", "1/2"], "--alpha"),
    ],
)
def test_measure_refuses_family_options(options, named, tmp_path, capsys):
    # before, the options were dropped and the run exited 0
    path = _write(tmp_path, "two.json", TWO_ATOM_DOC)
    argv = ["atoms", "--measure", path, *options, "--max-level", "2"]
    assert _outcome(argv, capsys) == (2, "", f"error: {named} applies to --family, not --measure\n")


# each family's own options and the other families' options, as flag and value
OWN_OPTIONS = {
    "hermite": ["--d", "1"],
    "laguerre": ["--alpha", "1/2"],
    "jacobi": ["--a", "0", "--b", "1/2"],
    "gegenbauer": ["--lambda", "1/3"],
    "chebyshev1": ["--d", "1"],
    "chebyshev2": ["--d", "1"],
    "legendre": ["--d", "1"],
}


@pytest.mark.parametrize(
    "family,flag",
    [
        (family, flag)
        for family, own in OWN_OPTIONS.items()
        for flag in ("--a", "--b", "--alpha", "--lambda")
        if flag not in own
    ],
)
def test_family_refuses_another_familys_option(family, flag, capsys):
    # before, --family laguerre --alpha 1/2 --lambda 3 exited 0 and dropped
    # --lambda
    argv = ["omega", "--family", family, *OWN_OPTIONS[family], flag, "3", "--max-level", "1"]
    named = (
        f"{family} takes no {flag[2:]} parameters" if family in ("laguerre", "jacobi", "gegenbauer")
        else f"{family} takes no parameters"
    )
    assert _outcome(argv, capsys) == (2, "", f"error: UnsupportedParameterError: {named}\n")


def test_negative_value_rewrite_keeps_a_missing_value_an_error(capsys):
    code, out, err = _outcome(
        ["omega", "--family", "jacobi", "--a", "--b", "0", "--max-level", "1"], capsys
    )
    assert (code, out) == (2, "")
    assert err.endswith("jacobi-mv omega: error: argument --a: expected one argument\n")


def test_main_reuses_one_parser(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["verify", "--family", "chebyshev1", "--d", "1", "--max-level", "2", "--variant", "stated"],
        ["omega", "--family", "chebyshev1", "--d", "1", "--max-level", "2"],
        # exits 0 only if --variant fell back to master
        ["verify", "--family", "chebyshev1", "--d", "1", "--max-level", "2"],
        ["omega", "--family", "hermite"],
        ["--help"],
    ]
    first = []
    for argv in calls:
        _build_parser.cache_clear()
        first.append(_outcome(argv, capsys))
    assert [code for code, _, _ in first] == [1, 0, 0, 2, 0]
    _build_parser.cache_clear()
    assert [_outcome(argv, capsys) for argv in calls] == first
    assert _build_parser.cache_info().misses == 1


def test_cli_module_runs_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "jacobi_mv.cli", *args],
            capture_output=True, text=True, env=env, timeout=60,
        )

    done = cli("omega", "--family", "hermite", "--d", "2", "--max-level", "3")
    golden = (ROOT / "tests" / "golden" / "hermite_d2_n3.omega.txt").read_text(encoding="utf-8")
    status, document = golden.split("\n", 1)
    assert (done.returncode, done.stdout, done.stderr) == (int(status), document + "\n", "")
    missing = cli("omega", "--family", "hermite", "--d", "2")
    assert missing.returncode == 2
    assert "the following arguments are required: --max-level/--max-degree" in missing.stderr


def _table_doc(top):
    return {
        "d": 1,
        "max_degree": 2,
        "moments": [{"beta": [0], "value": "1"}, {"beta": [1], "value": "0"},
                    {"beta": [2], "value": top}],
    }


def test_exact_output_over_the_interpreters_digit_limit(tmp_path, capsys):
    # before, str() of the 100001-digit omega entry raised ValueError
    # (Exceeds the limit (4300 digits)) out of main; the moment is written
    # out in full, since an exponent that large is refused
    limit = sys.get_int_max_str_digits()
    path = _write(tmp_path, "big.json", _table_doc("1" + "0" * 100000))
    code, out, err = _outcome(["omega", "--measure", path, "--max-level", "1"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["levels"][1]["omega"] == [["1" + "0" * 100000]]
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("as_string", [True, False])
def test_long_exact_input_is_accepted(as_string, tmp_path, capsys):
    # before, a 5001-digit moment exited 2 with "bad moment[(2,)]:" and all
    # 5001 digits
    limit = sys.get_int_max_str_digits()
    value = "1" + "0" * 5000
    path = tmp_path / "long.json"
    text = json.dumps(_table_doc(value))
    path.write_text(text if as_string else text.replace(f'"{value}"', value), encoding="utf-8")
    code, out, err = _outcome(["omega", "--measure", str(path), "--max-level", "1"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["levels"][1]["omega"] == [[value]]
    assert sys.get_int_max_str_digits() == limit


def test_long_rejected_input_is_cut_in_the_error_text(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    value = "1" * 5000 + "x"
    path = _write(tmp_path, "bad.json", _table_doc(value))
    code, out, err = _outcome(["omega", "--measure", path, "--max-level", "1"], capsys)
    shown = repr(value)[:80]
    assert (code, out) == (2, "")
    assert err == (f"error: UnsupportedParameterError: bad moment[(2,)]: {shown}... "
                   "(5003 characters)\n")
    code, out, err = _outcome(
        ["omega", "--family", "laguerre", "--alpha", value, "--max-level", "1"], capsys
    )
    assert (code, out) == (2, "")
    assert err == (f"error: UnsupportedParameterError: bad laguerre alpha: {shown}... "
                   "(5003 characters)\n")
    assert sys.get_int_max_str_digits() == limit


def test_large_dimension_at_level_zero(tmp_path, capsys):
    # before, d = 1200 raised RecursionError in the class enumeration
    d = 1200
    doc = {"d": d, "max_degree": 0, "moments": [{"beta": [0] * d, "value": "1"}]}
    path = _write(tmp_path, "wide.json", doc)
    code, out, err = _outcome(["omega", "--measure", path, "--max-level", "0"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["levels"] == [{
        "n": 0, "classes": [[0] * d], "omega": [["1"]], "convention": "normalized",
        "mass_factor": "1",
        "mass_factor_struct": {"rational": "1", "two_pow": "0", "pi_pow": "0", "gamma": []},
    }]
    # a dimension over the cap exits 2 before any work, from a family or a
    # table; before, nothing bounded d: level 0 took time quadratic in d,
    # and a table of no entries at d = 10^40 raised OverflowError with a
    # traceback
    over = MAX_DIMENSION + 1
    tables = [
        {"d": over, "max_degree": 0, "moments": [{"beta": [0] * over, "value": "1"}]},
        {"d": 10**40, "max_degree": 0, "moments": []},
    ]
    runs = [(["omega", "--family", "hermite", "--d", str(over), "--max-level", "0"], over)]
    for k, table in enumerate(tables):
        path = _write(tmp_path, f"over{k}.json", table)
        runs.append((["omega", "--measure", path, "--max-level", "0"], table["d"]))
    for argv, d in runs:
        refused = f"error: InvalidDimensionError: dimension must be at most {MAX_DIMENSION}, got {d}\n"
        assert _outcome(argv, capsys) == (2, "", refused)


def _entries(d, max_degree, *pairs):
    return {"d": d, "max_degree": max_degree,
            "moments": [{"beta": beta, "value": value} for beta, value in pairs]}


@pytest.mark.parametrize(
    "doc, message",
    [
        # the table's entries go through the one multi-index gate, their
        # entry types too
        (
            _entries(1, 2, ([0], "1"), ([True], "1")),
            "InvalidIndexError: multi-index entry must be an integer, got True",
        ),
        (
            _entries(1, 2, ([1.0], "1")),
            "InvalidIndexError: multi-index entry must be an integer, got 1.0",
        ),
        (
            _entries(2, 2, ([0, 0], "1"), ([1, -1], "1")),
            "InvalidIndexError: negative entry in multi-index (1, -1)",
        ),
        (
            _entries(2, 2, ([0], "1")),
            "DimensionMismatchError: multi-index length 1 != dimension 2",
        ),
        (
            _entries(2, 2, ([0, 0], "1"), ([2, 1], "1")),
            "UnsupportedParameterError: table entry (2, 1) exceeds max_degree 2",
        ),
        (
            _entries(2, 2, ([0, 1], "1"), ([0, 1], "1")),
            "UnsupportedParameterError: moment table lists beta [0, 1] twice",
        ),
        (
            _entries(1, 2, ([0], 1), ([1], 0.5)),
            "UnsupportedParameterError: moment[(1,)] must be exact "
            "(int, Fraction or 'p/q' string), got float 0.5",
        ),
        (
            _entries(1, 2, ([0], "1"), ([2], "3/x")),
            "UnsupportedParameterError: bad moment[(2,)]: '3/x'",
        ),
        # the order: the header first, then entry by entry, each index
        # through the gate, then for a repeat and its degree, then its value
        (
            _entries(1, 2, ([0], "x"), ([2], "1"), ([2], "1")),
            "UnsupportedParameterError: bad moment[(0,)]: 'x'",
        ),
        (
            _entries(1, 2, ([-1], "1"), (["1"], "1")),
            "InvalidIndexError: negative entry in multi-index (-1,)",
        ),
        (
            _entries(1, -1, ([0.5], "1")),
            "UnsupportedParameterError: max_degree must be >= 0, got -1",
        ),
        (
            _entries(1, -1, ([0], "x")),
            "UnsupportedParameterError: max_degree must be >= 0, got -1",
        ),
        (
            _entries(0, 1, ([], "x")),
            "InvalidDimensionError: dimension must be a positive integer, got 0",
        ),
        (
            _entries(1, 1, ([0], "y"), ([2], "1")),
            "UnsupportedParameterError: bad moment[(0,)]: 'y'",
        ),
        # before, a JSON true was taken as the moment 1
        (
            _entries(1, 2, ([0], "1"), ([1], True)),
            "UnsupportedParameterError: moment[(1,)] must be exact "
            "(int, Fraction or 'p/q' string), got bool True",
        ),
    ],
)
def test_malformed_moment_table_texts_and_order(doc, message, tmp_path, capsys):
    path = _write(tmp_path, "bad.json", doc)
    code, out, err = _outcome(["decompose", "--measure", path, "--max-level", "1"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _limit_memory():
    # Fraction expands "1e<k>" to a k-digit integer; cap the child's address
    # space so a regression fails with MemoryError, not by taking the
    # machine's memory
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_a_huge_decimal_exponent_exits_2_at_once(tmp_path):
    # before, both runs below ran until killed: Fraction("1e10000000") alone
    # takes 14 s, and cli.run lifts the digit limit that would stop it
    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "jacobi_mv.cli", *args],
            capture_output=True, text=True, timeout=30, preexec_fn=_limit_memory,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )

    done = cli("omega", "--family", "laguerre", "--alpha", "1e10000000", "--max-level", "1")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: UnsupportedParameterError: bad laguerre alpha: '1e10000000'\n"
    path = _write(tmp_path, "far.json", {"d": 1, "atoms": [{"x": ["1e99999999"], "w": "1"}]})
    done = cli("atoms", "--measure", path, "--max-level", "1")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: UnsupportedParameterError: bad atom coordinate: '1e99999999'\n"
    # exponents within the limit still parse
    done = cli("omega", "--family", "laguerre", "--alpha", "1e3,25e-2", "--max-level", "1")
    assert done.returncode == 0 and '"omega":[["1001","0"],["0","5/4"]]' in done.stdout


# ------------------------------------------------------------ boundary fuzz

# a value in a field that wants something else: wrong types, bools, floats,
# long numbers, large decimal exponents within and beyond the limit
_JUNK = st.one_of(
    st.sampled_from([
        None, True, False, 0.5, float("nan"), "", "x", "1/0", " 1/2", "1e300", "-1e-300",
        "1e4301", "1e99999999", 0, -1, MAX_DIMENSION + 1, 10**40, [], {}, [0, 0], {"x": 1},
    ]),
    st.integers(10**30, 10**60),
    st.integers(10**30, 10**60).map(str),
)
_COORDINATES = st.integers(-2, 2).map(str) | st.sampled_from(["1/2", "-2/3", "1e3"])


@st.composite
def _near_valid_documents(draw):
    """A valid atom list, or the moment table of one, of at most 8 entries,
    then up to three edits: a field dropped or replaced by junk, an entry
    duplicated, an index or point made negative, short or long."""
    d = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[_COORDINATES] * d), min_size=1, max_size=4, unique=True))
    weight = f"1/{len(points)}"
    if draw(st.booleans()):
        doc = {"d": d, "atoms": [{"x": list(p), "w": weight} for p in points]}
        entries, index = doc["atoms"], "x"
    else:
        phi = atomic_functional([(p, weight) for p in points])
        top = max(n for n in range(8) if math.comb(n + d, d) <= 8)
        top = draw(st.integers(0, top))
        doc = {"d": d, "max_degree": top, "moments": [
            {"beta": list(b), "value": str(phi.moment(b))} for b in monomial_basis(d, top)
        ]}
        entries, index = doc["moments"], "beta"
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("drop", "junk", "entry", "duplicate", "index")))
        if edit in ("drop", "junk"):
            # a field of the document or of one entry still an object
            target = draw(st.sampled_from([doc] + [e for e in entries if isinstance(e, dict)]))
            if not target:
                continue
            key = draw(st.sampled_from(sorted(target)))
            if edit == "drop":
                del target[key]
            else:
                target[key] = draw(_JUNK)
        elif not entries:
            continue
        elif edit == "entry":
            entries[draw(st.integers(0, len(entries) - 1))] = draw(_JUNK)
        elif edit == "duplicate" and len(entries) < 8:
            entries.append(copy.deepcopy(draw(st.sampled_from(entries))))
        elif edit == "index":
            entry = draw(st.sampled_from(entries))
            if isinstance(entry, dict) and isinstance(entry.get(index), list):
                entry[index] = draw(st.sampled_from([
                    entry[index][:-1], entry[index] + [0], [-1] * len(entry[index]),
                    [str(c) for c in entry[index]], [True] * len(entry[index]),
                ]))
    return doc


_COMMANDS = ["decompose", "cap", "omega", "alpha", "verify", "atoms", "reconstruct"]
# family options that do not apply to --measure, and output settings
_EXTRA = st.sampled_from([
    [], [], ["--d", "2"], ["--a", "0"], ["--lambda", "-1/2"], ["--family", "hermite"],
    ["--format", "csv"], ["--convention", "paper"],
])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=_near_valid_documents(), command=st.sampled_from(_COMMANDS),
       level=st.integers(-1, 3), extra=_EXTRA)
def test_near_valid_measure_documents_exit_cleanly(tmp_path_factory, doc, command, level, extra):
    # every input ends in a document (exit 0 or 1) or in one error line
    # (exit 2), never in a traceback
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "--measure", str(path), "--max-level", str(level), *extra]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, doc, err)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, doc, err)
    elif "csv" in extra:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and len({len(row) for row in rows}) == 1
    else:
        json.loads(out)
