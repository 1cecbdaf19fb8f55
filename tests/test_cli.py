from __future__ import annotations

import json

import pytest

from jacobi_mv.cli import RunConfig, main, run

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
    assert status == 2 and "bad alpha value" in text

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
