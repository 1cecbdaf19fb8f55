"""Every CLI document in the golden grid is byte-identical to its stored copy,
and every case of the sweep has its stored digest."""

from __future__ import annotations

import json

import pytest

from golden.regen import CASES, HERE, render, sweep_digests, write_measures


@pytest.fixture(scope="module")
def measure_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("measures")
    write_measures(path)
    return path


@pytest.mark.parametrize("name,kwargs", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden_bytes(name, kwargs, measure_dir):
    expected = (HERE / f"{name}.txt").read_text(encoding="utf-8")
    assert render(kwargs, measure_dir) == expected


def test_every_golden_file_is_a_case_and_every_case_has_its_file():
    names = [name for name, _ in CASES]
    assert len(set(names)) == len(names)
    assert {path.name[: -len(".txt")] for path in HERE.glob("*.txt")} == set(names)


def test_every_sweep_case_has_its_stored_digest(tmp_path):
    stored = json.loads((HERE / "sweep.json").read_text(encoding="utf-8"))
    digests = sweep_digests(tmp_path)
    assert sorted(digests) == sorted(stored)
    changed = [name for name, digest in digests.items() if digest != stored[name]]
    assert not changed, f"{len(changed)} sweep cases changed: {changed}"


def test_every_atom_list_in_the_sweep_prints_what_its_table_prints():
    # an atom list skips its null pairings and stops at n0; the table of its
    # moments is never positive and takes the full path
    stored = json.loads((HERE / "sweep.json").read_text(encoding="utf-8"))
    twins = {name: name.replace("-atoms.", "-table.") for name in stored if "-atoms." in name}
    assert twins and set(twins.values()) <= set(stored)
    assert [name for name, table in twins.items() if stored[name] != stored[table]] == []
