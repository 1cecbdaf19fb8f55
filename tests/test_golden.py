"""Every CLI document in the golden grid is byte-identical to its stored copy."""

from __future__ import annotations

import pytest

from golden.regen import CASES, HERE, render, write_measures


@pytest.fixture(scope="module")
def measure_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("measures")
    write_measures(path)
    return path


@pytest.mark.parametrize("name,kwargs", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden_bytes(name, kwargs, measure_dir):
    expected = (HERE / f"{name}.txt").read_text(encoding="utf-8")
    assert render(kwargs, measure_dir) == expected
