"""The python examples and CLI lines in README.md run against the package as it is."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from jacobi_mv import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.DOTALL)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks, "README.md has no python blocks"
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    # every jacobi-mv line of the sh blocks exits 0; a "# ..." line right
    # after one is its documented output.  The measure file the lines name
    # is the first json block.
    (tmp_path / "two_atoms.json").write_text(_blocks("json")[0])
    monkeypatch.chdir(tmp_path)
    lines = [line for block in _blocks("sh") for line in block.splitlines()]
    runs = documented = 0
    for line, after in zip(lines, lines[1:] + [""]):
        if not line.startswith("jacobi-mv "):
            continue
        runs += 1
        capsys.readouterr()
        assert cli.main(shlex.split(line)[1:]) == 0, line
        if after.startswith("# "):
            documented += 1
            assert capsys.readouterr().out == after[2:] + "\n", line
    assert (runs, documented) == (5, 1)
