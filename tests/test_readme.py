"""The python examples in README.md run against the library as it is."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README.md has no python blocks"
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
