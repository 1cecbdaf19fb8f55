"""Every span the benchmark traces names a function that exists.

bench/spans.py wraps its TARGETS by name; a renamed function would only
fail when the benchmark runs.  The module is loaded from its file and
nothing under bench/ is changed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    for name, _, module, attr, cls in targets:
        owner = importlib.import_module(module)
        if cls is None:
            assert callable(getattr(owner, attr, None)), name
        else:
            # methods are wrapped on their own class, so they must be defined there
            assert attr in vars(getattr(owner, cls)), name
