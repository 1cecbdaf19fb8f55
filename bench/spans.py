"""Spans around the public functions of each jacobi_mv module, wrapped from outside.

Tracer.install() replaces each traced function with a timing wrapper.  A
module that bound the function by name at import time (`from .orthodecomp
import decompose` in cli, closed_forms and jacobi_sequences, and the package
namespace itself) keeps its own reference, so every jacobi_mv module that
holds the original object is rebound too; otherwise the child spans under
cli and closed_forms would go missing.  Methods are wrapped on their class.

A span's self time is its duration minus the durations of the spans it
encloses.  Spans are aggregated in memory per name: calls, self time, and
inclusive time counted only for the outermost span of its group, so nested
calls into one layer are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, group, module, attribute, class or None); a group collects
# spans whose inclusive time is summed without double counting
TARGETS = [
    ("cli.main", "cli.run", "jacobi_mv.cli", "main", None),
    ("closed_forms.verify_family", "closed_forms.verify", "jacobi_mv.closed_forms", "verify_family", None),
    ("orthodecomp.decompose", "orthodecomp.decompose", "jacobi_mv.orthodecomp", "decompose", None),
    ("cap_operators.build", "cap_operators.build", "jacobi_mv.cap_operators", "build", None),
    ("jacobi_sequences.compute", "jacobi_sequences.compute", "jacobi_mv.jacobi_sequences", "compute", None),
    ("jacobi_sequences.detect_atoms", "jacobi_sequences.detect_atoms", "jacobi_mv.jacobi_sequences", "detect_atoms", None),
    ("jacobi_sequences.reconstruct_moments", "jacobi_sequences.reconstruct", "jacobi_mv.jacobi_sequences", "reconstruct_moments", None),
    ("jacobi_sequences.reconstruct_moment_table", "jacobi_sequences.reconstruct", "jacobi_mv.jacobi_sequences", "reconstruct_moment_table", None),
    ("moments.inner_product", "moments.inner_product", "jacobi_mv.moments", "inner_product", "MomentFunctional"),
    ("moments.moment.product", "moments.moment", "jacobi_mv.moments", "moment", "ProductFunctional"),
    ("moments.moment.atomic", "moments.moment", "jacobi_mv.moments", "moment", "AtomicFunctional"),
    ("moments.moment.table", "moments.moment", "jacobi_mv.moments", "moment", "TableFunctional"),
    ("polyring.mul", "polyring.mul", "jacobi_mv.polyring", "__mul__", "Polynomial"),
    ("linalg.solve_consistent", "linalg.solve", "jacobi_mv._linalg", "solve_consistent", None),
    ("linalg.ldlt_psd", "linalg.ldlt", "jacobi_mv._linalg", "ldlt_psd", None),
]

# the layer whose self time a span counts toward
LAYER = {name: name.split(".")[0] for name, *_ in TARGETS}


class Tracer:
    """Aggregated spans for one pass; reset() between passes."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._undo = []
        self._stack = []  # child time accumulated per open span
        self._depth = Counter()  # open spans per group
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.moments_seen = {}  # functional -> set of multi-indices

    def _wrap(self, name, group, fn):
        tracer = self
        counts_moments = group == "moments.moment"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_moments:
                tracer.moments_seen.setdefault(args[0], set()).add(tuple(args[1]))
            children = [0.0]
            tracer._stack.append(children)
            outer = tracer._depth[group] == 0
            tracer._depth[group] += 1
            start = tracer._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = tracer._clock() - start
                tracer._depth[group] -= 1
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - children[0]
                if outer:
                    tracer.inclusive_s[group] += elapsed

        return traced

    def install(self):
        """Wrap every target and rebind it wherever jacobi_mv holds it."""
        package = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "jacobi_mv" or key.startswith("jacobi_mv."))
        ]
        for name, group, module, attr, cls in TARGETS:
            owner = sys.modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
                self._set(owner, attr, self._wrap(name, group, vars(owner)[attr]))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, group, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_self_s(self, layer):
        return sum((v for name, v in self.self_s.items() if LAYER[name] == layer), 0.0)

    def pass_metrics(self):
        """Per-layer figures for the pass since the last reset()."""
        calls = self.calls
        return {
            "cli.run_s": self.inclusive_s["cli.run"],
            "cli.self_s": self.layer_self_s("cli"),
            "closed_forms.verify_s": self.inclusive_s["closed_forms.verify"],
            "closed_forms.self_s": self.layer_self_s("closed_forms"),
            "orthodecomp.decompose_s": self.inclusive_s["orthodecomp.decompose"],
            "cap_operators.build_s": self.inclusive_s["cap_operators.build"],
            "jacobi_sequences.compute_s": self.inclusive_s["jacobi_sequences.compute"],
            "jacobi_sequences.detect_atoms_s": self.inclusive_s["jacobi_sequences.detect_atoms"],
            "jacobi_sequences.reconstruct_s": self.inclusive_s["jacobi_sequences.reconstruct"],
            "jacobi_sequences.reconstruct_calls": calls["jacobi_sequences.reconstruct_moments"]
            + calls["jacobi_sequences.reconstruct_moment_table"],
            "moments.moment_calls": sum(
                calls[n] for n in ("moments.moment.product", "moments.moment.atomic", "moments.moment.table")
            ),
            "moments.moment_distinct": sum(len(seen) for seen in self.moments_seen.values()),
            "moments.moment_s": self.inclusive_s["moments.moment"],
            "moments.inner_product_calls": calls["moments.inner_product"],
            "polyring.mul_calls": calls["polyring.mul"],
            "polyring.mul_s": self.inclusive_s["polyring.mul"],
            "linalg.solve_calls": calls["linalg.solve_consistent"],
            "linalg.solve_s": self.inclusive_s["linalg.solve"],
            "linalg.ldlt_s": self.inclusive_s["linalg.ldlt"],
        }
