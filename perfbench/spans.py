"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of bpcheb by name, on the module that
calls them, so nothing in the library changes.  Three kinds of wrapper:

* span: records (name, start, end, parent) for each call; the parent's
  child time grows by the call's duration, so self time is the span's
  duration minus the time its child spans cover;
* leaf: for functions called tens of thousands of times per op (the
  expression interpreter, pointwise synthesis) only a call count and a
  time total are kept, and the time is charged to the enclosing span;
* counter: a call count only, for the user callables A, B, N and u.

A hooked name that no longer exists is listed in `absent` and skipped.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from collections import defaultdict
from time import perf_counter

SPAN, LEAF = "span", "leaf"

# (module, attribute path, span name, kind): each public function is wrapped
# on the module that calls it, so the library's own call sites go through
# the wrapper.
HOOKS = (
    ("bpcheb.solver", "hybrid_solve", "solver.hybrid_solve", SPAN),
    ("bpcheb.solver", "assemble", "solver.assemble", SPAN),
    ("bpcheb.solver", "solve", "solver.solve", SPAN),
    ("bpcheb.solver", "expand_matrix", "expansion.expand", SPAN),
    ("bpcheb.solver", "expand_vector", "expansion.expand", SPAN),
    ("bpcheb.solver", "fredholm_operator", "kernel.fredholm_operator", SPAN),
    ("bpcheb.solver", "build_p", "operational.build_p", SPAN),
    ("bpcheb.solver", "kron", "linalg.kron", SPAN),
    ("bpcheb.solver", "LU", "linalg.lu_factor", SPAN),
    ("bpcheb.linalg", "LU.solve", "linalg.lu_solve", SPAN),
    ("bpcheb.solver", "AssembledSystem.system_matrix", "solver.system_matrix", SPAN),
    ("bpcheb.solver", "HybridSolution.evaluate_many", "solver.evaluate_many", SPAN),
    ("bpcheb.solver", "synthesize", "expansion.synthesize", LEAF),
    ("bpcheb.exprlang", "evaluate", "exprlang.evaluate", LEAF),
    ("bpcheb.cli", "main", "cli.main", SPAN),
    ("bpcheb.cli", "load", "problem.load", SPAN),
    ("bpcheb.cli", "hybrid_solve", "solver.hybrid_solve", SPAN),
)

DATA_CALLABLES = ("A", "B", "N", "u")


class Tracer:
    """Spans, leaf totals and call counts, grouped by phase.

    `phase` is "setup", "op" or "check"; `op` is the index of the current
    operation.  Records stay in memory until `dump` is called.
    """

    def __init__(self):
        self.phase = "setup"
        self.op = -1
        self.spans: list[list] = []  # [name, start, end, parent, child_s, phase, op]
        self._stack: list[int] = []
        self.leaves: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.lu_dims: list[tuple[str, int]] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn):
        def wrapped(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = [name, 0.0, 0.0, parent, 0.0, self.phase, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                rec[1], rec[2] = start, end
                if parent is not None:
                    self.spans[parent][4] += end - start

        return wrapped

    def leaf(self, name, fn):
        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                agg = self.leaves[(self.phase, name)]
                agg[0] += 1
                agg[1] += dt
                if self._stack:
                    self.spans[self._stack[-1]][4] += dt

        return wrapped

    def counted(self, name, fn):
        """Count calls of a user callable; None (identically zero) stays None."""
        if fn is None:
            return None

        def wrapped(*args):
            self.counts[(self.phase, name)] += 1
            return fn(*args)

        return wrapped

    # -- installing the hooks ---------------------------------------------

    def install(self):
        for module_name, path, name, kind in HOOKS:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(module_name, path, name, kind, original, owner))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, module_name, path, name, kind, original, owner):
        if kind == LEAF:
            return self.leaf(name, original)
        if isinstance(original, functools.cached_property):
            # time only the first access, which computes and caches the value
            prop = functools.cached_property(self.span(name, original.func))
            prop.__set_name__(owner, original.attrname)
            return prop
        if name == "linalg.lu_factor":
            factor = self.span(name, original)

            def lu(a, *args, **kwargs):
                self.lu_dims.append((self.phase, len(a)))
                return factor(a, *args, **kwargs)

            return lu
        if module_name == "bpcheb.cli" and path == "hybrid_solve":
            # the CLI builds its callables from expressions; count them here
            solve = self.span(name, original)

            def hybrid_solve(spec, *args, **kwargs):
                counted = {k: self.counted(k, getattr(spec, k)) for k in DATA_CALLABLES}
                return solve(dataclasses.replace(spec, **counted), *args, **kwargs)

            return hybrid_solve
        return self.span(name, original)

    # -- summaries --------------------------------------------------------

    def span_totals(self, phase: str) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name within one phase."""
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, child_s, ph, _op in self.spans:
            if ph == phase:
                total[name] += end - start
                self_s[name] += end - start - child_s
        return total, self_s

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "self_s": e - s - c,
                 "phase": ph, "op": op}
                for n, s, e, p, c, ph, op in self.spans
            ],
            "leaves": [
                {"phase": ph, "name": n, "calls": calls, "seconds": secs}
                for (ph, n), (calls, secs) in sorted(self.leaves.items())
            ],
            "counts": [
                {"phase": ph, "name": n, "calls": c} for (ph, n), c in sorted(self.counts.items())
            ],
            "lu_dims": [{"phase": ph, "dim": d} for ph, d in self.lu_dims],
        }
