"""Spans around the public functions of each qramsey layer.

The tracer replaces each named function at every place it is bound (a
`from .space import apply` in another module is its own binding) with a
wrapper that records a span: name, start, end and parent.  Spans stay
in memory until the run ends.  A span's self time is its duration
minus the time of the wrapped calls made inside it.  Leaf calls that
happen hundreds of thousands of times are kept as per-parent counters
instead of spans.

Work counts (DFS nodes, reduced cells, input density) are measured in
the wrappers, outside the program, so the program runs unchanged.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter

import qramsey
from qramsey import (arrow, budget, cli, coloring_search, construction, field,
                     hales_jewett, space)
from qramsey.construction import MonochromaticCopy

MODULES = (field, space, coloring_search, hales_jewett, arrow, construction,
           cli, budget, qramsey)

# (layer name, module, attribute) of every wrapped module-level function
FUNCTIONS = [
    ("field.make_field", field, "make_field"),
    ("space.mat_vec", space, "mat_vec"),
    ("space.rref", space, "rref"),
    ("space.apply", space, "apply"),
    ("space.span", space, "span"),
    ("space.linear_extension", space, "linear_extension"),
    ("space.enumerate_subspaces", space, "enumerate_subspaces"),
    ("coloring_search", coloring_search, "find_proper_coloring"),
    ("hales_jewett.line_free_coloring", hales_jewett, "line_free_coloring"),
    ("hales_jewett.find_monochromatic_line", hales_jewett,
     "find_monochromatic_line"),
    ("arrow.arrow_structure", arrow, "arrow_structure"),
    ("arrow.induced_host_verify", arrow, "induced_host_verify"),
    ("arrow.family_isomorphic", arrow, "family_isomorphic"),
    ("arrow.find_monochromatic_subspace", arrow,
     "find_monochromatic_subspace"),
    ("construction.build_base_host", construction, "build_base_host"),
    ("construction.build_product_host", construction, "build_product_host"),
    ("construction.equalizer_subspace", construction, "equalizer_subspace"),
    ("construction.host_to_json", construction, "host_to_json"),
    ("construction.host_from_json", construction, "host_from_json"),
    ("construction.line_embedding", construction, "line_embedding"),
    ("construction.extract_monochromatic_copy", construction,
     "extract_monochromatic_copy"),
    ("cli.main", cli, "main"),
]

# (layer name, class, method) of wrapped methods; these are the leaf calls
# kept as per-parent counters
METHODS = [
    ("space.is_member", space.Subspace, "is_member"),
    ("space.key", space.Subspace, "key"),
]
AGGREGATED = {name for name, _, _ in METHODS}

ROOT = "<root>"


class Tracer:
    """Installs span-recording wrappers and collects layer statistics."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.children: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0])            # (parent, leaf) -> [calls, seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []     # [name, span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        extras = {
            "coloring_search": self._coloring_extra,
            "space.mat_vec": self._mat_vec_extra,
            "space.rref": self._rref_extra,
        }
        results = {
            "space.enumerate_subspaces": self._enumerate_result,
            "arrow.arrow_structure": self._structure_result,
            "arrow.induced_host_verify": self._verify_result,
            "construction.build_product_host": self._product_result,
            "construction.extract_monochromatic_copy": self._extract_result,
        }
        for name, module, attr in FUNCTIONS:
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, extras.get(name),
                                 results.get(name))
            for mod in MODULES:
                if mod.__dict__.get(attr) is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        for name, cls, attr in METHODS:
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, None, None))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        stack = self._stack
        aggregated = name in AGGREGATED
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if before is not None:
                args, kwargs, finish = before(fn, args, kwargs)
            else:
                finish = None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [name, span_id, 0.0]
            stack.append(frame)
            result = done = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += (end - start) - frame[2]
                if finish is not None:
                    finish()
                if done and after is not None:
                    after(result)
                parent = stack[-1] if stack else None
                if aggregated:
                    slot = tracer.children[(parent[0] if parent else ROOT,
                                            name)]
                    slot[0] += 1
                    slot[1] += end - start
                else:
                    tracer.spans.append((span_id, name, start, end,
                                         parent[1] if parent else -1))
                if parent is not None:
                    # charge the wrapper's own cost to the child, not the
                    # parent's self time
                    parent[2] += perf_counter() - entered

        wrapper.__wrapped__ = fn
        return wrapper

    # -- work counts -------------------------------------------------------

    def _coloring_extra(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        fams = bound.arguments["families"]
        if not isinstance(fams, (list, tuple)):
            fams = list(fams)
            bound.arguments["families"] = fams
        bud = bound.arguments["budget"]
        if bud is None:
            bud = budget.Budget()
            bound.arguments["budget"] = bud
        self.counts["coloring_search.items"] += bound.arguments["item_count"]
        self.counts["coloring_search.families"] += len(fams)
        before = bud.nodes

        def finish():
            self.counts["coloring_search.nodes"] += bud.nodes - before

        return bound.args, bound.kwargs, finish

    def _mat_vec_extra(self, fn, args, kwargs):
        vec = args[2] if len(args) > 2 else kwargs["v"]
        self.counts["space.mat_vec.nonzero"] += sum(1 for x in vec if x)
        self.counts["space.mat_vec.length"] += len(vec)
        return args, kwargs, None

    def _rref_extra(self, fn, args, kwargs):
        rows = args[1] if len(args) > 1 else kwargs["rows"]
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
            args = (args[0], rows) + tuple(args[2:])
        if rows:
            self.counts["space.rref.cells"] += len(rows) * len(rows[0])
        return args, kwargs, None

    def _enumerate_result(self, result):
        self.counts["space.enumerate_subspaces.items"] += len(result)

    def _structure_result(self, result):
        self.counts["arrow.arrow_structure.families"] += len(result.families)

    def _verify_result(self, result):
        self.counts["arrow.induced_host_verify.candidates"] += \
            result.num_candidates
        self.counts["arrow.induced_host_verify.induced"] += result.num_induced

    def _product_result(self, result):
        self.counts["construction.members"] += len(result.members)

    def _extract_result(self, result):
        if isinstance(result, MonochromaticCopy):
            self.counts["construction.extract_monochromatic_copy.success"] += 1

    # -- output --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures named in BENCHMARK.json (without units)."""
        c, out = self.counts, {}

        def ratio(num, den):
            return num / den if den else 0.0

        for name, _, _ in FUNCTIONS + METHODS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out["coloring_search.nodes"] = c["coloring_search.nodes"]
        out["coloring_search.ns_per_node"] = ratio(
            1e9 * out["coloring_search.self_s"], c["coloring_search.nodes"])
        out["coloring_search.items"] = c["coloring_search.items"]
        out["coloring_search.families"] = c["coloring_search.families"]
        out["space.mat_vec.input_density"] = ratio(
            c["space.mat_vec.nonzero"], c["space.mat_vec.length"])
        out["space.rref.cells"] = c["space.rref.cells"]
        out["space.enumerate_subspaces.items"] = \
            c["space.enumerate_subspaces.items"]
        out["arrow.arrow_structure.families"] = \
            c["arrow.arrow_structure.families"]
        out["arrow.induced_host_verify.induced_ratio"] = ratio(
            c["arrow.induced_host_verify.induced"],
            c["arrow.induced_host_verify.candidates"])
        out["construction.members"] = c["construction.members"]
        out["construction.extract_monochromatic_copy.success_ratio"] = ratio(
            c["construction.extract_monochromatic_copy.success"],
            self.calls.get("construction.extract_monochromatic_copy", 0))
        return out

    def dump(self, path: str) -> None:
        """Write the spans and leaf counters out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
            for (parent, name), (calls, secs) in sorted(self.children.items()):
                fh.write(json.dumps({"name": name, "parent_name": parent,
                                     "calls": calls, "seconds": secs}) + "\n")
