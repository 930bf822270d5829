"""Outside-in tracing of the agreetree layers.

``Tracer.install`` replaces every public callable of each layer module (no
leading underscore, defined in that module) at every ``agreetree.*``
binding of it: the modules import each other with ``from .x import y``, so
patching only the defining module would miss the callers.  It also wraps
the ``RootedTree.leaves`` getter.  ``Tracer.remove`` puts the originals
back, so untraced ops run the program unchanged.

Each call records one span: name, start, end, parent span and op id.
Spans stay in memory; ``collect`` turns the spans of one finished op into
per-name inclusive times and call counts and per-layer self times (a
span's duration minus its children's), and ``write`` dumps every span at
the end.  Private helpers are not wrapped: in a prototype, wrapping
``exactmast._pick`` (65,025 calls per 256-leaf ``mast`` op) took that op
from 0.34 s to 1.18 s.
Generator functions are not wrapped either, since their span would end
before the work is done.
"""

from __future__ import annotations

import csv
import inspect
import sys
import time
from collections import Counter

from agreetree.treecore import RootedTree

LAYERS = ("treecore", "treeops", "generators", "exactmast", "bounds", "matchers", "decompose", "cli")


def _match2_nodes(trace):
    total, stack = 0, [trace.root]
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node.children)
    return total


def _restrict_labels(args, kwargs, result):
    labels = args[1] if len(args) > 1 else kwargs.get("labels", ())
    return {"treeops.restrict.labels": len(labels) if hasattr(labels, "__len__") else 0}


def _match1_counts(args, kwargs, result):
    leaves, trace = result
    return {"matchers.match1.steps": len(trace.steps), "matchers.match1.emitted": len(leaves)}


def _match2_counts(args, kwargs, result):
    leaves, trace = result
    return {"matchers.match2.nodes": _match2_nodes(trace), "matchers.match2.emitted": len(leaves)}


def _ramsey_branch(args, kwargs, result):
    return {f"decompose.branch_{result.kind}": 1}


# Work counts read from arguments and results, outside the span.
COUNT_NAMES = (
    "treeops.restrict.labels",
    "matchers.match1.steps",
    "matchers.match1.emitted",
    "matchers.match2.nodes",
    "matchers.match2.emitted",
    "decompose.branch_balanced",
    "decompose.branch_path",
)
COUNTERS = {
    "treeops.restrict": _restrict_labels,
    "matchers.match1": _match1_counts,
    "matchers.match2": _match2_counts,
    "decompose.ramsey_split": _ramsey_branch,
}


class Tracer:
    def __init__(self):
        self.names = []  # name id -> "layer.function"
        self.spans = []  # (name id, start ns, end ns, parent index or -1, op id)
        self.counts = Counter(dict.fromkeys(COUNT_NAMES, 0))
        self.op_id = -1
        self._stack = [-1]
        self._wrappers = {}  # id(original) -> wrapper
        self._targets = []  # (owner, attribute, original, wrapper)
        self._build()

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        extract = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent, tracer.op_id)
            if extract is not None:
                tracer.counts.update(extract(args, kwargs, result))
            return result

        return traced

    def _build(self):
        for layer in LAYERS:
            module = sys.modules[f"agreetree.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                self._wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for name, module in list(sys.modules.items()):
            if name != "agreetree" and not name.startswith("agreetree."):
                continue
            for attr, obj in vars(module).items():
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._targets.append((module, attr, obj, entry[1]))
        getter = RootedTree.__dict__["leaves"]
        self._targets.append(
            (RootedTree, "leaves", getter, property(self._wrap(getter.fget, "treecore.leaves")))
        )

    def install(self):
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    def layer_of(self, nid):
        return self.names[nid].split(".", 1)[0]

    def collect(self, first):
        """Summarise spans[first:], which must all be closed.

        Returns (inclusive, calls, self_by_layer, root_ns, nested) where
        ``inclusive`` counts only the outermost span of each name, so a
        recursive public function is not counted twice, and ``nested``
        maps "outer>inner" to the time of inner spans below an outer one
        (used for the share of match1 spent in ``RootedTree.leaves``).
        """
        spans = self.spans
        if any(span is None for span in spans[first:]):
            raise RuntimeError("an op ended with an open span")
        child = Counter()
        for nid, start, end, parent, _ in spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        inclusive, calls, own, nested = Counter(), Counter(), Counter(), Counter()
        root_ns = 0
        ancestors = {}  # span index -> frozenset of name ids above it
        for index in range(first, len(spans)):
            nid, start, end, parent, _ = spans[index]
            above = ancestors.get(parent, frozenset())
            ancestors[index] = above | {nid}
            name = self.names[nid]
            duration = end - start
            calls[name] += 1
            if nid not in above:
                inclusive[name] += duration
            own[self.layer_of(nid)] += duration - child[index]
            if parent < 0:
                root_ns += duration
            for outer in above:
                nested[f"{self.names[outer]}>{name}"] += duration
        return inclusive, calls, own, root_ns, nested

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "name", "start_ns", "end_ns", "parent"])
            for nid, start, end, parent, op in self.spans:
                out.writerow([op, self.names[nid], start, end, parent])
