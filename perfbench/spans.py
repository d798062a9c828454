"""Spans around the public functions of each nilpc layer, from outside.

`Tracer.install` wraps every public module-level function of a layer module,
then rebinds each name in every loaded `nilpc` module that refers to the
original, so `from X import f` copies are traced too. Methods are not
wrapped: their time counts to the layer of the function that called them.
A span records (name, layer, start, end, parent index, job id). Calls made
while a `presentation` span is open get no span: collection folds into its
outermost call.

The tracer adds two counters the spans cannot carry: distinct positional
arguments of the functions in DISTINCT (per job), and the largest matrix
handed to the functions in MATRIX.
"""

import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("presentation", "subgroups", "intlinalg", "abelian", "bilinear",
          "scalars", "refined", "series", "deformation", "morphisms",
          "files", "cli")
FOLDING = "presentation"
DISTINCT = ("subgroups.quotient", "series.key_subgroups",
            "bilinear.bilinearize")
MATRIX = ("intlinalg.hnf", "intlinalg.snf", "intlinalg.solve_congruences")


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    return x


def _matrix_size(rows):
    """(cells, largest entry in bits) of a list of integer rows."""
    rows = list(rows)
    cells = sum(len(r) for r in rows)
    bits = max((abs(v).bit_length() for r in rows for v in r), default=0)
    return cells, bits


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = 0
        self.distinct = {name: set() for name in DISTINCT}
        self.max_cells = 0
        self.max_bits = 0
        self._stack = []
        self._folded = False
        self._saved = []
        self._wrappers = {}

    def _wrap(self, name, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        folding = layer == FOLDING
        seen = self.distinct.get(name)
        sized = name in MATRIX

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._folded:
                return fn(*args, **kwargs)
            if seen is not None:
                seen.add(_freeze(args))
            if sized:
                cells, bits = _matrix_size(args[0])
                self.max_cells = max(self.max_cells, cells)
                self.max_bits = max(self.max_bits, bits)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            self._folded = folding
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if folding:
                    self._folded = False
                spans[idx] = (name, layer, t0, t1, parent, self.job)

        return traced

    def install(self):
        """Wrap every layer's public functions and rebind all copies."""
        if not self._wrappers:
            for layer in LAYERS:
                mod = importlib.import_module(f"nilpc.{layer}")
                for attr, obj in vars(mod).items():
                    if (not attr.startswith("_")
                            and isinstance(obj, types.FunctionType)
                            and obj.__module__ == mod.__name__):
                        self._wrappers[obj] = self._wrap(
                            f"{layer}.{attr}", layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nilpc" and not mod_name.startswith("nilpc."):
                continue
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType)
                        and obj in self._wrappers):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])

    def uninstall(self):
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def counters(self):
        """Per-job counters that are not spans."""
        return {
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "max_cells": self.max_cells,
            "max_bits": self.max_bits,
        }


def summarize(spans):
    """Self and inclusive times, call counts and nesting counts of spans.

    A layer's self time is the total duration of its spans minus the
    duration of their direct children. Inclusive time counts a span only
    when no ancestor belongs to the same layer (per layer) or has the same
    name (per function), so recursion is not counted twice.
    """
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    fn_incl = defaultdict(float)
    calls = Counter()
    nested = Counter()
    for name, layer, t0, t1, parent, _job in spans:
        d = t1 - t0
        self_s[layer] += d
        calls[name] += 1
        if parent is not None:
            p_layer = spans[parent][1]
            self_s[p_layer] -= d
            nested[f"{p_layer}>{layer}"] += 1
        top_layer = top_fn = True
        a = parent
        while a is not None:
            a_name, a_layer, _, _, a_parent, _ = spans[a]
            if a_layer == layer:
                top_layer = False
            if a_name == name:
                top_fn = False
                break
            a = a_parent
        if top_layer:
            incl_s[layer] += d
        if top_fn:
            fn_incl[name] += d
    return {"self_s": dict(self_s), "incl_s": dict(incl_s),
            "fn_incl": dict(fn_incl), "calls": dict(calls),
            "nested": dict(nested)}
