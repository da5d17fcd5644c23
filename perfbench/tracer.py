"""Spans around the library's layers, recorded from outside the library.

Every public function defined in one of the layer modules is wrapped, and
the wrapper is bound at every place an ``assumekit`` module holds the
original, found by object identity: ``cli`` and ``pipeline`` import
``assume_fair_win`` by name, so patching ``assumekit.fairness`` alone would
miss their calls.  Spans (name, start, end, parent, operation) are kept in
memory while an operation runs and written out at the end; a span's self
time is its duration minus the durations of its direct children, which
never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("game", "graphs", "solvers", "stochastic", "fairness", "safety", "pipeline", "cli")

# Functions whose inclusive time inside a query counts as building
# intermediate graphs for fairness.assume_fair_win.build_share.
BUILD = ("fairness.ass_red", "stochastic.gadget_reduce", "game.build_graph")


def _size_of_first_arg(args, kwargs, out):
    return len(args[0].states) if args else len(kwargs["g"].states)


def _candidates_removed(args, kwargs, out):
    if out is None:
        return 0
    g = args[0] if args else kwargs["g"]
    cand = args[3] if len(args) > 3 else kwargs.get("candidates")
    start = len(g.player2_edges()) if cand is None else len(set(cand))
    return start - len(out.edges)


# Sizes read off a call: (function, quantity) -> extractor(args, kwargs, result).
QUANTITIES = {
    ("game.build_graph", "states"): lambda a, k, out: len(out.states),
    ("solvers.solve", "states"): _size_of_first_arg,
    ("stochastic.gadget_reduce", "states_out"): lambda a, k, out: len(out.game.states),
    ("fairness.ass_red", "states_out"): lambda a, k, out: len(out[0].states),
    ("fairness.locally_minimal_fair", "removed"): _candidates_removed,
}


class Tracer:
    """Wraps the layers of an imported ``assumekit`` and records spans for
    the operation set in ``op`` (calls outside an operation are not
    recorded, so input generation between operations stays out)."""

    def __init__(self) -> None:
        self.op: int | None = None
        self.spans: list[tuple] = []  # (op, name, start, end, parent, self)
        self.quantities: dict[tuple[str, str], float] = defaultdict(float)
        self.functions: set[str] = set()
        self._open: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"assumekit.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    name = f"{layer}.{attr}"
                    originals[id(obj)] = self._wrap(name, obj)
                    self.functions.add(name)
        for modname, mod in list(sys.modules.items()):
            if modname != "assumekit" and not modname.startswith("assumekit."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        extractors = [(key, f) for key, f in QUANTITIES.items() if key[0] == name]
        spans, opened, child = self.spans, self._open, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = opened[-1] if opened else -1
            opened.append(idx)
            child.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                inner = child.pop()
                if child:
                    child[-1] += end - start
                spans[idx] = (op, name, start, end, parent, end - start - inner)
            for key, extract in extractors:
                self.quantities[key] += extract(args, kwargs, out)
            return out

        return wrapper

    def write(self, path: str) -> None:
        """Spans as gzipped CSV, times in microseconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,name,start_us,end_us,parent,self_us\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for op, name, start, end, parent, self_s in self.spans:
                fh.write(
                    f"{op},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},"
                    f"{parent},{self_s * 1e6:.1f}\n"
                )

    def self_time_by_op(self) -> dict[int, float]:
        out: dict[int, float] = defaultdict(float)
        for op, _, _, _, _, self_s in self.spans:
            out[op] += self_s
        return out

    def layer_metrics(self, ops: int, wanted: list[str]) -> tuple[dict[str, float], list[str]]:
        """Per-operation averages for the metric names in ``wanted``, and the
        names whose function no longer exists in the library."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for _, name, _, _, _, s in self.spans:
            calls[name] += 1
            self_s[name] += s

        # Walk each build span up to its query; a build span nested in
        # another build span is already part of that one's duration.
        query_s = build_s = 0.0
        lmf_queries = 0
        for op, name, start, end, parent, _ in self.spans:
            if name == "fairness.assume_fair_win":
                query_s += end - start
                p = parent
                while p >= 0:
                    if self.spans[p][1] == "fairness.locally_minimal_fair":
                        lmf_queries += 1
                        break
                    p = self.spans[p][4]
            elif name in BUILD:
                p = parent
                while p >= 0:
                    pname = self.spans[p][1]
                    if pname in BUILD:
                        break
                    if pname == "fairness.assume_fair_win":
                        build_s += end - start
                        break
                    p = self.spans[p][4]

        derived = {
            "fairness.assume_fair_win.build_share": build_s / query_s if query_s else 0.0,
            "fairness.locally_minimal_fair.queries": lmf_queries / ops,
            "fairness.locally_minimal_fair.removal_ratio": (
                self.quantities[("fairness.locally_minimal_fair", "removed")] / lmf_queries
                if lmf_queries
                else 0.0
            ),
        }
        values, absent = {}, []
        for metric in wanted:
            func, _, quantity = metric.rpartition(".")
            if metric.startswith("trace."):
                continue
            if func not in self.functions:
                absent.append(metric)
                values[metric] = 0.0
            elif metric in derived:
                values[metric] = derived[metric]
            elif quantity == "calls":
                values[metric] = calls[func] / ops
            elif quantity == "self_ms":
                values[metric] = self_s[func] * 1000 / ops
            else:
                values[metric] = self.quantities[(func, quantity)] / ops
        return values, absent
