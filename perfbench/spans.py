"""Per-layer spans around indeq's public functions, installed from outside.

Each group names a set of functions.  A wrapper replaces a function at
every place it is bound: its own module, every indeq module that imported
it by name, and the class for methods, so that recursion through a module
global is traced too.  A span's self time is its duration minus the
durations of the spans it encloses; a recursive group therefore reports
self time only.  Aggregates stay in memory until the pass ends.
"""

from __future__ import annotations

import sys
import time

GROUPS = {
    "graphcore.canon": ("graphcore", ["canonical_form"]),
    "graphcore.surgery": ("graphcore", [
        "Graph.subgraph_without", "Graph.delete_vertex", "Graph.delete_closed_neighborhood",
        "Graph.delete_edge", "Graph.delete_edge_and_open_neighborhoods", "Graph.induced",
        "Graph.connected_components", "is_path_graph", "is_cycle_graph"]),
    "graphcore.io": ("graphcore", ["build", "graph6_read", "graph6_write"]),
    "indpoly.evaluate": ("indpoly", ["independence_polynomial"]),
    "indpoly.closed": ("indpoly", ["path_polynomial", "cycle_polynomial"]),
    "polyalg.arith": ("polyalg", [
        "IntPoly.__add__", "IntPoly.__radd__", "IntPoly.__sub__", "IntPoly.__mul__",
        "IntPoly.__rmul__", "IntPoly.mul_xpow", "IntPoly.eval_rational"]),
    "polyalg.transform": ("polyalg", ["IntPoly.shift", "IntPoly.reverse_negate"]),
    "polyalg.divide": ("polyalg", ["IntPoly.try_divide", "poly_gcd", "squarefree_part", "is_squarefree"]),
    "polyalg.sturm": ("polyalg", [
        "SturmChain.of", "count_real_roots", "all_roots_real_below", "isolate_real_roots"]),
    "polyalg.sign_at": ("polyalg", ["IntPoly.sign_at"]),
    "polyalg.refine": ("polyalg", ["refine_root", "real_roots_approx"]),
    "factorbasis.realcyc": ("factorbasis", ["real_cyclotomic"]),
    "factorbasis.cyclotomic": ("factorbasis", ["cyclotomic"]),
    "factorbasis.basis": ("factorbasis", ["basis_f", "basis_ftilde"]),
    "factorbasis.factor": ("factorbasis", ["factor_path", "factor_cycle", "factor_into_basis"]),
    "classify.screen": ("classify", ["screen_family", "sweep_family"]),
    "classify.elim": ("classify", ["elimination_value"]),
    "classify.classes": ("classify", ["path_class", "cycle_class"]),
    "oracle.enumerate": ("oracle", ["enumerate_graphs"]),
    "oracle.class": ("oracle", ["equivalence_class_bruteforce", "count_isomorphism_classes"]),
    "cli.main": ("cli", ["main"]),
}
MODULES = tuple(dict.fromkeys(module for module, _ in GROUPS.values()))
BENCH = "bench.op"
_CANON, _IO, _ENUM = "graphcore.canon", "graphcore.io", "oracle.enumerate"

# Layer shares (self time over traced wall time) measured by a prototype of
# this tracing on the seed code; the traced run reports where it differs.
PREDICTED_SHARES = {
    "oracle": {"graphcore": 0.97, "graphcore.canon": 0.84},
    "families": {"graphcore": 0.88, "graphcore.canon": 0.49, "graphcore.surgery": 0.25,
                 "indpoly": 0.07, "polyalg": 0.05},
    "basis": {"factorbasis.realcyc": 0.57, "polyalg.transform": 0.28, "cli": 0.05,
              "polyalg.sign_at": 0.04},
}
# the modules whose summed share must exceed one half on each workload
DOMINANT = {"oracle": ("graphcore",), "families": ("graphcore", "indpoly"),
            "basis": ("factorbasis", "polyalg")}


class Tracer:
    """Installs the wrappers, keeps the span stack and the per-group totals."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [group, time of enclosed spans]
        self.totals = {group: [0, 0.0] for group in (*GROUPS, BENCH)}  # calls, self seconds
        self.enum_depth = 0
        self.enum_yields = 0
        self.enum_canon_calls = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, group: str) -> list:
        frame = [group, 0.0, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, count: bool = True) -> None:
        dt = time.perf_counter() - frame[2]
        self.stack.pop()
        total = self.totals[frame[0]]
        total[0] += count
        total[1] += dt - frame[1]
        if self.stack:
            self.stack[-1][1] += dt

    def call(self, group: str, fn, *args, **kwargs):
        frame = self._enter(group)
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(frame)

    def _wrap(self, group: str, fn):
        tracer = self

        if group == _ENUM:
            def generator(*args, **kwargs):
                # time every next(): the call itself only creates the generator;
                # calls counts invocations, not next() spans
                it = fn(*args, **kwargs)
                tracer.totals[group][0] += 1
                while True:
                    frame = tracer._enter(group)
                    tracer.enum_depth += 1
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.enum_depth -= 1
                        tracer._leave(frame, count=False)
                    tracer.enum_yields += 1
                    yield item
            return generator

        def wrapper(*args, **kwargs):
            if group == _IO and tracer.stack and tracer.stack[-1][0] == _CANON:
                return fn(*args, **kwargs)  # graph6_write inside canonical_form counts as canon
            if group == _CANON and tracer.enum_depth:
                tracer.enum_canon_calls += 1
            frame = tracer._enter(group)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(frame)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "indeq" or name.startswith("indeq.")]
        for group, (module_name, targets) in GROUPS.items():
            home = sys.modules["indeq." + module_name]
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._set(owner, attr, classmethod(self._wrap(group, raw.__func__)))
                    else:
                        self._set(owner, attr, self._wrap(group, raw))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(group, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, name, wrapped)

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def report(self, wall_s: float) -> dict[str, float]:
        """Calls and self seconds per group, self seconds per module, the
        enumerator's yields per canonical_form call, and the share of the
        pass's wall time that the spans account for."""
        out: dict[str, float] = {}
        for group, (calls, self_s) in self.totals.items():
            out[group + ".calls"] = calls
            out[group + ".self_s"] = self_s
        for module in MODULES:
            out[module + ".self_s"] = sum(
                self_s for group, (_, self_s) in self.totals.items() if group.startswith(module + "."))
        out["oracle.enumerate.yield_per_canon"] = (
            self.enum_yields / self.enum_canon_calls if self.enum_canon_calls else 0.0)
        covered = sum(out[m + ".self_s"] for m in MODULES) + out[BENCH + ".self_s"]
        out["trace.coverage"] = covered / wall_s
        return out
