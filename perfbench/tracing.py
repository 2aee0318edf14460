"""Spans around the program's public callables, hooked from outside.

Each hook replaces a public name where its caller looks it up (a module
global such as `solver.nullspace`, or a class attribute such as
`KahanMap.det_jacobian`) with a wrapper that records a span: name, start,
end and the enclosing span.  A layer's self time is its spans' time minus
the time of their direct child spans.  A hook whose target no longer exists
is reported as absent; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import time

# (layer name, module, attribute path): every place a caller looks the name up
HOOKS = [
    ("cli", "kahan_aromas.cli", "main"),
    ("solver.solve_darboux", "kahan_aromas.cli", "solve_darboux"),
    ("solver.solve_darboux", "kahan_aromas.solver", "solve_darboux"),
    ("solver.verify_density", "kahan_aromas.cli", "verify_density"),
    ("solver.parameter_independent_solve", "kahan_aromas.solver", "parameter_independent_solve"),
    ("solver.build_basis", "kahan_aromas.solver", "build_basis"),
    ("graphs.enumerate_multisets", "kahan_aromas.solver", "enumerate_multisets"),
    ("fields.aroma_function", "kahan_aromas.fields", "QuadraticVectorField.aroma_function"),
    ("fields.KahanMap.init", "kahan_aromas.fields", "KahanMap.__init__"),
    ("fields.det_jacobian", "kahan_aromas.fields", "KahanMap.det_jacobian"),
    ("fields.apply_point", "kahan_aromas.fields", "KahanMap.apply_point"),
    ("fields.darboux_defect_cleared", "kahan_aromas.fields", "KahanMap.darboux_defect_cleared"),
    ("poly.rf_substitute", "kahan_aromas.fields", "rf_substitute"),
    ("linalg.nullspace", "kahan_aromas.solver", "nullspace"),
    ("linalg.nullspace", "kahan_aromas.linalg", "nullspace"),
    ("linalg.rank", "kahan_aromas.solver", "rank"),
    ("linalg.intersect_rowspaces", "kahan_aromas.solver", "intersect_rowspaces"),
    ("linalg.rref", "kahan_aromas.solver", "rref"),
    ("linalg.rref", "kahan_aromas.linalg", "rref"),
]

# per-layer metric -> the layer whose self seconds (SELF_TIMES) or calls (CALLS) it reports
SELF_TIMES = {
    "fields.aroma_function.s": "fields.aroma_function",
    "fields.darboux_defect_cleared.s": "fields.darboux_defect_cleared",
    "poly.rf_substitute.s": "poly.rf_substitute",
    "fields.det_jacobian.s": "fields.det_jacobian",
    "fields.apply_point.s": "fields.apply_point",
    "linalg.nullspace.s": "linalg.nullspace",
    "linalg.rank.s": "linalg.rank",
    "linalg.intersect_rowspaces.s": "linalg.intersect_rowspaces",
    "linalg.rref.s": "linalg.rref",
    "solver.build_basis.s": "solver.build_basis",
    "solver.solve_darboux.self_s": "solver.solve_darboux",
    "solver.verify_density.s": "solver.verify_density",
    "solver.parameter_independent_solve.self_s": "solver.parameter_independent_solve",
    "fields.KahanMap.init_s": "fields.KahanMap.init",
    "graphs.enumerate_multisets.s": "graphs.enumerate_multisets",
    "cli.self_s": "cli",
}
CALLS = {
    "fields.aroma_function.calls": "fields.aroma_function",
    "fields.darboux_defect_cleared.calls": "fields.darboux_defect_cleared",
    "poly.rf_substitute.calls": "poly.rf_substitute",
    "fields.det_jacobian.calls": "fields.det_jacobian",
    "fields.apply_point.calls": "fields.apply_point",
    "linalg.nullspace.calls": "linalg.nullspace",
    "linalg.rank.calls": "linalg.rank",
    "linalg.intersect_rowspaces.calls": "linalg.intersect_rowspaces",
    "solver.verify_density.calls": "solver.verify_density",
}


def _count_basis(tracer, args, result):
    tracer.counters["solver.basis_kept"] += len(result.elements)
    tracer.counters["solver.basis_dropped"] += len(result.dropped)


def _measure_subs_cache(tracer, args, result):
    """Largest substitution cache seen, in entries and in polynomial terms."""
    cache = args[0].subs_cache
    tracer.peaks["fields.subs_cache.entries"] = max(tracer.peaks["fields.subs_cache.entries"], len(cache))
    terms = sum(len(p.terms) for p in cache.values())
    tracer.peaks["fields.subs_cache.terms"] = max(tracer.peaks["fields.subs_cache.terms"], terms)


AFTER = {
    "solver.build_basis": _count_basis,
    "fields.darboux_defect_cleared": _measure_subs_cache,
    "fields.det_jacobian": _measure_subs_cache,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self.counters = {"solver.basis_kept": 0, "solver.basis_dropped": 0}
        self.peaks = {"fields.subs_cache.entries": 0, "fields.subs_cache.terms": 0}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, module_name, path in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: calls, total seconds and self seconds."""
        out: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            layer = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - children
        return out

    def metrics(self, rounds: int) -> dict[str, dict]:
        """The per-layer metrics, per round of the workload."""
        totals = self.layer_totals()
        empty = {"calls": 0, "self_s": 0.0}
        out = {}
        for metric, layer in SELF_TIMES.items():
            out[metric] = {"value": totals.get(layer, empty)["self_s"] / rounds, "unit": "s"}
        for metric, layer in CALLS.items():
            out[metric] = {"value": totals.get(layer, empty)["calls"] / rounds, "unit": "count"}
        for metric, value in self.counters.items():
            out[metric] = {"value": value / rounds, "unit": "count"}
        for metric, value in self.peaks.items():
            out[metric] = {"value": value, "unit": "count"}
        out["trace.hooks_absent"] = {"value": len(self.absent), "unit": "count"}
        return out
