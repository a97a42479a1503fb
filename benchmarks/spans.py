"""Span recorder for the traced run, and the per-layer metrics read from it.

Spans are recorded from the benchmark's side: ``instrument`` replaces every
public function of the traced modules with a wrapper that records a span
(name, parent, start, end), both in its own module and wherever another
module or a module-level dict has bound it by name.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("trigpoly", "bounds", "discrete", "rounding", "concentrator", "cache", "cli")
METHODS = {"cache": {"ResultsCache": ("get", "put")}}


class Recorder:
    """In-memory span tree plus named counters.

    A span's self time is its duration minus the part of it covered by its
    child spans (the union of their intervals, clipped to the parent).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, parent index or -1, start, end]
        self.counters = defaultdict(float)
        self._stack = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        traced.traced_original = fn
        return traced

    def self_times(self, first: int = 0) -> dict:
        """Total self time and call count per span name, over spans[first:]."""
        kids = defaultdict(list)
        for i in range(first, len(self.spans)):
            parent = self.spans[i][1]
            if parent >= first:
                kids[parent].append(i)
        total = defaultdict(float)
        calls = defaultdict(int)
        for i in range(first, len(self.spans)):
            name, _, start, end = self.spans[i]
            covered, reach = 0.0, start
            for j in sorted(kids[i], key=lambda j: self.spans[j][2]):
                lo, hi = max(self.spans[j][2], reach), min(self.spans[j][3], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total[name] += (end - start) - covered
            calls[name] += 1
        return {"self_s": dict(total), "calls": dict(calls)}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call, from a no-op function (best of repeats)."""
    def noop():
        return None

    traced = Recorder().wrap("noop", noop)
    best = {}
    for fn in (noop, traced) * repeats:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best[fn] = min(best.get(fn, math.inf), time.perf_counter() - t0)
    return max(best[traced] - best[noop], 0.0) / calls


# ----------------------------------------------------------------------
# counters taken at the layer boundaries
# ----------------------------------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _eval_grid(c, args, kwargs, res):
    c["trigpoly.eval_grid.points"] += _arg(args, kwargs, 1, "g").q


def _series(c, args, kwargs, res):
    c["bounds.series.terms"] += res.terms_used
    c["bounds.series.unconverged"] += not res.converged


def _evaluations(name):
    def hook(c, args, kwargs, res):
        c[f"discrete.{name}.evaluations"] += res.evaluations
    return hook


def _monte_carlo(c, args, kwargs, res):
    c["rounding.monte_carlo.trials"] += res.trials


def _moment_check(c, args, kwargs, res):
    c["rounding.moment_check.draws"] += res.trials * len(_arg(args, kwargs, 0, "b"))


def quadrature_points(mesh: int, deg: int, intervals) -> int:
    """Samples of one measurement, computed from mesh and degree: the circle
    rule and one Simpson rule per interval, at the mesh and at half of it."""
    total = 0
    for m in (mesh, max(4, mesh // 2)):
        n_circle = m * max(deg, 1)
        total += n_circle
        for lo, hi in intervals:
            nodes = max(8, int(math.ceil((hi - lo) * n_circle)))
            total += max(2, nodes + nodes % 2) + 1
    return total


def _end_to_end(c, args, kwargs, res):
    plan = res.plan
    deg = max(1, plan.nu * plan.R.freqs[-1] + plan.q * (plan.n - 1))
    E = _arg(args, kwargs, 0, "E")
    c["concentrator.quadrature.points"] += quadrature_points(res.report.mesh, deg, E.intervals)


def _measure(c, args, kwargs, res):
    Q = _arg(args, kwargs, 0, "Q")
    E = _arg(args, kwargs, 1, "E")
    deg = Q.freqs[-1] if Q.freqs else 1
    c["concentrator.quadrature.points"] += quadrature_points(res.mesh, deg, E.intervals)


def _cache_get(c, args, kwargs, res):
    c["cache.get.hits"] += res is not None


def _write_record(c, args, kwargs, res):
    c["cache.record_bytes"] += Path(res).stat().st_size


HOOKS = {
    "trigpoly.eval_grid": _eval_grid,
    "bounds.eval_B": _series,
    "bounds.eval_A": _series,
    "discrete.exact_gamma_sharp": _evaluations("exact_gamma_sharp"),
    "discrete.exact_gamma_star": _evaluations("exact_gamma_star"),
    "discrete.heuristic_gamma_sharp": _evaluations("heuristic_gamma_sharp"),
    "rounding.monte_carlo": _monte_carlo,
    "rounding.moment_check": _moment_check,
    "concentrator.end_to_end": _end_to_end,
    "concentrator.measure": _measure,
    "cache.get": _cache_get,
    "cache.write_record": _write_record,
}


# ----------------------------------------------------------------------
# installing and removing the wrappers
# ----------------------------------------------------------------------

def _public_functions(mod):
    return {name: obj for name, obj in vars(mod).items()
            if isinstance(obj, types.FunctionType) and not name.startswith("_")
            and obj.__module__ == mod.__name__}


def instrument(rec: Recorder, package) -> list:
    """Wrap every public function of the traced layers; returns the undo list."""
    mods = {short: importlib.import_module(f"{package.__name__}.{short}") for short in LAYERS}
    wrapped = {}                          # id(original) -> wrapper
    undo = []

    def setattr_undo(obj, name, value):
        undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    for short, mod in mods.items():
        for name, fn in _public_functions(mod).items():
            span = f"{short}.{name}"
            wrapped[id(fn)] = rec.wrap(span, fn, HOOKS.get(span))
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(mod, cls_name)
            for m in methods:
                span = f"{short}.{m}"
                setattr_undo(cls, m, rec.wrap(span, vars(cls)[m], HOOKS.get(span)))
    # rebind by name everywhere a traced module (or the package) holds the original
    for mod in [package, *mods.values()]:
        for name, value in list(vars(mod).items()):
            if name.startswith("__"):
                continue
            if id(value) in wrapped:
                setattr_undo(mod, name, wrapped[id(value)])
            elif isinstance(value, dict):
                for key, v in list(value.items()):
                    if id(v) in wrapped:
                        undo.append((value, key, v))
                        value[key] = wrapped[id(v)]
    return undo


def uninstrument(undo: list) -> None:
    for obj, name, original in reversed(undo):
        if isinstance(obj, dict):
            obj[name] = original
        else:
            setattr(obj, name, original)


# ----------------------------------------------------------------------
# per-layer metrics of one traced round
# ----------------------------------------------------------------------

def layer_metrics(rec: Recorder, first: int, extra: dict) -> dict:
    """Per-layer metrics over spans[first:] and the counters of that round.

    ``extra`` carries counts the benchmark reads outside the program, such
    as the rows of the ``concentrate --trace`` CSV.
    """
    st = rec.self_times(first)
    self_s, calls = st["self_s"], st["calls"]
    c = rec.counters

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    gets = calls.get("cache.get", 0)
    return {
        "trigpoly.eval_grid.calls": calls.get("trigpoly.eval_grid", 0),
        "trigpoly.eval_grid.points": c["trigpoly.eval_grid.points"],
        "trigpoly.eval_grid.self_s": s("trigpoly.eval_grid"),
        "trigpoly.fold_power.self_s": s("trigpoly.fold_power"),
        "bounds.eval_B.calls": calls.get("bounds.eval_B", 0),
        "bounds.eval_A.calls": calls.get("bounds.eval_A", 0),
        "bounds.series.terms": c["bounds.series.terms"],
        "bounds.series.unconverged": c["bounds.series.unconverged"],
        "bounds.series.self_s": s("bounds.eval_B", "bounds.eval_A"),
        "bounds.minimize_over_t.calls": calls.get("bounds.minimize_over_t", 0),
        "bounds.minimize_over_t.self_s": s("bounds.minimize_over_t"),
        "discrete.exact_gamma_sharp.self_s": s("discrete.exact_gamma_sharp"),
        "discrete.exact_gamma_sharp.evaluations": c["discrete.exact_gamma_sharp.evaluations"],
        "discrete.exact_gamma_star.self_s": s("discrete.exact_gamma_star"),
        "discrete.exact_gamma_star.evaluations": c["discrete.exact_gamma_star.evaluations"],
        "discrete.heuristic_gamma_sharp.self_s": s("discrete.heuristic_gamma_sharp"),
        "discrete.heuristic_gamma_sharp.evaluations": c["discrete.heuristic_gamma_sharp.evaluations"],
        "discrete.concentration_ratio.calls": calls.get("discrete.concentration_ratio", 0),
        "discrete.concentration_ratio.self_s": s("discrete.concentration_ratio"),
        "discrete.dirichlet_table.self_s": s("discrete.dirichlet_table"),
        "rounding.monte_carlo.self_s": s("rounding.monte_carlo"),
        "rounding.monte_carlo.trials": c["rounding.monte_carlo.trials"],
        "rounding.hypotheses.self_s": s("rounding.hypothesis_constants",
                                        "rounding.check_hypotheses"),
        "rounding.moment_check.self_s": s("rounding.moment_check"),
        "rounding.moment_check.draws": c["rounding.moment_check.draws"],
        "concentrator.end_to_end.self_s": s("concentrator.end_to_end"),
        "concentrator.quadrature.points": c["concentrator.quadrature.points"],
        "concentrator.measure.self_s": s("concentrator.measure"),
        "concentrator.find_fraction.self_s": s("concentrator.find_fraction"),
        "concentrator.find_fraction.candidates": extra.get("find_fraction.candidates", 0),
        "cli.main.self_s": s("cli.main"),
        "cache.get.self_s": s("cache.get"),
        "cache.get.hit_ratio": c["cache.get.hits"] / gets if gets else 0.0,
        "cache.put.self_s": s("cache.put"),
        "cache.write_record.self_s": s("cache.write_record"),
        "cache.record_bytes": c["cache.record_bytes"],
    }


def median_metrics(per_round: list) -> dict:
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
