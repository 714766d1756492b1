"""Span tracing of the nevkit modules from outside the package.

``Tracer.install`` wraps every public function of each nevkit module, and
``DshFunction.evaluate``, under every name by which a nevkit module binds it:
``criterion`` and ``cli`` import names directly, so patching only the
defining module would miss their calls.  Each call becomes a span (name,
start, end, parent, request) kept in flat arrays in memory; ``metrics`` turns
them into the per-layer numbers and ``save`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("kernels", "quadrature", "measures", "dsh", "nevanlinna",
          "criterion", "scenario", "cli")
CHECKERS = ("check_statement_I", "check_statement_II", "falsify_statement_III",
            "check_statement_IV", "check_statement_V", "verify_lemma3",
            "verify_poisson_jensen", "check_corollary")

INCLUSIVE_GROUPS = {
    "measures.sup_integrated_counting.incl_share":
        ("measures.sup_integrated_counting",),
    "dsh.positive_part_integral.incl_share": ("dsh.positive_part_integral",),
    "quadrature.sphere_mean.incl_share": ("quadrature.sphere_mean",),
    "positive_part_or_sphere_mean.incl_share":
        ("dsh.positive_part_integral", "quadrature.sphere_mean"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.sup_evaluations: list[tuple[int, int]] = []
        self.current_request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, span_name: str, fn, before=None, after=None):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.current_request)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, sid)
            return result

        return wrapper

    def _counting(self, key: str, fn, rows: bool = False):
        counts = self.counts

        @functools.wraps(fn)
        def counted(x, *rest):
            counts[key] += len(x) if rows else 1
            return fn(x, *rest)

        return counted

    def _hooks(self, span_name: str):
        counts = self.counts
        if span_name == "kernels.kappa":
            def before(args, kwargs):
                counts["kernels.kappa.scalar"] += np.ndim(args[0]) == 0
                return args, kwargs
            return before, None
        if span_name == "quadrature.integrate_1d":
            def before(args, kwargs):
                return (self._counting("quadrature.integrate_1d.evals", args[0]),
                        *args[1:]), kwargs

            def after(args, kwargs, result, sid):
                counts["quadrature.integrate_1d.converged"] += bool(result.converged)
            return before, after
        if span_name == "quadrature.sphere_mean":
            def before(args, kwargs):
                return (self._counting("quadrature.sphere_mean.nodes", args[0],
                                       rows=True), *args[1:]), kwargs
            return before, None
        if span_name == "quadrature.circle_mean":
            def before(args, kwargs):
                counts["quadrature.circle_mean.hinted"] += bool(
                    kwargs.get("singular_angles"))
                return args, kwargs
            return before, None
        if span_name == "dsh.DshFunction.evaluate":
            def before(args, kwargs):
                x = args[1]
                counts["dsh.evaluate.points"] += 1 if np.ndim(x) == 1 else len(x)
                return args, kwargs
            return before, None
        if span_name == "measures.sup_integrated_counting":
            def after(args, kwargs, result, sid):
                self.sup_evaluations.append((sid, result.evaluations))
            return None, after
        if span_name == "cli.write_outputs":
            def after(args, kwargs, result, sid):
                counts["cli.output_bytes"] += sum(
                    p.stat().st_size for p in Path(args[0]).iterdir())
            return None, after
        return None, None

    def install(self) -> None:
        """Wrap the public functions; ``uninstall`` restores the originals."""
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nevkit" or n.startswith("nevkit."))]
        for layer in LAYERS:
            module = sys.modules[f"nevkit.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                span_name = f"{layer}.{attr}"
                wrapper = self._wrap(span_name, fn, *self._hooks(span_name))
                for mod in package:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, bound, fn))
                            setattr(mod, bound, wrapper)
        cls = sys.modules["nevkit.dsh"].DshFunction
        span_name = "dsh.DshFunction.evaluate"
        self._patches.append((cls, "evaluate", cls.evaluate))
        cls.evaluate = self._wrap(span_name, cls.evaluate, *self._hooks(span_name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            parent=np.asarray(self.parent),
                            request=np.asarray(self.request),
                            start=np.asarray(self.start), end=np.asarray(self.end))

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of the traced calls, and inclusive shares of their time.

        Self time is a span's duration minus the time its child spans cover;
        a ``sup_integrated_counting`` span with no ``integrated_counting``
        child is a cache hit.
        """
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        ids = {n: i for i, n in enumerate(self.names)}
        layer_of = np.array([n.split(".")[0] for n in self.names] + [""])
        c = self.counts

        def mask(span_name):
            return name == ids.get(span_name, -1)

        def calls(span_name):
            return int(mask(span_name).sum())

        def total(span_name, values=dur):
            return float(values[mask(span_name)].sum())

        def has_child(span_name, child_name):
            flag = np.zeros(len(dur), dtype=bool)
            flag[parent[mask(child_name) & nested]] = True
            return flag & mask(span_name)

        def share(num, den):
            return num / den if den else 0.0

        sup = mask("measures.sup_integrated_counting")
        hits = sup & ~has_child("measures.sup_integrated_counting",
                                "measures.integrated_counting")
        hit_ids = set(np.flatnonzero(hits).tolist())
        adaptive = int(has_child("quadrature.circle_mean",
                                 "quadrature.integrate_1d").sum())
        out = {
            "kernels.kappa.calls": calls("kernels.kappa"),
            "quadrature.integrate_1d.calls": calls("quadrature.integrate_1d"),
            "quadrature.integrate_1d.evals": c["quadrature.integrate_1d.evals"],
            "quadrature.circle_mean.calls": calls("quadrature.circle_mean"),
            "quadrature.sphere_mean.calls": calls("quadrature.sphere_mean"),
            "quadrature.sphere_mean.nodes": c["quadrature.sphere_mean.nodes"],
            "measures.integrated_counting.calls": calls("measures.integrated_counting"),
            "measures.integrated_counting.self_s": total(
                "measures.integrated_counting", self_time),
            "measures.sup_integrated_counting.calls": int(sup.sum()),
            "measures.sup_integrated_counting.evaluations": sum(
                e for sid, e in self.sup_evaluations if sid not in hit_ids),
            "measures.sup_integrated_counting.self_s": total(
                "measures.sup_integrated_counting", self_time),
            "measures.radial_counting.calls": calls("measures.radial_counting"),
            "measures.potential.calls": calls("measures.potential"),
            "dsh.evaluate.calls": calls("dsh.DshFunction.evaluate"),
            "dsh.positive_part_integral.calls": calls("dsh.positive_part_integral"),
            "dsh.positive_part_integral.self_s": total(
                "dsh.positive_part_integral", self_time),
            "nevanlinna.proximity.calls": calls("nevanlinna.proximity"),
            "criterion.checks": sum(calls(f"criterion.{k}") for k in CHECKERS),
            "scenario.scenario_from_json.s": total("scenario.scenario_from_json"),
            "cli.execute_scenario.s": total("cli.execute_scenario"),
            "cli.write_outputs.s": total("cli.write_outputs"),
            "cli.output_bytes": c["cli.output_bytes"],
        }
        for checker in CHECKERS:
            out[f"criterion.{checker}.s"] = total(f"criterion.{checker}")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self_time[layer_of[name] == layer].sum())
        out.update({
            "kernels.kappa.scalar_share": share(c["kernels.kappa.scalar"],
                                                calls("kernels.kappa")),
            "quadrature.integrate_1d.converged_share": share(
                c["quadrature.integrate_1d.converged"],
                calls("quadrature.integrate_1d")),
            # Hinted circle means run the adaptive rule directly; the rest
            # reach it only when the trapezoid doubling check fails.
            "quadrature.circle_mean.fallback_share": share(
                adaptive - c["quadrature.circle_mean.hinted"],
                calls("quadrature.circle_mean")),
            "measures.sup_integrated_counting.cache_hit_share": share(
                len(hit_ids), int(sup.sum())),
            "dsh.evaluate.points_per_call": share(
                c["dsh.evaluate.points"], calls("dsh.DshFunction.evaluate")),
        })
        incl, groups = self.inclusive
        call_time = incl[ids["cli.main"]] if "cli.main" in ids else 0.0
        for key, covered in groups.items():
            out[key] = share(covered, call_time)
        return out

    @functools.cached_property
    def inclusive(self) -> tuple[np.ndarray, dict[str, float]]:
        """Inclusive time per span name and per INCLUSIVE_GROUPS entry.

        A span counts only when no span of the same name (or group) encloses
        it, so recursion and nesting are counted once.  Read it only after
        recording has stopped.
        """
        dur = np.asarray(self.end) - np.asarray(self.start)
        groups = {key: {self._ids[n] for n in names if n in self._ids}
                  for key, names in INCLUSIVE_GROUPS.items()}
        covered = dict.fromkeys(groups, 0.0)
        incl = np.zeros(len(self.names))
        on_path = [0] * len(self.names)
        names = self.name
        path: list[int] = []
        for sid, (nid, par) in enumerate(zip(names, self.parent)):
            while path and path[-1] != par:
                on_path[names[path.pop()]] -= 1
            if not on_path[nid]:
                incl[nid] += dur[sid]
            for key, members in groups.items():
                if nid in members and not any(on_path[m] for m in members):
                    covered[key] += dur[sid]
            on_path[nid] += 1
            path.append(sid)
        return incl, covered

    def ranking(self, top: int = 8) -> list[tuple[str, float, int]]:
        """(span name, inclusive share of call time, calls), largest first."""
        incl, _ = self.inclusive
        call_time = incl[self._ids["cli.main"]] or 1.0
        counts = np.bincount(np.asarray(self.name), minlength=len(self.names))
        rows = [(n, incl[i] / call_time, int(counts[i]))
                for i, n in enumerate(self.names) if n != "cli.main"]
        return sorted(rows, key=lambda row: -row[1])[:top]
