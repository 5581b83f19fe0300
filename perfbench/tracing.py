"""Spans and counters around the public functions of factorcluster.

A :class:`Tracer` replaces each traced function at every module
attribute that holds it (``factorcluster.portfolio`` imports
``assemble`` by name, so both ``assembly.assemble`` and
``portfolio.assemble`` are swapped), records one span per call and
restores the originals on :meth:`Tracer.uninstall`. Spans stay in
memory; the harness writes them out when the run ends.

Counts labelled "computed" follow from argument shapes or output
sizes, not from hardware counters, so they ignore cache misses.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute) of every traced function, in report order
TARGETS = (
    ("factors", "fit_loadings"),
    ("clustering", "residual_cov"),
    ("clustering", "scod_matrix"),
    ("clustering", "select_threshold"),
    ("clustering", "cluster"),
    ("assembly", "assemble"),
    ("assembly", "save_bundle"),
    ("assembly", "weighted_quadratic_norm"),
    ("assembly", "operator_norm"),
    ("assembly", "sample_cov"),
    ("portfolio", "backtest"),
    ("portfolio", "min_var_unconstrained"),
    ("portfolio", "min_var_long_only"),
    ("simulation", "generate"),
    ("simulation", "SimulationTruth.assembled"),
    ("simulation", "run_experiment"),
    ("panel", "load_panel_csv"),
    ("panel", "save_matrix_csv"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)
ROOT_SPAN = "harness.call"
PEAK_ALLOC = ("clustering.scod_matrix", "assembly.assemble")
MB = 1e6


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "factorcluster" or name.startswith("factorcluster."))
    ]


class Tracer:
    """Records spans and counters while installed.

    With ``measure_alloc`` the spans in ``PEAK_ALLOC`` also run under
    tracemalloc, which slows them, so the harness uses such a tracer
    only for one untimed call.
    """

    def __init__(self, measure_alloc: bool = False) -> None:
        self.measure_alloc = measure_alloc
        self.spans: list[list] = []  # [id, name, start, end, parent id, call id]
        self.records: list[dict] = []  # one aggregate per traced call
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._call_id: int | None = None
        self._first_span = 0
        self._reset_counts()

    def _reset_counts(self) -> None:
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak_mb: dict[str, float] = {}
        self.supports: list[int] = []
        self._simplex = 0
        self._in_wqn = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import factorcluster.portfolio as portfolio

        modules = _package_modules()
        for mod_name, attr in TARGETS:
            module = sys.modules[f"factorcluster.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._swap(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            self._swap_everywhere(modules, original, self._wrap(name, original))
        self._swap_everywhere(modules, portfolio.project_simplex, self._count_simplex(portfolio.project_simplex))
        self._swap(np.linalg, "eigh", self._count_eigh(np.linalg.eigh))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _swap_everywhere(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._swap(module, attr, replacement)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._run(name, fn, args, kwargs)

        return traced

    def _count_simplex(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._simplex += 1
            return fn(*args, **kwargs)

        return counted

    def _count_eigh(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._in_wqn:
                tracer.counts["assembly.weighted_quadratic_norm.eigh_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _run(self, name: str, fn, args, kwargs):
        span = [len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._call_id]
        self.spans.append(span)
        self._stack.append(span[0])
        self.calls[name] += 1
        simplex_before = self._simplex
        alloc = self.measure_alloc and name in PEAK_ALLOC and not tracemalloc.is_tracing()
        if alloc:
            tracemalloc.start()
        if name == "assembly.weighted_quadratic_norm":
            self._in_wqn += 1
        span[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            span[3] = perf_counter()
            self._stack.pop()
            if name == "assembly.weighted_quadratic_norm":
                self._in_wqn -= 1
            if alloc:
                peak = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)
        self._count(name, args, kwargs, result, self._simplex - simplex_before)
        return result

    def _count(self, name, args, kwargs, result, simplex_steps) -> None:
        if name == "clustering.scod_matrix":
            p = np.shape(args[0] if args else kwargs["resid_cov"])[0]
            self.counts[name + ".triples"] += p * (p - 1) * (p - 2) // 2
        elif name == "clustering.cluster":
            self.counts[name + ".merges"] += result.n_series - result.n_clusters
        elif name == "portfolio.min_var_long_only":
            self.counts[name + ".iters"] += simplex_steps
            self.counts[name + ".fastpath"] += simplex_steps == 0
            self.supports.append(int(np.count_nonzero(result)))
        elif name == "panel.save_matrix_csv":
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.counts[name + ".bytes"] += os.path.getsize(path)

    # -- one traced call ------------------------------------------------

    def begin_call(self, call_id: int, start: float) -> None:
        """Open the root span of one harness call at ``start``."""
        self._reset_counts()
        self._call_id = call_id
        self._first_span = len(self.spans)
        self.spans.append([len(self.spans), ROOT_SPAN, start, 0.0, None, call_id])
        self._stack = [self._first_span]

    def end_call(self, end: float) -> dict:
        """Close the root span; return and keep this call's aggregate."""
        spans = self.spans[self._first_span :]
        spans[0][3] = end
        self._stack = []
        child_time: Counter = Counter()
        for _, _, start, stop, parent, _ in spans[1:]:
            child_time[parent] += stop - start
        self_s: Counter = Counter()
        for sid, name, start, stop, _, _ in spans:
            self_s[name] += (stop - start) - child_time[sid]
        record = {
            "call_s": end - spans[0][2],
            "self_s": dict(self_s),
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "peak_alloc_mb": dict(self.peak_mb),
            "supports": list(self.supports),
        }
        self.records.append(record)
        return record


def summarize(records: list[dict], count_calls: int, alloc_record: dict) -> dict:
    """Per-call layer metrics from traced-call records.

    Times are means over every traced call. Counts are means over the
    first ``count_calls`` traced calls only, which always see the same
    inputs for a given seed, so they repeat exactly between runs.
    Allocation peaks come from ``alloc_record``, one untimed call.
    """
    n = len(records)
    counted = records[:count_calls]
    m = len(counted)
    call_s = sum(r["call_s"] for r in records) / n

    def mean_time(name, recs=records):
        return sum(r["self_s"].get(name, 0.0) for r in recs) / len(recs)

    def mean_count(key, field="counts"):
        return sum(r[field].get(key, 0) for r in counted) / m

    out: dict[str, float] = {"trace.call_s": call_s, ROOT_SPAN + ".self_s": mean_time(ROOT_SPAN)}
    for name in SPAN_NAMES:
        out[name + ".self_s"] = mean_time(name)
        out[name + ".share"] = out[name + ".self_s"] / call_s
        out[name + ".calls"] = mean_count(name, "calls")
        out[name + ".errors"] = sum(r["errors"].get(name, 0) for r in records)
    out["trace.errors"] = sum(out[name + ".errors"] for name in SPAN_NAMES)

    scod = "clustering.scod_matrix"
    out[scod + ".triples"] = mean_count(scod + ".triples")
    scod_s = mean_time(scod, counted)
    out[scod + ".triples_per_s"] = out[scod + ".triples"] / scod_s if scod_s > 0 else 0.0
    out["clustering.cluster.merges"] = mean_count("clustering.cluster.merges")
    for name in PEAK_ALLOC:
        out[name + ".peak_alloc_mb"] = alloc_record["peak_alloc_mb"].get(name, 0.0)
    out["assembly.weighted_quadratic_norm.eigh_calls"] = mean_count(
        "assembly.weighted_quadratic_norm.eigh_calls"
    )

    mvlo = "portfolio.min_var_long_only"
    out[mvlo + ".iters"] = mean_count(mvlo + ".iters")
    mvlo_s = mean_time(mvlo, counted)
    out[mvlo + ".iters_per_s"] = out[mvlo + ".iters"] / mvlo_s if mvlo_s > 0 else 0.0
    supports = [s for r in counted for s in r["supports"]]
    out[mvlo + ".support"] = float(statistics.median(supports)) if supports else 0.0
    solves = out[mvlo + ".calls"] * m
    out[mvlo + ".fastpath_ratio"] = mean_count(mvlo + ".fastpath") * m / solves if solves else 0.0

    save = "panel.save_matrix_csv"
    out[save + ".mb_written"] = mean_count(save + ".bytes") / MB
    save_s = mean_time(save, counted)
    out[save + ".mb_per_s"] = out[save + ".mb_written"] / save_s if save_s > 0 else 0.0
    return out
