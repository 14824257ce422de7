"""Spans around the calls into each steerlab module, for the traced run.

The tracer replaces module attributes at their call sites, in the benchmark
process only, and puts the originals back on exit; no file under src/
changes.  Each span records name, start, end, parent and request id; spans
stay in memory and are written out when the run ends.  A layer's self time
is its span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# layers every workload reaches: calls, self time per call, total time
TIMED_LAYERS = (
    "cli.main", "cli.build_parser", "cli.resolve_config", "cli.output",
    "generator.build_generator", "model.derive_params", "model.eigensystem",
    "rates.rate_set", "steady.steady_state", "correlations.classify",
    "bench.request", "bench.check",
)
# layers only some workloads reach: calls and share of the traced wall time,
# so that no time metric reads a constant zero on a workload that skips them
PARTIAL_LAYERS = ("analysis.sweep2d", "analysis.threshold_kappa", "transport.transport_report")
# counts reported per operation (one sweep or one request)
PER_OP_COUNTS = ("analysis.cells", "analysis.distinct_systems", "analysis.bisect_evals")
# counts reported as run totals
TOTAL_COUNTS = ("correlations.classify.dual", "correlations.classify.single",
                "correlations.method.both", "correlations.method.x-closed-form",
                "correlations.method.general-ppt", "correlations.masked",
                "steady.degenerate")
OUTPUT = "cli.output"


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.request_id = -1
        self._systems: set = set()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.end.append(float("nan"))
        self.stack.append(i)
        self.active[name] += 1
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        """Close span i and any span still open inside it."""
        now = perf_counter()
        while self.stack:
            j = self.stack.pop()
            self.end[j] = now
            self.active[self.names[self.name_id[j]]] -= 1
            if j == i:
                return

    def top(self) -> str | None:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self._systems.clear()

    def end_request(self) -> None:
        self.counts["analysis.distinct_systems"] += len(self._systems)

    def see_system(self, system) -> None:
        self._systems.add(system)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) of every span."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur, dur - child


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


def _wrap_output(tracer: Tracer, fn):
    """Output writers, counted once per output however they nest or recurse."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.top() == OUTPUT:
            return fn(*args, **kwargs)
        i = tracer.open(OUTPUT)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


def _wrap_sweep(tracer: Tracer, fn):
    """sweep2d, then an output span over the rest of the sweep command (CSV
    lines, file and manifest writes), closed when `main` returns."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open("analysis.sweep2d")
        try:
            region = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        tracer.counts["analysis.cells"] += len(region.cells)
        tracer.open(OUTPUT)
        return region
    return wrapper


def _wrap_generator(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(system, *args, **kwargs):
        tracer.see_system(system)
        if tracer.active["analysis.threshold_kappa"]:
            tracer.counts["analysis.bisect_evals"] += 1
        i = tracer.open("generator.build_generator")
        try:
            return fn(system, *args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


def _wrap_steady(tracer: Tracer, fn, degenerate):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open("steady.steady_state")
        try:
            return fn(*args, **kwargs)
        except degenerate:
            tracer.counts["steady.degenerate"] += 1
            raise
        finally:
            tracer.close(i)
    return wrapper


def _wrap_classify(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        route = "dual" if kwargs.get("dual", True) else "single"
        tracer.counts["correlations.classify." + route] += 1
        i = tracer.open("correlations.classify")
        try:
            rep = fn(*args, **kwargs)
        except ValueError:
            # the path by which a positivity-violating cell gets masked
            tracer.counts["correlations.masked"] += 1
            raise
        finally:
            tracer.close(i)
        tracer.counts["correlations.method." + rep.method.value] += 1
        return rep
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function at each module that calls it; restore on exit.

    Yields the list of call sites that were wrapped, as "module.attribute".
    """
    mod = {n: importlib.import_module("steerlab." + n)
           for n in ("cli", "analysis", "generator", "model", "rates", "steady", "errors")}
    plan = [
        (("cli",), "build_parser", lambda f: _wrap(tracer, "cli.build_parser", f)),
        (("cli",), "resolve_config", lambda f: _wrap(tracer, "cli.resolve_config", f)),
        (("cli",), "dumps_fixed", lambda f: _wrap_output(tracer, f)),
        (("cli",), "_atomic_write", lambda f: _wrap_output(tracer, f)),
        (("cli",), "_write_manifest", lambda f: _wrap_output(tracer, f)),
        (("cli",), "sweep2d", lambda f: _wrap_sweep(tracer, f)),
        (("cli",), "threshold_kappa", lambda f: _wrap(tracer, "analysis.threshold_kappa", f)),
        (("cli", "analysis"), "build_generator", lambda f: _wrap_generator(tracer, f)),
        (("cli", "analysis"), "steady_state", lambda f: _wrap_steady(
            tracer, f, mod["errors"].DegenerateSteadyStateError)),
        (("cli", "analysis"), "classify", lambda f: _wrap_classify(tracer, f)),
        (("cli", "analysis"), "transport_report",
         lambda f: _wrap(tracer, "transport.transport_report", f)),
        (("generator", "rates", "model"), "derive_params",
         lambda f: _wrap(tracer, "model.derive_params", f)),
        (("generator",), "eigensystem", lambda f: _wrap(tracer, "model.eigensystem", f)),
        (("generator",), "rate_set", lambda f: _wrap(tracer, "rates.rate_set", f)),
    ]
    saved = []
    try:
        for modules, attr, make in plan:
            wrappers = {}
            for m in modules:
                original = getattr(mod[m], attr, None)
                if original is None:
                    continue
                # one wrapper per function object, shared by its call sites
                wrapper = wrappers.setdefault(id(original), make(original))
                saved.append((mod[m], attr, original))
                setattr(mod[m], attr, wrapper)
        yield [f"{m.__name__}.{attr}" for m, attr, _ in saved]
    finally:
        for m, attr, original in reversed(saved):
            setattr(m, attr, original)


def layer_metrics(tracer: Tracer, ops: int, wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics, counts and the accounting of the traced wall time."""
    a = tracer.arrays()
    dur, self_t = tracer.self_times()
    metrics = {}
    for layer in TIMED_LAYERS + PARTIAL_LAYERS:
        nid = tracer._ids.get(layer)
        sel = a["name_id"] == nid if nid is not None else np.zeros(len(dur), dtype=bool)
        calls = int(sel.sum())
        metrics[f"{layer}.calls"] = (calls, "count")
        if layer in PARTIAL_LAYERS:
            metrics[f"{layer}.self_share"] = (float(self_t[sel].sum()) / wall_s, "ratio")
        else:
            metrics[f"{layer}.self_us"] = (float(self_t[sel].sum()) / calls * 1e6, "us")
            metrics[f"{layer}.total_s"] = (float(dur[sel].sum()), "s")
    for name in PER_OP_COUNTS:
        metrics[name] = (tracer.counts[name] / ops, "count/op")
    for name in TOTAL_COUNTS:
        metrics[name] = (tracer.counts[name], "count")
    is_bench = np.array([n.startswith("bench.") for n in tracer.names])[a["name_id"]]
    roots = float(dur[a["parent"] < 0].sum())
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    metrics["trace.overhead_s"] = (wall_s - untraced_wall_s, "s")
    metrics["trace.layers_self_s"] = (float(self_t[~is_bench].sum()), "s")
    metrics["trace.bench_self_s"] = (float(self_t[is_bench].sum()), "s")
    metrics["trace.unaccounted_share"] = ((wall_s - roots) / wall_s, "ratio")
    metrics["trace.spans"] = (len(dur), "count")
    return metrics


def accounting_table(tracer: Tracer, wall_s: float) -> str:
    """Self time per span name as a share of the traced wall time."""
    a = tracer.arrays()
    _, self_t = tracer.self_times()
    totals = np.bincount(a["name_id"], weights=self_t, minlength=len(tracer.names))
    rows = sorted(zip(tracer.names, totals), key=lambda r: -r[1])
    lines = [f"{'span':34s} {'self s':>10s} {'share':>8s}"]
    lines += [f"{n:34s} {t:10.4f} {t / wall_s:8.2%}" for n, t in rows]
    rest = wall_s - float(totals.sum())
    lines.append(f"{'(unaccounted)':34s} {rest:10.4f} {rest / wall_s:8.2%}")
    return "\n".join(lines)
