"""In-memory span tracer that wraps adaptnet's public functions from outside.

Nothing in ``src/`` is edited.  ``Tracer.install`` replaces each target
function at every name an ``adaptnet`` module binds it to (``harness.update``,
``cli.run_experiment``, ...), and each target method on its class, with a
wrapper that records a span: name, start, end, id, parent id, thread and the
unit (timed call) it belongs to.  ``Tracer.uninstall`` puts the originals back,
so untraced calls run the unmodified code.

A span opened on a thread that has no open span of its own (a
``ThreadPoolExecutor`` worker, say) takes as parent the innermost span open
on the main thread, which is the call that started the pool.

If a later version of the program stops calling a wrapped function, or
removes it, that layer reads 0 and its time shows up as self time of the
caller.  Missing targets are skipped, not an error.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass

PACKAGE = "adaptnet"


@dataclass(frozen=True, slots=True)
class Span:
    name: str
    start: float
    end: float
    id: int
    parent: int | None
    thread: int
    unit: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to its parent's interval."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        out[s.id] = s.duration - union_length([iv for iv in kids if iv[1] > iv[0]])
    return out


# Hooks read a call's arguments and result into span attributes.

def _series_attrs(args, kwargs, result):
    rec = args[0] if args else kwargs["recursion"]
    return {"terms": int(result.terms or 0), "nm": rec.n_nodes * rec.dim}


def _experiment_attrs(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return {"scheduled": len(cfg.strategies) * cfg.trials * cfg.iterations,
            "diverged": sum(c.diverged_trials for c in result.values())}


def _grid_attrs(args, kwargs, result):
    return {"points": len(result)}


# (module, attribute path, span name, hook).  A dotted path is Class.method.
TARGETS = (
    ("signalmodel", "SnapshotSource.__init__", "signalmodel.source_init", None),
    ("signalmodel", "SnapshotSource.snapshot", "signalmodel.snapshot", None),
    ("signalmodel", "SnapshotSource.node_stream", "signalmodel.node_stream", None),
    ("strategies", "update", "strategies.update", None),
    ("harness", "run_experiment", "harness.run_experiment", _experiment_attrs),
    ("harness", "theory_reports", "harness.theory_reports", None),
    ("harness", "steady_state_vs_theory", "harness.steady_state_vs_theory", None),
    ("msdtheory", "msd_series", "msdtheory.msd_series", _series_attrs),
    ("msdtheory", "msd_eigenform", "msdtheory.msd_eigenform", None),
    ("msdtheory", "eigenstructure", "msdtheory.eigenstructure", None),
    ("spectra", "build_error_recursion", "spectra.build_error_recursion", None),
    ("spectra", "spectral_radius", "spectra.spectral_radius", None),
    ("spectra", "analyze_network", "spectra.analyze_network", None),
    ("twonode", "condition_grid", "twonode.condition_grid", _grid_attrs),
    ("network", "random_connected_topology", "network.topology", None),
    ("network", "complete_topology", "network.topology", None),
    ("network", "line_topology", "network.topology", None),
    ("network", "load_topology", "network.topology", None),
    ("network", "build_combination_matrix", "network.combination", None),
    ("network", "load_combination_csv", "network.combination", None),
    ("config", "load_experiment", "config.load", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.unit = 0
        self._ids = itertools.count()
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._patches = []

    def wrap(self, name, fn, hook=None):
        spans, stacks, ids, main = self.spans, self._stacks, self._ids, self._main

        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main)
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            unit = self.unit
            attrs = None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            else:
                if hook is not None:
                    attrs = hook(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                # list.append is atomic under the interpreter lock
                spans.append(Span(name, start, end, sid, parent, thread, unit, attrs))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patches:
            return
        owners = {}
        for mod_name in {t[0] for t in TARGETS}:
            try:
                owners[mod_name] = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, path, name, hook in TARGETS:
            owner = owners.get(mod_name)
            if owner is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(attr) if cls is not None else None
                if original is None:
                    continue
                self._patch(cls, attr, original, self.wrap(name, original, hook))
                continue
            original = getattr(owner, path, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def flush(self, fh):
        """Append the recorded spans to ``fh`` as tab-separated lines and
        drop them from memory."""
        for s in self.spans:
            attrs = ",".join(f"{k}={v}" for k, v in (s.attrs or {}).items())
            fh.write(f"{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.id}\t"
                     f"{'' if s.parent is None else s.parent}\t{s.thread}\t"
                     f"{s.unit}\t{attrs}\n")
        self.spans.clear()


# Per-layer metrics: name -> unit.  Every ``_s`` metric except the two self
# times is busy time, the union of the layer's span intervals over all
# threads, so two threads working in one layer at once count once.
LAYER_METRICS = {
    "signalmodel.snapshot_s": "s",
    "signalmodel.snapshots": "count",
    "signalmodel.node_streams": "count",
    "signalmodel.source_init_s": "s",
    "strategies.update_s": "s",
    "strategies.updates": "count",
    "harness.run_experiment_s": "s",
    "harness.self_s": "s",
    "harness.theory_reports_s": "s",
    "harness.diverged_trials": "count",
    "harness.live_update_ratio": "ratio",
    "msdtheory.series_s": "s",
    "msdtheory.series_terms": "count",
    "msdtheory.series_gflop": "GFLOP",
    "msdtheory.eigen_s": "s",
    "msdtheory.eigen_fallbacks": "count",
    "spectra.recursion_s": "s",
    "spectra.radius_s": "s",
    "spectra.analyze_s": "s",
    "twonode.grid_s": "s",
    "twonode.grid_points": "count",
    "network.topology_s": "s",
    "network.combination_s": "s",
    "config.load_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one unit's spans (see ``LAYER_METRICS``)."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(*names):
        return union_length([(s.start, s.end) for n in names for s in by_name.get(n, ())])

    def count(name):
        return len(by_name.get(name, ()))

    def total(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in by_name.get(name, ()))

    selfs = self_times(spans)

    def self_of(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    scheduled = total("harness.run_experiment", "scheduled")
    updates = count("strategies.update")
    fallbacks = sum(1 for s in by_name.get("msdtheory.eigenstructure", ())
                    if (s.attrs or {}).get("error") == "NotDiagonalizableError")
    return {
        "signalmodel.snapshot_s": busy("signalmodel.snapshot"),
        "signalmodel.snapshots": count("signalmodel.snapshot"),
        "signalmodel.node_streams": count("signalmodel.node_stream"),
        "signalmodel.source_init_s": busy("signalmodel.source_init"),
        "strategies.update_s": busy("strategies.update"),
        "strategies.updates": updates,
        "harness.run_experiment_s": busy("harness.run_experiment"),
        "harness.self_s": self_of("harness.run_experiment"),
        "harness.theory_reports_s": busy("harness.theory_reports"),
        "harness.diverged_trials": total("harness.run_experiment", "diverged"),
        # 0 when the unit schedules no simulation
        "harness.live_update_ratio": updates / scheduled if scheduled else 0.0,
        "msdtheory.series_s": busy("msdtheory.msd_series"),
        "msdtheory.series_terms": total("msdtheory.msd_series", "terms"),
        # computed, not measured: two (NM x NM) matrix products per term
        "msdtheory.series_gflop": sum(s.attrs["terms"] * 4 * s.attrs["nm"] ** 3
                                      for s in by_name.get("msdtheory.msd_series", ())
                                      if s.attrs and "terms" in s.attrs) / 1e9,
        "msdtheory.eigen_s": busy("msdtheory.eigenstructure", "msdtheory.msd_eigenform"),
        "msdtheory.eigen_fallbacks": fallbacks,
        "spectra.recursion_s": busy("spectra.build_error_recursion"),
        "spectra.radius_s": busy("spectra.spectral_radius"),
        "spectra.analyze_s": busy("spectra.analyze_network"),
        "twonode.grid_s": busy("twonode.condition_grid"),
        "twonode.grid_points": total("twonode.condition_grid", "points"),
        "network.topology_s": busy("network.topology"),
        "network.combination_s": busy("network.combination"),
        "config.load_s": busy("config.load"),
        "cli.self_s": self_of("cli.main"),
    }

