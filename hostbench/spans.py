"""Layer spans recorded from outside the program.

:func:`install` wraps the public call into each ``repro`` layer (plus the
few private seams of the HTTP front that have no public equivalent) in a
timing span; :meth:`Installed.restore` puts the originals back.  Nothing under
``src/`` changes: the wrappers are attributes swapped on the classes and
modules at run time.

A span records its name, start and end (``time.perf_counter``), the span
that was current when it began, and counters read from its arguments or
result.  The current span travels in a :mod:`contextvars` variable, so
asyncio tasks and threads each see their own; the one hop the context does
not make by itself — ``ServeApp.submit`` on the event loop handing a
request to ``ServeApp.handle`` on a worker thread — is bridged by hand.
Spans stay in memory; :meth:`Recorder.dump` writes them out at the end.

Self time is a span's duration minus the part of it that its child spans
cover.  The per-layer metrics are per-op sums of those figures.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_current: contextvars.ContextVar = contextvars.ContextVar(
    "hostbench_span", default=None)
_ids = itertools.count(1)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.id = next(_ids)
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs: Dict[str, Any] = {}


class Recorder:
    """Collects finished spans (list appends are atomic under the GIL)."""

    def __init__(self):
        self.spans: List[Span] = []

    def dump(self) -> List[Dict[str, Any]]:
        return as_dicts(self.spans)


def as_dicts(recorded: Sequence[Span]) -> List[Dict[str, Any]]:
    """Spans as plain records (the form the aggregation functions read)."""
    return [{"id": s.id, "name": s.name,
             "parent": s.parent.id if s.parent is not None else None,
             "start": s.start, "end": s.end, "attrs": dict(s.attrs)}
            for s in recorded]


# -- hooks: counters read at a layer boundary -------------------------------------


def _count_result(attr: str) -> Callable:
    def hook(span, args, kwargs, result):
        span.attrs[attr] = len(result)
    return hook


def _count_arg(attr: str, index: int, keyword: str) -> Callable:
    def hook(span, args, kwargs, result):
        span.attrs[attr] = len(kwargs[keyword] if keyword in kwargs
                               else args[index])
    return hook


def _sample_count(span, args, kwargs, result):
    span.attrs["samples"] = int(result.n_samples)


def _catalog_read(span, args, kwargs, result):
    span.attrs["hit"] = result is not None


def _payload_bytes(current, args, kwargs, result):
    """Credit the canonical payload size to the catalog write it serves."""
    if current.name == "catalog.write":
        current.attrs["bytes"] = current.attrs.get("bytes", 0) + len(result)


def _encoded_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = len(result)


def _substrate_state(span, args, kwargs):
    """Whether this snapshot request will hit, wait on a computation in
    flight (coalesce), or miss.

    The cache exposes counters but not this distinction, so the slot map
    is read (never written).  It mirrors ``SubstrateCache.snapshot``'s key;
    if that key ever changes shape the lookup misses and the call is
    classed by whether it simulated.
    """
    cache, spec = args[0], args[1]
    try:
        from repro.api.registry import INVENTORY_SOURCES

        key = ("snapshot", spec.physical_key()
               + (INVENTORY_SOURCES.get(spec.inventory),))
        slot = cache._slots.get(key)
    except Exception:  # noqa: BLE001 - diagnostics must never fail the op
        slot = None
    if slot is None:
        span.attrs["state"] = "miss"
    else:
        span.attrs["state"] = "hit" if slot.event.is_set() else "coalesced"


# -- the layer table ----------------------------------------------------------------

#: (module, attribute path, span name, before hook, after hook).  Every
#: entry is a public call into a ``repro`` layer, except the HTTP front's
#: per-connection handler and its JSON encoder, which are private seams
#: with no public equivalent.
LAYERS: Tuple[Tuple[str, str, Optional[str], Any, Any], ...] = (
    ("repro.api.substrates", "SubstrateCache.snapshot", "api.substrates",
     _substrate_state, None),
    ("repro.snapshot.experiment", "SnapshotExperiment.run", "snapshot.run",
     None, None),
    ("repro.snapshot.experiment", "SnapshotExperiment.run_site",
     "snapshot.run_site", None, None),
    ("repro.workload.jobs", "JobGenerator.generate", "workload.generate",
     None, _count_result("jobs")),
    ("repro.workload.scheduler", "BackfillScheduler.run", "workload.schedule",
     None, None),
    ("repro.workload.scheduler", "BackfillScheduler.build_trace",
     "workload.trace", None, None),
    ("repro.power.traces", "PowerBreakdownTrace.from_utilization",
     "power.model", None, None),
    ("repro.power.campaign", "MeasurementCampaign.measure_site",
     "power.measure", None, None),
    ("repro.api.assessment", "Assessment.run_live", "api.assessment",
     None, None),
    ("repro.api.batch", "BatchAssessmentRunner.sweep", "api.batch",
     None, None),
    ("repro.api.columnar", "compile_sweep", "api.compile", None, None),
    ("repro.api.columnar", "evaluate_assessment_group", "api.columnar.group",
     None, _count_arg("points", 0, "specs")),
    ("repro.api.temporal", "TemporalAssessment.run_live", "api.temporal",
     None, None),
    ("repro.temporal.align", "align_power_and_intensity", "temporal.align",
     None, None),
    ("repro.temporal.integrate", "integrate_power_intensity",
     "temporal.integrate", None, None),
    ("repro.uncertainty.ensemble", "EnsembleRunner.run_live", "uncertainty",
     None, None),
    ("repro.uncertainty.ensemble", "EnsembleRunner.draw", "uncertainty.draw",
     None, _sample_count),
    ("repro.api.columnar", "evaluate_ensemble_columns", "uncertainty.evaluate",
     None, None),
    ("repro.catalog.record", "CatalogRecorder.run", "catalog.run", None, None),
    ("repro.catalog.record", "CatalogRecorder.serve", "catalog.read",
     None, _catalog_read),
    ("repro.catalog.store", "RunCatalog.record", "catalog.write", None, None),
    ("repro.catalog.store", "_canonical_payload_json", None, None,
     _payload_bytes),
    ("repro.serve.app", "ServeApp.submit", "serve.submit", None, None),
    ("repro.serve.app", "ServeApp.handle", "serve.handle", None, None),
    ("repro.serve.http", "ReproServer._on_client", "serve.request",
     None, None),
    ("repro.serve.http", "_encode_json", "serve.encode", None,
     _encoded_bytes),
)

#: Requests handed from ``ServeApp.submit`` to the worker thread that runs
#: ``ServeApp.handle``, keyed by the identity of the request document.
_handoff: Dict[int, Span] = {}


def _make_wrapper(recorder: Recorder, name: Optional[str], fn: Callable,
                  before, after) -> Callable:
    if name is None:
        # A counter-only hook: no span of its own, the hook annotates the
        # current one.
        @functools.wraps(fn)
        def annotate(*args, **kwargs):
            result = fn(*args, **kwargs)
            current = _current.get()
            if current is not None:
                after(current, args, kwargs, result)
            return result
        return annotate

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            span = Span(name, _current.get())
            if name == "serve.submit":
                _handoff[id(args[2])] = span
            token = _current.set(span)
            span.start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _current.reset(token)
                if name == "serve.submit":
                    _handoff.pop(id(args[2]), None)
                recorder.spans.append(span)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _current.get()
        if name == "serve.handle" and parent is None:
            parent = _handoff.get(id(args[2]))
        span = Span(name, parent)
        if before is not None:
            before(span, args, kwargs)
        token = _current.set(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            _current.reset(token)
            recorder.spans.append(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result
    return wrapper


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw descriptor) for a ``Class.attr`` or ``func``."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Installed:
    """The swapped attributes, so :meth:`restore` can put them back."""

    def __init__(self):
        self._saved: List[Tuple[Any, str, Any]] = []

    def swap(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def install(recorder: Recorder) -> Installed:
    """Wrap every layer in :data:`LAYERS`; returns the handle to undo it.

    A module-level function is also swapped in every loaded module that
    imported it by name (``from x import f``), so callers that bound the
    name at import time are traced too.
    """
    installed = Installed()
    for module_name, path, name, before, after in LAYERS:
        owner, attr, raw = _resolve(module_name, path)
        if isinstance(raw, classmethod):
            wrapped = classmethod(_make_wrapper(recorder, name, raw.__func__,
                                                before, after))
        else:
            wrapped = _make_wrapper(recorder, name, raw, before, after)
        installed.swap(owner, attr, wrapped)
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                if (module is not owner and module is not None
                        and getattr(module, "__dict__", {}).get(attr) is raw):
                    installed.swap(module, attr, wrapped)
    return installed


# -- aggregation ----------------------------------------------------------------------


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - _covered(children.get(span["id"], ()))
            for span in spans}


#: Per-layer metrics: (metric, span name, what is summed).  ``incl`` is the
#: span's duration, ``self`` its self time, ``count`` the number of spans,
#: anything else an attribute the span's hook recorded.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("snapshot.run_site_ms", "snapshot.run_site", "incl"),
    ("snapshot.self_ms", "snapshot.run_site", "self"),
    ("snapshot.run.self_ms", "snapshot.run", "self"),
    ("workload.generate_ms", "workload.generate", "incl"),
    ("workload.jobs", "workload.generate", "jobs"),
    ("workload.schedule_ms", "workload.schedule", "incl"),
    ("workload.trace_ms", "workload.trace", "incl"),
    ("power.model_ms", "power.model", "incl"),
    ("power.measure_ms", "power.measure", "incl"),
    ("api.substrates.self_ms", "api.substrates", "self"),
    ("api.assessment_ms", "api.assessment", "incl"),
    ("api.assessment.self_ms", "api.assessment", "self"),
    ("api.batch.self_ms", "api.batch", "self"),
    ("api.compile_ms", "api.compile", "incl"),
    ("api.columnar.group_ms", "api.columnar.group", "incl"),
    ("api.columnar.points", "api.columnar.group", "points"),
    ("api.temporal.self_ms", "api.temporal", "self"),
    ("temporal.align_ms", "temporal.align", "incl"),
    ("temporal.integrate_ms", "temporal.integrate", "incl"),
    ("uncertainty.self_ms", "uncertainty", "self"),
    ("uncertainty.draw_ms", "uncertainty.draw", "incl"),
    ("uncertainty.evaluate_ms", "uncertainty.evaluate", "incl"),
    ("uncertainty.samples", "uncertainty.draw", "samples"),
    ("catalog.run.self_ms", "catalog.run", "self"),
    ("catalog.read_ms", "catalog.read", "incl"),
    ("catalog.reads", "catalog.read", "hit"),
    ("catalog.write_ms", "catalog.write", "incl"),
    ("catalog.writes", "catalog.write", "count"),
    ("catalog.write_bytes", "catalog.write", "bytes"),
    ("serve.request.self_ms", "serve.request", "self"),
    ("serve.submit.self_ms", "serve.submit", "self"),
    ("serve.handle_ms", "serve.handle", "incl"),
    ("serve.handle.self_ms", "serve.handle", "self"),
    ("serve.encode_ms", "serve.encode", "incl"),
    ("serve.encode_bytes", "serve.encode", "bytes"),
)

#: Metrics derived from several spans (see :func:`layer_metrics`).
DERIVED_METRICS = (
    "serve.queue_wait_ms",
    "api.substrates.runs",
    "api.substrates.hits",
    "api.substrates.loads",
    "api.substrates.coalesced_waits",
    "api.substrates.sims_per_new_config",
    "trace.coverage",
)


def select_ops(spans: Sequence[Dict[str, Any]],
               keep_root: Callable[[Dict[str, Any]], bool]
               ) -> List[Dict[str, Any]]:
    """The spans under the roots ``keep_root`` accepts."""
    by_id = {span["id"]: span for span in spans}

    def root_of(span):
        while span["parent"] is not None and span["parent"] in by_id:
            span = by_id[span["parent"]]
        return span

    kept_roots = {span["id"] for span in spans
                  if span["parent"] is None and keep_root(span)}
    return [span for span in spans if root_of(span)["id"] in kept_roots]


def layer_metrics(spans: Sequence[Dict[str, Any]], n_ops: int,
                  op_wall_s: float, new_configs: int) -> Dict[str, float]:
    """Per-op layer figures from the spans of ``n_ops`` timed ops.

    ``op_wall_s`` is the summed wall time of those ops; ``trace.coverage``
    is the share of it the root spans (the sum of every layer's self time)
    account for.  ``new_configs`` is how many ops asked for a physical
    configuration never simulated before.
    """
    if n_ops < 1:
        raise ValueError("no ops")
    selfs = self_times(spans)
    sums: Dict[Tuple[str, str], float] = {}
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        for what, value in (("incl", duration), ("self", selfs[span["id"]]),
                            ("count", 1.0)):
            sums[(name, what)] = sums.get((name, what), 0.0) + value
        for attr, value in span["attrs"].items():
            if isinstance(value, (int, float)):
                sums[(name, attr)] = sums.get((name, attr), 0.0) + value
    metrics: Dict[str, float] = {}
    for metric, name, what in LAYER_METRICS:
        scale = 1000.0 if what in ("incl", "self") else 1.0
        metrics[metric] = scale * sums.get((name, what), 0.0) / n_ops

    by_id = {span["id"]: span for span in spans}
    waits = []
    for span in spans:
        parent = by_id.get(span["parent"])
        if span["name"] == "serve.handle" and parent is not None:
            waits.append(span["start"] - parent["start"])
    metrics["serve.queue_wait_ms"] = 1000.0 * sum(waits) / n_ops

    ran = {span["parent"] for span in spans if span["name"] == "snapshot.run"}
    outcomes = {"runs": 0, "hits": 0, "loads": 0, "coalesced_waits": 0}
    for span in spans:
        if span["name"] != "api.substrates":
            continue
        if span["id"] in ran:
            outcomes["runs"] += 1
        elif span["attrs"].get("state") == "hit":
            outcomes["hits"] += 1
        elif span["attrs"].get("state") == "coalesced":
            outcomes["coalesced_waits"] += 1
        else:
            outcomes["loads"] += 1
    for outcome, count in outcomes.items():
        metrics[f"api.substrates.{outcome}"] = count / n_ops
    metrics["api.substrates.sims_per_new_config"] = (
        outcomes["runs"] / new_configs if new_configs else 0.0)

    root_time = sum(span["end"] - span["start"] for span in spans
                    if span["parent"] is None)
    metrics["trace.coverage"] = root_time / op_wall_s if op_wall_s > 0 else 0.0
    return metrics


def layer_shares(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Each span name's share of the summed self time (sums to 1)."""
    selfs = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + selfs[span["id"]]
    grand = sum(totals.values())
    return {name: value / grand for name, value in sorted(totals.items())} \
        if grand > 0 else {}


__all__ = [
    "DERIVED_METRICS",
    "LAYERS",
    "LAYER_METRICS",
    "Recorder",
    "Span",
    "as_dicts",
    "install",
    "layer_metrics",
    "layer_shares",
    "select_ops",
    "self_times",
]
