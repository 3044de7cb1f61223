"""Per-layer tracing for the benchmark's ``--trace 1`` runs.

The tracer wraps the program's public calls from outside: it replaces
each function in every module that binds its name, and each method on
its class, with a wrapper that records one span per call. A span holds
its name, its start and end in thread CPU time and in wall time, the
span that called it, and the probe, epoch or serve request it served.
Spans stay in memory (one set of flat arrays per thread) until the run
ends; :meth:`Tracer.write` then saves them, and :meth:`Tracer.summary`
reports calls, inclusive CPU and self CPU per span name, where self CPU
is a span's CPU minus the CPU of the spans it called.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import pkgutil
import sys
import threading
import time
from array import array
from typing import Callable, Optional

#: Context kinds recorded with every span.
CTX_NONE, CTX_PROBE, CTX_EPOCH, CTX_REQUEST = 0, 1, 2, 3
CTX_NAMES = ("none", "probe", "epoch", "request")

_FIELDS = (
    ("name", "i"),
    ("parent", "i"),
    ("ctx_kind", "b"),
    ("ctx", "q"),
    ("cpu_start", "d"),
    ("cpu_end", "d"),
    ("wall_start", "d"),
    ("wall_end", "d"),
)

#: Functions wrapped wherever a module binds them: (module, attribute,
#: span name).
FUNCTIONS = (
    ("repro.atlas.population", "generate_population", "population.generate"),
    ("repro.atlas.scenario", "build_scenario", "scenario.build"),
    ("repro.atlas.scenario", "reset_scenario", "scenario.reset"),
    ("repro.core.study", "measure_probe", "study.measure_probe"),
    ("repro.analysis.tables", "build_table4", "analysis.table4"),
    ("repro.analysis.tables", "build_table5", "analysis.table5"),
    ("repro.analysis.figures", "build_figure3", "analysis.figure3"),
    ("repro.analysis.figures", "build_figure4_countries", "analysis.figure4_countries"),
    ("repro.analysis.figures", "build_figure4_organizations", "analysis.figure4_organizations"),
    ("repro.analysis.export", "save_study", "analysis.save_study"),
    ("repro.campaigns.aggregate", "load_epoch_page", "serve.load_epoch_page"),
)

#: Methods wrapped on their class: (module, class, attribute, span name).
METHODS = (
    ("repro.net.router", "RoutingTable", "add", "route.add"),
    ("repro.net.router", "RoutingTable", "lookup", "route.lookup"),
    ("repro.net.sim", "Network", "run", "sim.run"),
    ("repro.net.sim", "Network", "transmit", "sim.transmit"),
    ("repro.dnswire.message", "Message", "encode", "dnswire.encode"),
    ("repro.dnswire.message", "Message", "decode", "dnswire.decode"),
    ("repro.atlas.measurement", "MeasurementClient", "exchange", "measurement.exchange"),
    ("repro.atlas.measurement", "MeasurementClient", "resolve", "measurement.resolve"),
    ("repro.core.detector_registry", "HeuristicDetector", "classify", "detector.heuristic"),
    ("repro.core.detector_registry", "CertDetector", "classify", "detector.cert"),
    ("repro.core.fingerprint_probe", "AmbiguityFingerprinter", "fingerprint", "detector.fingerprint"),
    ("repro.store.journal", "JournalWriter", "append", "journal.append"),
    ("repro.store.journal", "JournalWriter", "sync", "journal.sync"),
    ("repro.store.result_store", "ResultStore", "collect_study", "store.collect"),
    ("repro.store.result_store", "ResultStore", "collect_epochs", "store.collect"),
    ("repro.store.result_store", "ResultStore", "finalize_study", "store.finalize"),
    ("repro.store.result_store", "ResultStore", "finalize_longitudinal", "store.finalize"),
    ("repro.campaigns.schedule", "LongitudinalCampaign", "epoch_fleet", "campaign.epoch_fleet"),
    ("repro.campaigns.schedule", "LongitudinalCampaign", "fingerprint", "campaign.fingerprint"),
    ("repro.campaigns.aggregate", "StoreAggregator", "refresh", "aggregate.refresh"),
    ("repro.campaigns.aggregate", "StoreAggregator", "trend", "serve.trend_build"),
    ("repro.campaigns.aggregate", "StoreAggregator", "epoch_table", "serve.epoch_table_build"),
)

#: Span names whose integer return values are summed (events dispatched
#: by the event loop, journal entries folded by a refresh).
SUMMED_RETURNS = ("sim.run", "aggregate.refresh")


class _Buffer:
    """One thread's spans, as parallel arrays, plus its open-span stack."""

    def __init__(self) -> None:
        for field, code in _FIELDS:
            setattr(self, field, array(code))
        self.stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)


class Tracer:
    """Records spans around patched calls; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.returns: dict[str, int] = {name: 0 for name in SUMMED_RETURNS}
        #: The context new spans are tagged with; the benchmark sets the
        #: epoch and request, the ``measure_probe`` wrapper the probe.
        self.ctx_kind = CTX_NONE
        self.ctx = -1
        self.recording = False

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buffer = _Buffer()
        self._local.buffer = buffer
        with self._buffers_lock:
            self._buffers.append(buffer)
        return buffer

    def wrap(self, fn: Callable, name: str, probe_ctx: bool = False) -> Callable:
        """``fn`` wrapped to record one span per call while recording."""
        nid = self._id(name)
        local = self._local
        tracer = self
        cpu = time.thread_time
        wall = time.perf_counter
        summed = name if name in SUMMED_RETURNS else None

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            try:
                buffer = local.buffer
            except AttributeError:
                buffer = tracer._buffer()
            saved = None
            if probe_ctx:
                saved = (tracer.ctx_kind, tracer.ctx)
                tracer.ctx_kind, tracer.ctx = CTX_PROBE, args[0].probe_id
            stack = buffer.stack
            index = len(buffer.name)
            buffer.name.append(nid)
            buffer.parent.append(stack[-1] if stack else -1)
            buffer.ctx_kind.append(tracer.ctx_kind)
            buffer.ctx.append(tracer.ctx)
            buffer.cpu_end.append(0.0)
            buffer.wall_end.append(0.0)
            stack.append(index)
            buffer.wall_start.append(wall())
            buffer.cpu_start.append(cpu())
            try:
                result = fn(*args, **kwargs)
            finally:
                buffer.cpu_end[index] = cpu()
                buffer.wall_end[index] = wall()
                stack.pop()
                if saved is not None:
                    tracer.ctx_kind, tracer.ctx = saved
            if summed is not None and isinstance(result, int):
                tracer.returns[summed] += result
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span recorded by the benchmark itself."""
        return self.wrap(fn, name)(*args, **kwargs)

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Import every program module, then patch each traced call in
        every module that binds it."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(original, name, probe_ctx=(name == "study.measure_probe"))
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict) or not _ours(module):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, class_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(raw.__func__, name))
            else:
                patched = self.wrap(raw, name)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, patched)
        self.recording = True

    def uninstall(self) -> None:
        self.recording = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls; outermost calls (no same-name span
        above) with their inclusive CPU and wall seconds; and self CPU
        seconds over all calls. ``measurement.outermost`` counts the
        exchange/resolve calls made outside any other one."""
        out = {
            name: {"calls": 0, "outermost": 0, "cpu_s": 0.0, "self_cpu_s": 0.0, "wall_s": 0.0}
            for name in self.names
        }
        measurement = {
            self._ids[name]
            for name in ("measurement.exchange", "measurement.resolve")
            if name in self._ids
        }
        out["measurement.outermost"] = {"calls": 0}
        for buffer in self._buffers:
            n = len(buffer)
            names, parents = buffer.name, buffer.parent
            cpu = [buffer.cpu_end[i] - buffer.cpu_start[i] for i in range(n)]
            child_cpu = [0.0] * n
            for i in range(n):
                if parents[i] >= 0:
                    child_cpu[parents[i]] += cpu[i]
            # Replay the call tree in start order, keeping the open
            # ancestors of each span and how many of each name are open.
            open_count = [0] * len(self.names)
            chain: list[int] = []
            for i in range(n):
                while chain and chain[-1] != parents[i]:
                    open_count[names[chain.pop()]] -= 1
                nid = names[i]
                row = out[self.names[nid]]
                row["calls"] += 1
                if open_count[nid] == 0:
                    row["outermost"] += 1
                    row["cpu_s"] += cpu[i]
                    row["wall_s"] += buffer.wall_end[i] - buffer.wall_start[i]
                if nid in measurement and not any(open_count[m] for m in measurement):
                    out["measurement.outermost"]["calls"] += 1
                row["self_cpu_s"] += cpu[i] - child_cpu[i]
                open_count[nid] += 1
                chain.append(i)
        return out

    def write(self, path: str) -> None:
        """Save every span: one JSON header line, then each field's
        array as raw native-endian bytes, per thread buffer."""
        header = {
            "names": self.names,
            "fields": [list(f) for f in _FIELDS],
            "ctx_kinds": list(CTX_NAMES),
            "buffers": [len(buffer) for buffer in self._buffers],
            "clocks": {"cpu": "thread CPU seconds", "wall": "perf_counter seconds"},
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode("utf-8"))
            for buffer in self._buffers:
                for field, _code in _FIELDS:
                    getattr(buffer, field).tofile(handle)


def read_spans(path: str) -> tuple[dict, list[dict[str, array]]]:
    """Load a spans file written by :meth:`Tracer.write`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        buffers = []
        for count in header["buffers"]:
            fields = {}
            for field, code in header["fields"]:
                values = array(code)
                values.fromfile(handle, count)
                fields[field] = values
            buffers.append(fields)
    return header, buffers


def _ours(module) -> bool:
    name = getattr(module, "__name__", "") or ""
    if name.startswith("repro"):
        return True
    path = getattr(module, "__file__", None) or ""
    return path.startswith(_BENCH_DIR)


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def percentile(values: list[float], share: float) -> Optional[float]:
    """Nearest-rank percentile (``share`` in (0, 1]); None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]
