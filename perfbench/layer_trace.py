"""Per-layer spans and call counts, installed into ``repro`` by monkeypatching.

A *layer* is a ``repro`` package (``repro.net`` is layer ``net``).  While a
:class:`LayerTracer` is installed, every public function and every public
method of every class defined in a layer's modules (and ``DSMRuntime``'s
constructor) is replaced by a wrapper that counts the call and records a
span: name, start, end, parent span and run id (one run per ``DSMRuntime``
built).  Nothing in ``src/`` changes, and
nothing is wrapped outside the traced pass.

Generator functions (``ProcessAPI.put``, ``NIC.rdma_put``,
``ClockTransport.round_trip`` ...) do their work when the simulator resumes
them, not when they are called, so their wrapper is itself a generator that
records one span per resume.  Functions imported by name into other modules
(the ``require_*`` validators) are rebound in every loaded ``repro`` module.

A span's self time is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans.  Spans nest on one
thread, so the layers' self times sum to at most the traced wall time.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

#: The layers reported, in the order of the benchmark's per-layer table.
LAYERS = (
    "sim", "net", "verbs", "core", "memory", "runtime",
    "explore", "detectors", "obs", "trace", "util",
)

#: Building a runtime starts a new run: its spans get the next run id.
RUN_ENTRY_POINT = "runtime.runtime.DSMRuntime.__init__"

#: Named call counters: counter -> the wrapped functions whose calls it sums.
CALL_COUNTERS = {
    "net.send.calls": ("net.fabric.Fabric.send", "net.fabric.Fabric.send_datagram"),
    "net.nic_op.calls": tuple(
        f"net.nic.NIC.{op}" for op in (
            "rdma_put", "rdma_get", "fetch_add", "compare_and_swap",
            "send_payload", "send_notification", "local_write", "local_read",
        )
    ),
    "net.codec.calls": (
        "net.clock_transport.ClockWireEncoder.encode",
        "net.clock_transport.ClockWireDecoder.decode",
    ),
    "verbs.post.calls": (
        "verbs.queue_pair.QueuePair.post",
        "verbs.context.VerbsContext.post_recv",
        "verbs.context.VerbsContext.post_srq_recv",
    ),
    "verbs.completion.calls": (
        "verbs.completion_queue.CompletionQueue.push",
        "verbs.completion_queue.CompletionQueue.push_batch",
    ),
    "core.check.calls": tuple(
        f"core.detector.DualClockRaceDetector.{op}"
        for op in ("on_read", "on_write", "on_rmw")
    ),
    "core.join.calls": (
        "core.clocks.VectorClock.merge_in_place",
        "core.clocks.VectorClock.merged",
        "core.clocks.MatrixClock.observe_vector",
    ),
    "memory.access.calls": (
        "memory.public.PublicMemory.read",
        "memory.public.PublicMemory.write",
    ),
    "memory.lock.calls": ("memory.locks.MemoryLockTable.acquire",),
    "explore.schedule.calls": ("explore.runner.run_schedule",),
    "detectors.detect.calls": (
        "detectors.single_clock.SingleClockDetector.detect",
        "detectors.lockset.LocksetDetector.detect",
    ),
    "trace.record.calls": tuple(
        f"trace.recorder.TraceRecorder.record_{kind}"
        for kind in ("access", "sync", "transfer", "operation")
    ),
    "util.validate.calls": tuple(
        f"util.validation.{name}" for name in (
            "require", "require_type", "require_non_negative", "require_positive",
            "require_in_range", "require_rank", "require_unique",
        )
    ),
}


def load_all_modules() -> None:
    """Import every ``repro`` module (CLI ``__main__`` modules excepted).

    Wrapping happens once, at install time, so every module must already be
    loaded: a class defined by a module imported later would go unwrapped.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def layer_of_module(module_name: str) -> Optional[str]:
    """``"net"`` for ``"repro.net.nic"``; ``None`` outside the reported layers."""
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def _public(name: str) -> bool:
    return not name.startswith("_")


class LayerTracer:
    """Records spans and call counts at every layer entry point while installed."""

    def __init__(self) -> None:
        #: Span-name table; a span stores the index of its name.
        self.names: List[str] = []
        self._name_layer: List[int] = []
        self.calls: List[int] = []
        # One entry per span, in start order.
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("I")
        self.run_id = 0
        self._stack = [-1]
        self._patches: List[tuple] = []
        #: Hooks called with (args, kwargs, result) after a wrapped call returns.
        self._after: Dict[str, Callable] = {}

    # -- recording -----------------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self._name_layer.append(LAYERS.index(layer))
        self.calls.append(0)
        return len(self.names) - 1

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap_function(self, fn: Callable, name: str, layer: str) -> Callable:
        name_id = self._register(name, layer)
        calls = self.calls
        open_span, close_span = self._open, self._close
        after = self._after.get(name)
        starts_run = name == RUN_ENTRY_POINT
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                calls[name_id] += 1
                inner = fn(*args, **kwargs)
                send_value, error = None, None
                while True:
                    span = open_span(name_id)
                    try:
                        if error is None:
                            yielded = inner.send(send_value)
                        else:
                            yielded = inner.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        close_span(span)
                    try:
                        send_value, error = (yield yielded), None
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as thrown:  # forwarded into the generator
                        send_value, error = None, thrown

            wrapper = traced_generator
        else:
            def traced(*args, **kwargs):
                calls[name_id] += 1
                if starts_run:
                    tracer.run_id += 1
                span = open_span(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(span)
                if after is not None:
                    after(args, kwargs, result)
                return result

            wrapper = traced
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------------------

    def after(self, name: str, hook: Callable) -> None:
        """Call *hook(args, kwargs, result)* after each call of entry point *name*.

        Register hooks before :meth:`install`.
        """
        self._after[name] = hook

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer entry point; rebind imported names in all modules."""
        load_all_modules()
        replaced: Dict[int, Callable] = {}
        for module_name, module in sorted(sys.modules.items()):
            layer = layer_of_module(module_name)
            if layer is None or module is None:
                continue
            short = module_name[len("repro."):]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module_name:
                    continue
                if inspect.isfunction(obj) and _public(attr):
                    wrapper = self._wrap_function(obj, f"{short}.{attr}", layer)
                    replaced[id(obj)] = wrapper
                    self._patch(module, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._wrap_class(obj, f"{short}.{obj.__qualname__}", layer)
        # Names imported into other modules (``from ... import require_rank``).
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._patch(module, attr, replaced[id(obj)])

    def _wrap_class(self, cls: type, prefix: str, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if not (_public(attr) or name == RUN_ENTRY_POINT):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap_function(obj, name, layer))
            elif isinstance(obj, (staticmethod, classmethod)) and inspect.isfunction(obj.__func__):
                wrapped = self._wrap_function(obj.__func__, name, layer)
                self._patch(cls, attr, type(obj)(wrapped))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer: span durations minus their direct children's."""
        names = np.frombuffer(self.span_name, dtype=np.uint32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        durations = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        layer_of_span = np.asarray(self._name_layer, dtype=np.int64)[names]
        per_layer = np.bincount(
            layer_of_span, weights=durations - child, minlength=len(LAYERS)
        )
        return {layer: float(per_layer[i]) for i, layer in enumerate(LAYERS)}

    def inclusive_seconds(self, name: str) -> float:
        """Summed duration of the spans of entry point *name*."""
        name_id = self.names.index(name)
        names = np.frombuffer(self.span_name, dtype=np.uint32)
        durations = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        return float(durations[names == name_id].sum())

    def call_counts(self) -> Dict[str, int]:
        """Every named counter of :data:`CALL_COUNTERS`.

        A member that is no wrapped entry point (renamed, removed or made
        private) raises instead of counting 0.
        """
        by_name = dict(zip(self.names, self.calls))
        missing = [
            name for members in CALL_COUNTERS.values() for name in members
            if name not in by_name
        ]
        if missing:
            raise LookupError(f"call counters name unknown entry points: {missing}")
        return {
            counter: sum(by_name[name] for name in members)
            for counter, members in CALL_COUNTERS.items()
        }

    def write(self, path: Path) -> None:
        """Write every span and the name table to *path* (compressed ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            run=np.frombuffer(self.span_run, dtype=np.uint32),
        )
