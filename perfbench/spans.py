"""Layer spans recorded from outside the library.

The benchmark does not change ``src/``: for a traced run it replaces the
public entry point of each layer with a wrapper that records a span (layer,
start, end, parent span, operation id) and restores the originals afterwards.
A layer's self time is its spans' duration minus the time covered by their
child spans, so the self times of all layers add up to the time spent inside
top-level spans.

Every target is resolved by name when the wrappers are installed, so a layer
renamed in ``src/`` fails loudly here instead of silently reading zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Any, Callable

#: ``(layer, module, class or None, attribute)``; a class named with a ``+``
#: suffix includes all of its subclasses.
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("dynamic_mpc.apply", "repro.dynamic_mpc.base", "DynamicMPCAlgorithm", "apply"),
    ("dynamic_mpc.apply_batch", "repro.dynamic_mpc.base", "DynamicMPCAlgorithm", "apply_batch"),
    ("dynamic_mpc.connectivity.link", "repro.dynamic_mpc.connectivity", "_ShardTourStore", "apply_link_locally"),
    ("dynamic_mpc.connectivity.cut", "repro.dynamic_mpc.connectivity", "_ShardTourStore", "apply_cut_locally"),
    ("dynamic_mpc.connectivity.replacement", "repro.dynamic_mpc.connectivity", "_ShardTourStore", "replacement_offers"),
    ("dynamic_mpc.connectivity.query", "repro.dynamic_mpc.connectivity", "DMPCConnectivity", "connected"),
    ("mpc.cluster.exchange", "repro.mpc.cluster", "Cluster", "exchange"),
    ("mpc.cluster.superstep_block", "repro.mpc.cluster", "Cluster", "superstep_block"),
    ("mpc.metrics.record_round", "repro.mpc.metrics", "MetricsLedger", "record_round"),
    ("mpc.machine.send", "repro.mpc.machine", "Machine", "send"),
    ("mpc.machine.load", "repro.mpc.machine", "Machine", "load"),
    ("mpc.machine.store", "repro.mpc.machine", "Machine", "store"),
    # The fast backend's storage calls the sizer through its own module global.
    ("mpc.sizing.fast_word_size", "repro.runtime.fast", None, "fast_word_size"),
    ("mpc.program.run", "repro.mpc.program", "SuperstepProgram+", "run"),
    ("mpc.program.apply", "repro.mpc.program", "SuperstepProgram+", "apply"),
    ("static_mpc.run", "repro.static_mpc.connected_components", "StaticConnectedComponents", "run"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


def _count_offer(rec: "Recorder", args: tuple, result: Any) -> None:
    if result:
        rec.counters["replacement_hits"] += 1


def _count_words(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.counters["send_words"] += result.words


#: per-layer observers turning a call's arguments and result into counters
OBSERVERS: dict[str, Callable[["Recorder", tuple, Any], None]] = {
    "dynamic_mpc.connectivity.replacement": _count_offer,
    "mpc.machine.send": _count_words,
}


class Recorder:
    """Aggregates spans per layer and keeps the first ``max_spans`` of them.

    Spans are only recorded while :attr:`paused` is false; the benchmark
    unpauses the recorder around each timed operation, so setup and oracle
    checks never reach the layer totals.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        #: time covered by spans opened with no enclosing span
        self.top_s = 0.0
        self.counters = {"replacement_hits": 0, "send_words": 0}
        #: ``(span id, layer index, start, end, parent span id or -1, op id)``
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self.max_spans = max_spans
        self.paused = True
        #: id of the operation (update, batch or recompute) being timed
        self.op = 0
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, layer: str, fn: Callable) -> Callable:
        index = LAYERS.index(layer)
        observe = OBSERVERS.get(layer)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[index] += 1
                self.self_s[index] += duration - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent_id = parent[1]
                else:
                    self.top_s += duration
                    parent_id = -1
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, index, start, end, parent_id, self.op))
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper


def _resolve(module_name: str, class_name: str | None, attr: str) -> list[tuple[Any, str]]:
    """The ``(owner, attribute)`` pairs one target names; raises if any is missing."""
    module = importlib.import_module(module_name)
    if class_name is None:
        getattr(module, attr)
        return [(module, attr)]
    with_subclasses = class_name.endswith("+")
    cls = getattr(module, class_name.rstrip("+"))
    classes = [cls]
    if with_subclasses:
        pending = [cls]
        while pending:
            for sub in pending.pop().__subclasses__():
                if sub not in classes:
                    classes.append(sub)
                    pending.append(sub)
    owners = [
        (owner, attr)
        for owner in classes
        if inspect.isfunction(vars(owner).get(attr)) and not getattr(vars(owner)[attr], "__isabstractmethod__", False)
    ]
    if not owners:
        raise AttributeError(f"{module_name}.{class_name} defines no traceable {attr!r}")
    return owners


class Instrumented:
    """Context manager installing a recorder's wrappers on every layer target."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._originals: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Recorder:
        try:
            for layer, module_name, class_name, attr in TARGETS:
                for owner, name in _resolve(module_name, class_name, attr):
                    original = vars(owner)[name]
                    self._originals.append((owner, name, original))
                    setattr(owner, name, self.recorder.wrap(layer, original))
        except BaseException:
            self._restore()
            raise
        return self.recorder

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

