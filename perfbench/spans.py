"""Layer spans recorded from outside the ``kraussim`` package.

A :class:`Tracer` wraps each layer's public functions at every name the
sweep can resolve them by: it scans all loaded ``kraussim`` modules for
attributes bound to the original function and rebinds them to a wrapper
that records a span.  This reaches ``cli``'s by-name imports and
``qsp.verify_preparation``'s late ``from .simulator import run`` alike,
and it keeps working when a call site moves to another module of the
package.  Nothing under ``src/`` is edited.

Spans are ``(name, start_ns, end_ns, parent, sweep)`` tuples kept in
memory; ``parent`` is the index of the enclosing span (-1 for none).
A layer's self time is its spans' durations minus the time covered by
their direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, NamedTuple

import kraussim.numerics as numerics

# Counters read a wrapped call's positional arguments and result.
CountFn = Callable[[tuple, object], dict[str, int]]


def _run_counts(args: tuple, _result) -> dict[str, int]:
    circuit = args[0]
    gates = len(circuit.gates)
    return {
        "simulator.run_calls": 1,
        "simulator.gates_applied": gates,
        "simulator.amp_updates": gates * 2**circuit.qubit_count,
    }


def _lower_counts(_args: tuple, circuit) -> dict[str, int]:
    return {
        "qsp.lowered_gates": len(circuit.gates),
        "qsp.lowered_cx": sum(1 for g in circuit.gates if g.kind == "x" and g.controls),
    }


def _dilate_counts(_args: tuple, dilated) -> dict[str, int]:
    return {"dilation.qubits": dilated.embedding.total_qubits}


# (layer, home module, attribute, counter).  The layer names the span.
TARGETS: tuple[tuple[str, str, str, CountFn | None], ...] = (
    ("channels.oracle", "kraussim.channels", "apply_channel", None),
    ("dilation.dilate", "kraussim.dilation", "dilate_pure", _dilate_counts),
    ("dilation.dilate", "kraussim.dilation", "mixed_method_purify_evolved", _dilate_counts),
    ("dilation.dilate", "kraussim.dilation", "mixed_method_double_purification", _dilate_counts),
    ("dilation.dilate", "kraussim.dilation", "spectral_input", None),
    ("dilation.embed", "kraussim.dilation", "embed_qudits", None),
    ("qsp.synthesize", "kraussim.qsp", "synthesize",
     lambda _a, c: {"qsp.synth_gates": len(c.gates)}),
    ("qsp.lower", "kraussim.qsp", "lower", _lower_counts),
    ("qsp.verify", "kraussim.qsp", "verify_preparation", None),
    ("simulator.run", "kraussim.simulator", "run", _run_counts),
    ("simulator.sample", "kraussim.simulator", "sample",
     lambda _a, counts: {"simulator.shots": counts.shots}),
    ("simulator.readout_noise", "kraussim.simulator", "apply_readout_noise", None),
    ("simulator.mitigate", "kraussim.simulator", "mitigate", None),
    ("tomography.settings", "kraussim.tomography", "settings_for",
     lambda _a, plan: {"tomography.settings": len(plan.settings)}),
    ("tomography.expectations", "kraussim.tomography", "expectations", None),
    ("tomography.reconstruct", "kraussim.tomography", "reconstruct", None),
    ("tomography.extract", "kraussim.tomography", "extract_embedded", None),
    ("numerics.partial_trace", "kraussim.numerics", "partial_trace", None),
    ("numerics.trace_distance", "kraussim.numerics", "trace_distance", None),
)

# Methods patched on the class itself: every construction of a
# DensityMatrix runs its validation, wherever the constructor is called.
METHOD_TARGETS = (
    ("numerics.density", numerics.DensityMatrix, "__post_init__"),
    ("numerics.density", numerics.PureState, "to_density"),
)

# Layers that record calls and counts but no span: their time is too
# small to report and stays with the caller.
UNTIMED = {"tomography.settings"}

ROOT_LAYER = "cli"

LAYERS = tuple(dict.fromkeys(
    [ROOT_LAYER]
    + [layer for layer, *_ in TARGETS if layer not in UNTIMED]
    + [layer for layer, *_ in METHOD_TARGETS]
))

# Every count a counter can emit, with the layer that emits it, so that a
# count never hit reads 0 and one of an unmeasured layer is reported so.
COUNTS = {
    "simulator.shots": "simulator.sample",
    "simulator.run_calls": "simulator.run",
    "simulator.gates_applied": "simulator.run",
    "simulator.amp_updates": "simulator.run",
    "qsp.synth_gates": "qsp.synthesize",
    "qsp.lowered_gates": "qsp.lower",
    "qsp.lowered_cx": "qsp.lower",
    "tomography.settings": "tomography.settings",
    "dilation.qubits": "dilation.dilate",
}


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int
    sweep: int


class Tracer:
    """Collects spans, call counts per layer and work counts per sweep."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.calls: Counter = Counter()
        self.counts: dict[int, Counter] = {}
        self.sweep = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, time.perf_counter_ns()

    def _close(self, name: str, index: int, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = Span(name, start, end, parent, self.sweep)

    def wrap(self, layer: str, fn: Callable, counter: CountFn | None) -> Callable:
        tracer = self
        timed = layer not in UNTIMED

        def traced(*args, **kwargs):
            if not timed:
                result = fn(*args, **kwargs)
            else:
                index, start = tracer._open()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(layer, index, start)
            tracer.calls[layer] += 1
            if counter is not None:
                tracer.counts[tracer.sweep].update(counter(args, result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every wrapped name in the loaded ``kraussim`` modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "kraussim" or name.startswith("kraussim.")]
        for layer, home, attr, counter in TARGETS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue  # renamed or removed: coverage reports it unmeasured
            wrapper = self.wrap(layer, original, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        for layer, cls, attr in METHOD_TARGETS:
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self.wrap(layer, original, None))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def run_sweep(self, sweep: int, fn: Callable):
        """Call ``fn`` traced, under a root span tagged with ``sweep``."""
        self.sweep = sweep
        self.counts[sweep] = Counter()
        try:
            self.install()
            index, start = self._open()
            try:
                return fn()
            finally:
                self._close(ROOT_LAYER, index, start)
        finally:
            self.uninstall()

    def self_times(self, sweep: int) -> dict[str, float]:
        """Seconds of self time per layer in one sweep; root self is ``cli``."""
        out = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            if span is None or span.sweep != sweep:
                continue
            duration = span.end_ns - span.start_ns
            out[span.name] += duration
            if span.parent >= 0:
                out[self.spans[span.parent].name] -= duration
        return {name: ns / 1e9 for name, ns in out.items()}

    def root_seconds(self, sweep: int) -> float:
        for span in self.spans:
            if span is not None and span.sweep == sweep and span.parent < 0:
                return (span.end_ns - span.start_ns) / 1e9
        raise KeyError(sweep)

    def work_counts(self, sweep: int) -> dict[str, int]:
        return {name: int(self.counts[sweep][name]) for name in COUNTS}

    def unmeasured(self, expected: set[str]) -> list[str]:
        """Expected layers that recorded no call in any sweep."""
        return sorted(layer for layer in expected if self.calls[layer] == 0)
