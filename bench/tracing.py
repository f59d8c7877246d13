"""Outside-in layer tracing for the telegate benchmark.

Spans are recorded around the calls into each layer's public functions,
by rebinding the names that the calling modules look up at call time and
restoring them afterwards.  Nothing inside ``src/`` is changed.  Spans
are kept in memory and aggregated when the run ends.

A target that no longer exists (for example a function a refactor has
removed from the verifier) is reported as absent and counts 0 calls.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module that binds the name, attribute path in it, span name).  The span
# is named after the layer that defines the function, wherever it is bound.
TARGETS = (
    ("telegate.builder", "build_program", "builder.build_program"),
    ("telegate.builder", "apply_mutation", "builder.apply_mutation"),
    ("telegate.builder", "build_specification", "builder.build_specification"),
    ("telegate.verifier", "verify_program", "verifier.verify_program"),
    ("telegate.verifier", "probe_states", "verifier.probe_states"),
    ("telegate.verifier", "run_branches", "executor.run_branches"),
    ("telegate.verifier", "channel_choi", "executor.channel_choi"),
    ("telegate.verifier", "unitary_choi", "executor.unitary_choi"),
    ("telegate.verifier", "choi_distance", "executor.choi_distance"),
    ("telegate.verifier", "resource_census", "protocol.resource_census"),
    ("telegate.verifier", "EquivalenceReport.to_json", "verifier.to_json"),
    ("telegate.executor", "validate_locality", "protocol.validate_locality"),
    ("telegate.executor", "ChoiMatrix", "executor.ChoiMatrix"),
    ("telegate.executor", "branch_density", "executor.branch_density"),
    ("telegate.qsim", "apply_unitary", "qsim.apply_unitary"),
    ("telegate.qsim", "measure_z", "qsim.measure_z"),
    ("telegate.qsim", "controlled", "qsim.controlled"),
    ("telegate.qsim", "tensor", "qsim.tensor"),
    ("telegate.qsim", "fidelity", "qsim.fidelity"),
    ("telegate.gatelang", "parse", "gatelang.parse"),
    ("telegate.gatelang", "evaluate", "gatelang.evaluate"),
    ("telegate.cli", "main", "cli.main"),
    ("telegate.cli", "parse_program", "protocol.parse_program"),
    ("telegate.cli", "validate_locality", "protocol.validate_locality"),
    ("telegate.cli", "resource_census", "protocol.resource_census"),
    ("telegate.cli", "build_program", "builder.build_program"),
    ("telegate.cli", "apply_mutation", "builder.apply_mutation"),
    ("telegate.cli", "build_specification", "builder.build_specification"),
    ("telegate.cli", "verify_program", "verifier.verify_program"),
    ("telegate.cli", "run_branches", "executor.run_branches"),
    ("telegate.cli", "channel_choi", "executor.channel_choi"),
    ("telegate.cli", "fidelity", "qsim.fidelity"),
)


def _branch_count(result) -> dict:
    return {"branches": len(result)}


def _register_width(result) -> dict:
    return {"max_qubits": getattr(result, "n_qubits", 0)}


def _pruned_mass(result) -> dict:
    kept = sum(getattr(b, "probability", 0.0) for b in result)
    return {"pruned_mass": max(0.0, 1.0 - kept)}


# Counts read off a layer's return value, where the work happens.
OBSERVERS = {
    "executor.run_branches": _branch_count,
    "qsim.tensor": _register_width,
    "qsim.measure_z": _pruned_mass,
}
# How each observed count combines across calls.
MAXIMA = {"max_qubits", "pruned_mass"}


class Tracer:
    """Records spans ``(id, parent id, name, start, end)`` in memory.

    The spans of one op are folded into per-name totals when the op ends,
    so memory stays bounded however many ops a run makes.  Targets are
    resolved once, at construction, against the modules imported then.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.totals: dict[str, dict[str, float]] = {}
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._bindings = []
        self._stack: list[int] = [0]
        self._next_id = 1
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}:{path}")
                continue
            self._bindings.append((owner, attr, original, self._wrap(name, original)))

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, t0, t1))
            if observe is not None:
                for key, value in observe(result).items():
                    full = f"{name}.{key}"
                    old = counts.get(full, 0.0)
                    counts[full] = max(old, value) if key in MAXIMA else old + value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of one op, then restore
        them and fold the op's spans into the totals."""
        try:
            for owner, attr, _, traced in self._bindings:
                setattr(owner, attr, traced)
            yield self
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)
            self._fold()

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around calls it makes."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, t0, t1))

    def _fold(self) -> None:
        """Add calls, inclusive seconds and self seconds per span name."""
        child_time: dict[int, float] = {}
        for _, parent, _, t0, t1 in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        for span_id, _, name, t0, t1 in self.spans:
            agg = self.totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time.get(span_id, 0.0)
        self.spans.clear()
