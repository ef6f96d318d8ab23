"""Layer calls as the benchmark sees them, with optional span recording.

Workloads call geoloop only through an ``Api``. Untraced, its attributes are
the library functions themselves. Traced, each named layer function is
wrapped so that every call records a span (name, start, end, parent span,
op id). The spans stay in memory and are written once, when the run ends.
Tracing stays outside the package: a layer's span covers one call into its
public function, and whatever that function calls internally is hidden
inside it.
"""

from __future__ import annotations

import time

from geoloop import core, gates, noise, phases, schedule_io, twoqubit

# Span name -> the public function it times.
LAYER_FUNCTIONS = {
    "core.schedule_unitary": core.schedule_unitary,
    "gates.single_loop_schedule": gates.single_loop_schedule,
    "gates.compare_gates": gates.compare_gates,
    "twoqubit.two_qubit_unitary": twoqubit.two_qubit_unitary,
    "twoqubit.controlled_u": twoqubit.controlled_u,
    "phases.geometric_phase": phases.geometric_phase,
    "phases.sample_path": phases.sample_path,
    "phases.solid_angle": phases.solid_angle,
    "noise.fidelity_sweep": noise.fidelity_sweep,
    "schedule_io.serialize_schedule": schedule_io.serialize_schedule,
    "schedule_io.parse_schedule": schedule_io.parse_schedule,
}


class Tracer:
    """In-memory span store. A span is (id, name, start, end, parent, op)."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._op = -1
        self._op_span = -1

    def begin_op(self, op_id: int) -> float:
        self._op = op_id
        self._op_span = len(self.spans)
        # Reserve the op span's slot so its id precedes its children's.
        self.spans.append((self._op_span, "op", 0.0, 0.0, -1, op_id))
        return time.perf_counter()

    def end_op(self, start: float) -> None:
        self.spans[self._op_span] = (
            self._op_span, "op", start, time.perf_counter(), -1, self._op
        )
        self._op = -1
        self._op_span = -1

    def wrap(self, name: str, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append(
                    (len(spans), name, t0, time.perf_counter(), self._op_span, self._op)
                )

        return traced

    def span(self, name: str, t0: float, t1: float) -> None:
        """Record a span timed by the caller (used for CLI subprocesses)."""
        self.spans.append((len(self.spans), name, t0, t1, self._op_span, self._op))

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(f"{sid}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")


class Api:
    """The layer functions a workload calls, traced or not.

    ``tracer`` is None for the untraced run; ``add``/``peak``/``span`` are
    then no-ops, so the untraced op path does no bookkeeping.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for name, fn in LAYER_FUNCTIONS.items():
            # 'phases.sample_path' becomes api.sample_path
            setattr(self, name.split(".", 1)[1], tracer.wrap(name, fn) if tracer else fn)

    def add(self, key: str, value: float) -> None:
        if self.tracer:
            self.tracer.add(key, value)

    def peak(self, key: str, value: float) -> None:
        if self.tracer:
            self.tracer.peak(key, value)

    def span(self, name: str, t0: float, t1: float) -> None:
        if self.tracer:
            self.tracer.span(name, t0, t1)
