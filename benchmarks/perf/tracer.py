"""Layer tracer of the performance benchmark, installed from outside ``src/``.

The benchmark measures where campaign time goes without changing the
program: :meth:`Tracer.install` replaces the public entry points of each
layer (:data:`LAYERS`) with wrappers that time every call on a stack, and
:meth:`Tracer.uninstall` puts the original functions back.  A layer's
*self* time is its spans' duration minus the part covered by wrapped
calls made from inside them, so the self times of all layers add up to
the traced wall time less whatever ran outside every wrapped call.

The wrappers cost about a microsecond per call.  That cost lands in the
self time of the calling layer, which is why end-to-end numbers come from
an untraced run and the traced run only splits the time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

#: ``(layer, "module:qualified.name")`` of every wrapped entry point.  A
#: layer may own several entry points; its self time sums over them.
LAYERS = (
    ("simulator.self", "repro.anafault.simulator:FaultSimulator.run"),
    ("simulator.self", "repro.anafault.simulator:FaultSimulator.simulate_fault"),
    ("simulator.nominal", "repro.anafault.simulator:FaultSimulator.run_nominal"),
    ("lint.preflight", "repro.lint.engine:preflight_campaign"),
    ("injection.inject", "repro.anafault.injection:FaultInjector.inject"),
    ("executors.self", "repro.anafault.executors:SerialExecutor.execute"),
    ("executors.self", "repro.anafault.executors:BatchedExecutor.execute"),
    ("executors.self", "repro.anafault.executors:BatchedExecutor._execute_batch"),
    ("batched.self", "repro.spice.analysis.batched:BatchedTransient.begin"),
    ("batched.self", "repro.spice.analysis.batched:BatchedTransient.run"),
    ("checkpoint.append", "repro.anafault.checkpoint:CampaignCheckpoint.append"),
    ("comparator.compare", "repro.anafault.comparator:WaveformComparator.compare_many"),
    ("comparator.compare", "repro.anafault.comparator:StreamingDetector.feed"),
    ("comparator.compare", "repro.anafault.comparator:StreamingDetector.result"),
    ("transient.start", "repro.spice.analysis.transient:TransientRun.__init__"),
    ("transient.driver", "repro.spice.analysis.transient:TransientRun.advance"),
    ("transient.finish", "repro.spice.analysis.transient:TransientRun.finish"),
    ("newton.self", "repro.spice.analysis.newton:solve_newton"),
    ("mna.assemble", "repro.spice.analysis.mna:MNABuilder.assemble_constant"),
    ("mna.iteration", "repro.spice.analysis.mna:MNABuilder.build_iteration"),
    ("mna.accept", "repro.spice.analysis.mna:MNABuilder.accept_timestep"),
    ("devices.mosfet_history", "repro.spice.analysis.mna:MNABuilder.begin_iterations"),
    ("devices.mosfet_history", "repro.spice.analysis.mna:MNABuilder.end_iterations"),
    ("devices.mosfet_eval", "repro.spice.devices.mosfet:MosfetBank.stamp_iteration"),
    ("devices.companion", "repro.spice.devices.base:CompanionCapacitorBank.stamp_tran"),
    ("backends.solve", "repro.spice.analysis.backends:MNASystem.solve"),
    ("backends.solve", "repro.spice.analysis.backends:SparseMNASystem.solve"),
    ("backends.factor", "repro.spice.analysis.backends:MNASystem.freeze_solver"),
    ("backends.factor", "repro.spice.analysis.backends:SparseMNASystem.freeze_solver"),
    ("lift.extract", "repro.cat.flow:CATFlow.extract_faults"),
)


class Tracer:
    """Stack-based self-time accounting over wrapped entry points.

    ``clock`` is injectable so tests can drive the accounting with a fake
    clock.  Spans (``(qualname, layer, start, duration, depth, op)``) are
    kept for the first ``record_ops`` operations; an operation starts each
    time the entry point named ``op_boundary`` is entered.
    """

    def __init__(self, clock=time.perf_counter, record_ops: int = 0,
                 op_boundary: str | None = None):
        self.clock = clock
        self.record_ops = record_ops
        self.op_boundary = op_boundary
        #: Layer -> seconds spent in the layer's own code.
        self.self_seconds: dict[str, float] = {}
        #: Layer -> seconds from entry to exit, children included (nested
        #: calls of one layer count once per level).
        self.total_seconds: dict[str, float] = {}
        #: Entry-point qualname -> completed calls (raising calls included).
        self.calls: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.op = -1
        self._children: list[float] = []
        self._patched: list[tuple] = []

    def wrap(self, layer: str, qualname: str, function):
        """Return ``function`` timed as one entry point of ``layer``."""
        clock = self.clock
        children = self._children
        self_seconds = self.self_seconds
        total_seconds = self.total_seconds
        calls = self.calls
        boundary = qualname == self.op_boundary

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if boundary:
                self.op += 1
            children.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                self_seconds[layer] = self_seconds.get(layer, 0.0) + elapsed - inner
                total_seconds[layer] = total_seconds.get(layer, 0.0) + elapsed
                calls[qualname] = calls.get(qualname, 0) + 1
                if children:
                    children[-1] += elapsed
                if 0 <= self.op < self.record_ops:
                    self.spans.append((qualname, layer, start, elapsed,
                                       len(children), self.op))

        return traced

    # ------------------------------------------------------------------
    def install(self, layers=LAYERS) -> None:
        """Wrap every entry point of ``layers`` in place.

        A class attribute is replaced on its class.  A module-level
        function is replaced in every loaded ``repro`` module that binds
        it, so callers that imported it by name see the wrapper too.
        """
        if self._patched:
            raise RuntimeError("tracer is already installed")
        try:
            for layer, spec in layers:
                module_name, _, qualname = spec.partition(":")
                module = importlib.import_module(module_name)
                owner_name, _, attribute = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = vars(owner).get(attribute)
                    _require_function(spec, original)
                    wrapped = self.wrap(layer, qualname, original)
                    self._patch(owner, attribute, original, wrapped)
                else:
                    original = vars(module).get(attribute)
                    _require_function(spec, original)
                    wrapped = self.wrap(layer, qualname, original)
                    for bound_module, name in _bindings(original):
                        self._patch(bound_module, name, original, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self, layers=LAYERS):
        """``with tracer.installed(): ...`` — wrap for the block only."""
        self.install(layers)
        try:
            yield self
        finally:
            self.uninstall()

    def patched(self) -> list[tuple]:
        """``(owner, attribute, original)`` of every replaced attribute."""
        return list(self._patched)

    def _patch(self, owner, name: str, original, wrapped) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapped)

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """Recorded spans as a Chrome trace-event document (open it in
        ``chrome://tracing`` or Perfetto); ``args.op`` is the operation."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [{"name": qualname, "cat": layer, "ph": "X", "pid": 1,
                   "tid": 1, "ts": (start - origin) * 1e6,
                   "dur": duration * 1e6, "args": {"op": op, "depth": depth}}
                  for qualname, layer, start, duration, depth, op
                  in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _require_function(spec: str, value) -> None:
    if not inspect.isfunction(value):
        raise LookupError(
            f"trace target {spec} is not a plain function in the program; "
            "update benchmarks/perf/tracer.py LAYERS to match the code")


def _bindings(function) -> list[tuple]:
    """``(module, name)`` of every ``repro`` module attribute bound to
    ``function``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is function:
                found.append((module, name))
    return found
