"""Layer spans for the traced benchmark pass.

The tracer wraps the public entry points of each layer of the simulator
from the outside (class attributes and module functions are replaced by
timing wrappers; nothing in the package is edited).  Every wrapped call
is one span: layer, function, start, end, parent span and -- when the
call carries one -- the transaction id.  Spans nest on one stack, so a
span's *self time* is its duration minus the durations of its direct
children, and the self times of every span add up exactly (integer
nanoseconds) to the summed durations of the root spans.  Time inside
the traced region but outside every root span is ``unattributed``
(interpreter, stdlib and harness glue between calls).

The kernel's process-resume callback (``Process._resume``) is wrapped
too and charged to the layer that owns the resumed generator's code, so
site and protocol generator bodies are separated from kernel dispatch.
Anything running beneath a span of the ``checker`` layer is charged to
the checker bucket and kept out of the deterministic call counts.

Aggregates (calls, inclusive and self nanoseconds per function) are kept
in memory for every span; the first ``span_cap`` spans are also kept in
full and written out by :meth:`SpanTracer.write_spans` at the end.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable

LAYERS = ("sim", "db", "core", "analysis", "hybrid", "obs", "net",
          "checker", "experiments")
CHECKER = LAYERS.index("checker")

_clock = time.perf_counter_ns


def _txn_none(args: tuple) -> None:
    return None


def _txn_int(args: tuple) -> Any:
    """The transaction id passed as the first positional argument."""
    return args[1] if len(args) > 1 else None


def _txn_attr(args: tuple) -> Any:
    """The ``txn_id`` of the object passed as the first argument."""
    return getattr(args[1], "txn_id", None) if len(args) > 1 else None


TXN_GETTERS = {None: _txn_none, "int": _txn_int, "attr": _txn_attr}


class SpanTracer:
    """Span stack, per-function aggregates and the kept span records."""

    def __init__(self, package_dir: str, span_cap: int = 100_000):
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self.span_cap = span_cap
        #: Function table: index -> (layer index, qualified name).
        self.functions: list[tuple[int, str]] = []
        self._function_ids: dict[tuple[int, str], int] = {}
        #: Per function: calls and self ns (both outside checker work)
        #: and inclusive ns.
        self.calls: list[int] = []
        self.inclusive_ns: list[int] = []
        self.self_ns: list[int] = []
        #: Self ns per layer (checker bucket holds all checker work).
        self.layer_self_ns = [0] * len(LAYERS)
        self.root_ns = 0
        #: Wall time of the traced region (set by the caller).
        self.region_ns = 0
        self.spans: list[tuple] = []
        self.spans_total = 0
        self.zero_delay_steps = 0
        self.steps = 0
        # Stack frames: [child ns, span id, layer index].
        self._stack: list[list] = []
        self._checker_depth = 0
        self._code_functions: dict[Any, int] = {}
        self._installed: list[tuple[Any, str, Any]] = []

    # -- function table --------------------------------------------------

    def function_id(self, layer: str, name: str) -> int:
        key = (LAYERS.index(layer), name)
        index = self._function_ids.get(key)
        if index is None:
            index = len(self.functions)
            self._function_ids[key] = index
            self.functions.append(key)
            self.calls.append(0)
            self.inclusive_ns.append(0)
            self.self_ns.append(0)
        return index

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, layer: int) -> list:
        self.spans_total += 1
        frame = [0, self.spans_total, layer]
        if layer == CHECKER:
            self._checker_depth += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, function: int, start: int, end: int,
              txn: Any) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        own = duration - frame[0]
        layer = frame[2]
        if stack:
            parent = stack[-1]
            parent[0] += duration
            parent_id = parent[1]
        else:
            self.root_ns += duration
            parent_id = 0
        if self._checker_depth:
            self.layer_self_ns[CHECKER] += own
            if layer == CHECKER:
                self._checker_depth -= 1
                self.calls[function] += 1
                self.self_ns[function] += own
        else:
            self.layer_self_ns[layer] += own
            self.calls[function] += 1
            self.self_ns[function] += own
        self.inclusive_ns[function] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[1], parent_id, function, start, end,
                               txn))

    def wrap(self, original: Callable, layer: str, name: str,
             txn: str | None = None) -> Callable:
        """A span-recording wrapper around ``original``."""
        function = self.function_id(layer, name)
        layer_index = LAYERS.index(layer)
        get_txn = TXN_GETTERS[txn]
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(layer_index)
            start = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                exit_(frame, function, start, _clock(), get_txn(args))

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------

    def patch(self, owner: Any, attribute: str, layer: str,
              txn: str | None = None, name: str | None = None) -> None:
        """Replace ``owner.attribute`` with a span wrapper."""
        original = getattr(owner, attribute)
        label = name or f"{getattr(owner, '__name__', owner)}.{attribute}"
        self._installed.append((owner, attribute, owner.__dict__[attribute]
                                if attribute in vars(owner) else None))
        setattr(owner, attribute, self.wrap(original, layer, label, txn))

    def patch_function_everywhere(self, function: Callable, layer: str,
                                  modules: list) -> None:
        """Wrap a module-level function in every module that bound it."""
        wrapper = self.wrap(function, layer,
                            f"{function.__module__}.{function.__qualname__}")
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._installed.append((module, attribute, value))
                    setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse install order)."""
        for owner, attribute, original in reversed(self._installed):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._installed.clear()

    def classify_code(self, code) -> str:
        """The layer that owns a generator's code object."""
        path = os.path.realpath(code.co_filename)
        if not path.startswith(self.package_dir):
            return "experiments"
        module = path[len(self.package_dir):].replace(os.sep, "/")
        qualname = code.co_qualname
        if module.startswith("hybrid/checker"):
            return "checker"
        if module.startswith(("hybrid/standby", "sim/faults")):
            return "net"
        if module.startswith("sim/network"):
            return "net" if qualname.startswith("ReliableEndpoint") \
                else "sim"
        if module.startswith(("hybrid/telemetry", "hybrid/metrics",
                              "hybrid/system", "sim/spans", "obs/")):
            return "obs"
        for prefix in ("hybrid", "db", "sim", "core", "analysis",
                       "experiments"):
            if module.startswith(prefix + "/"):
                return prefix
        return "experiments"

    def patch_resume(self, process_class: type) -> None:
        """Charge each process resume to its generator's owning layer."""
        original = process_class._resume
        codes = self._code_functions
        enter, exit_ = self._enter, self._exit
        layers = self.functions

        def resume_function(code) -> int:
            function = self.function_id(
                self.classify_code(code), f"resume:{code.co_qualname}")
            codes[code] = function
            return function

        def traced_resume(process, event):
            code = process._generator.gi_code
            function = codes.get(code)
            if function is None:
                function = resume_function(code)
            frame = enter(layers[function][0])
            start = _clock()
            try:
                return original(process, event)
            finally:
                exit_(frame, function, start, _clock(), None)

        self._installed.append((process_class, "_resume", original))
        process_class._resume = traced_resume

    def patch_step(self, env_class: type) -> None:
        """Wrap the kernel's dispatch as the root span of each event and
        count events that did not advance the clock."""
        original = env_class.step
        function = self.function_id("sim", "Environment.step")
        layer = LAYERS.index("sim")
        enter, exit_ = self._enter, self._exit

        def traced_step(env):
            before = env._now
            frame = enter(layer)
            start = _clock()
            try:
                return original(env)
            finally:
                exit_(frame, function, start, _clock(), None)
                self.steps += 1
                if env._now == before:
                    self.zero_delay_steps += 1

        self._installed.append((env_class, "step", original))
        env_class.step = traced_step

    # -- rollback ----------------------------------------------------------

    def snapshot(self) -> tuple:
        """Aggregate state, for discarding an attempt with :meth:`restore`."""
        return (list(self.calls), list(self.inclusive_ns),
                list(self.self_ns), list(self.layer_self_ns), self.root_ns,
                len(self.spans), self.steps, self.zero_delay_steps)

    def restore(self, state: tuple) -> None:
        """Forget everything recorded since ``state`` was taken (the
        function table keeps any entries added meanwhile, at zero)."""
        (calls, inclusive, own, layers, self.root_ns, kept, self.steps,
         self.zero_delay_steps) = state
        grown = len(self.functions) - len(calls)
        self.calls = calls + [0] * grown
        self.inclusive_ns = inclusive + [0] * grown
        self.self_ns = own + [0] * grown
        self.layer_self_ns = layers
        del self.spans[kept:]

    # -- region and reporting ----------------------------------------------

    @property
    def unattributed_ns(self) -> int:
        return self.region_ns - self.root_ns

    def closure_error(self) -> str | None:
        """Self-test: layer self times plus ``unattributed`` must sum to
        the traced total, and no bucket may be negative."""
        layer_total = sum(self.layer_self_ns)
        if layer_total != self.root_ns:
            return (f"layer self times {layer_total} ns != root span "
                    f"total {self.root_ns} ns")
        if self._stack:
            return f"{len(self._stack)} spans left open"
        if self.unattributed_ns < 0:
            return f"negative unattributed time {self.unattributed_ns} ns"
        negative = [LAYERS[i] for i, ns in enumerate(self.layer_self_ns)
                    if ns < 0]
        if negative:
            return f"negative self time in {negative}"
        return None

    def count(self, layer: str, name: str) -> int:
        index = self._function_ids.get((LAYERS.index(layer), name))
        return 0 if index is None else self.calls[index]

    def count_prefix(self, layer: str, prefix: str = "") -> int:
        layer_index = LAYERS.index(layer)
        return sum(self.calls[i] for i, (lay, name)
                   in enumerate(self.functions)
                   if lay == layer_index and name.startswith(prefix)
                   and not name.startswith("resume:"))

    def mean_inclusive_us(self, layer: str, name: str) -> float:
        index = self._function_ids.get((LAYERS.index(layer), name))
        if index is None or not self.calls[index]:
            return 0.0
        return self.inclusive_ns[index] / self.calls[index] / 1e3

    def top_functions(self, per_layer: int = 3) -> dict[str, list]:
        """The functions with the most self time, per layer."""
        ranked: dict[str, list] = {}
        for index, (layer, name) in enumerate(self.functions):
            if self.calls[index]:
                ranked.setdefault(LAYERS[layer], []).append(
                    (self.self_ns[index], name, self.calls[index]))
        return {layer: sorted(rows, reverse=True)[:per_layer]
                for layer, rows in ranked.items()}

    def write_spans(self, path: str) -> None:
        """Write the kept spans (one JSON array per line) and a header."""
        names = [(LAYERS[layer], name) for layer, name in self.functions]
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "fields": ["id", "parent", "layer", "function",
                           "start_ns", "end_ns", "txn"],
                "spans_total": self.spans_total,
                "spans_kept": len(self.spans)}) + "\n")
            for span_id, parent, function, start, end, txn in self.spans:
                layer, name = names[function]
                out.write(json.dumps([span_id, parent, layer, name, start,
                                      end, txn]) + "\n")


def install_default_spans(tracer: SpanTracer) -> None:
    """Wrap the entry points of every layer (see the module docstring)."""
    from repro.analysis import fixedpoint, mm1, residual
    from repro.core import model, static
    from repro.core.estimators import StateEstimator
    from repro.core.router import Router
    from repro.db.locks import LockManager
    from repro.db.workload import TransactionFactory
    from repro.experiments import parallel
    from repro.hybrid.central import CentralSite
    from repro.hybrid.checker import InvariantChecker
    from repro.hybrid.local import LocalSite
    from repro.hybrid.metrics import MetricsCollector
    from repro.hybrid.system import HybridSystem
    from repro.sim import engine
    from repro.sim.network import Link, ReliableEndpoint
    from repro.sim.resources import Resource
    from repro.sim.spans import SpanRecorder

    # Kernel.
    tracer.patch_step(engine.Environment)
    tracer.patch_resume(engine.Process)
    for attribute in ("run", "timeout", "event", "process"):
        tracer.patch(engine.Environment, attribute, "sim")
    tracer.patch(Resource, "request", "sim")
    tracer.patch(Resource, "release", "sim")
    tracer.patch(Link, "send", "sim")
    # Lock manager and workload.
    for attribute, txn in (("acquire", "int"), ("release", "int"),
                           ("release_all", "int"),
                           ("cancel_waits", "int"),
                           ("force_grant", "int"),
                           ("total_locks_held", None),
                           ("waiting_requests", None),
                           ("entities_locked_by", "int"),
                           ("check_authentication", None)):
        tracer.patch(LockManager, attribute, "db", txn=txn)
    tracer.patch(TransactionFactory, "make_transaction", "db")
    # Routing: every concrete router's decide, and the estimators.
    pending, seen = [Router], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "decide" in vars(cls) and \
                not getattr(vars(cls)["decide"], "__isabstractmethod__",
                            False):
            tracer.patch(cls, "decide", "core", txn="attr",
                         name=f"{cls.__name__}.decide")
    for attribute in ("estimate", "estimate_both", "estimate_cases",
                      "contention"):
        tracer.patch(StateEstimator, attribute, "core")
    # Analytic model: repro.analysis functions (wherever imported), the
    # model's evaluation methods and the static-optimal solve.
    modules = [module for name, module in list(sys.modules.items())
               if name.startswith("repro.") and module is not None]
    for module in (mm1, residual, fixedpoint):
        for value in list(vars(module).values()):
            if callable(value) and getattr(value, "__module__", None) \
                    == module.__name__ and not isinstance(value, type):
                tracer.patch_function_everywhere(value, "analysis",
                                                 modules)
    for attribute in ("auth_window", "local_locked_phase",
                      "central_locked_phase", "response_local",
                      "response_central", "response_average", "evaluate"):
        tracer.patch(model.AnalyticModel, attribute, "analysis")
    tracer.patch_function_everywhere(static.optimize_static, "analysis",
                                     modules)
    # Sites and protocols.
    tracer.patch(LocalSite, "submit", "hybrid", txn="attr")
    tracer.patch(CentralSite, "admit", "hybrid", txn="attr")
    tracer.patch(CentralSite, "snapshot", "hybrid")
    tracer.patch(HybridSystem, "__init__", "hybrid",
                 name="HybridSystem.__init__")
    # Observers.
    for attribute in sorted(vars(MetricsCollector)):
        if attribute.startswith("record_") or attribute == "freeze":
            tracer.patch(MetricsCollector, attribute, "obs", txn="attr")
    tracer.patch(SpanRecorder, "enter", "obs")
    tracer.patch(SpanRecorder, "exit", "obs")
    # Network and faults.
    tracer.patch(ReliableEndpoint, "send", "net")
    tracer.patch(ReliableEndpoint, "pump", "net")
    # Checker and harness.
    tracer.patch(InvariantChecker, "audit", "checker")
    tracer.patch(parallel, "execute_job", "experiments",
                 name="parallel.execute_job")
