"""Per-layer spans recorded from outside the program.

:class:`SpanTracer` wraps the public entry points of each layer with
timing shims installed on the classes (and, for ``recover_positions``,
on every module that imported the function).  Nothing under ``src/``
changes: the wrappers sit in this file, and :meth:`SpanTracer.remove`
puts the originals back.

A span is one call of a wrapped function, or -- for generator functions
such as ``TransactionManager.run`` -- one resume of the generator it
returned, so simulated waiting is never counted as host time.  Spans
nest on one stack (the simulator is single-threaded and every resume
happens inside ``Simulator.step``), and a span's *self* time is its
duration minus the durations of the spans directly inside it.

The wrappers read ``time.perf_counter`` only: they never touch virtual
time or a random stream, so a traced pass releases the same packets at
the same virtual instants as an untraced one (the benchmark checks this
through the outcome digest).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, class.attribute) of each wrapped entry point.  A
#: span name starts with its layer: the module under ``repro`` that owns
#: the function.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.step", "repro.sim.engine", "Simulator.step"),
    ("net.nic_receive", "repro.net.nic", "NIC.receive"),
    ("net.link_send", "repro.net.link", "Link.send"),
    ("net.channel_send", "repro.net.channel", "ReliableChannel.send"),
    ("stm.run", "repro.stm.transaction", "TransactionManager.run"),
    ("stm.partition_of", "repro.stm.partition", "PartitionSpace.partition_of"),
    ("core.runtime", "repro.core.runtime", "MiddleboxRuntime.process"),
    ("core.forwarder_attach", "repro.core.forwarder", "Forwarder.attach"),
    ("core.depvec_offer", "repro.core.depvec", "ReplicationState.offer"),
    ("core.commit_vector", "repro.core.depvec",
     "ReplicationState.commit_vector"),
    ("core.absorb_commit", "repro.core.depvec",
     "ReplicationState.absorb_commit"),
    ("core.byte_size", "repro.core.piggyback", "PiggybackMessage.byte_size"),
    ("core.byte_size", "repro.core.piggyback", "PiggybackLog.byte_size"),
    ("core.buffer_handle", "repro.core.buffer", "Buffer.handle"),
    ("core.admission_offer", "repro.core.admission", "AdmissionControl.offer"),
)

#: Span for every registered middlebox's ``process``.
MIDDLEBOX_SPAN = "middlebox.process"
#: Span for the recovery procedure (a generator run as a sim process).
RECOVERY_SPAN = "orchestration.recover"


class SpanTracer:
    """Self time and call counts per span name, from wrapped entry points."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Logs aboard each ``PiggybackMessage.byte_size`` call.
        self.message_logs = 0
        self.messages = 0
        #: Objects whose counters the report reads after the pass.
        self.managers: Dict[int, object] = {}
        self._stack: List[List[float]] = []
        self._undo: List[Callable[[], None]] = []

    # -- span bookkeeping -----------------------------------------------------

    def _close(self, name: str, frame: List[float], t0: float) -> None:
        duration = time.perf_counter() - t0
        stack = self._stack
        stack.pop()
        self.self_s[name] += duration - frame[0]
        if stack:
            stack[-1][0] += duration

    def _function(self, name: str, fn: Callable) -> Callable:
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.calls[name] += 1
                tracer._close(name, frame, t0)
        return span

    def _generator(self, name: str, fn: Callable,
                   on_call: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer.calls[name] += 1
            if on_call is not None:
                on_call(*args)
            return tracer._resumes(name, fn(*args, **kwargs))
        return span

    def _resumes(self, name: str, gen):
        """Re-yield ``gen`` step by step, timing each resume as a span."""
        perf_counter = time.perf_counter
        value, error = None, None
        while True:
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(error)
            except StopIteration as stop:
                self._close(name, frame, t0)
                return stop.value
            except BaseException:
                self._close(name, frame, t0)
                raise
            self._close(name, frame, t0)
            value, error = None, None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into gen next resume
                error = exc

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> "SpanTracer":
        """Wrap the entry points in :data:`SPANS`, middleboxes and recovery."""
        for name, module_name, qualname in SPANS:
            cls_name, attr = qualname.split(".")
            cls = getattr(importlib.import_module(module_name), cls_name)
            fn = cls.__dict__[attr]
            if name == "stm.run":
                wrapped = self._generator(name, fn, on_call=self._note_manager)
            elif inspect.isgeneratorfunction(fn):
                wrapped = self._generator(name, fn)
            elif name == "core.byte_size" and cls_name == "PiggybackMessage":
                wrapped = self._function(name, self._counting_logs(fn))
            else:
                wrapped = self._function(name, fn)
            self._patch(cls, attr, wrapped)
        self._install_middleboxes()
        self._install_recovery()
        return self

    def _note_manager(self, manager, *args) -> None:
        self.managers[id(manager)] = manager

    def _counting_logs(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def byte_size(message):
            tracer.messages += 1
            tracer.message_logs += message.n_logs
            return fn(message)
        return byte_size

    def _install_middleboxes(self) -> None:
        from repro.middlebox import Middlebox, available, create
        wrapped = set()
        for kind in available():
            for cls in type(create(kind)).__mro__:
                if cls is Middlebox:
                    break
                if "process" in cls.__dict__ and cls not in wrapped:
                    wrapped.add(cls)
                    self._patch(cls, "process", self._function(
                        MIDDLEBOX_SPAN, cls.__dict__["process"]))

    def _install_recovery(self) -> None:
        from repro.core import recovery
        original = recovery.recover_positions
        wrapped = self._generator(RECOVERY_SPAN, original)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    getattr(module, "recover_positions", None) is original:
                self._patch(module, "recover_positions", wrapped)

    def remove(self) -> None:
        """Restore every original function."""
        while self._undo:
            self._undo.pop()()

    # -- report ---------------------------------------------------------------

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
