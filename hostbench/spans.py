"""Thread-aware host-time spans around each layer's public entry points.

The traced run installs wrappers (class or module attributes, restored
by :meth:`Tracer.uninstall`) from this file; nothing under ``src/`` is
edited.  The untraced run never imports this module.

A span records wall time (``perf_counter``) and the calling thread's CPU
time (``thread_time``).  Self time is a span's duration minus the part
of it its child spans cover.  Children on the span's own thread nest
strictly; spans that open on another thread with nothing open there
(lockstep rank carrier threads) are children of the client's open
``run_spmd`` span, and only the union of their intervals is subtracted,
because the ranks' spans overlap in wall time.

A layer's spans do not nest in themselves: a runtime method that calls
another runtime method, or a collective that charges through a
``charge_*`` method, is one span of the outer call.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

_wall = time.perf_counter
_cpu = time.thread_time

#: span kinds that do not nest in themselves
_FLAT = ("runtime", "mpi")

#: call_builtin names by runtime family; the elementwise builtins are
#: read from the runtime's own dispatch tables, everything else is
#: structural
_BUILTIN_FAMILY = {
    **dict.fromkeys(("sum", "prod", "mean", "std", "var", "median", "all",
                     "any", "max", "min", "norm", "trapz", "trapz2",
                     "cumsum", "cumprod", "trace"), "reduce"),
    **dict.fromkeys(("dot", "inv", "det", "transpose", "ctranspose"),
                    "linalg"),
    **dict.fromkeys(("size", "length", "numel", "isempty", "isreal",
                     "isscalar"), "index"),
    **dict.fromkeys(("disp", "display", "fprintf", "sprintf", "num2str",
                     "int2str", "error", "load", "save", "tic", "toc"),
                    "io"),
}

#: RuntimeContext methods the emitted code calls, by family
_RUNTIME_METHODS = {
    "ew": "ew",
    "matmul": "linalg", "matmul_t": "linalg", "matrix_power": "linalg",
    "solve": "linalg", "transpose": "linalg",
    "truthy": "reduce", "switch_match": "reduce",
    "from_literal": "structural", "range_vector": "structural",
    "element": "index", "index_read": "index",
    "index_assign": "index", "end_extent": "index",
    "display": "io",
}

RUNTIME_FAMILIES = ("ew", "linalg", "reduce", "structural", "index", "io")

_COMM_METHODS = ("send", "recv", "sendrecv", "isend", "irecv", "barrier",
                 "bcast", "reduce", "allreduce", "gather", "allgather",
                 "scatter", "alltoall", "scan")
_FUSED_METHODS = ("barrier", "bcast", "allreduce", "allgather", "send",
                  "recv", "sendrecv", "isend", "irecv", "reduce", "gather",
                  "scatter", "alltoall", "scan", "charge_barrier",
                  "charge_bcast", "charge_reduce", "charge_allgather",
                  "charge_alltoall", "charge_scan", "ring_exchange",
                  "compute_ranks")

#: compiler passes: (module, attribute, span name)
_PASSES = (
    ("repro.compiler", "parse_script", "frontend.parse"),
    ("repro.compiler", "resolve_program", "analysis.resolve"),
    ("repro.compiler", "infer_types", "analysis.infer"),
    ("repro.compiler", "lower_program", "ir.lower"),
    ("repro.compiler", "guard_program", "ir.guard"),
    ("repro.compiler", "peephole_program", "ir.peephole"),
    ("repro.compiler", "licm_program", "ir.licm"),
    ("repro.codegen.py_emitter", "emit_python", "codegen.emit_py"),
    ("repro.codegen.c_emitter", "emit_c", "codegen.emit_c"),
)


# a frame is a list, the cheapest object to build on every call:
# [name, kind, t0, c0, child wall, child cpu, cross-thread children, job]
_NAME, _KIND, _T0, _C0, _CW, _CC, _CROSS, _JOB = range(8)


def _union(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Collects spans in memory; :meth:`totals` and :meth:`chrome` read
    them out when the run ends."""

    def __init__(self, max_events: int = 200_000):
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        #: span name -> [self wall, self cpu, wall, cpu, count]
        self._totals: dict[str, list] = {}
        #: (job id, span name) -> [self wall, self cpu]
        self._jobs: dict[tuple, list] = {}
        self._events: list[tuple] = []
        self.max_events = max_events
        self.dropped = 0
        self.job = "setup"
        self.epoch = _wall()
        #: the client's open run_spmd frame: parent of other threads'
        #: root spans
        self._anchor: Optional[list] = None

    # ------------------------------------------------------------- #

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin(self, name: str, kind: str) -> list:
        frame = [name, kind, _wall(), _cpu(), 0.0, 0.0, None, self.job]
        self._stack().append(frame)
        return frame

    def end(self, frame: list) -> None:
        c1 = _cpu()
        t1 = _wall()
        stack = self._stack()
        if stack[-1] is frame:
            stack.pop()
        else:
            stack.remove(frame)
        name, t0 = frame[_NAME], frame[_T0]
        wall, cpu = t1 - t0, c1 - frame[_C0]
        child_w = frame[_CW]
        if frame[_CROSS]:
            child_w += _union(frame[_CROSS], t0, t1)
        self_w = max(wall - child_w, 0.0)
        self_c = max(cpu - frame[_CC], 0.0)
        if stack:
            parent = stack[-1]
            parent[_CW] += wall
            parent[_CC] += cpu
        else:
            anchor = self._anchor
            if anchor is not None and anchor is not frame:
                if anchor[_CROSS] is None:
                    anchor[_CROSS] = []
                anchor[_CROSS].append((t0, t1))
        row = self._totals.get(name)
        if row is None:
            row = self._totals[name] = [0.0, 0.0, 0.0, 0.0, 0]
        row[0] += self_w
        row[1] += self_c
        row[2] += wall
        row[3] += cpu
        row[4] += 1
        key = (frame[_JOB], name)
        job = self._jobs.get(key)
        if job is None:
            job = self._jobs[key] = [0.0, 0.0]
        job[0] += self_w
        job[1] += self_c
        if len(self._events) < self.max_events:
            self._events.append((name, threading.get_ident(), t0, wall,
                                 frame[_JOB]))
        else:
            self.dropped += 1

    def span(self, name: str, kind: str, fn: Callable) -> Callable:
        tracer = self
        flat = kind in _FLAT

        def wrapped(*args, **kwargs):
            if flat:
                stack = tracer._stack()
                if stack and stack[-1][_KIND] == kind:
                    return fn(*args, **kwargs)
            frame = tracer.begin(name, kind)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(frame)

        return wrapped

    # ------------------------------------------------------------- #
    # installation
    # ------------------------------------------------------------- #

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        import repro.compiler as compiler_mod
        from repro.mpi.comm import Comm, Request
        from repro.mpi.fused import FusedComm
        from repro.native.cache import KernelCache
        from repro.native.engine import NativeEngine
        from repro.runtime.context import RuntimeContext
        from repro.service.cache import CompileCache

        for module, attr, name in _PASSES:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.span(name, "compile",
                                             getattr(mod, attr)))
        self._patch(CompileCache, "get_or_compile",
                    self.span("service.lookup", "service",
                              CompileCache.get_or_compile))
        self._patch(compiler_mod, "run_spmd",
                    self._executor(compiler_mod.run_spmd))
        for method, family in _RUNTIME_METHODS.items():
            self._patch(RuntimeContext, method,
                        self.span(f"runtime.{family}", "runtime",
                                  getattr(RuntimeContext, method)))
        self._patch(RuntimeContext, "call_builtin",
                    self._builtin(RuntimeContext.call_builtin))
        self._patch(RuntimeContext, "set_element",
                    self._set_element(RuntimeContext.set_element))
        self._program_spans(RuntimeContext)
        for cls, methods in ((Comm, _COMM_METHODS),
                             (Request, ("wait", "test")),
                             (FusedComm, _FUSED_METHODS)):
            for method in methods:
                self._patch(cls, method, self.span(
                    "mpi.comm", "mpi", getattr(cls, method)))
        self._patch(NativeEngine, "run", self.span(
            "native.call", "native", NativeEngine.run))
        self._patch(KernelCache, "build", self.span(
            "native.compile", "native", KernelCache.build))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _executor(self, run_spmd):
        tracer = self

        def traced_run_spmd(*args, **kwargs):
            frame = tracer.begin("mpi.executor", "executor")
            outer, tracer._anchor = tracer._anchor, frame
            try:
                return run_spmd(*args, **kwargs)
            finally:
                tracer._anchor = outer
                tracer.end(frame)

        return traced_run_spmd

    def _builtin(self, call_builtin):
        from repro.runtime.builtins import _EW_BINARY, _EW_FUNCS

        families = dict.fromkeys((*_EW_FUNCS, *_EW_BINARY), "ew")
        families.update(_BUILTIN_FAMILY)
        spans = {family: self.span(f"runtime.{family}", "runtime",
                                   call_builtin)
                 for family in RUNTIME_FAMILIES}
        structural = spans["structural"]

        def traced_call_builtin(rt, name, args, nargout=1):
            span = spans.get(families.get(name), structural)
            return span(rt, name, args, nargout)

        return traced_call_builtin

    def _set_element(self, set_element):
        """``set_element`` updates in place only while the caller's
        variable and its own parameter are the matrix's sole references.
        This wrapper keeps none while the call runs: ``mat`` moves from
        its parameter into a list and from there straight into the call,
        whose frame takes over the reference."""
        tracer = self

        def traced_set_element(rt, mat, subs, rhs, reuse=False):
            box = [mat]
            del mat
            stack = tracer._stack()
            if stack and stack[-1][_KIND] == "runtime":
                return set_element(rt, box.pop(), subs, rhs, reuse)
            frame = tracer.begin("runtime.index", "runtime")
            try:
                return set_element(rt, box.pop(), subs, rhs, reuse)
            finally:
                tracer.end(frame)

        return traced_set_element

    def _program_spans(self, cls) -> None:
        """``codegen.program``: from a rank's RuntimeContext creation to
        its ``close`` — the emitted program's run on that rank."""
        tracer = self
        init, close = cls.__init__, cls.close

        def traced_init(rt, *args, **kwargs):
            frame = tracer.begin("codegen.program", "program")
            try:
                init(rt, *args, **kwargs)
            except BaseException:
                tracer.end(frame)
                raise
            rt.__dict__["_hostbench_frame"] = frame

        def traced_close(rt):
            try:
                close(rt)
            finally:
                frame = rt.__dict__.pop("_hostbench_frame", None)
                if frame is not None:
                    tracer.end(frame)

        self._patch(cls, "__init__", traced_init)
        self._patch(cls, "close", traced_close)

    # ------------------------------------------------------------- #
    # read-out
    # ------------------------------------------------------------- #

    def totals(self) -> dict[str, list]:
        """span name -> [self wall, self cpu, wall, cpu, count]."""
        return {name: list(row) for name, row in self._totals.items()}

    def job_totals(self) -> dict:
        """job id -> span name -> [self wall, self cpu]."""
        out: dict[str, dict] = {}
        for (job, name), row in self._jobs.items():
            out.setdefault(job, {})[name] = list(row)
        return out

    def chrome(self) -> list[dict]:
        """Host spans as Chrome ``trace_event`` records on their own
        process id, one track per thread."""
        pid = 100
        tids: dict[int, int] = {}
        events = [{"name": "process_name", "ph": "M", "pid": pid,
                   "args": {"name": "hostbench spans (host time)"}}]
        for name, ident, t0, wall, job in self._events:
            tid = tids.setdefault(ident, len(tids))
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "pid": pid, "tid": tid,
                           "ts": (t0 - self.epoch) * 1e6, "dur": wall * 1e6,
                           "args": {"job": job}})
        for ident, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": f"thread {tid}"}})
        return events
