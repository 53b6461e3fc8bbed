"""The Otter compiler driver — all seven passes.

1. scan/parse (``repro.frontend``)
2. identifier resolution (``repro.analysis.resolve``)
3. type/rank/shape inference on SSA form (``repro.analysis.infer``)
4. expression rewriting to statement-level IR (``repro.ir.lower``)
5. guarding of scalar element stores (``repro.ir.guard``)
6. peephole optimization of run-time-call sequences (``repro.ir.peephole``)
7. code emission — SPMD Python (executable, :mod:`repro.codegen.py_emitter`)
   and SPMD C with ML_* run-time calls (:mod:`repro.codegen.c_emitter`)

Typical use::

    from repro import OtterCompiler
    from repro.mpi import MEIKO_CS2

    program = OtterCompiler().compile("x = ones(4, 4) * 3; disp(sum(x));")
    result = program.run(nprocs=8, machine=MEIKO_CS2)
    print(result.output, result.elapsed)
"""

from __future__ import annotations

import time
import types as _types
from dataclasses import dataclass, field
from typing import Any, Optional

from .analysis.infer import ProgramTypes, infer_types
from .analysis.resolve import ResolvedProgram, resolve_program
from .config import RunConfig
from .frontend.mfile import EMPTY_PROVIDER, MFileProvider
from .frontend.parser import parse_script
from .ir.guard import guard_program
from .ir.lower import lower_program
from .ir.nodes import IRProgram
from .ir.licm import LicmStats, licm_program
from .ir.peephole import PeepholeStats, peephole_program
from .ir.pretty import pretty_ir
from .mpi.executor import SpmdResult, run_spmd
from .mpi.machine import MachineModel
from .runtime.context import RuntimeContext


@dataclass
class RunResult:
    """Outcome of executing a compiled program."""

    workspace: dict[str, Any]
    output: str
    elapsed: float                # virtual seconds (slowest rank)
    spmd: SpmdResult
    #: per-rank high-water mark of local distributed-data bytes
    peak_local_bytes: list[int] = field(default_factory=list)
    #: the plan-search report when the run was autotuned (``tune=True``)
    tune: Optional[Any] = None
    #: native-kernel-tier activity during this run (counter deltas from
    #: repro.native.NativeStats plus the resolved mode), or ``None``
    #: when the tier was off/unavailable
    native: Optional[dict] = None

    @property
    def trace(self):
        """The :class:`~repro.trace.WorldTrace` of the run (or ``None``)."""
        return self.spmd.trace

    @property
    def recovery(self):
        """The :class:`~repro.mpi.RecoveryReport` of the run (or
        ``None`` when no non-abort ``on_fault`` policy was active)."""
        return self.spmd.recovery

    @property
    def fallback(self):
        """The :class:`~repro.mpi.executor.FusedFallback` (reason and
        MATLAB source line) when the fused run re-ran under lockstep,
        else ``None``."""
        return self.spmd.fallback

    @property
    def nprocs(self) -> int:
        return self.spmd.nprocs


@dataclass
class CompiledProgram:
    """A fully compiled MATLAB program."""

    name: str
    #: pass-1..6 artifacts; ``None`` on a program rehydrated from the
    #: on-disk compile cache (recompiled lazily by :meth:`_ensure_front_end`)
    resolved: Optional[ResolvedProgram]
    types: Optional[ProgramTypes]
    ir: Optional[IRProgram]
    python_source: str
    peephole_stats: PeepholeStats
    licm_stats: LicmStats
    provider: MFileProvider
    #: host seconds spent in each compiler pass: [(name, seconds), ...]
    pass_timings: list[tuple[str, float]] = field(default_factory=list)
    #: the optimization plan the program was compiled under (None: the
    #: compiler defaults, which equal repro.tuning.DEFAULT_PLAN)
    plan: Optional[Any] = None
    #: original MATLAB source (the autotuner recompiles variants of it)
    source: str = ""
    _module: Optional[_types.ModuleType] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #

    @property
    def from_cache(self) -> bool:
        """True for a program rehydrated from the on-disk compile cache:
        it runs straight from the cached emitted Python; the front-end
        artifacts (AST, types, IR) are recompiled lazily on demand."""
        return self.ir is None

    def _ensure_front_end(self) -> None:
        """Recompile the pass-1..6 artifacts for a rehydrated program.

        A disk-cache hit carries only what execution needs (the emitted
        Python, stats, plan, source); ``c_source``/``ir_dump`` are the
        rare consumers of the IR, and they pay the passes on demand —
        execution never does.
        """
        if self.ir is not None:
            return
        fresh = compile_source(self.source, self.provider, name=self.name,
                               plan=self.plan)
        self.resolved = fresh.resolved
        self.types = fresh.types
        self.ir = fresh.ir

    @property
    def c_source(self) -> str:
        """SPMD C with run-time library calls (textual backend)."""
        from .codegen.c_emitter import emit_c

        self._ensure_front_end()
        return emit_c(self.ir)

    @property
    def matlab_source(self) -> str:
        """Normalized echo of the parsed script (the ``--emit matlab``
        output: pass-2 AST unparsed back to canonical MATLAB)."""
        from .frontend.unparse import unparse_script

        self._ensure_front_end()
        return unparse_script(self.resolved.script.node)

    def ir_dump(self) -> str:
        self._ensure_front_end()
        return pretty_ir(self.ir)

    # ------------------------------------------------------------------ #

    def _load_module(self) -> _types.ModuleType:
        if self._module is None:
            module = _types.ModuleType(f"otter_generated_{self.name}")
            exec(compile(self.python_source,
                         f"<otter:{self.name}>", "exec"), module.__dict__)
            self._module = module
        return self._module

    def run(self, nprocs: int = 1, machine: MachineModel | None = None,
            seed: int = 0, scheme: str = "block",
            cache_gathers: bool = False, plan=None, stores=None,
            config: RunConfig | None = None,
            **overrides) -> RunResult:
        """Execute on ``nprocs`` simulated ranks of ``machine``.

        ``config`` is the run's :class:`~repro.config.RunConfig` (resolved
        from the environment when omitted); keyword ``overrides`` named
        after its fields (``backend=``, ``trace=``, ``tune=``,
        ``native=``, ...) take precedence.  ``tune=N`` searches ``N``
        plan candidates (``tune=True``: the default budget) and runs the
        winner under its own plan.  A fused run that had to fall
        back to lockstep says why on ``RunResult.fallback``; the trace,
        recovery report, plan-search report and native-kernel activity
        land on ``RunResult.trace``/``recovery``/``tune``/``native``.

        ``plan`` applies a :class:`repro.tuning.Plan`'s *runtime* knobs
        (distribution, collective algorithms, gather caching) — the
        compile-side knobs must have been applied at ``compile`` time
        (see :func:`compile_cached`).

        ``stores`` is a :class:`repro.service.StoreManager` for
        URL-schema ``load``/``save`` targets (``file://``, ``mem://``,
        ``s3://``); ``None`` uses the process-wide default manager —
        see docs/SERVICE.md.
        """
        cfg = RunConfig.resolve(config, **overrides)
        if cfg.tune:
            from .tuning import tune_program

            tuned = tune_program(self.source or "", nprocs=nprocs,
                                 machine=machine, budget=cfg.tune,
                                 provider=self.provider, seed=seed,
                                 name=self.name, config=cfg)
            # the winner runs exactly as the tuner measured it: its plan
            # alone sets the distribution and gather caching
            result = tuned.best_program._execute(
                cfg, nprocs, machine, seed, "block", False,
                tuned.best.plan, stores)
            result.tune = tuned
            return result
        return self._execute(cfg, nprocs, machine, seed, scheme,
                             cache_gathers, plan, stores)

    def _execute(self, cfg: RunConfig, nprocs: int,
                 machine: MachineModel | None, seed: int, scheme: str,
                 cache_gathers: bool, plan, stores) -> RunResult:
        from .mpi.machine import MEIKO_CS2
        from .native import resolve_native

        plan = plan if plan is not None else self.plan
        if plan is not None:
            machine = plan.apply_machine(machine or MEIKO_CS2)
            scheme = plan.scheme
            cache_gathers = cache_gathers or plan.cache_gathers
            dist_plan = dict(plan.dist)
        else:
            dist_plan = None

        machine = machine or MEIKO_CS2
        main = self._load_module().main
        output: list[str] = []
        provider = self.provider

        engine = resolve_native(cfg.native)
        stats_before = engine.stats.snapshot() if engine is not None else None

        peaks: dict[int, int] = {}

        def rank_main(comm):
            rt = RuntimeContext(comm, out=output.append, seed=seed,
                                scheme=scheme, provider=provider,
                                cache_gathers=cache_gathers,
                                dist_plan=dist_plan, native=engine,
                                stores=stores)
            try:
                workspace = main(rt)
                peaks[rt.rank] = rt.peak_local_bytes
                clocks = comm.clock_snapshot()
                token = comm.trace_suspend()
                # Replicate the final workspace (gathers run on every
                # rank, in the same deterministic order) so callers see
                # plain values.  This is *instrumentation* — roll its
                # cost back off the virtual clock (and keep it out of
                # the trace) so `elapsed` measures only the program.
                replicated = {name: rt.to_interp_value(value)
                              for name, value in workspace.items()}
                comm.clock_restore(clocks)
                comm.trace_resume(token)
                return replicated
            finally:
                # crucial for the nprocs==1 / fused inline paths, which
                # run on the caller's thread: don't leak the tracker
                rt.close()

        def discard_partial_fused():
            # a diverged fused pass may have produced output/peaks already;
            # the lockstep re-run must start from a clean slate
            output.clear()
            peaks.clear()

        spmd = run_spmd(nprocs, machine, rank_main, config=cfg,
                        on_fused_fallback=discard_partial_fused)
        if spmd.backend == "fused":
            # one pass stood in for all ranks: its (rank-0-modeled) peak
            # applies to every rank's local share estimate
            peaks.update({r: peaks.get(0, 0) for r in range(nprocs)})
        workspace = spmd.results[0] or {}
        # drop never-assigned variables for a clean workspace view
        workspace = {k: v for k, v in workspace.items() if v is not None}
        native_report = None
        if engine is not None:
            after = engine.stats.snapshot()
            native_report = {k: after[k] - stats_before[k] for k in after}
            native_report["mode"] = cfg.native
        return RunResult(workspace=workspace, output="".join(output),
                         elapsed=spmd.elapsed, spmd=spmd,
                         peak_local_bytes=[peaks.get(r, 0)
                                           for r in range(nprocs)],
                         native=native_report)


class OtterCompiler:
    """Front door: compile MATLAB source through all seven passes.

    ``plan`` (a :class:`repro.tuning.Plan`, duck-typed to avoid an import
    cycle) selects the compile-side knobs: peephole fusion schedule, LICM
    policy, guard placement, and elementwise splitting.  Without a plan
    the legacy ``peephole``/``licm`` booleans apply (the shipped
    defaults, identical to the default plan).
    """

    def __init__(self, provider: MFileProvider | None = None,
                 peephole: bool = True, licm: bool = True, plan=None):
        self.provider = provider or EMPTY_PROVIDER
        self.peephole = peephole
        self.licm = licm
        self.plan = plan

    def compile(self, source: str, name: str = "script") -> CompiledProgram:
        timings: list[tuple[str, float]] = []

        plan = self.plan
        if plan is not None:
            peep_enabled = bool(plan.fusion)
            peep_schedule = plan.fusion
            licm_policy = plan.licm
            guard_placement = plan.guard
            ew_split = plan.ew_split
        else:
            peep_enabled = self.peephole
            peep_schedule = None
            licm_policy = "aggressive" if self.licm else "off"
            guard_placement = "owner"
            ew_split = False

        def timed(pass_name, fn, *args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            timings.append((pass_name, time.perf_counter() - t0))
            return result

        script = timed("parse", parse_script, source, name)       # pass 1
        resolved = timed("resolve", resolve_program,              # pass 2
                         script, self.provider)
        types = timed("infer", infer_types, resolved)             # pass 3
        ir = timed("lower", lower_program, resolved, types,       # pass 4
                   ew_split=ew_split)
        timed("guard", guard_program, ir,                         # pass 5
              placement=guard_placement)
        stats = timed("peephole", peephole_program,               # pass 6
                      ir, enabled=peep_enabled, schedule=peep_schedule)
        licm_stats = timed("licm", licm_program,                  # pass 6b
                           ir, policy=licm_policy)
        from .codegen.py_emitter import emit_python               # pass 7

        py_source = timed("emit", emit_python, ir)
        return CompiledProgram(
            name=name,
            resolved=resolved,
            types=types,
            ir=ir,
            python_source=py_source,
            peephole_stats=stats,
            licm_stats=licm_stats,
            provider=self.provider,
            pass_timings=timings,
            plan=plan,
            source=source,
        )


def compile_source(source: str, provider: MFileProvider | None = None,
                   peephole: bool = True, licm: bool = True,
                   name: str = "script", plan=None) -> CompiledProgram:
    """Convenience one-shot compile."""
    return OtterCompiler(provider, peephole, licm, plan=plan) \
        .compile(source, name)


# -------------------------------------------------------------------------- #
# the compile memo: a thin projection over the service's content-
# addressed CompileCache.  Keyed by canonical source + provider + the
# plan's *compile-affecting* projection, so the autotuner's candidate
# sweep pays the seven passes once per distinct lowering, not once per
# candidate.  Deliberately memory-tier-only: the on-disk tier belongs to
# full request keys (see repro.service.cache and docs/SERVICE.md).
# -------------------------------------------------------------------------- #


def compile_cached(source: str, provider: MFileProvider | None = None,
                   name: str = "script", plan=None) -> CompiledProgram:
    """Memoized :func:`compile_source` (same CompiledProgram object back
    for the same (source, provider, compile-side plan knobs)).

    Safe to share: a CompiledProgram is immutable after compilation and
    ``run`` keeps no per-run state on it.  Runtime-only plan knobs
    (distribution, collective algorithms) deliberately do NOT key the
    memo — pass the full plan to :meth:`CompiledProgram.run` instead.
    """
    from .service.cache import get_compile_cache

    key_plan = ("default",) if plan is None else plan.compile_key()
    return get_compile_cache().get_or_compile(
        source, provider=provider, name=name, plan=plan,
        key_plan=key_plan, disk=False).program


def compile_cache_stats() -> dict:
    from .service.cache import get_compile_cache

    return get_compile_cache().stats()


def clear_compile_cache() -> None:
    from .service.cache import get_compile_cache

    get_compile_cache().clear()
