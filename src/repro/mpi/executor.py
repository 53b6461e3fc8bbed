"""SPMD launcher for the simulated MPI layer.

``run_spmd`` runs ``fn`` for every simulated rank and collects results,
per-rank virtual times, and any exception.  Under ``lockstep`` it starts
one carrier thread per rank and hands each a
:class:`~repro.mpi.comm.Comm`; a failure on one rank aborts the world so
peers blocked in ``recv``/collectives unwind instead of deadlocking.

Two backends execute the rank programs (the ``backend`` field of
:class:`~repro.config.RunConfig`; default ``fused``):

``fused`` (default)
    Rank fusion: the program runs **once** with a
    :class:`~repro.mpi.fused.FusedComm` carrying all ranks' state, so
    the interpreter's control-flow overhead is paid once instead of P
    times.  Accounting (virtual clocks, message/byte/collective counts)
    is bit-identical to ``lockstep``.  If the program turns out to be
    rank-dependent (it reads ``comm.rank``, or hits an op with no fused
    path), or a fault plan is active, the run raises
    :class:`~repro.errors.FusionDivergence` and ``run_spmd``
    transparently re-runs it under ``lockstep`` — fusion is an
    optimization, never a semantics change.  The reason and the MATLAB
    source line of every such fallback land on ``SpmdResult.fallback``
    (and in the trace meta).

``lockstep``
    Cooperative: a :class:`~repro.mpi.scheduler.LockstepScheduler`
    gates one carrier thread per rank so exactly one rank runs at a
    time, parking at blocking points and handing off.  Deterministic,
    and it *detects* deadlock (reporting the full blocked-rank wait
    graph) instead of hanging.  It is the fused backend's fallback and
    the oracle the differential tests compare it against.

Self-healing (``RunConfig.on_fault``; see
:mod:`repro.mpi.recovery` and docs/RESILIENCE.md): with a non-abort
policy, a faulted run retries dropped/corrupted messages at the comm
layer, and — under ``restart``/``degrade`` — replays terminal faults
(crashes, timeouts, fault-induced deadlocks) from the last checkpoint
up to ``max_restarts`` times, with ``degrade`` returning a partial
result carrying a :class:`~repro.mpi.recovery.RecoveryReport` instead
of raising when the budget runs out.  One host-watchdog budget covers
the *whole* call: the fused attempt, any lockstep fallback, and every
restart attempt draw down the same allowance.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Optional

from ..config import RunConfig
from ..errors import FusionDivergence, MpiCorruptionError, MpiError, \
    MpiTimeoutError, RankCrashedError, SpmdWatchdogError
from .comm import Comm, World, _Abort
from .faults import FaultPlan, FaultState
from .fused import FusedComm
from .machine import MachineModel
from .recovery import ActiveRecovery, RecoveryReport
from .scheduler import DeadlockError, LockstepScheduler

#: after an abort, give wedged carrier threads this long to unwind
#: before abandoning them (they are daemons; the process stays healthy)
_TEARDOWN_GRACE = 5.0

#: the config fields ``run_spmd`` uses, and so takes as keyword overrides;
#: ``tune`` and ``native`` are not among them and pass through to ``fn``
_CONFIG_FIELDS = frozenset(("backend", "fault_plan", "watchdog", "trace",
                            "on_fault", "max_restarts", "checkpoint_every"))


def resolve_backend(backend: Optional[str] = None) -> str:
    """The resolved SPMD backend (a delegate to :meth:`RunConfig.resolve`)."""
    return RunConfig.resolve(backend=backend).backend


@dataclass(frozen=True)
class FusedFallback:
    """Why a ``fused`` run was re-run under ``lockstep``: the
    :class:`~repro.errors.FusionDivergence` message and the MATLAB
    source line the fused pass had reached (0 when it diverged before
    the first line marker, e.g. on a fault plan or a raw SPMD
    function)."""

    reason: str
    line: int = 0

    def __str__(self) -> str:
        return f"{self.reason} (line {self.line})" if self.line \
            else self.reason


@dataclass
class SpmdResult:
    """Outcome of one SPMD execution."""

    results: list[Any]
    times: list[float]            # final virtual clock per rank
    machine: MachineModel
    nprocs: int
    messages_sent: int = 0
    bytes_sent: int = 0
    collectives: int = 0
    collective_counts: dict[str, int] = field(default_factory=dict)
    #: the backend that actually executed (``"lockstep"`` after a
    #: fused fallback; ``fallback`` then says why)
    backend: str = "lockstep"
    #: deterministic log of injected chaos events (rank order), empty
    #: when no fault plan was active; spans *every* restart attempt
    fault_events: list[str] = field(default_factory=list)
    #: the :class:`~repro.trace.WorldTrace` recorded for this run, or
    #: ``None`` when tracing was off (the default)
    trace: Optional[Any] = None
    #: structured self-healing account
    #: (:class:`~repro.mpi.recovery.RecoveryReport`) when a non-abort
    #: ``on_fault`` policy was active, else ``None``.  On a ``degrade``
    #: outcome ``recovery.degraded`` is True and per-rank ``results``
    #: may contain ``None`` for ranks that never finished.
    recovery: Optional[RecoveryReport] = None
    #: per-rank message re-send counts from the retry layer (all zeros
    #: unless retries healed something this attempt)
    rank_retries: list[int] = field(default_factory=list)
    #: the :class:`FusedFallback` when a ``fused`` request diverged and
    #: re-ran under ``lockstep``, else ``None``
    fallback: Optional[FusedFallback] = None

    @property
    def elapsed(self) -> float:
        """Virtual wall-clock of the run: the slowest rank."""
        return max(self.times) if self.times else 0.0


def _arm_watchdog(world: World, scheduler, budget: float,
                  total: Optional[float] = None) -> threading.Timer:
    """Start the host-wall-clock watchdog for one execution attempt.
    The timer fires after ``budget`` (the *remaining* allowance — one
    budget spans fused attempt, fallback, and restarts) but the
    diagnostic names ``total``, the allowance the caller configured.
    The timer aborts the *world*; blocked ranks unwind through the
    normal abort path, compiled loops poll the abort flag at every
    back-edge (``Comm.poll_abort``), and the fused backend also checks
    it at every collective charge."""
    if total is None:
        total = budget

    def _expire() -> None:
        graph = world.wait_snapshot()
        exc = SpmdWatchdogError(
            f"SPMD watchdog expired after {total:g}s host time; "
            f"aborting the run instead of hanging",
            wait_graph=graph or None)
        world.abort(exc)
        if scheduler is not None:
            scheduler.abort()

    timer = threading.Timer(budget, _expire)
    timer.daemon = True
    timer.start()
    return timer


def _recoverable(exc: BaseException, plan: Optional[FaultPlan]) -> bool:
    """Is this failure one the recovery layer may heal by replaying?

    Only fault-induced structured failures qualify — and only when a
    fault plan was active (a deadlock in a healthy program is a program
    bug; replaying it would loop).  The host watchdog is never
    recoverable: its budget is already spent."""
    if plan is None or isinstance(exc, SpmdWatchdogError):
        return False
    return isinstance(exc, (RankCrashedError, MpiCorruptionError,
                            MpiTimeoutError, DeadlockError))


def _select_error(world: World,
                  errors: list[tuple[int, BaseException]]
                  ) -> Optional[BaseException]:
    """The exception one attempt should surface (or ``None``): the
    lowest failing rank wins, non-MPI errors are wrapped exactly as the
    historical raise sites did — built without raising so the recovery
    loop can decide whether it heals or surfaces."""
    if errors:
        rank, exc = min(errors, key=lambda pair: pair[0])
        if isinstance(exc, MpiError):
            return exc
        wrapped = MpiError(f"rank {rank} failed: {exc}")
        wrapped.__cause__ = exc
        wrapped.__suppress_context__ = True
        return wrapped
    if world.aborted is not None:
        # no rank raised, yet the world aborted: the scheduler detected
        # a deadlock (or the watchdog fired) and recorded the cause
        if isinstance(world.aborted, MpiError):
            return world.aborted
        wrapped = MpiError(f"SPMD run aborted: {world.aborted}")
        wrapped.__cause__ = world.aborted
        wrapped.__suppress_context__ = True
        return wrapped
    return None


def _unconsumed(world: World) -> Optional[MpiError]:
    """Chaos left messages on the wire that no rank ever received
    (e.g. duplicates): a protocol anomaly, reported deterministically."""
    if world.faults is not None and any(world.mailboxes.values()):
        leftovers = ", ".join(
            f"rank {src}->rank {dst} tag={tag} x{len(queue)}"
            for (src, dst, tag), queue in sorted(world.mailboxes.items())
            if queue)
        return MpiError(
            f"unconsumed messages after faulted run: {leftovers}")
    return None


def _run_attempt(nprocs: int, machine: MachineModel, fn: Callable,
                 args: tuple, kwargs: dict,
                 plan: Optional[FaultPlan],
                 fault_state: Optional[FaultState],
                 recovery: Optional[ActiveRecovery],
                 start_base: float, world_trace,
                 budget: Optional[float],
                 watchdog_total: Optional[float] = None):
    """One lockstep execution attempt.

    Builds a fresh world (carrying the cross-attempt fault state, so
    fired one-shot rules stay consumed on replay, and the recovery
    ledger), runs every rank, and returns ``(world, results, error)``
    without raising for rank failures — the caller's recovery loop
    decides what heals and what surfaces."""
    scheduler = LockstepScheduler(nprocs)
    world = World(nprocs, machine, scheduler=scheduler, fault_plan=plan,
                  trace=world_trace, fault_state=fault_state,
                  recovery=recovery, start_time=start_base)
    scheduler.trace = world_trace
    scheduler.on_deadlock = world.abort
    if world.virtual_timeout is not None:
        timeout = world.virtual_timeout
        scheduler.deadlock_factory = lambda graph: MpiTimeoutError(
            f"virtual-clock timeout (limit {timeout:.9g}s): "
            f"no simulated rank can make progress", wait_graph=graph)
    results: list[Any] = [None] * nprocs
    errors: list[tuple[int, BaseException]] = []
    # after an abort every baton is released, so unwinding ranks may
    # run concurrently
    lock = threading.Lock()

    def worker(rank: int) -> None:
        comm = Comm(world, rank)
        scheduler.start_rank(rank)
        try:
            if world.aborted is None:
                results[rank] = fn(comm, *args, **kwargs)
        except _Abort:
            pass  # a peer failed; its error is the one to report
        except BaseException as exc:  # noqa: BLE001 - must not deadlock
            with lock:
                errors.append((rank, exc))
            world.abort(exc)
            scheduler.abort()
        finally:
            scheduler.finish_rank(rank)

    timer: Optional[threading.Timer] = None
    if budget is not None:
        timer = _arm_watchdog(world, scheduler, budget, watchdog_total)
    try:
        scheduler.kickoff()
        if nprocs == 1:
            # fast path: no threads needed (the baton is pre-set)
            worker(0)
        else:
            threads = [threading.Thread(target=worker, args=(rank,),
                                        name=f"spmd-rank-{rank}",
                                        daemon=True)
                       for rank in range(nprocs)]
            for thread in threads:
                thread.start()
            # guaranteed teardown: joins are bounded once the world has
            # aborted, so a truly wedged rank (e.g. an infinite compute
            # loop the watchdog cannot interrupt) is abandoned as a
            # daemon after a grace period instead of hanging the caller
            deadline: Optional[float] = None
            for thread in threads:
                while thread.is_alive():
                    thread.join(timeout=0.1)
                    if world.aborted is None:
                        continue
                    if deadline is None:
                        deadline = time.monotonic() + _TEARDOWN_GRACE
                    elif time.monotonic() > deadline:
                        break
    finally:
        if timer is not None:
            timer.cancel()
    return world, results, _select_error(world, errors)


def run_spmd(nprocs: int, machine: MachineModel,
             fn: Callable[..., Any], *args: Any,
             config: Optional[RunConfig] = None,
             on_fused_fallback: Optional[Callable[[], Any]] = None,
             **kwargs: Any) -> SpmdResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` simulated ranks.

    ``config`` is the resolved :class:`~repro.config.RunConfig`; keyword
    arguments named after the fields it uses (``backend=``,
    ``fault_plan=``, ``watchdog=``, ``trace=``, ``on_fault=``,
    ``max_restarts=``, ``checkpoint_every=``) override it and are not
    passed to ``fn``.  The recorded trace (``SpmdResult.trace``)
    carries the config in ``meta["config"]``.

    ``on_fused_fallback`` is invoked (if given) when a ``fused`` run
    diverges, *before* the lockstep re-run — and again before each
    recovery restart attempt — callers use it to discard any partial
    side effects the aborted pass left behind.
    """
    cfg = RunConfig.resolve(config, **{
        name: kwargs.pop(name) for name in _CONFIG_FIELDS & kwargs.keys()})
    backend, plan, watchdog = cfg.backend, cfg.fault_plan, cfg.watchdog
    policy = cfg.recovery
    recovery: Optional[ActiveRecovery] = None
    if policy.active and plan is not None:
        # without a plan there is nothing injectable to heal — the
        # policy stays inert and healthy runs pay nothing
        recovery = ActiveRecovery(policy, nprocs, seed=plan.seed)
    deadline = time.monotonic() + watchdog if watchdog is not None \
        else None

    def budget_left(what: str) -> Optional[float]:
        """Remaining host-watchdog budget, raising once exhausted so a
        fallback/restart never gets a fresh allowance."""
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise SpmdWatchdogError(
                f"SPMD watchdog expired after {watchdog:g}s host time: "
                f"budget exhausted before {what}")
        return remaining

    def new_trace():
        from ..trace import WorldTrace

        wt = WorldTrace(nprocs)
        wt.meta.update(backend=backend, machine=machine.name,
                       nprocs=nprocs, config=cfg.as_meta())
        return wt

    if backend == "fused":
        world_trace = new_trace() if cfg.trace else None
        timer: Optional[threading.Timer] = None
        comm: Optional[FusedComm] = None
        try:
            try:
                comm = FusedComm(nprocs, machine,  # validates nprocs
                                 fault_plan=plan, trace=world_trace,
                                 recovery=recovery)
                if watchdog is not None:
                    timer = _arm_watchdog(comm.world, None, watchdog)
                result = fn(comm, *args, **kwargs)
                if comm.world.aborted is not None:
                    raise comm.world.aborted
            except FusionDivergence as divergence:
                # rank-dependent program — or a chaos plan, whose fault
                # schedule is inherently rank-dependent: re-run honestly
                # (with a fresh trace; the aborted fused pass is
                # discarded along with its World).  The re-run inherits
                # the *remaining* watchdog budget: one budget covers
                # the whole call, never a fresh allowance per attempt.
                if timer is not None:
                    timer.cancel()
                    timer = None
                fallback = FusedFallback(
                    str(divergence), comm.line if comm is not None else 0)
                if on_fused_fallback is not None:
                    on_fused_fallback()
                remaining = budget_left("the lockstep re-run")
                spmd = run_spmd(nprocs, machine, fn, *args,
                                config=replace(cfg, backend="lockstep",
                                               watchdog=remaining),
                                on_fused_fallback=on_fused_fallback,
                                **kwargs)
                spmd.fallback = fallback
                if spmd.trace is not None:
                    spmd.trace.meta.update(fallback=asdict(fallback),
                                           config=cfg.as_meta())
                return spmd
            except MpiError:
                raise  # substrate diagnostics keep their structured type
            except BaseException as exc:  # noqa: BLE001 - lockstep parity
                raise MpiError(f"rank 0 failed: {exc}") from exc
        finally:
            if timer is not None:
                timer.cancel()
        world = comm.world
        report: Optional[RecoveryReport] = None
        if recovery is not None:
            recovery.finish_attempt(world, "completed", None)
            report = recovery.report
        return SpmdResult(
            results=[result] * nprocs,
            times=world.clocks.tolist(),
            machine=machine,
            nprocs=nprocs,
            messages_sent=world.messages_sent,
            bytes_sent=world.bytes_sent,
            collectives=world.collectives,
            collective_counts=dict(world.collective_counts),
            backend="fused",
            trace=world_trace,
            recovery=report,
            rank_retries=world.rank_retries.tolist(),
        )

    fault_state: Optional[FaultState] = None
    if plan is not None and plan.has_faults:
        # built once and carried across restart attempts: fired
        # one-shot rules (step=/count=) stay consumed, so a replay does
        # not re-trip the crash it is recovering from
        fault_state = FaultState(plan, nprocs)

    while True:
        attempt_no = recovery.attempt if recovery is not None else 0
        budget = budget_left(f"execution attempt {attempt_no}") \
            if deadline is not None else None
        world_trace = new_trace() if cfg.trace else None
        if recovery is not None:
            recovery.stamp_pending(world_trace)
        start_base = recovery.start_base if recovery is not None else 0.0
        world, results, exc = _run_attempt(
            nprocs, machine, fn, args, kwargs, plan,
            fault_state, recovery, start_base, world_trace, budget,
            watchdog)

        anomaly = None
        if exc is None:
            anomaly = _unconsumed(world)
            exc = anomaly
        # degrade only swallows fault-induced failures (and the
        # unconsumed-message anomaly, which only chaos can produce) —
        # a user program bug always surfaces
        degraded_ok = (exc is not None and recovery is not None
                       and policy.degrade
                       and (anomaly is not None
                            or _recoverable(exc, plan)))
        if exc is None or degraded_ok:
            may_restart = (exc is not None and recovery is not None
                           and policy.restarts_enabled
                           and _recoverable(exc, plan)
                           and recovery.attempt < policy.max_restarts)
            if not may_restart:
                report = None
                if recovery is not None:
                    outcome = "completed" if exc is None else "degraded"
                    recovery.finish_attempt(world, outcome, exc)
                    if exc is not None:
                        recovery.report.degraded = True
                        recovery.report.error = \
                            f"{type(exc).__name__}: {exc}".splitlines()[0]
                        recovery.note(f"degrade: {type(exc).__name__}")
                        if world_trace is not None:
                            world_trace.recorders[0].recovery(
                                "degrade", float(world.clocks.max()),
                                error=type(exc).__name__)
                    report = recovery.report
                return SpmdResult(
                    results=results,
                    times=world.clocks.tolist(),
                    machine=machine,
                    nprocs=nprocs,
                    messages_sent=world.messages_sent,
                    bytes_sent=world.bytes_sent,
                    collectives=world.collectives,
                    collective_counts=dict(world.collective_counts),
                    backend=backend,
                    fault_events=world.faults.events
                    if world.faults is not None else [],
                    trace=world_trace,
                    recovery=report,
                    rank_retries=world.rank_retries.tolist(),
                )

        # the attempt failed: heal if the policy and budgets allow
        if recovery is not None and _recoverable(exc, plan):
            recovery.finish_attempt(world, "failed", exc)
            if (policy.restarts_enabled
                    and recovery.attempt < policy.max_restarts):
                recovery.plan_restart(world, machine, exc)
                if on_fused_fallback is not None:
                    on_fused_fallback()  # discard partial side effects
                continue
        raise exc
