"""Simulated MPI: communicator, point-to-point, and collectives.

Each SPMD rank runs on its own carrier thread (see
:mod:`repro.mpi.executor`).  Data moves through in-process mailboxes and
rendezvous slots — real values, really exchanged, so compiled programs
compute real answers.  *Time*, however, is virtual: every rank owns a
clock, computation charges it through the machine's
:class:`~repro.mpi.machine.MachineModel`, and every communication
operation advances/synchronizes clocks according to the model's
latency/bandwidth/topology.  Reported speedups are ratios of virtual
times, which is what lets a laptop reproduce the shape of the paper's
Meiko CS-2 / SMP / Ethernet-cluster results.

The ``lockstep`` backend (see :func:`~repro.mpi.executor.run_spmd`)
drives this module: a cooperative scheduler (:mod:`repro.mpi.scheduler`)
gates the carrier threads so exactly one rank runs at a time; blocking
operations park the rank and hand off, so there are no locks on the hot
path, no condvar broadcasts, no timeout polling, and runs are
bit-deterministic.  The default ``fused`` backend reuses :class:`World`
only as its clocks/statistics container (:mod:`repro.mpi.fused`).

The API mirrors mpi4py's lowercase (pickle-object) methods.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Optional

import numpy as np

from ..errors import MpiCorruptionError, MpiError, MpiRetryExhaustedError, \
    MpiTimeoutError
from .datatypes import sizeof
from .faults import FaultState, payload_checksum
from .machine import MachineModel
from .recovery import retry_backoff

ANY_SOURCE = -1
ANY_TAG = -1

#: wait-graph rendering cap: reports list at most this many blocked
#: ranks beyond any detected cycle (a P=1024 deadlock report must stay
#: readable and O(1)-ish to format)
WAIT_REPORT_LIMIT = 16


def find_wait_cycle(edges: dict) -> list:
    """Ranks on the first cycle of a wait graph (``waiter -> waited-on``
    single-successor edges; wildcard waits simply have no edge).  Empty
    list when every chain dead-ends.  Deterministic: chains are chased
    from the lowest-numbered waiter up."""
    visited: set = set()
    for start in sorted(edges):
        if start in visited:
            continue
        index: dict = {}
        path: list = []
        node = start
        while node in edges and node not in index and node not in visited:
            index[node] = len(path)
            path.append(node)
            node = edges[node]
        visited.update(path)
        if node in index:
            return path[index[node]:]
    return []

#: sentinel for "no matching message yet" from a nonblocking probe
_NOT_READY = object()


class Status:
    """Receive status: who sent, with what tag, how many bytes."""

    __slots__ = ("source", "tag", "nbytes")

    def __init__(self, source: int = -1, tag: int = -1, nbytes: int = 0):
        self.source = source
        self.tag = tag
        self.nbytes = nbytes


# -- reduction operators ---------------------------------------------------


def _op_sum(a, b):
    return a + b


def _op_prod(a, b):
    return a * b


def _op_max(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) \
        or isinstance(b, np.ndarray) else max(a, b)


def _op_min(a, b):
    return np.minimum(a, b) if isinstance(a, np.ndarray) \
        or isinstance(b, np.ndarray) else min(a, b)


def _op_land(a, b):
    return np.logical_and(a, b).astype(float) if isinstance(a, np.ndarray) \
        else float(bool(a) and bool(b))


def _op_lor(a, b):
    return np.logical_or(a, b).astype(float) if isinstance(a, np.ndarray) \
        else float(bool(a) or bool(b))


SUM: Callable = _op_sum
PROD: Callable = _op_prod
MAX: Callable = _op_max
MIN: Callable = _op_min
LAND: Callable = _op_land
LOR: Callable = _op_lor


class _Abort(MpiError):
    """Raised inside blocked ranks when another rank fails."""


class World:
    """Shared state of one SPMD execution.

    ``scheduler`` is the :class:`~repro.mpi.scheduler.LockstepScheduler`
    that gates the ranks' :class:`Comm` calls; exactly one rank runs at
    a time, so shared state is mutated without locks.  It is ``None``
    only for the fused backend's bookkeeping world, which never blocks.
    """

    def __init__(self, nprocs: int, machine: MachineModel, scheduler=None,
                 fault_plan=None, trace=None, fault_state=None,
                 recovery=None, start_time: float = 0.0):
        if nprocs < 1:
            raise MpiError("need at least one process")
        if nprocs > machine.max_cpus:
            raise MpiError(
                f"{machine.name} has only {machine.max_cpus} CPUs "
                f"(asked for {nprocs})")
        self.nprocs = nprocs
        self.machine = machine
        self.scheduler = scheduler
        #: optional :class:`~repro.trace.recorder.WorldTrace`; when set,
        #: each rank's Comm caches its own recorder and the substrate
        #: records events (None: every trace hook is one dead branch)
        self.trace = trace
        #: cross-attempt recovery state
        #: (:class:`~repro.mpi.recovery.ActiveRecovery`) when a
        #: non-abort ``on_fault`` policy is active, else ``None`` —
        #: the retry loop and checkpoint hook both key off this
        self.recovery = recovery
        # chaos: a seeded FaultPlan makes every send/recv/sync consult
        # FaultState; a plan with no injectable rules costs nothing.
        # A restart attempt passes the *carried* fault_state so fired
        # one-shot rules stay consumed across the replay.
        self.faults: Optional[FaultState] = None
        self.virtual_timeout: Optional[float] = None
        if fault_plan is not None:
            self.virtual_timeout = fault_plan.virtual_timeout
            if fault_state is not None:
                self.faults = fault_state
            elif fault_plan.has_faults:
                self.faults = FaultState(fault_plan, nprocs)
        if self.faults is not None:
            if trace is not None:
                # injected-fault events join the trace stream (the
                # CLI echoes to stderr only when no recorder exists)
                recorders = trace.recorders
                self.faults.sink = (
                    lambda rank, text, now:
                    recorders[rank].fault(text, now))
            else:
                # a carried fault_state may still point at a discarded
                # attempt's recorders
                self.faults.sink = None
        #: uniform clock base of this execution attempt (0.0 except on
        #: recovery restarts, where it encodes the failed prefix +
        #: restart overhead - checkpoint credit)
        self.start_time = float(start_time)
        #: per-rank virtual clocks.  A rank-indexed float64 array so the
        #: fused backend can charge all P ranks with one vector
        #: expression; scalar indexing (``clocks[r] += dt``) keeps the
        #: lockstep per-rank view and is bit-identical to the old
        #: Python-list arithmetic (IEEE float64 either way).
        self.clocks = np.full(nprocs, self.start_time, dtype=np.float64)
        # first abort wins, also against the host watchdog's timer thread
        self._abort_lock = threading.Lock()
        # (src, dst, tag) -> deque of (payload, arrival_time, nbytes,
        # checksum); the wire size is computed once at send time and
        # carried with the message so receive-side accounting never
        # re-walks payloads; checksum is None unless faults are active
        self.mailboxes: dict[tuple[int, int, int], deque] = {}
        # rank -> (source, tag) pattern it is blocked on: lockstep uses
        # it to unpark exactly the matching rank, the watchdog to report
        # who was waiting on what when a run had to be aborted
        self._recv_waiting: dict[int, tuple[int, int]] = {}
        self.aborted: Optional[BaseException] = None
        # collective rendezvous state
        self._slots: list[Any] = [None] * nprocs
        self._coll_result: Any = None
        self._coll_time: float = 0.0
        self._coll_tmax: float = 0.0  # rendezvous instant, pre-cost
        #: payload size of the current collective, published by each
        #: combine closure for the trace layer (exactly the value fed to
        #: ``collective_time``, so every backend reports the same bytes)
        self._coll_nbytes: int = 0
        self._arrived = 0
        # message statistics (observability / tests): rank-indexed
        # primaries so the fused backend can bump all P ranks at once;
        # the scalar totals everyone reads are properties over these.
        self.rank_messages = np.zeros(nprocs, dtype=np.int64)
        self.rank_bytes = np.zeros(nprocs, dtype=np.int64)
        self.rank_collectives = np.zeros(nprocs, dtype=np.int64)
        #: message re-sends by the recovery layer (zero unless a
        #: non-abort on_fault policy healed a drop/corrupt fault)
        self.rank_retries = np.zeros(nprocs, dtype=np.int64)
        self.collectives = 0
        self.collective_counts: dict[str, int] = {}

    @property
    def messages_sent(self) -> int:
        """Total messages across ranks (sum of ``rank_messages``)."""
        return int(self.rank_messages.sum())

    @property
    def bytes_sent(self) -> int:
        """Total payload bytes across ranks (sum of ``rank_bytes``)."""
        return int(self.rank_bytes.sum())

    # ------------------------------------------------------------------ #

    def abort(self, exc: BaseException) -> None:
        with self._abort_lock:
            if self.aborted is None:
                self.aborted = exc

    def _check_abort(self) -> None:
        if self.aborted is not None:
            raise _Abort(f"peer rank failed: {self.aborted!r}")

    def _count(self, op: str) -> None:
        """Tally one collective by name.  Callers run under the lockstep
        baton or are the only rank (fused) — so a plain increment is
        race-free everywhere it is used."""
        self.collective_counts[op] = self.collective_counts.get(op, 0) + 1

    def wait_snapshot(self) -> str:
        """Best-effort report of who is blocked on what (the watchdog's
        post-mortem; under lockstep the scheduler's wait graph is the
        authoritative version).  At most ``WAIT_REPORT_LIMIT`` waiters
        are listed beyond any recv cycle — a P=1024 report stays
        readable; below the cap the rendering is byte-identical to the
        full listing."""
        waiting = self._recv_waiting

        def render(rank: int) -> str:
            source, tag = waiting[rank]
            return (f"rank {rank}: blocked in "
                    f"recv(source={source}, tag={tag})")

        ranks = sorted(waiting)
        lines = []
        if len(ranks) > WAIT_REPORT_LIMIT:
            cycle = find_wait_cycle(
                {r: waiting[r][0] for r in ranks
                 if waiting[r][0] != ANY_SOURCE})
            if cycle:
                lines.append("recv cycle: " +
                             " -> ".join(str(r) for r in
                                         cycle + [cycle[0]]))
            on_cycle = set(cycle)
            rest = [r for r in ranks if r not in on_cycle]
            shown = rest[:WAIT_REPORT_LIMIT]
            lines.extend(render(r) for r in cycle)
            lines.extend(render(r) for r in shown)
            if len(rest) > len(shown):
                lines.append(f"... and {len(rest) - len(shown)} more "
                             f"blocked ranks")
        else:
            lines.extend(render(r) for r in ranks)
        if self._arrived:
            lines.append(f"collective rendezvous incomplete: "
                         f"{self._arrived}/{self.nprocs} arrived")
        return "\n  ".join(lines)

    def _check_virtual_timeout(self, rank: int, waited: float,
                               what: str) -> None:
        """Raise if a rank's simulated wait exceeded the plan's patience."""
        timeout = self.virtual_timeout
        if timeout is not None and waited > timeout:
            raise MpiTimeoutError(
                f"rank {rank} timed out in {what}: waited {waited:.9g}s "
                f"virtual (timeout {timeout:.9g}s)")

    # ------------------------------------------------------------------ #
    # rendezvous: every rank calls sync(contribute, combine);
    # `combine(slots, tmax)` runs on exactly one rank (the last to
    # arrive) and returns the (shared result, new common clock).
    # Collective accounting is folded into the rendezvous itself: the
    # combining rank tallies `op`, so no caller takes a separate lock
    # round-trip just to bump a counter.
    # ------------------------------------------------------------------ #

    def _run_combine(self, combine: Callable, op: Optional[str]) -> None:
        """All contributions are in: run ``combine`` exactly once and
        publish the result for this generation."""
        self._coll_nbytes = 0  # combines that price bytes re-publish
        tmax = float(self.clocks.max())
        result, tnew = combine(list(self._slots), tmax)
        self._coll_result = result
        self._coll_time = tnew
        self._coll_tmax = tmax
        self._arrived = 0
        self.collectives += 1
        self.rank_collectives += 1
        if op is not None:
            self._count(op)
        recovery = self.recovery
        if (recovery is not None and recovery.policy.checkpoint_every
                and self.collectives
                % recovery.policy.checkpoint_every == 0):
            # collective boundaries are the only instants where every
            # rank's position is known (all contributions are in), so
            # they are where snapshots are consistent
            recovery.store.take(self, tnew, recovery.attempt)

    def sync(self, rank: int, contribution: Any,
             combine: Callable[[list, float], tuple[Any, float]],
             op: Optional[str] = None, rec=None, line: int = 0):
        """``rec``/``line`` are the calling rank's trace recorder and
        current source line (``None``/0 when tracing is off or
        suspended) — passed by value so a suspended recorder really
        records nothing."""
        if self.faults is not None:
            self.faults.check_crash(rank, op or "collective",
                                    self.clocks[rank])
        self._check_abort()
        self._slots[rank] = contribution
        self._arrived += 1
        if self._arrived < self.nprocs:
            # Single-runner rendezvous: early ranks park; the last rank
            # to arrive runs ``combine`` once and unparks everyone.  A
            # parked rank reads the published result as its first
            # action on resume, which happens-before any rank can
            # complete the *next* collective (that would require this
            # rank to have arrived there first), so one result slot
            # suffices and no departure barrier is needed.  The reason
            # is a lazy record; only a deadlock report formats it.
            self.scheduler.block(
                rank, ("collective", op, self._arrived, self.nprocs))
            self._check_abort()
        else:
            self._run_combine(combine, op)
            self._slots = [None] * self.nprocs
            for peer in range(self.nprocs):
                if peer != rank:
                    self.scheduler.unblock(peer)
        self._check_virtual_timeout(
            rank, self._coll_tmax - self.clocks[rank], op or "collective")
        t0 = self.clocks[rank]
        self.clocks[rank] = max(t0, self._coll_time)
        if rec is not None:
            rec.collective(op or "collective", line, t0,
                           self.clocks[rank] - t0, self._coll_nbytes)
        return self._coll_result


class Request:
    """Handle for a nonblocking operation.

    ``wait()`` blocks until completion.  ``test()`` mirrors MPI_Test:
    it *attempts* completion via the nonblocking ``poll_fn`` (returning
    ``_NOT_READY`` when the operation cannot finish yet) instead of
    only reporting whether ``wait()`` already ran.
    """

    def __init__(self, wait_fn: Callable[[], Any],
                 poll_fn: Optional[Callable[[], Any]] = None):
        self._wait_fn = wait_fn
        self._poll_fn = poll_fn
        self._done = False
        self._value: Any = None

    @classmethod
    def completed(cls, value: Any = None) -> "Request":
        """An already-finished request (buffered sends complete at post)."""
        request = cls(lambda: value)
        request._done = True
        request._value = value
        return request

    def wait(self) -> Any:
        if not self._done:
            self._value = self._wait_fn()
            self._done = True
        return self._value

    def test(self) -> bool:
        """Try to complete without blocking; True once complete."""
        if self._done:
            return True
        if self._poll_fn is not None:
            value = self._poll_fn()
            if value is not _NOT_READY:
                self._value = value
                self._done = True
        return self._done


class Comm:
    """One rank's view of the communicator (mpi4py-style lowercase API)."""

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank
        self.size = world.nprocs
        self.machine = world.machine
        #: current MATLAB source line (generated code stores line markers
        #: here; plain attribute, so the disabled-tracing cost is one
        #: store per marked statement)
        self.line = 0
        #: this rank's trace recorder, or None (tracing off/suspended);
        #: every hook below guards on this single cached reference
        self._rec = None if world.trace is None \
            else world.trace.recorders[rank]

    def poll_abort(self) -> None:
        """Unwind this rank if the world aborted (the runtime polls this
        at every loop back-edge, so a rank spinning in scalar code
        leaves through the normal abort path)."""
        self.world._check_abort()

    # -- virtual time --------------------------------------------------- #

    @property
    def time(self) -> float:
        return self.world.clocks[self.rank]

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise MpiError("cannot advance the clock backwards")
        self.world.clocks[self.rank] += dt
        if self._rec is not None:
            self._rec.charge(self.line, dt)

    def compute(self, flops: int = 0, elems: int = 0, mem: int = 0) -> None:
        """Charge local computation to this rank's clock."""
        dt = self.machine.compute_time(
            flops=flops, elems=elems, mem=mem, active_cpus=self.size)
        if self._rec is not None and dt > 0.0:
            self._rec.compute(self.line, self.world.clocks[self.rank], dt)
        self.advance(dt)

    def overhead(self, calls: int = 1) -> None:
        """Charge run-time-library call overhead."""
        if self._rec is not None:
            self._rec.calls(self.line, calls)
        self.advance(calls * self.machine.cpu.call_overhead)

    def clock_snapshot(self):
        """Opaque snapshot of this rank's clock (see ``clock_restore``)."""
        return self.world.clocks[self.rank]

    def clock_restore(self, snapshot) -> None:
        """Roll the clock back to a snapshot (instrumentation support)."""
        self.world.clocks[self.rank] = snapshot

    # -- tracing -------------------------------------------------------- #

    def trace_suspend(self):
        """Detach this rank's recorder (for instrumentation-only work
        whose clock cost is rolled back, e.g. final-workspace gathers);
        returns a token for :meth:`trace_resume`."""
        rec, self._rec = self._rec, None
        return rec

    def trace_resume(self, token) -> None:
        self._rec = token

    def trace_io(self, nbytes: int) -> None:
        """Record a program-output event (rank 0 writes on every backend)."""
        if self._rec is not None:
            self._rec.io(self.line, self.world.clocks[self.rank], nbytes)

    # -- point-to-point -------------------------------------------------- #

    def _check_dest(self, dest: int) -> None:
        if not (0 <= dest < self.size):
            raise MpiError(f"invalid destination rank {dest}")

    def _check_source(self, source: int) -> None:
        if source != ANY_SOURCE and not (0 <= source < self.size):
            raise MpiError(
                f"invalid source rank {source} (use ANY_SOURCE for a "
                f"wildcard)")

    def _check_tag(self, tag: int, wildcard_ok: bool = False) -> None:
        """Reject negative tags: they collide with the ``ANY_TAG`` /
        ``ANY_SOURCE`` sentinels (-1) and would match the wrong
        message."""
        if wildcard_ok and tag == ANY_TAG:
            return
        if not isinstance(tag, (int, np.integer)) or isinstance(tag, bool) \
                or tag < 0:
            raise MpiError(
                f"invalid tag {tag!r}: tags must be nonnegative integers "
                f"(negative values collide with the ANY_TAG sentinel)")

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_dest(dest)
        self._check_tag(tag)
        nbytes = sizeof(obj)
        world = self.world
        world._check_abort()
        delivered = self._post_message(obj, dest, tag, nbytes)
        # unpark the receiver iff it is parked on a matching pattern
        # (a send to self never finds the sender parked)
        if not delivered:
            return
        waiting = world._recv_waiting.get(dest)
        if waiting is not None:
            wsource, wtag = waiting
            if (wsource in (ANY_SOURCE, self.rank)
                    and wtag in (ANY_TAG, tag)):
                world.scheduler.unblock(dest)

    def _post_message(self, obj: Any, dest: int, tag: int,
                      nbytes: int) -> bool:
        """Charge the sender, enqueue the message, update statistics.

        Returns False when a fault rule dropped the message (the sender
        is charged either way — it cannot tell the wire lost it)."""
        world = self.world
        faults = world.faults
        rec = self._rec
        checksum = None
        copies = 1
        extra_delay = 0.0
        delivered = True
        if faults is not None:
            faults.check_crash(self.rank, "send", world.clocks[self.rank])
            recovery = world.recovery
            retrying = (recovery is not None
                        and recovery.policy.retries_enabled)
            attempt = 0
            penalty = 0.0
            while True:
                fate = faults.on_message(
                    self.rank, dest, tag, nbytes,
                    world.clocks[self.rank] + penalty, obj)
                if not retrying or (fate.deliver and not fate.corrupted):
                    break
                if attempt >= recovery.policy.max_retries:
                    raise MpiRetryExhaustedError(
                        f"rank {self.rank} -> rank {dest} (tag {tag}, "
                        f"{nbytes} B): retry budget exhausted after "
                        f"{recovery.policy.max_retries} re-sends — "
                        f"every attempt was "
                        f"{'corrupted' if fate.deliver else 'dropped'}")
                # the simulated transport notices the failure — ack
                # timeout for a drop, checksum NACK for corruption —
                # and re-sends with seeded exponential backoff.  The
                # lost attempt is charged honestly: its bytes crossed
                # (or tried to cross) the wire, and the detection +
                # backoff latency delays the eventual delivery.
                penalty += self._retry_cost(dest, nbytes, fate,
                                            attempt, recovery, faults)
                attempt += 1
            obj = fate.payload
            checksum = fate.checksum
            copies = fate.copies
            extra_delay = fate.extra_delay + penalty
            delivered = fate.deliver
        t_send = world.clocks[self.rank]
        arrival = t_send + self.machine.p2p_time(self.rank, dest, nbytes) \
            + extra_delay
        # buffered send: sender is occupied for the injection overhead
        world.clocks[self.rank] = t_send + \
            self.machine.link_between(self.rank, dest).latency * 0.5
        world.rank_messages[self.rank] += 1
        world.rank_bytes[self.rank] += nbytes
        if rec is not None:
            rec.send(self.line, t_send, world.clocks[self.rank] - t_send,
                     dest, tag, nbytes)
        if not delivered:
            return False
        key = (self.rank, dest, tag)
        queue = world.mailboxes.setdefault(key, deque())
        for _ in range(copies):
            queue.append((obj, arrival, nbytes, checksum))
        if copies > 1:
            # the duplicate crossed the wire too: accounted explicitly,
            # never silently
            world.rank_messages[self.rank] += copies - 1
            world.rank_bytes[self.rank] += nbytes * (copies - 1)
            if rec is not None:
                rec.extra_copies(self.line, copies - 1,
                                 nbytes * (copies - 1))
        return True

    def _retry_cost(self, dest: int, nbytes: int, fate, attempt: int,
                    recovery, faults: FaultState) -> float:
        """Account one failed send attempt and price its recovery.

        Returns the virtual seconds between the failed attempt and the
        re-send: the transport's detection latency (an ack timeout of
        ``rto_factor`` link latencies for a drop; a full payload
        crossing plus a NACK hop for corruption — the mangled bytes
        *did* travel) plus seeded exponential backoff.  The failed
        attempt's wire traffic is charged to the per-rank accounting
        arrays, and the retry is logged to the fault event stream and
        the trace."""
        world = self.world
        rank = self.rank
        link = self.machine.link_between(rank, dest)
        if fate.deliver:    # corrupted: payload crossed, NACK came back
            detect = self.machine.p2p_time(rank, dest, nbytes) \
                + link.latency
            why = "corrupt"
        else:               # dropped: the sender's ack timer fired
            detect = recovery.policy.rto_factor * link.latency
            why = "drop"
        backoff = retry_backoff(faults.plan.seed, rank,
                                recovery.next_retry_seq(rank), attempt,
                                link.latency)
        cost = detect + backoff
        world.rank_messages[rank] += 1
        world.rank_bytes[rank] += nbytes
        world.rank_retries[rank] += 1
        now = world.clocks[rank]
        faults._log(rank, f"retry {why} rank {rank}->rank {dest} "
                          f"attempt={attempt + 1} cost={cost:.9g}", now)
        recovery.note(f"retry {why} rank {rank}->rank {dest} "
                      f"attempt={attempt + 1} cost={cost:.9g}")
        rec = self._rec
        if rec is not None:
            rec.recovery("retry", now, dest=dest, cause=why,
                         attempt=attempt + 1, cost=cost, bytes=nbytes)
        return cost

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Optional[Status] = None) -> Any:
        self._check_source(source)
        self._check_tag(tag, wildcard_ok=True)
        world = self.world
        if world.faults is not None:
            world.faults.check_crash(self.rank, "recv",
                                     world.clocks[self.rank])
        while True:
            world._check_abort()
            key = self._find_message(source, tag)
            if key is not None:
                return self._take_message(key, status)
            world._recv_waiting[self.rank] = (source, tag)
            world.scheduler.block(self.rank, ("recv", source, tag))
            world._recv_waiting.pop(self.rank, None)

    def _take_message(self, key: tuple[int, int, int],
                      status: Optional[Status]) -> Any:
        """Dequeue a matched message, verify integrity, and charge the
        receive clock (raising if the virtual wait exceeded the plan's
        timeout — the rank would have given up before the data came)."""
        world = self.world
        obj, arrival, nbytes, checksum = world.mailboxes[key].popleft()
        if not world.mailboxes[key]:
            del world.mailboxes[key]
        me = world.clocks[self.rank]
        world._check_virtual_timeout(
            self.rank, arrival - me,
            f"recv(source={key[0]}, tag={key[2]})")
        if checksum is not None and payload_checksum(obj) != checksum:
            raise MpiCorruptionError(
                f"message from rank {key[0]} to rank {key[1]} "
                f"(tag {key[2]}, {nbytes} B) failed its integrity check: "
                f"payload corrupted in transit")
        world.clocks[self.rank] = max(me, arrival)
        if self._rec is not None:
            self._rec.recv(self.line, me, max(0.0, arrival - me),
                           key[0], key[2], nbytes)
        if status is not None:
            status.source, status.tag = key[0], key[2]
            status.nbytes = nbytes
        return obj

    def _try_recv(self, source: int, tag: int,
                  status: Optional[Status] = None) -> Any:
        """Nonblocking receive attempt: the matched payload, or
        ``_NOT_READY``.  A miss rotates the baton once so
        ``while not request.test()`` polling loops cannot starve the
        sender, then re-probes."""
        world = self.world
        world._check_abort()
        key = self._find_message(source, tag)
        if key is None:
            world.scheduler.yield_now(self.rank)
            world._check_abort()
            key = self._find_message(source, tag)
        if key is None:
            return _NOT_READY
        return self._take_message(key, status)

    def _find_message(self, source: int, tag: int):
        for key in self.world.mailboxes:
            src, dst, mtag = key
            if dst != self.rank:
                continue
            if source != ANY_SOURCE and src != source:
                continue
            if tag != ANY_TAG and mtag != tag:
                continue
            if self.world.mailboxes[key]:
                return key
        return None

    def sendrecv(self, obj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG) -> Any:
        self._check_dest(dest)
        self._check_tag(sendtag)
        self._check_source(source)
        self._check_tag(recvtag, wildcard_ok=True)
        if dest == self.rank and (source in (ANY_SOURCE, self.rank)):
            return obj  # self-exchange: no wire traffic
        request = self.isend(obj, dest, sendtag)
        received = self.recv(source, recvtag)
        request.wait()
        return received

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)  # buffered: completes immediately
        return Request.completed()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        # validate at post time (like MPI_Irecv), not first wait()/test()
        self._check_source(source)
        self._check_tag(tag, wildcard_ok=True)
        return Request(wait_fn=lambda: self.recv(source, tag),
                       poll_fn=lambda: self._try_recv(source, tag))

    # -- collectives ------------------------------------------------------ #

    def barrier(self) -> None:
        cost = self.machine.collective_time("barrier", 0, self.size)

        def combine(slots, tmax):
            return None, tmax + cost

        self.world.sync(self.rank, None, combine, op="barrier",
                        rec=self._rec, line=self.line)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        if not (0 <= root < self.size):
            raise MpiError(f"invalid root {root}")
        if self.size == 1:
            self.world._count("bcast")
            if self._rec is not None:
                self._rec.collective("bcast", self.line,
                                     self.world.clocks[self.rank], 0.0,
                                     sizeof(obj))
            return obj
        machine = self.machine
        size = self.size
        world = self.world

        def combine(slots, tmax):
            payload = slots[root]
            nbytes = sizeof(payload)
            world._coll_nbytes = nbytes
            cost = machine.collective_time("bcast", nbytes, size)
            return payload, tmax + cost

        return self.world.sync(self.rank, obj if self.rank == root else None,
                               combine, op="bcast",
                               rec=self._rec, line=self.line)

    def reduce(self, obj: Any, op: Callable = SUM, root: int = 0) -> Any:
        result = self._reduce_impl(obj, op, "reduce")
        return result if self.rank == root else None

    def allreduce(self, obj: Any, op: Callable = SUM) -> Any:
        return self._reduce_impl(obj, op, "allreduce")

    def _reduce_impl(self, obj: Any, op: Callable, kind: str) -> Any:
        if self.size == 1:
            self.world._count(kind)
            if self._rec is not None:
                self._rec.collective(kind, self.line,
                                     self.world.clocks[self.rank], 0.0,
                                     sizeof(obj))
            return obj
        machine = self.machine
        size = self.size
        world = self.world

        def combine(slots, tmax):
            acc = slots[0]
            for item in slots[1:]:
                acc = op(acc, item)
            nbytes = max(sizeof(s) for s in slots)
            world._coll_nbytes = nbytes
            cost = machine.collective_time(kind, nbytes, size)
            # reduction arithmetic itself: log2(P) combining steps
            elems = nbytes / 8.0
            cost += int(np.ceil(np.log2(size))) * elems * machine.cpu.elem_time
            return acc, tmax + cost

        return self.world.sync(self.rank, obj, combine, op=kind,
                               rec=self._rec, line=self.line)

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        machine = self.machine
        size = self.size
        world = self.world

        def combine(slots, tmax):
            nbytes = max(sizeof(s) for s in slots)
            world._coll_nbytes = nbytes
            cost = machine.collective_time("gather", nbytes, size)
            return list(slots), tmax + cost

        result = self.world.sync(self.rank, obj, combine, op="gather",
                                 rec=self._rec, line=self.line)
        return result if self.rank == root else None

    def allgather(self, obj: Any) -> list:
        machine = self.machine
        size = self.size
        world = self.world

        def combine(slots, tmax):
            nbytes = max(sizeof(s) for s in slots)
            world._coll_nbytes = nbytes
            cost = machine.collective_time("allgather", nbytes, size)
            return list(slots), tmax + cost

        return self.world.sync(self.rank, obj, combine, op="allgather",
                               rec=self._rec, line=self.line)

    def scatter(self, objs: Optional[list], root: int = 0) -> Any:
        machine = self.machine
        size = self.size
        world = self.world
        if self.rank == root:
            if objs is None or len(objs) != size:
                raise MpiError("scatter: root must supply one item per rank")

        def combine(slots, tmax):
            items = slots[root]
            per = sizeof(items[0]) if items else 0
            world._coll_nbytes = per
            cost = machine.collective_time("scatter", per, size)
            return items, tmax + cost

        items = self.world.sync(self.rank,
                                objs if self.rank == root else None,
                                combine, op="scatter",
                                rec=self._rec, line=self.line)
        return items[self.rank]

    def alltoall(self, objs: list) -> list:
        if len(objs) != self.size:
            raise MpiError("alltoall: need one item per rank")
        machine = self.machine
        size = self.size
        world = self.world

        def combine(slots, tmax):
            per = max((sizeof(row[0]) if row else 0) for row in slots)
            world._coll_nbytes = per
            cost = machine.collective_time("alltoall", per, size)
            transposed = [[slots[src][dst] for src in range(size)]
                          for dst in range(size)]
            return transposed, tmax + cost

        result = self.world.sync(self.rank, objs, combine, op="alltoall",
                                 rec=self._rec, line=self.line)
        return result[self.rank]

    def scan(self, obj: Any, op: Callable = SUM) -> Any:
        """Inclusive prefix reduction."""
        machine = self.machine
        size = self.size
        rank = self.rank
        world = self.world

        def combine(slots, tmax):
            prefixes = []
            acc = None
            for item in slots:
                acc = item if acc is None else op(acc, item)
                prefixes.append(acc)
            nbytes = max(sizeof(s) for s in slots)
            world._coll_nbytes = nbytes
            cost = machine.collective_time("allreduce", nbytes, size)
            return prefixes, tmax + cost

        result = self.world.sync(self.rank, obj, combine, op="scan",
                                 rec=self._rec, line=self.line)
        return result[rank]
