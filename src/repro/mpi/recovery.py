"""Self-healing for faulted SPMD runs: retry, checkpoint/restart, degrade.

PR 4 made every injected fault *terminal*: a dropped message starves the
receiver into a deadlock report, a corrupted payload raises
:class:`~repro.errors.MpiCorruptionError`, a crash rule kills the run.
This module adds the three layers that let a chaotic run *finish*:

**Retry-with-backoff** (wired into ``Comm._post_message``)
    When the policy enables retries, a message the chaotic network drops
    or corrupts is detected by the simulated transport (ack timeout for
    a drop, checksum NACK for corruption) and re-sent with exponential
    backoff + jitter derived from the fault-plan seed.  Every failed
    attempt is charged honestly: the lost bytes/messages land in the
    per-rank numpy accounting arrays, the detection + backoff latency
    lands on the message's arrival time, and ``rank_retries`` counts the
    re-sends.  A bounded retry budget escalates to
    :class:`~repro.errors.MpiRetryExhaustedError`.

**Checkpoint/restart** (wired into ``World._run_combine`` /
``FusedComm._sync_cost`` and the ``run_spmd`` attempt loop)
    Every ``checkpoint_every``-th collective snapshots the world's
    accounting state (per-rank clocks/counters, in-flight mailbox
    queues, collective tallies) plus any registered per-rank payloads
    (the runtime context contributes its RNG state) into a
    :class:`CheckpointStore`.  Generated programs keep their workspace
    in Python frame locals, which cannot be captured from outside the
    frame — so restart is *replay-based*: the program deterministically
    re-executes from the start (the seed-driven fault schedule is a pure
    function of per-rank occurrence indices, and fired one-shot rules
    stay consumed across attempts), while the restarted world's clocks
    begin at a uniform base that credits the checkpointed prefix and
    charges a modeled restart protocol (rejoin barrier + checkpoint
    rebroadcast).  Because the base shift is uniform and IEEE-754
    addition/max are monotone, every recovered rank clock is ``>=`` its
    fault-free baseline, and the *data* results are bit-identical (they
    never depend on the clocks).

**Graceful degradation** (``on_fault=abort|retry|restart|degrade``)
    ``abort`` is exactly the pre-existing behavior (and the default:
    healthy runs pay nothing).  ``retry`` heals message faults only;
    ``restart`` additionally replays after terminal faults, up to
    ``max_restarts`` times; ``degrade`` does everything ``restart`` does
    but returns a partial result carrying a structured
    :class:`RecoveryReport` instead of raising when the budget runs out.

Determinism caveat: fault rules windowed on *absolute* virtual time
(``after=``/``before=``) are evaluated against the restarted clock base,
so their schedule can shift across attempts; occurrence-indexed rules
(``step=``/``count=``/``p=``) replay identically.  See
docs/RESILIENCE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..config import DEFAULT_MAX_RESTARTS
from ..errors import MpiError
from .faults import _hash01

#: the four degradation policies, in increasing order of self-healing
ON_FAULT_POLICIES = ("abort", "retry", "restart", "degrade")

DEFAULT_MAX_RETRIES = 8


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a run reacts to injected faults (immutable, reusable).

    ``on_fault="abort"`` (the default) disables every recovery path and
    reproduces the pre-recovery behavior bit for bit.  ``max_retries``
    bounds per-message re-sends; ``max_restarts`` bounds whole-run
    replays; ``checkpoint_every`` (collectives) enables snapshots that
    earn a virtual-clock credit on restart (``None``: restart replays
    from the beginning with no credit).  ``rto_factor`` scales the
    link latency into the simulated sender's ack timeout.
    """

    on_fault: str = "abort"
    max_restarts: int = DEFAULT_MAX_RESTARTS
    checkpoint_every: Optional[int] = None
    max_retries: int = DEFAULT_MAX_RETRIES
    rto_factor: float = 4.0

    def __post_init__(self):
        if self.on_fault not in ON_FAULT_POLICIES:
            raise MpiError(
                f"unknown on_fault policy {self.on_fault!r} (expected "
                f"one of {', '.join(ON_FAULT_POLICIES)})")
        if self.max_restarts < 0:
            raise MpiError(
                f"max_restarts must be >= 0 (got {self.max_restarts})")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise MpiError(
                f"checkpoint_every must be >= 1 collectives "
                f"(got {self.checkpoint_every})")
        if self.max_retries < 0:
            raise MpiError(
                f"max_retries must be >= 0 (got {self.max_retries})")
        if self.rto_factor <= 0:
            raise MpiError(
                f"rto_factor must be positive (got {self.rto_factor})")

    @property
    def active(self) -> bool:
        """Any recovery at all? (False: every hook is one dead branch)"""
        return self.on_fault != "abort"

    @property
    def retries_enabled(self) -> bool:
        return self.active

    @property
    def restarts_enabled(self) -> bool:
        return self.on_fault in ("restart", "degrade")

    @property
    def degrade(self) -> bool:
        return self.on_fault == "degrade"


def retry_backoff(seed: int, rank: int, seq: int, attempt: int,
                  base: float) -> float:
    """Virtual seconds of exponential backoff before re-send number
    ``attempt`` (0-based): ``base * 2**attempt * (1 + jitter)`` with the
    jitter a pure function of the fault seed and the sender's retry
    sequence number — deterministic on every backend, never a shared
    RNG stream."""
    jitter = _hash01(seed, "retry", rank, seq, attempt)
    return base * (2.0 ** attempt) * (1.0 + jitter)


# ------------------------------------------------------------------------- #
# checkpoints
# ------------------------------------------------------------------------- #


@dataclass
class Checkpoint:
    """One snapshot of a world's accounting state at a collective
    boundary.  ``vtime_rel`` is the snapshot instant relative to the
    attempt's clock base — the virtual-clock credit a restart earns for
    not re-paying the checkpointed prefix."""

    index: int
    attempt: int
    collectives: int
    vtime: float
    vtime_rel: float
    clocks: np.ndarray
    rank_messages: np.ndarray
    rank_bytes: np.ndarray
    rank_collectives: np.ndarray
    rank_retries: np.ndarray
    collective_counts: dict[str, int]
    #: deep-copied in-flight queues: (src, dst, tag) -> list of
    #: (payload, arrival, nbytes, checksum)
    mailboxes: dict
    #: opaque per-rank payloads from registered providers (the runtime
    #: context contributes its RNG state and peak-memory watermark)
    payloads: dict[int, Any] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Approximate checkpoint size: what a real restart protocol
        would rebroadcast (accounting arrays + queued payload bytes)."""
        total = (self.clocks.nbytes + self.rank_messages.nbytes
                 + self.rank_bytes.nbytes + self.rank_collectives.nbytes
                 + self.rank_retries.nbytes)
        for queue in self.mailboxes.values():
            for _payload, _arrival, nbytes, _crc in queue:
                total += int(nbytes)
        return total


class CheckpointStore:
    """In-memory store of :class:`Checkpoint`\\ s.

    Payload providers are per-rank callables registered by runtime
    layers that own state the world cannot see (RNG streams, memory
    watermarks); they are invoked at snapshot time."""

    def __init__(self):
        self.checkpoints: list[Checkpoint] = []
        self._providers: dict[int, Callable[[], Any]] = {}

    def register_payload(self, rank: int,
                         provider: Callable[[], Any]) -> None:
        self._providers[rank] = provider

    @property
    def last(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    def last_for_attempt(self, attempt: int) -> Optional[Checkpoint]:
        """The newest checkpoint taken *during* the given attempt (a
        snapshot from an earlier attempt describes program positions the
        failing attempt may not have re-reached, so it earns no
        credit)."""
        for ck in reversed(self.checkpoints):
            if ck.attempt == attempt:
                return ck
        return None

    def take(self, world, vtime: float, attempt: int) -> Checkpoint:
        payloads = {}
        for rank, provider in self._providers.items():
            try:
                payloads[rank] = provider()
            except Exception:   # a provider must never kill the run
                payloads[rank] = None
        ck = Checkpoint(
            index=len(self.checkpoints),
            attempt=attempt,
            collectives=world.collectives,
            vtime=float(vtime),
            vtime_rel=float(vtime) - world.start_time,
            clocks=world.clocks.copy(),
            rank_messages=world.rank_messages.copy(),
            rank_bytes=world.rank_bytes.copy(),
            rank_collectives=world.rank_collectives.copy(),
            rank_retries=world.rank_retries.copy(),
            collective_counts=dict(world.collective_counts),
            mailboxes={key: [tuple(m) for m in queue]
                       for key, queue in world.mailboxes.items() if queue},
            payloads=payloads,
        )
        self.checkpoints.append(ck)
        return ck


# ------------------------------------------------------------------------- #
# the per-run recovery ledger
# ------------------------------------------------------------------------- #


@dataclass
class AttemptRecord:
    """One execution attempt inside a recovering ``run_spmd`` call."""

    index: int
    outcome: str                 # "completed" | "failed" | "degraded"
    error: Optional[str] = None
    error_type: Optional[str] = None
    start_base: float = 0.0      # uniform clock base the attempt ran at
    elapsed: float = 0.0         # slowest rank's clock at attempt end
    retries: int = 0             # message re-sends during this attempt


@dataclass
class RecoveryReport:
    """Structured account of what healed (attached to ``SpmdResult`` /
    ``RunResult`` whenever a non-abort policy was active)."""

    policy: RecoveryPolicy
    attempts: list[AttemptRecord] = field(default_factory=list)
    #: deterministic human-readable event log (retry / rollback /
    #: restart / degrade), in occurrence order
    events: list[str] = field(default_factory=list)
    checkpoints: int = 0
    degraded: bool = False
    error: Optional[str] = None

    @property
    def retries(self) -> int:
        return sum(a.retries for a in self.attempts)

    @property
    def restarts(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def healed(self) -> bool:
        """True when the run hit at least one fault yet completed."""
        return (not self.degraded
                and bool(self.attempts)
                and self.attempts[-1].outcome == "completed"
                and (self.retries > 0 or self.restarts > 0))

    def summary(self) -> str:
        tail = self.attempts[-1].outcome if self.attempts else "n/a"
        parts = [f"on_fault={self.policy.on_fault}",
                 f"attempts={len(self.attempts)}",
                 f"retries={self.retries}",
                 f"restarts={self.restarts}",
                 f"checkpoints={self.checkpoints}",
                 f"outcome={'degraded' if self.degraded else tail}"]
        if self.error:
            parts.append(f"error={self.error}")
        return " ".join(parts)


class ActiveRecovery:
    """Mutable cross-attempt recovery state for one ``run_spmd`` call.

    Carried across restart attempts (unlike the ``World``, which is
    rebuilt per attempt): the checkpoint store, the report, the next
    uniform clock base, and the per-rank retry sequence numbers that
    feed backoff jitter (so re-sends in attempt N+1 draw fresh jitter
    instead of replaying attempt N's)."""

    def __init__(self, policy: RecoveryPolicy, nprocs: int, seed: int = 0):
        self.policy = policy
        self.nprocs = nprocs
        self.seed = seed
        self.store = CheckpointStore()
        self.report = RecoveryReport(policy)
        self.attempt = 0
        self.start_base = 0.0
        self._retry_seq = [0] * nprocs
        #: (name, t0, args) recovery events awaiting the next attempt's
        #: trace (the failing attempt's trace is discarded with its
        #: world, so rollback/restart stamps go on the successor)
        self.pending_trace: list[tuple[str, float, dict]] = []

    def next_retry_seq(self, rank: int) -> int:
        seq = self._retry_seq[rank]
        self._retry_seq[rank] = seq + 1
        return seq

    def note(self, text: str) -> None:
        self.report.events.append(text)

    def finish_attempt(self, world, outcome: str,
                       exc: Optional[BaseException]) -> AttemptRecord:
        record = AttemptRecord(
            index=self.attempt,
            outcome=outcome,
            error=None if exc is None else str(exc).splitlines()[0],
            error_type=None if exc is None else type(exc).__name__,
            start_base=self.start_base,
            elapsed=float(world.clocks.max()) if world.nprocs else 0.0,
            retries=int(world.rank_retries.sum()),
        )
        self.report.attempts.append(record)
        self.report.checkpoints = len(self.store.checkpoints)
        return record

    def plan_restart(self, world, machine,
                     exc: BaseException) -> float:
        """Account one rollback+restart and return the next attempt's
        uniform clock base.

        The base is ``fail_time + restart_overhead - checkpoint_credit``:
        every rank pays a modeled restart protocol (a rejoin barrier on
        the way down, another on the way up, and a broadcast of the
        checkpoint image), then replays; the credit is the checkpointed
        prefix the replay does not re-pay.  The credit only counts a
        checkpoint the *failing* attempt actually reached, so the base
        is monotonically nondecreasing across attempts — which (with
        uniform shifts and monotone IEEE-754 ``+``/``max``) is what
        keeps every recovered clock >= its fault-free baseline."""
        fail_time = float(world.clocks.max())
        ck = self.store.last_for_attempt(self.attempt)
        credit = ck.vtime_rel if ck is not None else 0.0
        overhead = 2.0 * machine.collective_time("barrier", 0, self.nprocs)
        overhead += machine.collective_time(
            "bcast", ck.nbytes if ck is not None else 0, self.nprocs)
        base = fail_time + overhead - credit
        what = type(exc).__name__
        if ck is not None:
            self.note(f"rollback to checkpoint {ck.index} "
                      f"(collective {ck.collectives}, vtime_rel="
                      f"{ck.vtime_rel:.9g}) after {what}")
            self.pending_trace.append(
                ("rollback", fail_time,
                 {"checkpoint": ck.index, "error": what,
                  "credit": ck.vtime_rel}))
        else:
            self.note(f"rollback to program start after {what} "
                      f"(no checkpoint this attempt)")
            self.pending_trace.append(
                ("rollback", fail_time, {"checkpoint": -1, "error": what,
                                         "credit": 0.0}))
        self.note(f"restart attempt {self.attempt + 1} "
                  f"base={base:.9g} overhead={overhead:.9g}")
        self.pending_trace.append(
            ("restart", base, {"attempt": self.attempt + 1,
                               "overhead": overhead}))
        self.attempt += 1
        self.start_base = base
        return base

    def stamp_pending(self, world_trace) -> None:
        """Flush queued rollback/restart events into a fresh attempt's
        trace (rank 0's recorder, like every run-level event)."""
        if world_trace is None:
            self.pending_trace.clear()
            return
        rec = world_trace.recorders[0]
        for name, t0, args in self.pending_trace:
            rec.recovery(name, t0, **args)
        self.pending_trace.clear()
