"""Self-healing suite: retry-with-backoff, checkpoint/restart, degrade.

The anchor properties (mirrors docs/RESILIENCE.md):

1. **Heal to bit-identity** — a seeded chaos run that aborts under the
   default policy completes under ``on_fault=retry/restart`` with
   *bit-identical* data results to the fault-free baseline, on every
   backend (data never depends on the virtual clocks).
2. **Honest clocks** — recovery is never free: every recovered rank
   clock is ``>=`` its fault-free baseline, element-wise.
3. **Zero-fault transparency** — with a non-abort policy armed but no
   fault injected, results *and* clocks are exactly the baseline's and
   the trace records no recovery events.

No test here may rely on host waits longer than 30 s; the watchdog
tests use ~1 s budgets.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    MpiError,
    MpiRetryExhaustedError,
    RankCrashedError,
    SpmdWatchdogError,
)
from repro.mpi import MEIKO_CS2, run_spmd
from repro.mpi.recovery import (
    CheckpointStore,
    RecoveryPolicy,
    retry_backoff,
)

BACKENDS = ["lockstep", "fused"]


# ------------------------------------------------------------------------- #
# reference rank programs
# ------------------------------------------------------------------------- #


def ring(comm):
    """Each rank passes a token one hop right, then allreduces twice
    (two collective boundaries give checkpoints somewhere to land)."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(comm.rank * 10.0, dest=right, tag=1)
    got = comm.recv(source=left, tag=1)
    total = comm.allreduce(got)
    return comm.allreduce(total + comm.rank)


def collectives_only(comm):
    """Rank-agnostic program (stays fused on the fused backend)."""
    acc = 1.0
    for _ in range(4):
        acc = comm.allreduce(acc) / comm.size + 1.0
    return acc


def _clocks(result):
    return np.asarray(result.times)


# ------------------------------------------------------------------------- #
# policy validation (resolution: tests/test_config.py)
# ------------------------------------------------------------------------- #


class TestPolicyResolution:
    def test_unknown_policy_is_actionable(self):
        with pytest.raises(MpiError, match="unknown on_fault.*abort"):
            RecoveryPolicy(on_fault="panic")

    @pytest.mark.parametrize("kwargs,match", [
        (dict(on_fault="retry", max_restarts=-1), "max_restarts"),
        (dict(on_fault="retry", checkpoint_every=0), "checkpoint_every"),
        (dict(on_fault="retry", max_retries=-2), "max_retries"),
        (dict(on_fault="retry", rto_factor=0.0), "rto_factor"),
    ])
    def test_rejects_bad_knobs(self, kwargs, match):
        with pytest.raises(MpiError, match=match):
            RecoveryPolicy(**kwargs)

    def test_run_spmd_rejects_unknown_policy_eagerly(self):
        with pytest.raises(MpiError, match="unknown on_fault"):
            run_spmd(2, MEIKO_CS2, ring, on_fault="explode")


class TestRetryBackoff:
    def test_deterministic_and_exponential(self):
        a = retry_backoff(7, rank=1, seq=0, attempt=0, base=1e-4)
        b = retry_backoff(7, rank=1, seq=0, attempt=0, base=1e-4)
        assert a == b
        # jitter is bounded: base*2^k <= backoff < 2*base*2^k
        for k in range(4):
            d = retry_backoff(7, 1, 0, k, 1e-4)
            assert 1e-4 * 2 ** k <= d < 2e-4 * 2 ** k

    def test_jitter_varies_with_sequence(self):
        ds = {retry_backoff(7, 0, seq, 0, 1e-4) for seq in range(8)}
        assert len(ds) > 1


# ------------------------------------------------------------------------- #
# retry-with-backoff
# ------------------------------------------------------------------------- #


class TestRetryHealing:
    PLANS = ["seed=11; drop tag=1 count=2", "seed=11; bitflip tag=1 count=1"]

    @pytest.mark.parametrize("plan", PLANS)
    def test_plans_are_lethal_without_recovery(self, plan):
        with pytest.raises(MpiError):
            run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                     fault_plan=plan)

    @pytest.mark.parametrize("backend", ["lockstep"])
    @pytest.mark.parametrize("plan", PLANS)
    def test_message_faults_heal_bit_identically(self, backend, plan):
        base = run_spmd(4, MEIKO_CS2, ring, backend=backend)
        healed = run_spmd(4, MEIKO_CS2, ring, backend=backend,
                          fault_plan=plan, on_fault="retry", watchdog=20.0)
        assert healed.results == base.results
        assert np.all(_clocks(healed) >= _clocks(base))
        assert healed.recovery is not None and healed.recovery.healed
        assert healed.recovery.retries > 0
        # every re-send is charged: more wire traffic than the baseline
        assert healed.messages_sent > base.messages_sent
        assert healed.bytes_sent > base.bytes_sent

    def test_retry_events_land_in_the_trace(self):
        healed = run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                          fault_plan="seed=11; drop tag=1 count=2",
                          on_fault="retry", trace=True, watchdog=20.0)
        events = healed.trace.recovery_events()
        assert events and all(e.name == "retry" for e in events)
        assert all(e.args["cause"] in ("drop", "corrupt") for e in events)

    def test_retry_budget_escalates(self):
        # every copy of the tag-1 message is dropped: undeliverable
        plan = "seed=3; drop tag=1"
        with pytest.raises(MpiRetryExhaustedError, match="retry budget"):
            run_spmd(2, MEIKO_CS2, ring, backend="lockstep",
                     fault_plan=plan, on_fault="retry", watchdog=20.0)

    def test_retries_count_per_rank(self):
        healed = run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                          fault_plan="seed=11; drop tag=1 count=2",
                          on_fault="retry", watchdog=20.0)
        per_rank = healed.rank_retries
        assert int(np.sum(per_rank)) == healed.recovery.retries > 0


# ------------------------------------------------------------------------- #
# checkpoint/restart
# ------------------------------------------------------------------------- #

CRASH_PLAN = "seed=5; crash rank=2 op=allreduce step=2"


class TestRestartHealing:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_heals_bit_identically(self, backend):
        base = run_spmd(4, MEIKO_CS2, ring, backend=backend)
        with pytest.raises(RankCrashedError):
            run_spmd(4, MEIKO_CS2, ring, backend=backend,
                     fault_plan=CRASH_PLAN, watchdog=20.0)
        healed = run_spmd(4, MEIKO_CS2, ring, backend=backend,
                          fault_plan=CRASH_PLAN, on_fault="restart",
                          checkpoint_every=1, watchdog=20.0)
        assert healed.results == base.results
        assert np.all(_clocks(healed) >= _clocks(base))
        report = healed.recovery
        assert report.healed and report.restarts == 1
        assert report.checkpoints > 0
        assert [a.outcome for a in report.attempts] == \
            ["failed", "completed"]

    def test_rollback_and_restart_events_in_trace(self):
        healed = run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                          fault_plan=CRASH_PLAN, on_fault="restart",
                          checkpoint_every=1, trace=True, watchdog=20.0)
        names = [e.name for e in healed.trace.recovery_events()]
        assert names == ["rollback", "restart"]
        rollback = healed.trace.recovery_events()[0]
        assert rollback.args["error"] == "RankCrashedError"
        assert rollback.args["credit"] > 0.0

    def test_checkpoint_credit_shrinks_the_recovery_bill(self):
        slow = run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                        fault_plan=CRASH_PLAN, on_fault="restart",
                        watchdog=20.0)           # no checkpoints: no credit
        fast = run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                        fault_plan=CRASH_PLAN, on_fault="restart",
                        checkpoint_every=1, watchdog=20.0)
        assert fast.results == slow.results
        assert fast.elapsed < slow.elapsed

    def test_restart_budget_exhaustion_raises(self):
        # the crash re-fires on every attempt: the budget must run out
        plan = "seed=5; crash rank=1 op=allreduce count=99"
        with pytest.raises(RankCrashedError):
            run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                     fault_plan=plan, on_fault="restart", max_restarts=2,
                     watchdog=20.0)

    def test_restart_replays_io_without_duplicates(self):
        written = []

        def prog(comm):
            total = comm.allreduce(float(comm.rank))
            if comm.rank == 0:
                written.append(total)
            return comm.allreduce(total)

        run_spmd(4, MEIKO_CS2, prog, backend="lockstep",
                 fault_plan=CRASH_PLAN, on_fault="restart",
                 on_fused_fallback=written.clear, watchdog=20.0)
        assert written == [6.0]


# ------------------------------------------------------------------------- #
# graceful degradation
# ------------------------------------------------------------------------- #


class TestDegrade:
    def test_unhealable_run_degrades_to_partial_result(self):
        # rank 0's sends always vanish; retries exhaust on every attempt
        plan = "seed=3; drop rank=0"
        res = run_spmd(2, MEIKO_CS2, ring, backend="lockstep",
                       fault_plan=plan, on_fault="degrade", max_restarts=1,
                       watchdog=20.0)
        report = res.recovery
        assert report.degraded and not report.healed
        assert "MpiRetryExhaustedError" in report.error
        assert [a.outcome for a in report.attempts] == \
            ["failed", "degraded"]
        assert res.results == [None, None]

    def test_degrade_event_in_trace(self):
        res = run_spmd(2, MEIKO_CS2, ring, backend="lockstep",
                       fault_plan="seed=3; drop rank=0", on_fault="degrade",
                       max_restarts=0, trace=True, watchdog=20.0)
        names = {e.name for e in res.trace.recovery_events()}
        assert "degrade" in names and "retry" in names

    def test_degrade_never_swallows_user_bugs(self):
        def buggy(comm):
            comm.allreduce(1.0)
            raise ValueError("user bug")

        with pytest.raises(MpiError, match="user bug"):
            run_spmd(2, MEIKO_CS2, buggy, backend="lockstep",
                     fault_plan="seed=1; timeout=5", on_fault="degrade",
                     watchdog=20.0)

    def test_degrade_without_faults_completes_normally(self):
        res = run_spmd(2, MEIKO_CS2, ring, backend="lockstep",
                       on_fault="degrade")
        assert res.recovery is None  # no plan: recovery never engages
        assert res.results == run_spmd(2, MEIKO_CS2, ring).results


# ------------------------------------------------------------------------- #
# checkpoint store
# ------------------------------------------------------------------------- #


class TestCheckpointStore:
    def _world(self):
        from repro.mpi.comm import World

        return World(2, MEIKO_CS2)

    def test_take_snapshots_accounting_and_payloads(self):
        store = CheckpointStore()
        store.register_payload(0, lambda: {"rng": 42})
        world = self._world()
        world.clocks[:] = [1.0, 2.0]
        ck = store.take(world, vtime=2.0, attempt=0)
        assert ck.index == 0 and ck.attempt == 0
        assert ck.vtime_rel == 2.0
        assert ck.clocks.tolist() == [1.0, 2.0]
        assert ck.payloads == {0: {"rng": 42}}
        # snapshots are copies, not views
        world.clocks[:] = 9.0
        assert ck.clocks.tolist() == [1.0, 2.0]

    def test_failing_payload_provider_never_kills_the_run(self):
        store = CheckpointStore()
        store.register_payload(0, lambda: 1 / 0)
        ck = store.take(self._world(), vtime=0.0, attempt=0)
        assert ck.payloads == {0: None}

    def test_last_for_attempt_ignores_stale_attempts(self):
        store = CheckpointStore()
        world = self._world()
        store.take(world, vtime=1.0, attempt=0)
        assert store.last_for_attempt(1) is None
        ck = store.take(world, vtime=2.0, attempt=1)
        assert store.last_for_attempt(1) is ck
        assert store.last is ck

    def test_runtime_context_contributes_rng_state(self):
        from repro.mpi.comm import Comm, World
        from repro.mpi.recovery import ActiveRecovery
        from repro.runtime.context import RuntimeContext

        rec = ActiveRecovery(
            RecoveryPolicy(on_fault="restart", checkpoint_every=1), 2)
        world = World(2, MEIKO_CS2, recovery=rec)
        rt = RuntimeContext(Comm(world, 0), seed=7)
        try:
            ck = rec.store.take(world, vtime=0.0, attempt=0)
        finally:
            rt.close()
        payload = ck.payloads[0]
        assert payload["seed"] == 7
        assert "bit_generator" in payload["rng"]

    def test_compiled_program_checkpoints_and_reports(self):
        from repro.compiler import compile_source

        prog = compile_source("a = ones(4,4);\nfor i = 1:3\n"
                              " s = sum(sum(a)) + i;\nend\ndisp(s);")
        res = prog.run(nprocs=2, fault_plan="seed=1; timeout=5",
                       on_fault="restart", checkpoint_every=1)
        assert res.recovery is not None
        # zero faults: nothing healed, but checkpoints were taken
        assert not res.recovery.healed
        assert res.recovery.checkpoints > 0


# ------------------------------------------------------------------------- #
# zero-fault transparency
# ------------------------------------------------------------------------- #


class TestZeroFaultTransparency:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_armed_policy_perturbs_nothing(self, backend):
        base = run_spmd(4, MEIKO_CS2, collectives_only, backend=backend)
        armed = run_spmd(4, MEIKO_CS2, collectives_only, backend=backend,
                         fault_plan="seed=9; timeout=10",
                         on_fault="restart", checkpoint_every=2,
                         trace=True)
        assert armed.results == base.results
        assert armed.times == base.times
        assert armed.messages_sent == base.messages_sent
        assert armed.collective_counts == base.collective_counts
        assert armed.trace.recovery_events() == []
        assert armed.recovery is not None and not armed.recovery.healed


# ------------------------------------------------------------------------- #
# watchdog interaction (one budget spans fallback + restarts)
# ------------------------------------------------------------------------- #


class TestWatchdogReArm:
    def test_fused_attempt_is_watchdog_covered(self):
        def spin(comm):
            while True:
                comm.barrier()

        with pytest.raises(SpmdWatchdogError, match="watchdog expired"):
            run_spmd(2, MEIKO_CS2, spin, backend="fused", watchdog=1.0)

    def test_fallback_rerun_shares_the_original_budget(self):
        release = threading.Event()

        def prog(comm):
            # burn most of the budget while still fused, then diverge
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and not release.is_set():
                time.sleep(0.01)
            return comm.rank  # FusionDivergence -> lockstep re-run

        try:
            with pytest.raises(SpmdWatchdogError,
                               match="budget exhausted before the "
                                     "lockstep re-run"):
                run_spmd(2, MEIKO_CS2, prog, backend="fused", watchdog=0.5)
        finally:
            release.set()

    def test_watchdog_error_is_never_recoverable(self, monkeypatch):
        # rank 0 is wedged in host code the scheduler cannot see into:
        # only the watchdog ends the run
        from repro.mpi import executor
        monkeypatch.setattr(executor, "_TEARDOWN_GRACE", 0.5)
        release = threading.Event()

        def prog(comm):
            if comm.rank == 0:
                while not release.is_set():
                    time.sleep(0.01)
            return comm.recv(source=0)

        t0 = time.monotonic()
        try:
            with pytest.raises(SpmdWatchdogError):
                run_spmd(2, MEIKO_CS2, prog, backend="lockstep",
                         watchdog=1.0, fault_plan="seed=1; timeout=60",
                         on_fault="restart", max_restarts=5)
        finally:
            release.set()
        # no restart loop: the budget was spent exactly once
        assert time.monotonic() - t0 < 8.0


# ------------------------------------------------------------------------- #
# property: seeded chaos + recovery == fault-free baseline (data), with
# element-wise slower-or-equal clocks, on every backend
# ------------------------------------------------------------------------- #


POLICY_FOR = {"crash rank=1 op=allreduce step=1": "restart",
              "drop tag=1 count=1": "retry",
              "bitflip tag=1 count=1": "retry"}


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       rule=st.sampled_from(sorted(POLICY_FOR)),
       backend=st.sampled_from(["lockstep", "fused"]))
def test_property_chaos_heals_to_baseline(seed, rule, backend):
    plan = f"seed={seed}; {rule}"
    base = run_spmd(4, MEIKO_CS2, ring, backend=backend)
    healed = run_spmd(4, MEIKO_CS2, ring, backend=backend, fault_plan=plan,
                      on_fault=POLICY_FOR[rule], checkpoint_every=1,
                      watchdog=25.0)
    assert healed.results == base.results
    assert np.all(_clocks(healed) >= _clocks(base))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_property_fused_crash_heals_to_baseline(seed):
    plan = f"seed={seed}; crash rank=1 op=allreduce step=2"
    base = run_spmd(4, MEIKO_CS2, collectives_only, backend="fused")
    healed = run_spmd(4, MEIKO_CS2, collectives_only, backend="fused",
                      fault_plan=plan, on_fault="restart",
                      checkpoint_every=1, watchdog=25.0)
    assert healed.results == base.results
    assert np.all(_clocks(healed) >= _clocks(base))
