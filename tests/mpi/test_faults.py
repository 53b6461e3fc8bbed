"""Chaos differential suite: deterministic fault injection + hardening.

Three properties anchor everything here:

1. **Zero-fault transparency** — a chaos run whose plan injects nothing
   is bit-identical to the baseline (results, virtual clocks, message
   and byte counts) on every backend.
2. **Determinism** — an identical plan+seed produces the identical
   fault schedule, and therefore the identical structured diagnostic
   (exception type *and* message), on every run and every backend.
3. **Structured failure** — every injected fault class surfaces as a
   typed diagnostic (never a hang, never a silently wrong answer).

No test here may rely on host waits longer than 30 s; the watchdog
tests use ~1 s budgets.
"""

import pytest

import numpy as np

from repro.errors import (
    MpiCorruptionError,
    MpiError,
    MpiTimeoutError,
    RankCrashedError,
    SpmdWatchdogError,
)
from repro.mpi import MEIKO_CS2, FaultPlan, load_plan, run_spmd
from repro.mpi.faults import FaultState, corrupt_payload, payload_checksum
from repro.mpi.scheduler import DeadlockError

#: a fused request runs every fault plan through its lockstep fallback
BACKENDS = ["lockstep", "fused"]


# ------------------------------------------------------------------------- #
# reference rank programs
# ------------------------------------------------------------------------- #


def ring(comm):
    """Each rank passes a token one hop right, then allreduces."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(comm.rank * 10.0, dest=right, tag=1)
    got = comm.recv(source=left, tag=1)
    total = comm.allreduce(got)
    return total


def one_message(comm):
    if comm.rank == 0:
        comm.send(np.arange(8, dtype=float), dest=1, tag=5)
        return None
    got = comm.recv(source=0, tag=5)
    return float(got.sum())


# ------------------------------------------------------------------------- #
# plan parsing
# ------------------------------------------------------------------------- #


class TestPlanParsing:
    def test_full_grammar(self):
        plan = FaultPlan.parse(
            "seed=7; timeout=0.5\n"
            "drop rank=0 dst=1 tag=3 p=0.5 count=2  # lossy wire\n"
            "delay by=0.002 after=0.001\n"
            "dup tag=9\n"
            "bitflip src=2\n"
            "crash rank=2 op=allreduce step=3\n")
        assert plan.seed == 7
        assert plan.virtual_timeout == 0.5
        kinds = [r.kind for r in plan.rules]
        assert kinds == ["drop", "delay", "duplicate", "corrupt", "crash"]
        drop = plan.rules[0]
        assert (drop.rank, drop.dest, drop.tag) == (0, 1, 3)
        assert drop.probability == 0.5 and drop.count == 2
        assert plan.rules[1].delay == 0.002
        assert plan.rules[1].t_min == 0.001
        crash = plan.rules[4]
        assert (crash.rank, crash.op, crash.step) == (2, "allreduce", 3)

    def test_timeout_only_plan_is_not_chaotic(self):
        plan = FaultPlan.parse("timeout=2.0")
        assert not plan.has_faults
        assert plan.virtual_timeout == 2.0

    def test_wildcard_values_are_unscoped(self):
        plan = FaultPlan.parse("drop rank=* tag=any")
        assert plan.rules[0].rank is None and plan.rules[0].tag is None

    @pytest.mark.parametrize("bad,match", [
        ("exploded rank=0", "unknown fault kind"),
        ("drop rank=zero", "needs an integer"),
        ("drop frobnicate=1", "unknown key"),
        ("crash op=send", "explicit rank"),
        ("delay rank=0", "by=<seconds>"),
        ("drop p=1.5", "probability"),
        ("timeout=-1", "must be positive"),
        ("retrograde=9", "unknown directive"),
    ])
    def test_rejects_malformed_plans(self, bad, match):
        with pytest.raises(MpiError, match=match):
            FaultPlan.parse(bad)

    def test_load_plan_passthrough_and_inline(self):
        assert load_plan(None) is None
        assert load_plan("") is None
        plan = FaultPlan.parse("drop tag=1")
        assert load_plan(plan) is plan
        assert load_plan("drop tag=1").rules[0].tag == 1

    def test_load_plan_from_file(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("seed=3\ncrash rank=1 op=recv\n")
        for spec in (str(path), f"@{path}"):
            plan = load_plan(spec)
            assert plan.seed == 3
            assert plan.rules[0].kind == "crash"
        with pytest.raises(MpiError, match="cannot read"):
            load_plan("@/nonexistent/plan")

    def test_describe_round_trips_the_scope(self):
        plan = FaultPlan.parse("seed=5; drop rank=1 tag=2 count=3")
        text = plan.describe()
        assert "seed=5" in text and "drop" in text and "tag=2" in text


# ------------------------------------------------------------------------- #
# payload integrity primitives
# ------------------------------------------------------------------------- #


class TestIntegrityPrimitives:
    @pytest.mark.parametrize("payload", [
        1.5, 7, True, "hello", np.arange(6, dtype=float)])
    def test_corruption_changes_checksum(self, payload):
        corrupted, ok = corrupt_payload(payload, salt=13)
        assert ok
        assert payload_checksum(corrupted) != payload_checksum(payload)

    def test_opaque_payloads_left_intact(self):
        obj = object()
        same, ok = corrupt_payload(obj, salt=1)
        assert not ok and same is obj

    def test_corruption_is_deterministic(self):
        a, _ = corrupt_payload(np.arange(16, dtype=float), salt=99)
        b, _ = corrupt_payload(np.arange(16, dtype=float), salt=99)
        np.testing.assert_array_equal(a, b)

    def test_does_not_mutate_the_original(self):
        arr = np.zeros(4)
        corrupt_payload(arr, salt=3)
        np.testing.assert_array_equal(arr, np.zeros(4))


# ------------------------------------------------------------------------- #
# zero-fault transparency
# ------------------------------------------------------------------------- #


def _fingerprint(res):
    return (res.results, res.times, res.messages_sent, res.bytes_sent,
            res.collectives, res.collective_counts)


class TestZeroFaultTransparency:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_timeout_only_plan_is_bit_identical(self, backend):
        base = run_spmd(4, MEIKO_CS2, ring, backend=backend)
        chaos = run_spmd(4, MEIKO_CS2, ring, backend=backend,
                         fault_plan="timeout=1000")
        assert _fingerprint(base) == _fingerprint(chaos)
        assert chaos.backend == base.backend
        assert chaos.fault_events == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_never_matching_rules_do_not_perturb_accounting(self, backend):
        # checksums are computed (the plan is "active") but cost host
        # time only: modeled numbers cannot move
        base = run_spmd(4, MEIKO_CS2, ring, backend=backend)
        chaos = run_spmd(4, MEIKO_CS2, ring, backend=backend,
                         fault_plan="seed=9; drop tag=777")
        assert _fingerprint(base) == _fingerprint(chaos)
        assert chaos.fault_events == []


# ------------------------------------------------------------------------- #
# the fault classes, each with a deterministic structured diagnostic
# ------------------------------------------------------------------------- #


def _diagnostic(plan, prog, nprocs=2, backend="lockstep"):
    with pytest.raises(MpiError) as info:
        run_spmd(nprocs, MEIKO_CS2, prog, backend=backend, fault_plan=plan)
    return info.value


class TestDropFaults:
    def test_drop_starves_the_receiver_into_deadlock(self):
        exc = _diagnostic("drop rank=0 dst=1 tag=5", one_message)
        assert isinstance(exc, DeadlockError)
        assert "recv(source=0, tag=5)" in str(exc)

    def test_drop_with_timeout_classifies_as_timeout(self):
        exc = _diagnostic("timeout=0.5; drop rank=0 dst=1 tag=5",
                          one_message)
        assert isinstance(exc, MpiTimeoutError)
        assert exc.wait_graph is not None
        assert "recv(source=0, tag=5)" in exc.wait_graph

    def test_sender_still_charged_for_dropped_message(self):
        # the sender cannot tell the wire lost the payload: messages and
        # bytes count exactly as in the healthy run
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(8, dtype=float), dest=1, tag=5)
            return None

        base = run_spmd(2, MEIKO_CS2, prog)
        # drop everything rank 0 sends; no one ever recvs, so the run
        # completes and we can compare accounting directly
        chaos = run_spmd(2, MEIKO_CS2, prog,
                         fault_plan="drop rank=0")
        assert chaos.messages_sent == base.messages_sent
        assert chaos.bytes_sent == base.bytes_sent
        assert chaos.times == base.times
        assert chaos.fault_events == ["drop rank 0->rank 1 tag=5 (64 B)"]

    def test_identical_diagnostic_on_consecutive_runs(self):
        plan = "seed=11; timeout=0.25; drop rank=0 dst=1 tag=5"
        first = _diagnostic(plan, one_message)
        second = _diagnostic(plan, one_message)
        assert type(first) is type(second)
        assert str(first) == str(second)


class TestDelayFaults:
    def test_delay_shifts_the_receiver_clock(self):
        base = run_spmd(2, MEIKO_CS2, one_message)
        chaos = run_spmd(2, MEIKO_CS2, one_message,
                         fault_plan="delay by=0.25 rank=0")
        assert chaos.results == base.results  # data intact
        assert chaos.times[1] == pytest.approx(base.times[1] + 0.25)
        assert chaos.times[0] == base.times[0]  # sender unaffected

    def test_delay_beyond_timeout_raises(self):
        exc = _diagnostic("timeout=0.1; delay by=0.5 rank=0", one_message)
        assert isinstance(exc, MpiTimeoutError)
        assert "timed out in recv(source=0, tag=5)" in str(exc)

    def test_delays_stack_across_matching_rules(self):
        chaos = run_spmd(2, MEIKO_CS2, one_message,
                         fault_plan="delay by=0.1 rank=0; "
                                    "delay by=0.2 rank=0")
        base = run_spmd(2, MEIKO_CS2, one_message)
        assert chaos.times[1] == pytest.approx(
            base.times[1] + 0.30000000000000004)


class TestDuplicateFaults:
    def test_duplicate_delivers_twice_and_counts_the_extra_wire(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(3.5, dest=1, tag=2)
                return None
            return (comm.recv(source=0, tag=2), comm.recv(source=0, tag=2))

        base_msgs = run_spmd(2, MEIKO_CS2, one_message).messages_sent
        res = run_spmd(2, MEIKO_CS2, prog, fault_plan="dup rank=0 tag=2")
        assert res.results[1] == (3.5, 3.5)
        assert res.messages_sent == base_msgs + 1
        assert res.fault_events == ["duplicate rank 0->rank 1 tag=2"]

    def test_unconsumed_duplicate_is_reported(self):
        exc = _diagnostic("dup rank=0 tag=5", one_message)
        assert "unconsumed messages after faulted run" in str(exc)
        assert "rank 0->rank 1 tag=5 x1" in str(exc)


class TestCorruptFaults:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corruption_is_detected_not_silent(self, backend):
        exc = _diagnostic("corrupt rank=0", one_message, backend=backend)
        assert isinstance(exc, MpiCorruptionError)
        assert "failed its integrity check" in str(exc)
        assert "rank 0 to rank 1" in str(exc)

    def test_identical_diagnostic_on_consecutive_runs(self):
        first = _diagnostic("seed=4; corrupt rank=0", one_message)
        second = _diagnostic("seed=4; corrupt rank=0", one_message)
        assert type(first) is type(second)
        assert str(first) == str(second)


class TestCrashFaults:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_surfaces_with_rank_and_op(self, backend):
        exc = _diagnostic("crash rank=1 op=recv", one_message,
                          backend=backend)
        assert isinstance(exc, RankCrashedError)
        assert "rank 1 crashed at recv" in str(exc)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_mid_collective_unblocks_peers(self, backend):
        # 3 ranks allreduce in a loop; rank 2 dies at its 3rd allreduce.
        # Peers parked in the rendezvous must unwind, not hang.
        def prog(comm):
            total = 0.0
            for _ in range(5):
                total += comm.allreduce(1.0)
            return total

        exc = _diagnostic("crash rank=2 op=allreduce step=3", prog,
                          nprocs=3, backend=backend)
        assert isinstance(exc, RankCrashedError)
        assert "occurrence 3" in str(exc)

    def test_crash_schedule_identical_across_backends(self):
        messages = set()
        for backend in BACKENDS:
            exc = _diagnostic("seed=2; crash rank=1 op=send step=2",
                              lambda comm: [comm.sendrecv(
                                  comm.rank, dest=1 - comm.rank)
                                  for _ in range(4)],
                              backend=backend)
            messages.add((type(exc).__name__, str(exc)))
        assert len(messages) == 1

    def test_probabilistic_crash_is_seed_stable(self):
        plan = "seed=21; crash rank=0 op=send p=0.5"

        def prog(comm):
            if comm.rank == 0:
                for i in range(6):
                    comm.send(i, dest=1, tag=i)
            else:
                for i in range(6):
                    comm.recv(source=0, tag=i)

        outcomes = set()
        for _ in range(2):
            try:
                run_spmd(2, MEIKO_CS2, prog, fault_plan=plan)
                outcomes.add("completed")
            except MpiError as exc:
                outcomes.add(f"{type(exc).__name__}: {exc}")
        assert len(outcomes) == 1


# ------------------------------------------------------------------------- #
# watchdog + abort hardening
# ------------------------------------------------------------------------- #


class TestWatchdog:
    def test_watchdog_post_mortem_names_blocked_ranks(self, monkeypatch):
        # rank 1 parks in a recv rank 0 never answers, and rank 0 spins
        # holding the baton: no deadlock the scheduler could detect,
        # only the watchdog ends the run
        import threading
        import time

        from repro.mpi import executor
        monkeypatch.setattr(executor, "_TEARDOWN_GRACE", 0.5)
        release = threading.Event()

        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=1)
                while not release.is_set():
                    time.sleep(0.01)
                return None
            comm.send(1, dest=0, tag=1)
            return comm.recv(source=0, tag=2)

        try:
            with pytest.raises(SpmdWatchdogError) as info:
                run_spmd(2, MEIKO_CS2, prog, backend="lockstep",
                         watchdog=1.0)
        finally:
            release.set()
        assert "watchdog expired after 1s" in str(info.value)
        assert "rank 1: blocked in recv(source=0, tag=2)" \
            in str(info.value)

    def test_lockstep_detects_the_same_deadlock_first(self):
        def prog(comm):
            got = comm.recv(source=1 - comm.rank, tag=1)
            comm.send(comm.rank, dest=1 - comm.rank, tag=1)
            return got

        with pytest.raises(DeadlockError):
            run_spmd(2, MEIKO_CS2, prog, backend="lockstep", watchdog=30.0)

    def test_watchdog_abandons_a_wedged_rank(self, monkeypatch):
        # a compute loop that never reaches an abort check; after the
        # teardown grace the daemon thread is abandoned and the caller
        # still gets the structured error
        import threading
        import time

        from repro.mpi import executor
        monkeypatch.setattr(executor, "_TEARDOWN_GRACE", 0.5)
        release = threading.Event()

        def prog(comm):
            if comm.rank == 0:
                while not release.is_set():  # wedged as far as MPI knows
                    time.sleep(0.01)
            return comm.recv(source=0)

        try:
            with pytest.raises(SpmdWatchdogError):
                run_spmd(2, MEIKO_CS2, prog, backend="lockstep",
                         watchdog=0.5)
        finally:
            release.set()  # let the abandoned daemon exit quietly

    def test_healthy_run_unaffected_by_watchdog(self):
        base = run_spmd(2, MEIKO_CS2, one_message)
        guarded = run_spmd(2, MEIKO_CS2, one_message, watchdog=30.0)
        assert _fingerprint(base) == _fingerprint(guarded)

    @pytest.mark.parametrize("nprocs", [1, 2])
    @pytest.mark.parametrize("loop", [
        "while 1\n  s = s + 1;\nend",
        "for i = 1:1e12\n  s = s + i;\nend",
        "for i = ones(1, 1e7)\n  s = s + i;\nend",
    ])
    def test_default_backend_ends_a_scalar_infinite_loop(self, loop,
                                                         nprocs):
        # no op in the loop charges a clock or reaches a collective:
        # only the loop back-edge can observe the watchdog's abort
        import time

        from repro.compiler import compile_source
        program = compile_source(f"s = 0;\n{loop}\ndisp(s)\n")
        t0 = time.monotonic()
        with pytest.raises(SpmdWatchdogError, match="watchdog expired"):
            program.run(nprocs=nprocs, watchdog=0.5)
        assert time.monotonic() - t0 < 5.0


class TestAbortPropagation:
    """A rank raising mid-collective must surface *its* error (with the
    original traceback chained), never the peers' ``_Abort``."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_raise_mid_barrier(self, backend):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()

        with pytest.raises(MpiError) as info:
            run_spmd(3, MEIKO_CS2, prog, backend=backend)
        exc = info.value
        assert "rank 1 failed: rank 1 exploded" in str(exc)
        assert "peer rank failed" not in str(exc)
        assert isinstance(exc.__cause__, ValueError)
        # the chained traceback points into the failing program frame
        tb = exc.__cause__.__traceback__
        functions = set()
        while tb is not None:
            functions.add(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert "prog" in functions

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_raise_mid_allreduce(self, backend):
        def prog(comm):
            if comm.rank == 0:
                raise ZeroDivisionError("boom")
            return comm.allreduce(1.0)

        with pytest.raises(MpiError) as info:
            run_spmd(3, MEIKO_CS2, prog, backend=backend)
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert "peer rank failed" not in str(info.value)

    def test_fused_fallback_preserves_the_originating_error(self):
        def prog(comm):
            if comm.rank == 1:  # rank read diverges the fused pass
                raise ValueError("after divergence")
            return comm.allreduce(2.0)

        with pytest.raises(MpiError) as info:
            run_spmd(2, MEIKO_CS2, prog, backend="fused")
        assert "rank 1 failed: after divergence" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)

    def test_lowest_failing_rank_wins_deterministically(self):
        def prog(comm):
            raise RuntimeError(f"rank {comm.rank} died")

        for backend in BACKENDS:
            with pytest.raises(MpiError, match="rank 0 failed"):
                run_spmd(3, MEIKO_CS2, prog, backend=backend)


# ------------------------------------------------------------------------- #
# fused backend: chaos falls back, zero-fault stays fused
# ------------------------------------------------------------------------- #


class TestFusedChaos:
    def test_chaos_plan_falls_back_to_lockstep(self):
        def prog(comm):
            return comm.allreduce(1.0)  # rank-agnostic: fusable

        res = run_spmd(4, MEIKO_CS2, prog, backend="fused",
                       fault_plan="seed=1; drop tag=999")
        assert res.backend == "lockstep"
        assert res.results == [4.0] * 4

    def test_zero_fault_plan_stays_fused(self):
        def prog(comm):
            return comm.allreduce(1.0)

        res = run_spmd(4, MEIKO_CS2, prog, backend="fused",
                       fault_plan="timeout=100")
        assert res.backend == "fused"

    def test_fused_chaos_diagnostic_matches_lockstep(self):
        plan = "seed=6; corrupt rank=0"
        direct = _diagnostic(plan, one_message, backend="lockstep")
        with pytest.raises(MpiError) as info:
            run_spmd(2, MEIKO_CS2, one_message, backend="fused",
                     fault_plan=plan)
        assert type(info.value) is type(direct)
        assert str(info.value) == str(direct)


# ------------------------------------------------------------------------- #
# compiled programs ride the same machinery
# ------------------------------------------------------------------------- #


class TestCompiledChaos:
    SOURCE = "x = ones(6, 6) * 2; s = sum(sum(x)); disp(s);"

    def test_compiled_run_under_crash_plan(self):
        from repro.compiler import compile_source

        program = compile_source(self.SOURCE)
        with pytest.raises(RankCrashedError, match="rank 1 crashed"):
            program.run(nprocs=2, machine=MEIKO_CS2,
                        fault_plan="crash rank=1 step=1")

    def test_compiled_zero_fault_chaos_matches_baseline(self):
        from repro.compiler import compile_source

        program = compile_source(self.SOURCE)
        base = program.run(nprocs=2, machine=MEIKO_CS2)
        chaos = program.run(nprocs=2, machine=MEIKO_CS2,
                            fault_plan="timeout=1000", watchdog=30.0)
        assert chaos.output == base.output
        assert chaos.elapsed == base.elapsed
        assert chaos.spmd.messages_sent == base.spmd.messages_sent

    def test_inline_run_releases_memory_tracker(self):
        from repro.compiler import compile_source
        from repro.runtime.memory import current_tracker

        program = compile_source(self.SOURCE)
        program.run(nprocs=1, machine=MEIKO_CS2)
        # the nprocs==1 fast path runs on this very thread: the tracker
        # must be uninstalled afterwards, not left charging allocations
        assert current_tracker() is None

    def test_cli_fault_plan_flag(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "prog.m"
        script.write_text("x = ones(4, 4); disp(sum(sum(x)));\n")
        code = main(["run", str(script), "--nprocs", "2",
                     "--fault-plan", "crash rank=0 step=1",
                     "--watchdog-seconds", "30"])
        assert code == 1
        assert "rank 0 crashed" in capsys.readouterr().err

    def test_cli_healthy_run_with_plan(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "prog.m"
        script.write_text("disp(3);\n")
        code = main(["run", str(script), "--nprocs", "2",
                     "--fault-plan", "timeout=1000"])
        assert code == 0
        assert "3" in capsys.readouterr().out


# ------------------------------------------------------------------------- #
# determinism of the decision core itself
# ------------------------------------------------------------------------- #


class TestDecisionDeterminism:
    def test_probability_decisions_are_per_rank_hashes(self):
        plan = FaultPlan.parse("seed=5; drop p=0.5")
        a = FaultState(plan, 4)
        b = FaultState(plan, 4)
        schedule_a = [a.on_message(r, (r + 1) % 4, 0, 8, 0.0, 1.0).deliver
                      for r in range(4) for _ in range(8)]
        schedule_b = [b.on_message(r, (r + 1) % 4, 0, 8, 0.0, 1.0).deliver
                      for r in range(4) for _ in range(8)]
        assert schedule_a == schedule_b
        assert False in schedule_a and True in schedule_a  # actually mixes

    def test_schedule_independent_of_rank_interleaving(self):
        # rank 2's decisions must not depend on when ranks 0/1 acted
        plan = FaultPlan.parse("seed=8; drop p=0.5")
        solo = FaultState(plan, 4)
        solo_schedule = [solo.on_message(2, 3, 0, 8, 0.0, 1.0).deliver
                         for _ in range(10)]
        mixed = FaultState(plan, 4)
        for _ in range(7):  # other ranks act first this time
            mixed.on_message(0, 1, 0, 8, 0.0, 1.0)
            mixed.on_message(1, 2, 0, 8, 0.0, 1.0)
        mixed_schedule = [mixed.on_message(2, 3, 0, 8, 0.0, 1.0).deliver
                          for _ in range(10)]
        assert solo_schedule == mixed_schedule

    def test_count_caps_fire_per_rank(self):
        plan = FaultPlan.parse("drop count=2")
        state = FaultState(plan, 2)
        fates = [state.on_message(0, 1, 0, 8, 0.0, 1.0).deliver
                 for _ in range(5)]
        assert fates == [False, False, True, True, True]
        # rank 1 gets its own budget
        assert state.on_message(1, 0, 0, 8, 0.0, 1.0).deliver is False


# ------------------------------------------------------------------------- #
# eager plan validation (load-time rejection, never a mid-run surprise)
# ------------------------------------------------------------------------- #


class TestEagerPlanValidation:
    def test_rank_ranges_parse_and_scope(self):
        plan = FaultPlan.parse("drop rank=1-3 dst=0-1 tag=2")
        rule = plan.rules[0]
        assert rule.rank == (1, 3) and rule.dest == (0, 1)
        assert rule.matches_message(2, 0, 2, 0.0)
        assert rule.matches_message(3, 1, 2, 0.0)
        assert not rule.matches_message(0, 0, 2, 0.0)   # sender outside
        assert not rule.matches_message(2, 2, 2, 0.0)   # dest outside
        assert "rank=1-3" in rule.describe()

    def test_crash_rank_range_matches_ops(self):
        plan = FaultPlan.parse("crash rank=1-2 op=allreduce")
        assert plan.rules[0].matches_op(1, "allreduce", 0.0)
        assert plan.rules[0].matches_op(2, "allreduce", 0.0)
        assert not plan.rules[0].matches_op(3, "allreduce", 0.0)

    @pytest.mark.parametrize("bad,match", [
        ("drop rank=3-1", "inverted"),
        ("drop rank=-2", "negative"),
        ("drop dst=2--5", "negative rank"),
        ("drop tag=-1", "never match"),
        ("drop count=0", "never fire"),
        ("crash rank=0 op=allreduce step=0", "1-based"),
        ("delay by=0.1 rank=0 after=-1", "negative"),
        ("drop after=2 before=1", "empty time window"),
        ("drop after=1 before=1", "empty time window"),
    ])
    def test_malformed_rules_fail_at_load_time(self, bad, match):
        with pytest.raises(MpiError, match=match):
            FaultPlan.parse(bad)

    def test_negative_delay_is_rejected(self):
        with pytest.raises(MpiError, match="back in time"):
            FaultPlan.parse("delay by=-0.5 rank=0")

    def test_exact_duplicate_rules_are_rejected(self):
        with pytest.raises(MpiError, match="duplicates rule 1.*count="):
            FaultPlan.parse("drop rank=0 tag=1\ndrop rank=0 tag=1")

    def test_distinct_rules_are_not_duplicates(self):
        plan = FaultPlan.parse("drop rank=0 tag=1\ndrop rank=0 tag=2")
        assert len(plan.rules) == 2

    def test_overlapping_crash_rules_are_rejected(self):
        with pytest.raises(MpiError, match="already dead"):
            FaultPlan.parse("crash rank=0-2 op=allreduce\n"
                            "crash rank=1 op=allreduce")

    def test_crash_rules_with_distinct_steps_coexist(self):
        plan = FaultPlan.parse("crash rank=0 op=allreduce step=1\n"
                               "crash rank=0 op=allreduce step=3")
        assert len(plan.rules) == 2

    def test_crash_rules_on_disjoint_ranks_coexist(self):
        plan = FaultPlan.parse("crash rank=0-1 op=send\n"
                               "crash rank=2-3 op=send")
        assert len(plan.rules) == 2
