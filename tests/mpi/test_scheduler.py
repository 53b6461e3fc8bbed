"""Lockstep scheduler: backend selection, determinism, deadlock
detection, and the MPI_Test semantics of ``Request.test()``."""

import numpy as np
import pytest

from repro.config import ENV_VARS
from repro.mpi import (
    BACKENDS,
    MEIKO_CS2,
    DeadlockError,
    MpiError,
    run_spmd,
)

BACKEND_ENV_VAR = ENV_VARS["backend"]


class TestBackendSelection:
    def test_default_is_fused(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        res = run_spmd(2, MEIKO_CS2, lambda comm: comm.allreduce(1.0))
        assert res.backend == "fused"
        assert res.fallback is None

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "lockstep")
        res = run_spmd(2, MEIKO_CS2, lambda comm: comm.allreduce(1.0))
        assert res.backend == "lockstep"
        # an explicit lockstep run is not a fallback
        assert res.fallback is None

    @pytest.mark.parametrize("name", ["fibers", "threads"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(MpiError, match="unknown SPMD backend"):
            run_spmd(2, MEIKO_CS2, lambda comm: None, backend=name)

    def test_result_records_backend(self):
        for backend in BACKENDS:
            res = run_spmd(3, MEIKO_CS2, lambda comm: comm.rank,
                           backend=backend)
            # reading comm.rank is rank-dependent, so the fused backend
            # transparently falls back to lockstep and records that
            expected = "lockstep" if backend == "fused" else backend
            assert res.backend == expected
            assert res.results == [0, 1, 2]

    def test_fused_records_backend_for_rank_agnostic_program(self):
        res = run_spmd(3, MEIKO_CS2,
                       lambda comm: comm.allreduce(1.0), backend="fused")
        assert res.backend == "fused"
        assert res.results == [3.0, 3.0, 3.0]


class TestDeterminism:
    @staticmethod
    def _prog(comm):
        acc = float(comm.rank + 1)
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        for step in range(4):
            acc = comm.sendrecv(acc, dest=right, source=left, sendtag=step,
                                recvtag=step)
            comm.compute(flops=100 * (comm.rank + 1))
            acc = comm.allreduce(acc)
        return acc

    def test_repeated_lockstep_runs_identical(self):
        a = run_spmd(5, MEIKO_CS2, self._prog, backend="lockstep")
        b = run_spmd(5, MEIKO_CS2, self._prog, backend="lockstep")
        assert a.results == b.results
        assert a.times == b.times
        assert a.messages_sent == b.messages_sent
        assert a.bytes_sent == b.bytes_sent
        assert a.collective_counts == b.collective_counts


class TestDeadlockDetection:
    def test_recv_with_no_sender(self):
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1)
            return None  # rank 1 exits without sending

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(2, MEIKO_CS2, prog, backend="lockstep")
        message = str(excinfo.value)
        assert "no simulated rank can make progress" in message
        assert "rank 0: blocked in recv(source=1, tag=-1)" in message
        assert "rank 1: done" in message

    def test_mutual_recv_cycle(self):
        def prog(comm):
            return comm.recv(source=1 - comm.rank)

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(2, MEIKO_CS2, prog, backend="lockstep")
        message = str(excinfo.value)
        assert "rank 0: blocked in recv(source=1" in message
        assert "rank 1: blocked in recv(source=0" in message

    def test_collective_mismatch(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.recv(source=0)

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(2, MEIKO_CS2, prog, backend="lockstep")
        message = str(excinfo.value)
        assert "barrier (1/2 arrived)" in message
        assert "recv(source=0" in message

    def test_single_rank_recv_never_satisfied(self):
        # p == 1 runs inline on the calling thread; the scheduler must
        # still turn "waits forever" into a report
        with pytest.raises(DeadlockError):
            run_spmd(1, MEIKO_CS2, lambda comm: comm.recv(source=0),
                     backend="lockstep")

    def test_deadlock_is_an_mpi_error(self):
        def prog(comm):
            return comm.recv(source=1 - comm.rank)

        with pytest.raises(MpiError):
            run_spmd(2, MEIKO_CS2, prog, backend="lockstep")


class TestRequestTest:
    """``Request.test()`` must *attempt* completion (MPI_Test), not just
    report whether ``wait()`` already happened."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_irecv_completes_via_test_alone(self, backend):
        def prog(comm):
            if comm.rank == 1:
                comm.send(np.arange(3.0), dest=0, tag=7)
                comm.barrier()
                return None
            request = comm.irecv(source=1, tag=7)
            comm.barrier()  # after this the message is in flight
            # regression: this used to stay False forever unless wait()
            # was called first
            assert request.test()
            return float(request.wait().sum())

        res = run_spmd(2, MEIKO_CS2, prog, backend=backend)
        assert res.results[0] == 3.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spin_on_test_makes_progress(self, backend):
        # rank 0 polls before rank 1 has sent: under lockstep the poll
        # must rotate the baton (yield_now) or the sender never runs
        def prog(comm):
            if comm.rank == 0:
                request = comm.irecv(source=1, tag=3)
                spins = 0
                while not request.test():
                    spins += 1
                    assert spins < 100_000, "test() loop never completed"
                return request.wait()
            comm.send("payload", dest=0, tag=3)
            return None

        res = run_spmd(2, MEIKO_CS2, prog, backend=backend)
        assert res.results[0] == "payload"

    def test_test_then_wait_returns_same_value(self):
        def prog(comm):
            if comm.rank == 1:
                comm.send(42, dest=0)
                return None
            request = comm.irecv(source=1)
            while not request.test():
                pass
            # wait() after a successful test() must not re-receive
            return (request.wait(), request.wait())

        res = run_spmd(2, MEIKO_CS2, prog, backend="lockstep")
        assert res.results[0] == (42, 42)

    def test_isend_is_complete_at_post(self):
        def prog(comm):
            if comm.rank == 0:
                request = comm.isend(1.5, dest=1)
                assert request.test()
                return request.wait()
            return comm.recv(source=0)

        res = run_spmd(2, MEIKO_CS2, prog, backend="lockstep")
        assert res.results[1] == 1.5


class TestWaitGraphTruncation:
    """Deadlock/watchdog reports stay readable (and cheap) at P=1024."""

    def _scheduler(self, nprocs):
        from repro.mpi.scheduler import BLOCKED, LockstepScheduler
        sched = LockstepScheduler(nprocs)
        for rank in range(nprocs):
            sched._state[rank] = BLOCKED
            # a recv chain with one genuine cycle at the front:
            # 0 <-> 1, everyone else waits on its predecessor
            source = 1 if rank == 0 else rank - 1
            sched._reason[rank] = ("recv", source, 7)
        return sched

    def test_small_world_report_is_unchanged(self):
        sched = self._scheduler(4)
        report = sched._wait_graph_locked()
        # every rank listed, no truncation markers
        for rank in range(4):
            assert f"rank {rank}: blocked in recv" in report
        assert "more blocked ranks" not in report
        assert "states:" not in report

    def test_p1024_report_is_truncated(self):
        from repro.mpi.comm import WAIT_REPORT_LIMIT

        sched = self._scheduler(1024)
        report = sched._wait_graph_locked()
        assert "recv cycle: 0 -> 1 -> 0" in report
        assert f"... and {1024 - 2 - WAIT_REPORT_LIMIT} more " \
            "blocked ranks" in report
        assert "states: blocked=1024" in report
        # bounded: cycle (2) + limit + cycle line + ellipsis + census
        assert len(report.splitlines()) <= WAIT_REPORT_LIMIT + 6
        assert "rank 1023" not in report

    def test_p1024_report_counts_non_blocked_states(self):
        from repro.mpi.scheduler import DONE
        sched = self._scheduler(1024)
        for rank in range(1000, 1024):
            sched._state[rank] = DONE
            sched._reason[rank] = None
        report = sched._wait_graph_locked()
        assert "states: blocked=1000, done=24" in report

    def test_find_wait_cycle(self):
        from repro.mpi.comm import find_wait_cycle

        assert find_wait_cycle({}) == []
        assert find_wait_cycle({0: 1, 1: 0}) == [0, 1]
        assert find_wait_cycle({0: 1, 1: 2, 2: 3}) == []  # chain, no cycle
        # cycle not containing the lowest waiter still found
        assert find_wait_cycle({0: 5, 5: 6, 6: 5}) == [5, 6]
        # self-wait is a 1-cycle
        assert find_wait_cycle({3: 3}) == [3]

    def test_world_wait_snapshot_small_is_unchanged(self):
        from repro.mpi.comm import World

        world = World(4, MEIKO_CS2)
        world._recv_waiting = {0: (1, 5), 2: (3, -1)}
        snap = world.wait_snapshot()
        assert "rank 0: blocked in recv(source=1, tag=5)" in snap
        assert "rank 2: blocked in recv(source=3, tag=-1)" in snap
        assert "more blocked ranks" not in snap

    def test_world_wait_snapshot_p1024_truncates(self):
        from repro.mpi import FATTREE_CLUSTER
        from repro.mpi.comm import WAIT_REPORT_LIMIT, World

        world = World(1024, FATTREE_CLUSTER)
        world._recv_waiting = {r: ((r + 1) % 1024, 0) for r in range(1024)}
        snap = world.wait_snapshot()
        assert "recv cycle:" in snap  # the full ring is one big cycle
        assert "more blocked ranks" not in snap or "... and" in snap
        # a ring of 1024 is all cycle: the renderer shows the cycle and
        # nothing is left over to truncate; break the ring to check the
        # waiter cap
        world._recv_waiting = {r: (1023, 0) for r in range(1023)}
        snap = world.wait_snapshot()
        shown = snap.count("blocked in recv")
        assert shown == WAIT_REPORT_LIMIT
        assert f"... and {1023 - WAIT_REPORT_LIMIT} more blocked ranks" \
            in snap

    def test_live_deadlock_at_p64_reports_cycle(self):
        def prog(comm):
            # every rank waits on its right neighbour: a 64-cycle
            return comm.recv(source=(comm.rank + 1) % comm.size)

        from repro.mpi import FATTREE_CLUSTER

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(64, FATTREE_CLUSTER, prog, backend="lockstep")
        message = str(excinfo.value)
        assert "no simulated rank can make progress" in message
        assert "recv cycle:" in message
        assert len(message.splitlines()) < 100
