"""Trace-layer invariants.

The recorder hooks mirror every virtual-clock/counter mutation in the
MPI substrate, so the trace is *redundant* with the world's accounting —
and these tests pin the redundancy down: per-line virtual time sums to
each rank's final clock, profile totals match the world counters, and
the canonical serialization is bit-stable across runs and backends.
"""

import json

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.config import ENV_VARS
from repro.mpi import MEIKO_CS2, run_spmd
from repro.trace import canonical_events, chrome_trace

BACKENDS = ("lockstep", "fused")


def _mixed_program(comm):
    """Touches every traced op kind that is fusion-compatible."""
    comm.line = 2
    comm.compute(flops=500, elems=32)
    comm.overhead(3)
    comm.line = 3
    acc = comm.allreduce(1.5)
    comm.line = 4
    acc += comm.bcast(2.0, root=0)
    comm.line = 5
    parts = comm.allgather(np.ones(4))
    comm.barrier()
    return acc + float(sum(p.sum() for p in parts))


def _rank_dependent_program(comm):
    """Adds point-to-point, rooted collectives, scan (reads the rank, so
    a fused request runs it through the lockstep fallback)."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.line = 2
    comm.compute(flops=100 * (comm.rank + 1))
    comm.line = 3
    got = comm.sendrecv(np.full(3, float(comm.rank)), dest=right,
                        source=left)
    comm.line = 4
    total = comm.allreduce(float(np.sum(got)))
    comm.line = 5
    ranks = comm.gather(comm.rank, root=0)
    comm.line = 6
    prefix = comm.scan(1.0)
    comm.line = 7
    share = comm.scatter(list(range(comm.size)) if comm.rank == 0
                         else None, root=0)
    rows = comm.alltoall([float(comm.rank)] * comm.size)
    return total + prefix + share + sum(rows) + (ranks[0] if ranks else 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_vtime_sums_to_final_clock(backend):
    result = run_spmd(4, MEIKO_CS2, _mixed_program, backend=backend,
                      trace=True)
    for rank, rec in enumerate(result.trace.recorders):
        assert rec.vtime_total == pytest.approx(result.times[rank],
                                                rel=1e-12, abs=1e-18)


@pytest.mark.parametrize("backend", BACKENDS)
def test_profile_totals_match_world_counters(backend):
    result = run_spmd(3, MEIKO_CS2, _rank_dependent_program,
                      backend=backend, trace=True)
    profile = result.trace.line_profile()
    assert sum(r.msgs for r in profile.values()) == result.messages_sent
    assert sum(r.bytes for r in profile.values()) == result.bytes_sent
    assert sum(r.colls for r in profile.values()) == result.collectives
    # vtime: per-line max over ranks never exceeds elapsed, and the
    # per-rank sums reproduce each clock exactly
    for rank, rec in enumerate(result.trace.recorders):
        assert rec.vtime_total == pytest.approx(result.times[rank],
                                                rel=1e-12, abs=1e-18)


def test_canonical_trace_identical_across_all_backends():
    texts = {backend: canonical_events(
        run_spmd(4, MEIKO_CS2, _mixed_program, backend=backend,
                 trace=True).trace) for backend in BACKENDS}
    assert texts["lockstep"] == texts["fused"]
    assert "allreduce" in texts["lockstep"]
    assert "mpi.send" not in texts["lockstep"]  # no p2p in this program


def test_canonical_trace_stable_across_runs():
    runs = [canonical_events(
        run_spmd(3, MEIKO_CS2, _rank_dependent_program,
                 backend="lockstep", trace=True).trace)
        for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert "mpi.send" in runs[0] and "mpi.recv" in runs[0]
    assert "scatter" in runs[0] and "alltoall" in runs[0]


def test_rank_dependent_trace_identical_lockstep_vs_fused():
    runs = [run_spmd(3, MEIKO_CS2, _rank_dependent_program,
                     backend=backend, trace=True) for backend in BACKENDS]
    assert canonical_events(runs[0].trace) == \
        canonical_events(runs[1].trace)
    # the fused request fell back, and its trace meta says why
    assert "fallback" not in runs[0].trace.meta
    assert runs[1].trace.meta["backend"] == "lockstep"
    assert runs[1].trace.meta["fallback"] == {
        "reason": "program reads the MPI rank", "line": 0}
    # the stamped config is the one requested, not the fallback's
    assert runs[0].trace.meta["config"]["backend"] == "lockstep"
    assert runs[1].trace.meta["config"]["backend"] == "fused"
    assert runs[1].trace.meta["config"]["trace"] is True


def test_trace_off_by_default():
    result = run_spmd(2, MEIKO_CS2, _mixed_program)
    assert result.trace is None


def test_trace_env_enables_recording(monkeypatch):
    monkeypatch.setenv(ENV_VARS["trace"], "summary")
    result = run_spmd(2, MEIKO_CS2, _mixed_program)
    assert result.trace is not None
    assert result.trace.meta["backend"] in BACKENDS
    assert result.trace.meta["config"]["trace"] == "summary"


def test_suspension_hides_instrumentation(monkeypatch):
    def prog(comm):
        comm.line = 2
        comm.compute(flops=100)
        token = comm.trace_suspend()
        comm.allreduce(1.0)       # "instrumentation" work
        comm.trace_resume(token)
        comm.line = 3
        comm.barrier()
        return 0.0

    result = run_spmd(2, MEIKO_CS2, prog, backend="lockstep", trace=True)
    text = canonical_events(result.trace)
    assert "allreduce" not in text
    assert "barrier" in text
    # the suspended collective still counted in world accounting
    assert result.collective_counts.get("allreduce") == 1


def test_fault_events_flow_into_trace():
    def prog(comm):
        comm.line = 2
        if comm.rank == 0:
            comm.send(np.ones(4), dest=1, tag=7)
            comm.send(np.ones(4), dest=1, tag=7)
        elif comm.rank == 1:
            comm.recv(source=0, tag=7)
        comm.barrier()
        return None

    plan = "seed=3; drop rank=0 dst=1 tag=7 count=1 step=1"
    result = run_spmd(2, MEIKO_CS2, prog, backend="lockstep",
                      fault_plan=plan, trace=True)
    faults = result.trace.fault_events()
    assert len(faults) == 1
    assert faults[0].args["what"].startswith("drop rank 0->rank 1")
    # the stderr-style event list and the trace agree
    assert result.fault_events == [faults[0].args["what"]]


def test_chrome_trace_schema():
    result = run_spmd(2, MEIKO_CS2, _mixed_program, backend="lockstep",
                      trace=True)
    doc = chrome_trace(result.trace, pass_timings=[("parse", 0.001)])
    events = doc["traceEvents"]
    assert doc["otterMeta"]["backend"] == "lockstep"
    assert doc["otterMeta"]["config"] == result.trace.meta["config"]
    assert set(doc["otterMeta"]["config"]) == {
        "backend", "fault_plan", "watchdog", "trace", "tune", "on_fault",
        "max_restarts", "checkpoint_every", "native"}
    json.dumps(doc["otterMeta"])                 # JSON-ready as stamped
    assert any(e.get("ph") == "M" for e in events)          # metadata
    spans = [e for e in events if e.get("ph") == "X" and e["pid"] == 1]
    assert spans and all(e["ts"] >= 0 and e["dur"] >= 0 for e in spans)
    assert any(e["pid"] == 2 and e["name"] == "parse" for e in events)


def test_compiled_run_result_exposes_trace():
    program = compile_source("x = ones(8, 1); s = sum(x); disp(s);")
    result = program.run(nprocs=2, machine=MEIKO_CS2, trace=True)
    assert result.trace is result.spmd.trace is not None
    text = canonical_events(result.trace)
    assert "io.write" in text
    assert program.pass_timings and program.pass_timings[0][0] == "parse"


def test_zero_cost_attribute_when_disabled():
    """The disabled path must not even allocate recorders."""
    result = run_spmd(2, MEIKO_CS2, _mixed_program, backend="lockstep",
                      trace=False)
    assert result.trace is None
