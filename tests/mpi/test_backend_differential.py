"""Differential testing: the lockstep and fused backends must be
observationally identical.

The backend changes *how* ranks run (scheduled carrier threads, or one
fused pass for all of them), never *what* the simulated machine does — virtual
clocks, message/byte counts, and collective tallies are all functions of
the program alone.  Randomized SPMD programs (hypothesis) run on every
backend and every observable must match bit-for-bit.

The generated programs are deterministic by construction: point-to-point
uses explicit (source, tag) pairs (no multi-sender ANY_SOURCE races) and
collective cost formulas charge the symmetric ``max`` of the per-slot
``sizeof`` contributions, so no rank's wire size is privileged.

The raw-comm programs below all read ``comm.rank``, so under
``backend="fused"`` they exercise the FusionDivergence → lockstep
fallback: the run must still be observationally identical (it *is* a
lockstep run, transparently).  Compiled MATLAB programs are rank-
agnostic at the source level and execute genuinely fused.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_source
from repro.mpi import MEIKO_CS2, run_spmd

# -- program generator --------------------------------------------------- #


@st.composite
def spmd_programs(draw):
    """(nprocs, ops): a random straight-line SPMD program."""
    nprocs = draw(st.integers(min_value=2, max_value=5))
    n_ops = draw(st.integers(min_value=1, max_value=10))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(
            ["compute", "ring", "p2p", "allreduce", "bcast", "barrier",
             "allgather", "scan", "array_ring"]))
        if kind == "compute":
            ops.append(("compute", draw(st.integers(1, 2000))))
        elif kind in ("ring", "array_ring"):
            ops.append((kind, draw(st.integers(0, 3))))
        elif kind == "p2p":
            src = draw(st.integers(0, nprocs - 1))
            dst = (src + 1 + draw(st.integers(0, nprocs - 2))) % nprocs
            ops.append(("p2p", src, dst, draw(st.integers(0, 3))))
        elif kind == "bcast":
            ops.append(("bcast", draw(st.integers(0, nprocs - 1))))
        else:
            ops.append((kind,))
    return nprocs, ops


def _make_program(ops):
    def prog(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        acc = float(comm.rank + 1)
        for op in ops:
            kind = op[0]
            if kind == "compute":
                comm.compute(flops=op[1] * (comm.rank + 1))
            elif kind == "ring":
                acc = float(comm.sendrecv(acc, dest=right, sendtag=op[1],
                                          source=left, recvtag=op[1]))
            elif kind == "array_ring":
                got = comm.sendrecv(np.full(4, acc), dest=right,
                                    sendtag=op[1], source=left,
                                    recvtag=op[1])
                acc = float(np.asarray(got).sum())
            elif kind == "p2p":
                _, src, dst, tag = op
                if comm.rank == src:
                    comm.send(acc, dest=dst, tag=tag)
                elif comm.rank == dst:
                    acc += float(comm.recv(source=src, tag=tag))
            elif kind == "allreduce":
                acc = float(comm.allreduce(acc))
            elif kind == "bcast":
                acc = float(comm.bcast(acc, root=op[1]))
            elif kind == "barrier":
                comm.barrier()
            elif kind == "allgather":
                acc = float(sum(comm.allgather(acc)))
            elif kind == "scan":
                acc = float(comm.scan(acc))
        return acc
    return prog


def _observables(result):
    return {
        "results": result.results,
        "times": result.times,
        "messages_sent": result.messages_sent,
        "bytes_sent": result.bytes_sent,
        "collectives": result.collectives,
        "collective_counts": result.collective_counts,
    }


# -- the differential property ------------------------------------------- #


@settings(max_examples=25, deadline=None)
@given(spmd_programs())
def test_backends_observationally_identical(program):
    nprocs, ops = program
    prog = _make_program(ops)
    lockstep = run_spmd(nprocs, MEIKO_CS2, prog, backend="lockstep")
    fused = run_spmd(nprocs, MEIKO_CS2, prog, backend="fused")
    # prog reads comm.rank, so fused falls back to lockstep — the result
    # must be indistinguishable from a lockstep run
    assert fused.backend == "lockstep"
    assert _observables(lockstep) == _observables(fused)


# -- compiled-program differential: fused runs for real ------------------ #

_STMT_POOL = [
    "a = a + rand(n, n);",
    "a = a * a';",
    "a = tril(a) + triu(a);",
    "v = a * v;",
    "v = v / (norm(v) + 1);",
    "v = cumsum(v);",
    "v = sort(v);",
    "v = circshift(v, 2);",
    "s = sum(v); v = v + s / n;",
    "s = max(v) - min(v); a = a + s;",
    "v = fliplr(v')';",
    "for i = 1:3\n  v(i) = v(i) + i;\nend",
]


@st.composite
def matlab_programs(draw):
    nprocs = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.sampled_from([5, 8, 13]))
    stmts = draw(st.lists(st.sampled_from(_STMT_POOL),
                          min_size=1, max_size=5))
    src = "\n".join([f"n = {n};", "a = rand(n, n);", "v = rand(n, 1);"]
                    + stmts + ["total = sum(sum(a)) + sum(v);"])
    return nprocs, src


def _run_observables(result):
    spmd = result.spmd
    return result.output, _observables(spmd), {
        k: np.asarray(val).tolist() for k, val in result.workspace.items()}


@settings(max_examples=20, deadline=None)
@given(matlab_programs())
def test_compiled_programs_fused_equals_lockstep(program):
    """Fused execution of compiled MATLAB is bit-identical to lockstep:
    same workspace, same per-rank virtual clocks, same message/byte/
    collective accounting."""
    nprocs, src = program
    prog = compile_source(src)
    lockstep = prog.run(nprocs=nprocs, backend="lockstep")
    fused = prog.run(nprocs=nprocs, backend="fused")
    assert fused.spmd.backend == "fused"
    out_l, obs_l, ws_l = _run_observables(lockstep)
    out_f, obs_f, ws_f = _run_observables(fused)
    obs_l.pop("results"), obs_f.pop("results")
    assert out_l == out_f
    assert obs_l == obs_f
    assert ws_l == ws_f


# -- plan differential: any plan, every backend, same observables --------- #


@st.composite
def plans(draw):
    """A random (but always valid) optimization plan."""
    from repro.tuning import Plan

    scheme = draw(st.sampled_from(["block", "cyclic"]))
    dist_names = draw(st.sets(st.sampled_from(["a", "v", "s"]), max_size=3))
    dist = tuple(sorted(
        (name, draw(st.sampled_from(["block", "cyclic"])))
        for name in dist_names))
    fusion = tuple(draw(st.permutations(sorted(draw(st.sets(
        st.sampled_from(["transpose_matmul", "cse"]), max_size=2))))))
    return Plan(
        scheme=scheme,
        dist=dist,
        fusion=fusion,
        licm=draw(st.sampled_from(["off", "safe", "aggressive"])),
        guard=draw(st.sampled_from(["owner", "replicated"])),
        ew_split=draw(st.booleans()),
        gather_algo=draw(st.sampled_from(["ring", "doubling"])),
        allreduce_algo=draw(st.sampled_from(["tree", "halving"])),
        cache_gathers=draw(st.booleans()),
    )


@settings(max_examples=15, deadline=None)
@given(matlab_programs(), plans())
def test_any_plan_is_backend_invariant(program, plan):
    """The plan changes *what* the compiler and runtime decide — never
    the simulated machine's determinism: under any plan, lockstep and
    fused execution agree bit-for-bit on workspace values,
    program output, virtual clocks, and communication accounting."""
    nprocs, src = program
    prog = compile_source(src, plan=plan)
    runs = {backend: prog.run(nprocs=nprocs, backend=backend, plan=plan)
            for backend in ("lockstep", "fused")}
    out_ref, obs_ref, ws_ref = _run_observables(runs["lockstep"])
    obs_ref.pop("results")
    out, obs, ws = _run_observables(runs["fused"])
    obs.pop("results")
    assert out == out_ref
    assert obs == obs_ref
    assert ws == ws_ref


def test_backends_identical_on_mixed_fixed_program():
    """A dense hand-written program exercising every primitive at once
    (kept non-random so failures reproduce without hypothesis)."""
    def prog(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        local = np.full(8, float(comm.rank + 1))
        for step in range(3):
            local = np.asarray(
                comm.sendrecv(local, dest=right, source=left,
                              sendtag=step, recvtag=step))
            comm.compute(flops=50 * (comm.rank + 1), mem=local.size)
            total = comm.allreduce(float(local.sum()))
            local = local + comm.bcast(total, root=step % comm.size)
            request = comm.irecv(source=left, tag=100 + step)
            comm.send(float(local[0]), dest=right, tag=100 + step)
            while not request.test():
                pass
            local[0] = request.wait()
        parts = comm.allgather(float(local.sum()))
        comm.barrier()
        return comm.scan(sum(parts))

    lockstep = run_spmd(4, MEIKO_CS2, prog, backend="lockstep")
    fused = run_spmd(4, MEIKO_CS2, prog, backend="fused")
    assert fused.backend == "lockstep"  # prog reads comm.rank
    assert _observables(lockstep) == _observables(fused)
    assert lockstep.collective_counts["allreduce"] == 3
    assert lockstep.collective_counts["scan"] == 1
