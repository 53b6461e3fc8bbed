"""The search driver's contract: tuned never worse than default, budget
respected, memoization effective, and real wins on collective-heavy
programs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compiler import clear_compile_cache, compile_source
from repro.tuning import (
    DEFAULT_PLAN,
    alignment_classes,
    clear_eval_memo,
    enumerate_plans,
    eval_memo_stats,
    plan_axes,
    tune_program,
)

MATVEC_SRC = """\
n = 48;
A = rand(n, n);
v = rand(n, 1);
for i = 1:4
  v = A * v;
  v = v / (norm(v) + 1);
end
s = sum(v);
"""

_STMT_POOL = [
    "v = a * v;",
    "v = v / (norm(v) + 1);",
    "a = a + a';",
    "v = cumsum(v);",
    "s = sum(v); v = v + s / n;",
    "v = circshift(v, 1);",
    "for i = 1:2\n  v = a * v;\nend",
]


@st.composite
def small_programs(draw):
    n = draw(st.sampled_from([6, 9]))
    stmts = draw(st.lists(st.sampled_from(_STMT_POOL),
                          min_size=1, max_size=3))
    return "\n".join([f"n = {n};", "a = rand(n, n);", "v = rand(n, 1);"]
                     + stmts + ["total = sum(v);"])


# -- the headline property ------------------------------------------------ #


@settings(max_examples=10, deadline=None)
@given(small_programs(), st.sampled_from([2, 4]))
def test_tuned_never_worse_than_default(src, nprocs):
    """For any program, the tuned plan's virtual clock is <= the default
    plan's: the default is always candidate 0 and the winner is the
    argmin over valid candidates."""
    tuned = tune_program(src, nprocs=nprocs, budget=16)
    assert tuned.best.cost <= tuned.default.cost
    assert tuned.improvement >= 0.0
    assert tuned.default.plan == DEFAULT_PLAN


# -- mechanics ------------------------------------------------------------ #


def test_budget_is_respected():
    for budget in (1, 3, 10):
        tuned = tune_program(MATVEC_SRC, nprocs=4, budget=budget)
        assert 1 <= len(tuned.candidates) <= budget


def test_eval_memo_serves_repeat_searches():
    clear_eval_memo()
    clear_compile_cache()
    first = tune_program(MATVEC_SRC, nprocs=4, budget=12)
    assert not any(c.cached for c in first.candidates)
    again = tune_program(MATVEC_SRC, nprocs=4, budget=12)
    assert all(c.cached for c in again.candidates)
    assert eval_memo_stats()["hits"] >= len(again.candidates)
    # same objective either way
    assert again.best.cost == first.best.cost


def test_collective_heavy_program_strictly_improves_at_16():
    """At P=16 the matvec loop allgathers every iteration; recursive
    doubling must beat the modeled ring/sequential-root library."""
    tuned = tune_program(MATVEC_SRC, nprocs=16, budget=64)
    assert tuned.improvement > 0.01
    assert tuned.best.plan.gather_algo == "doubling"
    # and the winner's numerics were checked against the default's
    assert tuned.best.valid


def test_failed_program_reports_without_searching():
    # compiles fine, dies at run time (index out of range)
    tuned = tune_program("v = rand(4, 1);\ns = v(9);", nprocs=4, budget=8)
    assert len(tuned.candidates) == 1
    assert not np.isfinite(tuned.default.cost)
    assert tuned.best is tuned.default
    assert tuned.improvement == 0.0


def test_uncompilable_program_raises():
    import pytest

    from repro.errors import OtterError
    with pytest.raises(OtterError):
        tune_program("undefined_function_xyz(3);", nprocs=4, budget=8)


def test_tune_result_json_roundtrip():
    tuned = tune_program(MATVEC_SRC, nprocs=4, budget=8)
    payload = tuned.to_json()
    assert payload["default_vclock"] >= payload["tuned_vclock"]
    assert payload["best_plan"]["scheme"] in ("block", "cyclic")
    assert len(payload["candidates"]) == len(tuned.candidates)
    assert "plan search" in tuned.report()


# -- enumeration ---------------------------------------------------------- #


def test_enumerate_plans_default_first_unique_deterministic():
    program = compile_source(MATVEC_SRC)
    plans_a = enumerate_plans(program, None, nprocs=4, budget=32)
    plans_b = enumerate_plans(program, None, nprocs=4, budget=32)
    assert plans_a == plans_b
    assert plans_a[0] == DEFAULT_PLAN
    keys = [p.key() for p in plans_a]
    assert len(keys) == len(set(keys))
    assert len(plans_a) <= 32


def test_plan_axes_prune_on_probe_counts():
    program = compile_source(MATVEC_SRC)
    # no collectives observed -> no collective-algorithm axes
    axes = plan_axes(program, {"allgather": 0, "allreduce": 0}, nprocs=4)
    assert "gather_algo" not in axes
    assert "allreduce_algo" not in axes
    # observed -> axes present
    axes = plan_axes(program, {"allgather": 3, "allreduce": 2}, nprocs=4)
    assert "gather_algo" in axes
    assert "allreduce_algo" in axes
    # serial runs have no distribution or collective axes at all
    axes = plan_axes(program, None, nprocs=1)
    assert "dist" not in axes and "gather_algo" not in axes


def test_alignment_classes_group_interacting_names():
    program = compile_source(MATVEC_SRC)
    classes = alignment_classes(program.ir)
    by_name = {name: cls for cls in classes for name in cls}
    # A and v interact through the matvec: same class
    assert by_name["A"] == by_name["v"]


def test_run_with_tune_returns_tuned_result():
    program = compile_source(MATVEC_SRC)
    result = program.run(nprocs=4, backend="fused", tune=8)
    assert result.tune is not None
    assert len(result.tune.candidates) <= 8
    # the run itself executed under the winning plan
    assert result.spmd.elapsed <= result.tune.default.cost + 1e-12


def test_tuned_run_ignores_caller_gather_caching():
    # repeated gathers of one matrix: caching changes the modeled time
    src = "n = 16;\na = rand(n, n);\nb = a';\nc = a(:, 3);\nd = a(2, :);\n"
    program = compile_source(src)
    assert (program.run(nprocs=4, cache_gathers=True).spmd.elapsed
            < program.run(nprocs=4).spmd.elapsed)
    # a one-candidate search picks the default plan (no gather caching);
    # the winner must run exactly as the tuner measured it
    plain = program.run(nprocs=4, tune=1)
    cached = program.run(nprocs=4, tune=1, cache_gathers=True)
    assert not cached.tune.best.plan.cache_gathers
    assert cached.spmd.elapsed == plain.spmd.elapsed == cached.tune.best.cost


def test_tuned_run_traces_only_the_winner(monkeypatch):
    from repro.config import ENV_VARS
    from repro.trace import WorldTrace
    from repro.tuning import clear_eval_memo

    built = []
    init = WorldTrace.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WorldTrace, "__init__", counting_init)
    monkeypatch.setenv(ENV_VARS["trace"], "1")
    clear_eval_memo()                    # every candidate really runs
    result = compile_source(MATVEC_SRC).run(nprocs=4, tune=8)
    assert len(result.tune.candidates) > 1
    assert built == [result.trace]
    assert result.trace.meta["config"]["tune"] == 8


# -- topology-aware axes (modern machine profiles) ------------------------- #


def test_hierarchy_axis_requires_multi_node_machine():
    from repro.mpi import FATTREE_CLUSTER, MEIKO_CS2

    program = compile_source(MATVEC_SRC)
    counts = {"allgather": 3, "allreduce": 2}
    # Meiko is a single 16-CPU node: no hierarchy knob to turn
    axes = plan_axes(program, counts, nprocs=16, machine=MEIKO_CS2)
    assert "hierarchy" not in axes
    # no machine given -> no topology evidence -> no axis
    axes = plan_axes(program, counts, nprocs=16)
    assert "hierarchy" not in axes
    # fat tree at P=64 spans nodes: the flat deviation is offered
    axes = plan_axes(program, counts, nprocs=64, machine=FATTREE_CLUSTER)
    assert axes["hierarchy"] == [{"hierarchy": "flat"}]
    # but not when the whole world fits on one 32-core node
    axes = plan_axes(program, counts, nprocs=16, machine=FATTREE_CLUSTER)
    assert "hierarchy" not in axes
    # and not without any collectives to reroute
    axes = plan_axes(program, {"allgather": 0}, nprocs=64,
                     machine=FATTREE_CLUSTER)
    assert "hierarchy" not in axes


def test_enumerate_plans_explores_hierarchy_on_fattree():
    from repro.mpi import FATTREE_CLUSTER

    program = compile_source(MATVEC_SRC)
    plans = enumerate_plans(program, None, nprocs=64, budget=64,
                            machine=FATTREE_CLUSTER)
    assert any(p.hierarchy == "flat" for p in plans)
    # without the machine the knob never appears
    plans = enumerate_plans(program, None, nprocs=64, budget=64)
    assert all(p.hierarchy == "auto" for p in plans)


def test_tuned_never_worse_on_modern_profile():
    """The headline guarantee holds on the fat-tree profile too, with the
    hierarchy axis in play at a node-spanning P."""
    from repro.mpi import FATTREE_CLUSTER

    tuned = tune_program(MATVEC_SRC, nprocs=64, budget=24,
                         machine=FATTREE_CLUSTER)
    assert tuned.best.cost <= tuned.default.cost
    assert tuned.improvement >= 0.0
    assert tuned.best.valid
    # the search actually considered a flat-hierarchy candidate
    assert any(c.plan.hierarchy == "flat" for c in tuned.candidates)
