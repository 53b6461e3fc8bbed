"""Property-based tests (hypothesis) for the compile-cache key contract.

The contract (docs/SERVICE.md): requests differing in any cache-relevant
component (backend and native by resolved value) never share a key; requests differing only in layout/comments
always do; an identical repeat is a hit that executes zero compiler
passes and whose run is bit-identical to the cold one.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.config import RunConfig
from repro.mpi.machine import MEIKO_CS2
from repro.service.cache import CompileCache
from repro.trace import canonical_events, pass_report
from repro.tuning.plan import Plan

# a pool of semantically distinct, compilable sources
SOURCES = (
    "x = ones(4, 4) * 2;\ndisp(sum(sum(x)));\n",
    "y = zeros(3, 5) + 1;\ndisp(sum(sum(y)));\n",
    "A = ones(6, 6);\nv = ones(6, 1);\ndisp(sum(A * v));\n",
    "s = 0;\nfor i = 1:5\n  s = s + i;\nend\ndisp(s);\n",
)

components = st.fixed_dictionaries({
    "source": st.sampled_from(range(len(SOURCES))),
    "name": st.sampled_from(("script", "demo", "job")),
    "nprocs": st.sampled_from((1, 2, 4, 8)),
    "backend": st.sampled_from((None, "lockstep", "fused")),
    "native": st.sampled_from((None, "auto", "off")),
    "plan": st.sampled_from((None, "nofuse", "cyclic")),
})

_PLANS = {"nofuse": Plan(fusion=()), "cyclic": Plan(scheme="cyclic")}


def _key(cache: CompileCache, c: dict) -> str:
    return cache.key(SOURCES[c["source"]], name=c["name"],
                     plan=_PLANS.get(c["plan"]), nprocs=c["nprocs"],
                     machine=MEIKO_CS2, backend=c["backend"],
                     native=c["native"])


def _resolved(c: dict) -> dict:
    """The components as the key sees them: backend and native resolved
    (an omitted knob and its explicit default are one request)."""
    config = RunConfig.resolve(backend=c["backend"], native=c["native"])
    return dict(c, backend=config.backend, native=config.native)


@given(a=components, b=components)
@settings(max_examples=150, deadline=None)
def test_distinct_components_never_collide(a, b):
    cache = CompileCache(disk_root=False)
    ka, kb = _key(cache, a), _key(cache, b)
    if _resolved(a) == _resolved(b):
        assert ka == kb
    else:
        assert ka != kb


# whitespace/comment mutations that must not move the key
def _mutate_layout(source: str, pad: int, comment: bool) -> str:
    lines = source.rstrip("\n").split("\n")
    mutated = []
    for line in lines:
        mutated.append(" " * pad + line.replace(" = ", "  =  "))
        if comment:
            mutated.append("% noise" + "!" * pad)
    return "\n".join(mutated) + "\n" * (1 + pad)


@given(source=st.sampled_from(SOURCES), pad=st.integers(0, 6),
       comment=st.booleans())
@settings(max_examples=60, deadline=None)
def test_layout_mutations_preserve_the_key(source, pad, comment):
    cache = CompileCache(disk_root=False)
    assert cache.key(source) == cache.key(_mutate_layout(source, pad,
                                                         comment))


@given(c=components)
@settings(max_examples=25, deadline=None)
def test_identical_repeat_is_a_hit_with_zero_passes(c):
    cache = CompileCache(disk_root=False)
    kwargs = dict(name=c["name"], plan=_PLANS.get(c["plan"]),
                  nprocs=c["nprocs"], machine=MEIKO_CS2,
                  backend=c["backend"], native=c["native"])
    cold = cache.get_or_compile(SOURCES[c["source"]], **kwargs)
    warm = cache.get_or_compile(SOURCES[c["source"]], **kwargs)
    assert not cold.hit and warm.hit
    assert warm.key == cold.key
    assert warm.passes == []
    assert warm.program is cold.program
    # the pass report of a warm request shows no pass rows at all
    report = pass_report(warm.passes, cache=warm.describe())
    assert "[cache] hit" in report
    assert "parse" not in report and "emit" not in report


@given(source=st.sampled_from(SOURCES[:3]), nprocs=st.sampled_from((1, 2)))
@settings(max_examples=10, deadline=None)
def test_hit_runs_bit_identical_to_miss_runs(source, nprocs):
    cache = CompileCache(disk_root=False)
    cold = cache.get_or_compile(source, nprocs=nprocs, machine=MEIKO_CS2)
    warm = cache.get_or_compile(source, nprocs=nprocs, machine=MEIKO_CS2)
    r_cold = cold.program.run(nprocs=nprocs, machine=MEIKO_CS2, trace=True)
    r_warm = warm.program.run(nprocs=nprocs, machine=MEIKO_CS2, trace=True)
    assert r_warm.output == r_cold.output
    assert r_warm.elapsed == r_cold.elapsed
    sha = lambda r: hashlib.sha256(                      # noqa: E731
        canonical_events(r.trace).encode("utf-8")).hexdigest()
    assert sha(r_warm) == sha(r_cold)
