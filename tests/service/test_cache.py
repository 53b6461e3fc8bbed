"""The content-addressed compile cache (docs/SERVICE.md).

Covers both tiers (LRU memory with injectable clock, atomic on-disk),
key canonicalization, single-flight concurrency, dependency staleness,
and the acceptance criterion: a warm request performs zero compiler
passes and its run is bit-identical to the cold one, canonical trace
SHA included, on all three SPMD backends.
"""

import hashlib
import threading

import pytest

from repro.config import ENV_VARS
from repro.frontend.mfile import DictProvider, DirectoryProvider
from repro.mpi.machine import MEIKO_CS2, get_machine
from repro.service.cache import (
    CompileCache,
    canonical_source,
    resolve_disk_root,
)
from repro.trace import canonical_events
from repro.tuning.plan import Plan

SRC = "x = ones(4, 4) * 2;\ndisp(sum(sum(x)));\n"
SRC_WS = "% a comment\nx   = ones(4,4)*2 ;\n\n\ndisp( sum(sum(x)) );  % more\n"
SRC_B = "y = zeros(3, 3) + 5;\ndisp(sum(sum(y)));\n"
SRC_C = "z = ones(2, 6);\ndisp(sum(sum(z')));\n"

COMM_SRC = (
    "A = ones(8, 8);\n"
    "v = ones(8, 1);\n"
    "w = A * v;\n"
    "disp(sum(w));\n"
)


def trace_sha(result) -> str:
    return hashlib.sha256(
        canonical_events(result.trace).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# keys
# ---------------------------------------------------------------------- #


def test_canonical_source_collapses_layout_and_comments():
    assert canonical_source(SRC) == canonical_source(SRC_WS)
    assert canonical_source(SRC) != canonical_source(SRC_B)


def test_canonical_source_of_unparsable_text_is_verbatim():
    broken = "for i = (((\n"
    assert canonical_source(broken) == broken


def test_key_is_whitespace_insensitive():
    cache = CompileCache(disk_root=False)
    assert cache.key(SRC) == cache.key(SRC_WS)


def test_key_differs_on_every_component(monkeypatch):
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)
    cache = CompileCache(disk_root=False)
    base = dict(name="script", provider=None, plan=None, nprocs=4,
                machine=MEIKO_CS2, backend=None, native=None)
    reference = cache.key(SRC, **base)
    variants = [
        dict(base, name="other"),
        dict(base, provider=DictProvider({"f": "function y = f(x)\ny = x;"})),
        dict(base, plan=Plan(fusion=())),
        dict(base, nprocs=8),
        dict(base, machine=get_machine("cluster")),
        dict(base, backend="lockstep"),
        dict(base, native="off"),
    ]
    keys = [cache.key(SRC, **v) for v in variants] + [cache.key(SRC_B, **base)]
    for key in keys:
        assert key != reference
    assert len(set(keys)) == len(keys)
    # None and the explicit default give the same key
    assert cache.key(SRC, **dict(base, backend="fused",
                                 native="auto")) == reference


def test_key_ignores_unrelated_bad_run_variables(monkeypatch):
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)
    cache = CompileCache(disk_root=False)
    reference = cache.key(SRC)
    monkeypatch.setenv(ENV_VARS["watchdog"], "abc")
    monkeypatch.setenv(ENV_VARS["max_restarts"], "x")
    monkeypatch.setenv(ENV_VARS["fault_plan"], "explode rank=0")
    assert cache.key(SRC) == reference
    monkeypatch.setenv(ENV_VARS["backend"], "lockstep")
    assert cache.key(SRC) != reference


# ---------------------------------------------------------------------- #
# memory tier
# ---------------------------------------------------------------------- #


def test_memory_hit_returns_same_object_with_zero_passes():
    cache = CompileCache(disk_root=False)
    cold = cache.get_or_compile(SRC, nprocs=2, machine=MEIKO_CS2)
    assert not cold.hit and cold.passes and cold.compile_seconds >= 0
    warm = cache.get_or_compile(SRC_WS, nprocs=2, machine=MEIKO_CS2)
    assert warm.hit and warm.tier == "memory"
    assert warm.passes == []
    assert warm.program is cold.program
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["compiles"] == 1


def test_lru_eviction_drops_least_recent():
    cache = CompileCache(max_entries=2, disk_root=False)
    a = cache.get_or_compile(SRC)
    b = cache.get_or_compile(SRC_B)
    cache.get_or_compile(SRC)            # touch A: B is now the LRU
    cache.get_or_compile(SRC_C)          # evicts B
    assert cache.contains(a.key)
    assert not cache.contains(b.key)
    assert cache.stats()["evictions_lru"] == 1


def test_ttl_eviction_with_fake_clock(fake_clock):
    cache = CompileCache(disk_root=False, ttl=10.0, clock=fake_clock)
    cold = cache.get_or_compile(SRC)
    fake_clock.tick(5.0)
    assert cache.get_or_compile(SRC).hit          # refreshes the stamp
    fake_clock.tick(9.0)
    assert cache.get_or_compile(SRC).hit          # 9 < ttl since touch
    fake_clock.tick(11.0)
    again = cache.get_or_compile(SRC)
    assert not again.hit
    assert cache.stats()["evictions_ttl"] == 1
    # the compile-projection memo still shares the program object
    assert again.shared and again.program is cold.program


def test_single_flight_compiles_once_across_threads():
    cache = CompileCache(disk_root=False)
    nthreads = 8
    barrier = threading.Barrier(nthreads)
    outcomes = [None] * nthreads

    def worker(i):
        barrier.wait()
        outcomes[i] = cache.get_or_compile(COMM_SRC, nprocs=4,
                                           machine=MEIKO_CS2)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cache.stats()["compiles"] == 1
    programs = {id(o.program) for o in outcomes}
    assert len(programs) == 1
    assert sum(1 for o in outcomes if not o.hit and not o.shared) == 1


def test_clear_resets_entries_and_stats():
    cache = CompileCache(disk_root=False)
    cold = cache.get_or_compile(SRC)
    cache.clear()
    stats = cache.stats()
    assert stats["size"] == 0 and stats["hits"] == 0
    fresh = cache.get_or_compile(SRC)
    assert not fresh.hit and not fresh.shared
    assert fresh.program is not cold.program


# ---------------------------------------------------------------------- #
# disk tier
# ---------------------------------------------------------------------- #


def test_disk_tier_rehydrates_across_cache_instances(tmp_path):
    root = tmp_path / "programs"
    first = CompileCache(disk_root=root)
    cold = first.get_or_compile(COMM_SRC, nprocs=4, machine=MEIKO_CS2)
    r_cold = cold.program.run(nprocs=4, machine=MEIKO_CS2, trace=True)

    # a "fresh process": new cache instance over the same directory
    second = CompileCache(disk_root=root)
    warm = second.get_or_compile(COMM_SRC, nprocs=4, machine=MEIKO_CS2)
    assert warm.hit and warm.tier == "disk"
    assert warm.passes == []
    assert warm.program.from_cache
    assert warm.program.python_source == cold.program.python_source
    assert second.stats()["disk_hits"] == 1

    r_warm = warm.program.run(nprocs=4, machine=MEIKO_CS2, trace=True)
    assert r_warm.output == r_cold.output
    assert r_warm.elapsed == r_cold.elapsed
    assert trace_sha(r_warm) == trace_sha(r_cold)

    # front-end artifacts recompile lazily, identically
    assert warm.program.c_source == cold.program.c_source
    assert not warm.program.from_cache


def test_disk_entry_with_stale_mfile_dep_recompiles(tmp_path):
    root = tmp_path / "programs"
    mdir = tmp_path / "mfiles"
    mdir.mkdir()
    helper = mdir / "triple.m"
    helper.write_text("function y = triple(x)\ny = x * 3;\n",
                      encoding="utf-8")
    src = "a = triple(7);\ndisp(a);\n"
    provider = DirectoryProvider([str(mdir)])

    first = CompileCache(disk_root=root)
    cold = first.get_or_compile(src, provider=provider)
    assert "21" in cold.program.run().output

    # same search path (same key), drifted content: the dep validator
    # must reject the disk entry and recompile against the new source
    helper.write_text("function y = triple(x)\ny = x * 4;\n",
                      encoding="utf-8")
    second = CompileCache(disk_root=root)
    fresh_provider = DirectoryProvider([str(mdir)])
    warm = second.get_or_compile(src, provider=fresh_provider)
    assert not warm.hit
    assert second.stats()["disk_hits"] == 0
    assert "28" in warm.program.run().output


def test_disk_tier_is_opt_in(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_COMPILE_CACHE", raising=False)
    assert resolve_disk_root() is None
    for off in ("0", "off", "NONE", "disabled", ""):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", off)
        assert resolve_disk_root() is None
    monkeypatch.setenv("REPRO_COMPILE_CACHE", str(tmp_path / "cc"))
    assert resolve_disk_root() == tmp_path / "cc"


def test_disk_false_never_touches_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE_CACHE", str(tmp_path / "cc"))
    cache = CompileCache(disk_root=False)
    cache.get_or_compile(SRC)
    assert not (tmp_path / "cc").exists()


def test_get_or_compile_disk_false_skips_lookup_and_publish(tmp_path):
    root = tmp_path / "programs"
    cache = CompileCache(disk_root=root)
    cache.get_or_compile(SRC, disk=False)
    assert not list(root.glob("p_*.json")) if root.exists() else True


# ---------------------------------------------------------------------- #
# the acceptance criterion: warm == cold, bit for bit, on every backend
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["lockstep", "fused"])
def test_warm_run_bit_identical_to_cold(backend, tmp_path):
    root = tmp_path / "programs"
    cold_cache = CompileCache(disk_root=root)
    cold = cold_cache.get_or_compile(COMM_SRC, nprocs=4, machine=MEIKO_CS2,
                                     backend=backend)
    assert not cold.hit and cold.passes
    r_cold = cold.program.run(nprocs=4, machine=MEIKO_CS2, backend=backend,
                              trace=True)

    for warm_cache in (cold_cache, CompileCache(disk_root=root)):
        warm = warm_cache.get_or_compile(COMM_SRC, nprocs=4,
                                         machine=MEIKO_CS2, backend=backend)
        assert warm.hit
        assert warm.passes == []       # zero compiler passes when warm
        r_warm = warm.program.run(nprocs=4, machine=MEIKO_CS2,
                                  backend=backend, trace=True)
        assert r_warm.output == r_cold.output
        assert r_warm.elapsed == r_cold.elapsed
        assert r_warm.spmd.messages_sent == r_cold.spmd.messages_sent
        assert r_warm.spmd.bytes_sent == r_cold.spmd.bytes_sent
        assert trace_sha(r_warm) == trace_sha(r_cold)
        assert set(r_warm.workspace) == set(r_cold.workspace)
