"""Data distributions.

The paper's initial implementation distributes *matrices row-contiguously*
and *vectors by blocks*, with the guarantee that matrices of identical
size are distributed identically (so same-shape elementwise operations
need no communication).  Distribution decisions live here, inside the
run-time library, "making it easier to experiment with alternative data
distribution strategies" — the cyclic variant below backs the ablation
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import DistributionError


@dataclass(frozen=True)
class BlockMap:
    """A 1-D block partition of ``n`` items over ``nprocs`` ranks.

    The first ``n % nprocs`` ranks receive one extra item, so sizes differ
    by at most one and the partition is contiguous.

    The ``base``/``extra`` split is computed once at construction and all
    per-rank queries are O(1) in ``nprocs`` — per-operation distribution
    math must not grow with the rank count, or simulated ranks stop being
    cheap (each of P ranks would pay O(P) per op, O(P^2) total).
    """

    n: int
    nprocs: int
    base: int = field(init=False, repr=False, compare=False)
    extra: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base, extra = divmod(self.n, self.nprocs)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "extra", extra)

    def count(self, rank: int) -> int:
        return self.base + (1 if rank < self.extra else 0)

    def min_count(self) -> int:
        """Smallest block size across ranks, O(1)."""
        return self.base

    def start(self, rank: int) -> int:
        return rank * self.base + min(rank, self.extra)

    def stop(self, rank: int) -> int:
        return self.start(rank) + self.count(rank)

    def owner(self, index: int) -> int:
        """Rank owning global item ``index`` (0-based)."""
        if not 0 <= index < self.n:
            raise DistributionError(
                f"index {index} out of range for extent {self.n}")
        base, extra = self.base, self.extra
        boundary = extra * (base + 1)
        if index < boundary:
            return index // (base + 1) if base + 1 else 0
        if base == 0:
            raise DistributionError(
                f"index {index} out of range for extent {self.n}")
        return extra + (index - boundary) // base

    def local_index(self, index: int) -> int:
        return index - self.start(self.owner(index))

    def owners(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner`: owning rank per global index.

        Pure integer arithmetic (no Python loop) — this is the hot path of
        the alltoall message packing in :mod:`repro.runtime.structural`.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            bad = idx[(idx < 0) | (idx >= self.n)][0]
            raise DistributionError(
                f"index {bad} out of range for extent {self.n}")
        base, extra = self.base, self.extra
        boundary = extra * (base + 1)
        # below the boundary blocks have base+1 items; above, base items
        # (base == 0 cannot occur above the boundary for in-range indices:
        # then boundary == n and the np.where 'above' branch is never taken)
        low = idx // max(base + 1, 1)
        high = extra + (idx - boundary) // max(base, 1)
        return np.where(idx < boundary, low, high)

    def local_indices(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`local_index`: position on the owning rank."""
        idx = np.asarray(indices, dtype=np.int64)
        owners = self.owners(idx)
        starts = owners * self.base + np.minimum(owners, self.extra)
        return idx - starts

    def counts(self) -> list[int]:
        return list(_block_counts(self.n, self.nprocs))

    def starts(self) -> list[int]:
        return list(_block_starts(self.n, self.nprocs))


@dataclass(frozen=True)
class CyclicMap:
    """Round-robin 1-D partition (the ablation alternative).

    Not contiguous: global item ``i`` lives on rank ``i % nprocs`` at local
    position ``i // nprocs``.
    """

    n: int
    nprocs: int

    def count(self, rank: int) -> int:
        return (self.n - rank + self.nprocs - 1) // self.nprocs \
            if rank < self.nprocs else 0

    def min_count(self) -> int:
        """Smallest block size across ranks, O(1)."""
        return self.count(self.nprocs - 1)

    def owner(self, index: int) -> int:
        if not 0 <= index < self.n:
            raise DistributionError(
                f"index {index} out of range for extent {self.n}")
        return index % self.nprocs

    def local_index(self, index: int) -> int:
        return index // self.nprocs

    def owners(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner` (round-robin: ``index % nprocs``)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            bad = idx[(idx < 0) | (idx >= self.n)][0]
            raise DistributionError(
                f"index {bad} out of range for extent {self.n}")
        return idx % self.nprocs

    def local_indices(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`local_index` (``index // nprocs``)."""
        return np.asarray(indices, dtype=np.int64) // self.nprocs

    def global_indices(self, rank: int) -> np.ndarray:
        return np.arange(rank, self.n, self.nprocs)

    def counts(self) -> list[int]:
        return list(_cyclic_counts(self.n, self.nprocs))


# -- memoized geometry -------------------------------------------------- #
# Maps are value objects keyed by (n, nprocs); SPMD programs construct
# the same few geometries thousands of times (every DMatrix builds one),
# so both the instances and their O(nprocs) count/start tables are
# shared process-wide.
#
# The cache size is configurable (REPRO_MAP_CACHE_SIZE or
# ``configure_map_cache``): a multi-thousand-candidate autotuning search
# sweeps many (n, nprocs) geometries and must not thrash a small LRU.

DEFAULT_MAP_CACHE_SIZE = 65536


def _env_cache_size() -> int:
    import os

    raw = os.environ.get("REPRO_MAP_CACHE_SIZE", "")
    try:
        size = int(raw)
        return size if size > 0 else DEFAULT_MAP_CACHE_SIZE
    except ValueError:
        return DEFAULT_MAP_CACHE_SIZE


def _get_map_raw(scheme: str, n: int, nprocs: int):
    return (BlockMap(n, nprocs) if scheme == "block"
            else CyclicMap(n, nprocs))


def _block_counts_raw(n: int, nprocs: int) -> tuple[int, ...]:
    m = get_map("block", n, nprocs)
    return tuple(m.count(r) for r in range(nprocs))


def _block_starts_raw(n: int, nprocs: int) -> tuple[int, ...]:
    m = get_map("block", n, nprocs)
    return tuple(m.start(r) for r in range(nprocs))


def _cyclic_counts_raw(n: int, nprocs: int) -> tuple[int, ...]:
    m = get_map("cyclic", n, nprocs)
    return tuple(m.count(r) for r in range(nprocs))


def _count_array_raw(m, per: int) -> np.ndarray:
    arr = np.asarray(m.counts(), dtype=np.int64) * per
    arr.flags.writeable = False
    return arr


_CACHES: dict[str, object] = {}


def configure_map_cache(maxsize: int | None = None) -> int:
    """(Re)build the geometry caches with ``maxsize`` entries each
    (default: REPRO_MAP_CACHE_SIZE or 65536).  Returns the size in
    effect.  Existing cached entries are discarded."""
    global _get_map_c, _block_counts_c, _block_starts_c, _cyclic_counts_c, \
        _count_array_c
    size = maxsize if maxsize and maxsize > 0 else _env_cache_size()
    _get_map_c = lru_cache(maxsize=size)(_get_map_raw)
    _block_counts_c = lru_cache(maxsize=size)(_block_counts_raw)
    _block_starts_c = lru_cache(maxsize=size)(_block_starts_raw)
    _cyclic_counts_c = lru_cache(maxsize=size)(_cyclic_counts_raw)
    _count_array_c = lru_cache(maxsize=size)(_count_array_raw)
    _CACHES.clear()
    _CACHES.update(get_map=_get_map_c, block_counts=_block_counts_c,
                   block_starts=_block_starts_c,
                   cyclic_counts=_cyclic_counts_c,
                   count_array=_count_array_c)
    return size


def map_cache_stats() -> dict:
    """Aggregate + per-cache hit/miss counters (what the autotuner
    asserts on to prove the search isn't thrashing the geometry LRU)."""
    per = {name: cache.cache_info()._asdict()
           for name, cache in _CACHES.items()}
    return {
        "hits": sum(info["hits"] for info in per.values()),
        "misses": sum(info["misses"] for info in per.values()),
        "currsize": sum(info["currsize"] for info in per.values()),
        "maxsize": next(iter(per.values()))["maxsize"],
        "per_cache": per,
    }


configure_map_cache()


def get_map(scheme: str, n: int, nprocs: int):
    """Shared BlockMap/CyclicMap instance for this geometry."""
    return _get_map_c(scheme, n, nprocs)


def count_array(m, per: int = 1) -> np.ndarray:
    """``m.counts()`` times ``per`` as a shared, read-only int64 array,
    so the fused backend's per-op accounting costs no O(P) Python."""
    return _count_array_c(m, per)


def _block_counts(n: int, nprocs: int) -> tuple[int, ...]:
    return _block_counts_c(n, nprocs)


def _block_starts(n: int, nprocs: int) -> tuple[int, ...]:
    return _block_starts_c(n, nprocs)


def _cyclic_counts(n: int, nprocs: int) -> tuple[int, ...]:
    return _cyclic_counts_c(n, nprocs)
