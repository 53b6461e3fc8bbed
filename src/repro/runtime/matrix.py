"""The distributed MATRIX descriptor.

Mirrors the paper's run-time representation: "Every matrix and vector is
represented on each processor by a C structure named MATRIX which contains
global information about its type, rank, and shape ... [and]
processor-dependent information, such as the total number of matrix
elements stored on a particular processor and the address in that
processor's local memory of its first matrix element."

Here the descriptor is :class:`DMatrix`: global shape + dtype plus this
rank's local block.  Matrices are distributed row-contiguously; vectors
(either orientation) are distributed by linear-element blocks; scalars
never become DMatrix — they are replicated Python numbers, exactly as the
compiler replicates scalar variables.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import DistributionError, FusionDivergence
from .distribution import BlockMap, CyclicMap, count_array, get_map
from .memory import record_allocation

Scalar = Union[float, complex]
RValue = Union[float, complex, "DMatrix", str]


class DMatrix:
    """One rank's view of a distributed matrix or vector."""

    __slots__ = ("rows", "cols", "dtype", "layout", "local", "map",
                 "nprocs", "rank", "scheme", "replica", "__weakref__")

    def __init__(self, rows: int, cols: int, dtype, local: np.ndarray,
                 nprocs: int, rank: int, scheme: str = "block"):
        self.rows = int(rows)
        self.cols = int(cols)
        self.dtype = np.dtype(dtype)
        self.nprocs = nprocs
        self.rank = rank
        self.scheme = scheme
        self.layout = "elems" if self.is_vector else "rows"
        extent = self.rows * self.cols if self.layout == "elems" else self.rows
        self.map = get_map(scheme, extent, nprocs)
        self.local = local
        #: memoized full array (the replicate-on-first-use cache; None
        #: until the first gather when the cache is enabled).  Sound
        #: because DMatrix values are immutable — every update builds a
        #: new descriptor.
        self.replica = None
        record_allocation(self, local.nbytes)
        expected = self.local_shape()
        if local.shape != expected:
            raise DistributionError(
                f"local block shape {local.shape} != expected {expected} "
                f"(global {self.rows}x{self.cols}, rank {rank}/{nprocs})")

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def numel(self) -> int:
        return self.rows * self.cols

    @property
    def is_vector(self) -> bool:
        return self.rows == 1 or self.cols == 1

    @property
    def is_row_vector(self) -> bool:
        return self.rows == 1 and self.cols != 1

    def local_count(self) -> int:
        return self.local.size

    def local_shape(self) -> tuple[int, ...]:
        if self.layout == "elems":
            return (self.map.count(self.rank),)
        return (self.map.count(self.rank), self.cols)

    def global_row_indices(self) -> np.ndarray:
        """Global indices (rows, or linear for vectors) of the local block."""
        if isinstance(self.map, CyclicMap):
            return self.map.global_indices(self.rank)
        return np.arange(self.map.start(self.rank), self.map.stop(self.rank))

    # ------------------------------------------------------------------ #
    # ownership (ML_owner)
    # ------------------------------------------------------------------ #

    def owner_of(self, i: int, j: int | None = None) -> int:
        """Owning rank of element (i, j) — 0-based; j None = linear index."""
        if self.layout == "elems":
            linear = i if j is None else j * self.rows + i  # column-major
            return self.map.owner(linear)
        if j is None:
            # linear index into a row-distributed matrix (column-major)
            i, j = i % self.rows, i // self.rows
        return self.map.owner(i)

    def owns(self, i: int, j: int | None = None) -> bool:
        return self.owner_of(i, j) == self.rank

    def local_element_index(self, i: int, j: int | None = None):
        """Local position of global element (i, j) on its owner."""
        if self.layout == "elems":
            linear = i if j is None else j * self.rows + i
            return self.map.local_index(linear)
        if j is None:
            i, j = i % self.rows, i // self.rows
        return (self.map.local_index(i), j)

    # ------------------------------------------------------------------ #
    # conversion
    # ------------------------------------------------------------------ #

    @classmethod
    def from_full(cls, full: np.ndarray, nprocs: int, rank: int,
                  scheme: str = "block") -> "DMatrix":
        """Take this rank's slice of a replicated full array (no comm)."""
        full = np.asarray(full)
        if full.ndim != 2:
            raise DistributionError("DMatrix requires a 2-D array")
        rows, cols = full.shape
        is_vec = rows == 1 or cols == 1
        extent = rows * cols if is_vec else rows
        amap = get_map(scheme, extent, nprocs)
        if is_vec:
            flat = full.reshape(-1, order="F")
            idx = (amap.global_indices(rank) if isinstance(amap, CyclicMap)
                   else np.arange(amap.start(rank), amap.stop(rank)))
            local = np.ascontiguousarray(flat[idx])
        else:
            idx = (amap.global_indices(rank) if isinstance(amap, CyclicMap)
                   else np.arange(amap.start(rank), amap.stop(rank)))
            local = np.ascontiguousarray(full[idx, :])
        return cls(rows, cols, full.dtype, local, nprocs, rank, scheme)

    def assemble(self, parts: list[np.ndarray]) -> np.ndarray:
        """Reconstruct the full array from every rank's local block
        (the caller supplies the allgathered parts)."""
        if self.layout == "elems":
            flat = np.empty(self.numel, dtype=self.dtype)
            if isinstance(self.map, CyclicMap):
                for rank, part in enumerate(parts):
                    flat[self.map.global_indices(rank)] = part
            else:
                flat = np.concatenate(parts) if parts else flat
            return flat.reshape((self.rows, self.cols), order="F")
        if isinstance(self.map, CyclicMap):
            full = np.empty((self.rows, self.cols), dtype=self.dtype)
            for rank, part in enumerate(parts):
                full[self.map.global_indices(rank), :] = part
            return full
        return np.vstack(parts) if parts else \
            np.empty((self.rows, self.cols), dtype=self.dtype)

    def like(self, local: np.ndarray, dtype=None) -> "DMatrix":
        """A new DMatrix with the same global geometry, new local data."""
        return DMatrix(self.rows, self.cols, dtype or local.dtype, local,
                       self.nprocs, self.rank, self.scheme)

    def __repr__(self) -> str:
        return (f"DMatrix({self.rows}x{self.cols} {self.dtype}, "
                f"rank {self.rank}/{self.nprocs}, "
                f"local {self.local.shape})")


class FusedDMatrix(DMatrix):
    """All-ranks descriptor for the ``fused`` SPMD backend.

    Where :class:`DMatrix` stores one rank's local block, this stores the
    *full* array once — every rank's block is an implicit, deterministic
    slice of it (``block(r)``), because the distribution maps are pure
    functions of (extent, nprocs).  Runtime ops with a fused path apply
    their kernel across the whole rank axis in one numpy call and charge
    each rank's virtual clock individually.

    Safety net: the per-rank accessors (``local``, ``local_count``,
    ``owns``, ...) raise :class:`~repro.errors.FusionDivergence`, so any
    op *without* a fused path aborts fusion and the executor transparently
    re-runs the program under ``lockstep`` instead of silently computing
    one rank's answer.
    """

    __slots__ = ("full",)

    def __init__(self, rows: int, cols: int, dtype, full: np.ndarray,
                 nprocs: int, scheme: str = "block"):
        self.rows = int(rows)
        self.cols = int(cols)
        self.dtype = np.dtype(dtype)
        self.nprocs = nprocs
        self.rank = 0
        self.scheme = scheme
        self.layout = "elems" if self.is_vector else "rows"
        extent = self.rows * self.cols if self.layout == "elems" else self.rows
        self.map = get_map(scheme, extent, nprocs)
        full = np.asarray(full)
        if full.shape != (self.rows, self.cols):
            raise DistributionError(
                f"full array shape {full.shape} != ({self.rows}, {self.cols})")
        self.full = full
        self.replica = None
        # the tracker models ONE rank's footprint; rank 0 holds the
        # largest block under both distribution schemes
        per_row = self.cols if self.layout == "rows" else 1
        record_allocation(
            self, self.map.count(0) * per_row * self.dtype.itemsize)

    # -- per-rank accessors: no single rank exists here ----------------- #

    def _diverge(self, what: str):
        raise FusionDivergence(
            f"{what} has no fused path (rank-dependent state)")

    @property
    def local(self) -> np.ndarray:
        self._diverge("per-rank local block access")

    def local_count(self) -> int:
        self._diverge("local_count")

    def local_shape(self) -> tuple[int, ...]:
        self._diverge("local_shape")

    def global_row_indices(self) -> np.ndarray:
        self._diverge("global_row_indices")

    def owns(self, i: int, j: int | None = None) -> bool:
        self._diverge("ownership test")

    def like(self, local: np.ndarray, dtype=None) -> "DMatrix":
        self._diverge("like() from a per-rank local")

    # -- the rank axis, made explicit ----------------------------------- #

    def block(self, r: int) -> np.ndarray:
        """Rank ``r``'s local block (a view of the full array where the
        layout allows, a fancy-index copy for cyclic maps)."""
        if self.layout == "elems":
            flat = self.full.reshape(-1, order="F")
            if isinstance(self.map, CyclicMap):
                return flat[self.map.global_indices(r)]
            return flat[self.map.start(r):self.map.stop(r)]
        if isinstance(self.map, CyclicMap):
            return self.full[self.map.global_indices(r), :]
        return self.full[self.map.start(r):self.map.stop(r), :]

    def blocks(self):
        return (self.block(r) for r in range(self.nprocs))

    def rank_counts(self) -> np.ndarray:
        """Per-rank local element counts (what ``local_count`` would
        return on each rank) as a shared, read-only int64 array."""
        return count_array(self.map,
                           self.cols if self.layout == "rows" else 1)

    def rank_global_indices(self, r: int) -> np.ndarray:
        """Rank ``r``'s global row (or linear, for vectors) indices."""
        if isinstance(self.map, CyclicMap):
            return self.map.global_indices(r)
        return np.arange(self.map.start(r), self.map.stop(r))

    def like_full(self, full: np.ndarray, dtype=None) -> "FusedDMatrix":
        """Same geometry, new full data (the fused analogue of like())."""
        return FusedDMatrix(self.rows, self.cols, dtype or full.dtype, full,
                            self.nprocs, self.scheme)

    def __repr__(self) -> str:
        return (f"FusedDMatrix({self.rows}x{self.cols} {self.dtype}, "
                f"{self.nprocs} fused ranks)")


def is_distributed(value) -> bool:
    return isinstance(value, DMatrix)
