"""Distributed reductions: sum/mean/prod/min/max, norms, trapz, scans.

MATLAB reduction semantics: vectors reduce to a scalar; matrices reduce
column-wise to a row vector.  With the row-contiguous distribution a
column-wise reduction is a local partial per rank plus one allreduce of a
``cols``-length vector; vector reductions are a local partial plus a
scalar allreduce.
"""

from __future__ import annotations

import numpy as np

from ..errors import MatlabRuntimeError
from ..interp import values as V
from ..interp.values import np_trapz
from ..mpi import comm as mpi_ops
from .matrix import DMatrix, FusedDMatrix, RValue

# Fused paths mirror the lockstep backend kernel for kernel: the same
# per-block partials (on the same contiguous buffers), folded with the
# same combine op in rank order, and the same per-rank charges — so both
# results and performance-model numbers are bit-identical.


def _fold(parts, op):
    acc = parts[0]
    for p in parts[1:]:
        acc = op(acc, p)
    return acc


def _vector_reduce(rt, mat: DMatrix, local_fn, combine_op, identity):
    if isinstance(mat, FusedDMatrix):
        cplx = np.iscomplexobj(mat.full)
        parts = []
        for blk in mat.blocks():
            part = local_fn(blk) if blk.size else identity
            parts.append(complex(part) if cplx else float(part))
        rt.comm.overhead()
        rt.comm.compute_ranks(elems=mat.rank_counts())
        rt.comm.charge_reduce(16 if cplx else 8)
        return _fold(parts, combine_op)
    part = local_fn(mat.local) if mat.local.size else identity
    rt.comm.overhead()
    rt.comm.compute(elems=mat.local_count())
    if np.iscomplexobj(mat.local):
        part = complex(part)
    else:
        part = float(part)
    return rt.comm.allreduce(part, op=combine_op)


def _column_reduce(rt, mat: DMatrix, local_fn, combine_op, identity):
    """Column-wise partials + allreduce; returns a distributed row vector."""
    if isinstance(mat, FusedDMatrix):
        cplx = np.iscomplexobj(mat.full)
        parts = [np.asarray(local_fn(blk, axis=0)) if blk.size else
                 np.full(mat.cols, identity,
                         dtype=complex if cplx else float)
                 for blk in mat.blocks()]
        rt.comm.overhead()
        rt.comm.compute_ranks(elems=mat.rank_counts())
        rt.comm.charge_reduce(max(p.nbytes for p in parts))
        result = np.asarray(_fold(parts, combine_op)).reshape(1, -1)
        return rt.distribute_full(result) if result.size > 1 \
            else V.simplify(result)
    if mat.local.size:
        part = local_fn(mat.local, axis=0)
    else:
        part = np.full(mat.cols, identity,
                       dtype=complex if np.iscomplexobj(mat.local)
                       else float)
    rt.comm.overhead()
    rt.comm.compute(elems=mat.local_count())
    total = rt.comm.allreduce(np.asarray(part), op=combine_op)
    result = np.asarray(total).reshape(1, -1)
    return rt.distribute_full(result) if result.size > 1 else V.simplify(result)


_REDUCERS = {
    "sum": (np.sum, mpi_ops.SUM, 0.0),
    "prod": (np.prod, mpi_ops.PROD, 1.0),
    "max": (np.max, mpi_ops.MAX, -np.inf),
    "min": (np.min, mpi_ops.MIN, np.inf),
}


def reduce_op(rt, name: str, value: RValue,
              dim: int | None = None) -> RValue:
    """sum/prod/max/min with MATLAB column-wise semantics; sum/prod/mean
    also accept an explicit ``dim`` (1 = columns, 2 = rows)."""
    if dim is not None and dim not in (1, 2):
        raise MatlabRuntimeError("dim must be 1 or 2")
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        if arr.size == 0:
            return 0.0 if name == "sum" else \
                (1.0 if name == "prod" else 0.0)
        fn = _REDUCERS[name][0]
        rt.comm.compute(elems=arr.size)
        if dim is not None:
            out = np.asarray(fn(arr, axis=dim - 1))
            out = out.reshape(1, -1) if dim == 1 else out.reshape(-1, 1)
            return rt.distribute_full(out) if out.size > 1 \
                else V.simplify(out)
        if arr.shape[0] == 1 or arr.shape[1] == 1:
            return V.simplify(fn(arr.reshape(-1)))
        return rt.distribute_full(np.asarray(
            fn(arr, axis=0)).reshape(1, -1))
    local_fn, combine, identity = _REDUCERS[name]
    if dim == 2 and not value.is_vector:
        return _row_reduce(rt, value, local_fn)
    if dim == 1 and not value.is_vector:
        return _column_reduce(rt, value, local_fn, combine, identity)
    if value.is_vector and dim is not None:
        # explicit dim on a vector: reduce only along that dim
        rows, cols = value.shape
        if (dim == 1 and rows == 1) or (dim == 2 and cols == 1):
            rt.comm.overhead()
            return value  # reducing a singleton dimension is the identity
        return V.simplify(np.asarray(
            _vector_reduce(rt, value, local_fn, combine, identity)))
    if value.is_vector:
        return V.simplify(np.asarray(
            _vector_reduce(rt, value, local_fn, combine, identity)))
    return _column_reduce(rt, value, local_fn, combine, identity)


def _row_reduce(rt, mat: DMatrix, local_fn):
    """Row-wise reduction of a row-distributed matrix: fully local — each
    rank reduces its own rows; the result is a column vector whose block
    layout coincides with the row blocks."""
    if isinstance(mat, FusedDMatrix):
        parts = [np.asarray(local_fn(blk, axis=1)) if blk.size else
                 np.zeros(0, dtype=mat.full.dtype) for blk in mat.blocks()]
        rt.comm.overhead()
        rt.comm.compute_ranks(elems=mat.rank_counts())
        if mat.scheme == "block":
            y = np.concatenate(parts)
        else:
            y = np.empty(mat.rows,
                         dtype=np.result_type(*[p.dtype for p in parts]))
            for r, part in enumerate(parts):
                y[mat.rank_global_indices(r)] = part
        if mat.rows == 1:
            return V.simplify(y.reshape(1, 1))
        return FusedDMatrix(mat.rows, 1, y.dtype, y.reshape(-1, 1),
                            rt.size, mat.scheme)
    if mat.local.size:
        part = np.asarray(local_fn(mat.local, axis=1))
    else:
        part = np.zeros(0, dtype=mat.local.dtype)
    rt.comm.overhead()
    rt.comm.compute(elems=mat.local_count())
    if mat.rows == 1:
        return V.simplify(part.reshape(1, 1))
    return DMatrix(mat.rows, 1, part.dtype, part, rt.size, rt.rank,
                   mat.scheme)


def mean(rt, value: RValue, dim: int | None = None) -> RValue:
    shape = rt.shape_of(value)
    total = reduce_op(rt, "sum", value, dim=dim)
    if dim is None and (shape[0] == 1 or shape[1] == 1):
        n = shape[0] * shape[1]
        return rt.ew(lambda s: s / n, 1, total) if isinstance(total, DMatrix) \
            else V.simplify(np.asarray(total) / n)
    denom = shape[0] if dim in (None, 1) else shape[1]
    if isinstance(total, DMatrix):
        return rt.ew(lambda s: s / denom, 1, total)
    return V.simplify(np.asarray(V.as_matrix(total)) / denom)


def std_var(rt, name: str, value: RValue) -> RValue:
    """Sample standard deviation / variance (normalized by n-1), with
    MATLAB's vector/column-wise semantics, via distributed moments."""
    shape = rt.shape_of(value)
    is_vec = shape[0] == 1 or shape[1] == 1
    n = shape[0] * shape[1] if is_vec else shape[0]
    if n < 2:
        return 0.0 if is_vec else rt.ew(lambda x: x * 0.0, 1,
                                        reduce_op(rt, "sum", value))
    mu = mean(rt, value)
    if is_vec:
        dev = rt.ew(lambda x, m: (x - m) * np.conj(x - m), 2, value, mu) \
            if isinstance(value, DMatrix) else \
            V.simplify(np.abs(V.as_matrix(value) - mu) ** 2)
        ss = reduce_op(rt, "sum", dev)
        variance = float(np.real(ss)) / (n - 1)
    else:
        # column-wise: subtract the (replicated row-vector) column means
        mu_full = rt.gather_full(mu) if isinstance(mu, DMatrix) \
            else V.as_matrix(mu)
        if isinstance(value, DMatrix):
            dev = rt.ew(lambda x: (x - mu_full) * np.conj(x - mu_full), 2,
                        value)
        else:
            dev = V.simplify(np.abs(V.as_matrix(value) - mu_full) ** 2)
        ss = reduce_op(rt, "sum", dev)
        scaled = rt.ew(lambda x: np.real(x) / (n - 1), 1, ss) \
            if isinstance(ss, DMatrix) else \
            V.simplify(np.real(V.as_matrix(ss)) / (n - 1))
        if name == "var":
            return scaled
        return rt.ew(np.sqrt, 1, scaled) if isinstance(scaled, DMatrix) \
            else V.simplify(np.sqrt(V.as_matrix(scaled)))
    return variance if name == "var" else float(np.sqrt(variance))


def median(rt, value: RValue) -> RValue:
    """Median (vector -> scalar, matrix -> column medians); uses the
    distributed sample sort for vectors."""
    shape = rt.shape_of(value)
    is_vec = shape[0] == 1 or shape[1] == 1
    if isinstance(value, DMatrix) and is_vec:
        from . import structural

        ordered = structural.sort(rt, value)
        n = shape[0] * shape[1]
        if n % 2:
            return rt.element(ordered, (n - 1) // 2)
        lo = rt.element(ordered, n // 2 - 1)
        hi = rt.element(ordered, n // 2)
        return (lo + hi) / 2.0
    full = rt.gather_full(value) if isinstance(value, DMatrix) \
        else V.as_matrix(value)
    rt.comm.compute(elems=full.size * max(int(np.log2(full.size))
                                          if full.size > 1 else 1, 1))
    if is_vec:
        return float(np.median(np.real(full)))
    out = np.median(np.real(full), axis=0).reshape(1, -1)
    return rt.distribute_full(out) if out.size > 1 else V.simplify(out)


def find(rt, value: RValue) -> RValue:
    """1-based linear indices of nonzeros, column-major order.

    Dynamic-size output: each rank finds its local nonzeros; an
    allgather assembles the global index vector (shape known only now —
    exactly the run-time shape propagation the paper describes).
    """
    shape = rt.shape_of(value)
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        rt.comm.compute(elems=arr.size)
        flat = arr.reshape(-1, order="F")
        idx = np.flatnonzero(flat != 0).astype(float) + 1.0
        if idx.size == 0:
            return np.zeros((0, 0))
        out = idx.reshape(1, -1) if (arr.shape[0] == 1 and arr.shape[1] > 1) \
            else idx.reshape(-1, 1)
        return rt.distribute_full(out) if out.size > 1 else V.simplify(out)
    if isinstance(value, FusedDMatrix):
        pieces = []
        for r in range(rt.size):
            blk = value.block(r)
            gidx = value.rank_global_indices(r)
            if value.is_vector:
                hits = gidx[np.flatnonzero(blk != 0)] + 1.0
            else:
                li, lj = np.nonzero(blk)
                hits = (lj * value.rows + gidx[li]) + 1.0
            pieces.append(np.asarray(hits, dtype=float))
        rt.comm.overhead()
        rt.comm.compute_ranks(elems=value.rank_counts())
        rt.comm.charge_allgather(max(p.nbytes for p in pieces))
        all_hits = np.sort(np.concatenate(pieces)) if pieces else np.zeros(0)
    else:
        if value.is_vector:
            gidx = value.global_row_indices()
            local_hits = gidx[np.flatnonzero(value.local != 0)] + 1.0
        else:
            # row-distributed: local (row, col) hits -> global linear indices
            rows_g = value.global_row_indices()
            li, lj = np.nonzero(value.local)
            local_hits = (lj * value.rows + rows_g[li]) + 1.0
        rt.comm.overhead()
        rt.comm.compute(elems=value.local_count())
        pieces = rt.comm.allgather(np.asarray(local_hits, dtype=float))
        all_hits = np.sort(np.concatenate(pieces)) if pieces else np.zeros(0)
    if all_hits.size == 0:
        return np.zeros((0, 0))
    out = all_hits.reshape(1, -1) \
        if (value.rows == 1 and value.cols > 1) else all_hits.reshape(-1, 1)
    return rt.distribute_full(out) if out.size > 1 else V.simplify(out)


def all_any(rt, name: str, value: RValue) -> RValue:
    mapped = rt.ew(lambda x: (x != 0).astype(float), 1, value) \
        if isinstance(value, DMatrix) else \
        V.simplify((V.as_matrix(value) != 0).astype(float))
    if name == "all":
        reduced = reduce_op(rt, "min", mapped)
    else:
        reduced = reduce_op(rt, "max", mapped)
    return reduced


def minmax_with_index(rt, name: str, value: RValue) -> tuple:
    """[m, k] = max(v): value and 1-based index of the extremum."""
    pick_max = name == "max"
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        flat = arr.reshape(-1, order="F")
        idx = int(np.argmax(flat) if pick_max else np.argmin(flat))
        return V.simplify(flat[idx]), float(idx + 1)
    if not value.is_vector:
        raise MatlabRuntimeError(
            f"[m, k] = {name}(..) is supported for vectors only")
    def pick(a, b):
        # MATLAB returns the *first* occurrence: ties prefer the smaller
        # global index (the allreduce combines in rank order, but be
        # explicit so any combining order gives the same answer).
        if a[0] == b[0]:
            return a if a[1] <= b[1] else b
        if pick_max:
            return a if a[0] > b[0] else b
        return a if a[0] < b[0] else b

    if isinstance(value, FusedDMatrix):
        candidates = []
        for r in range(rt.size):
            blk = value.block(r)
            gidx = value.rank_global_indices(r)
            if blk.size:
                li = int(np.argmax(blk) if pick_max else np.argmin(blk))
                candidates.append((float(np.real(blk[li])), int(gidx[li])))
            else:
                candidates.append((-np.inf if pick_max else np.inf, -1))
        rt.comm.overhead()
        rt.comm.compute_ranks(elems=value.rank_counts())
        rt.comm.charge_reduce(24)  # sizeof((float, int)) on every rank
        best = _fold(candidates, pick)
        return best[0], float(best[1] + 1)
    local = value.local
    globals_ = value.global_row_indices()
    if local.size:
        li = int(np.argmax(local) if pick_max else np.argmin(local))
        candidate = (float(np.real(local[li])), int(globals_[li]))
    else:
        candidate = (-np.inf if pick_max else np.inf, -1)
    rt.comm.overhead()
    rt.comm.compute(elems=value.local_count())

    best = rt.comm.allreduce(candidate, op=pick)
    return best[0], float(best[1] + 1)


def norm(rt, value: RValue, mode: RValue | None = None) -> float:
    shape = rt.shape_of(value)
    is_vec = shape[0] == 1 or shape[1] == 1
    if isinstance(mode, str):
        if mode != "fro":
            raise MatlabRuntimeError(f"norm: unsupported mode {mode!r}")
        sq = rt.ew(lambda x: (x * np.conj(x)).real, 2, value) \
            if isinstance(value, DMatrix) else \
            V.simplify((V.as_matrix(value) * np.conj(V.as_matrix(value))).real)
        total = reduce_op(rt, "sum", sq)
        if isinstance(total, DMatrix):
            total = reduce_op(rt, "sum", total)
        return float(np.sqrt(float(np.real(total))))
    p = 2.0 if mode is None else float(np.real(rt.scalar(mode, "norm")))
    if is_vec:
        if p == 2.0:
            absq = rt.ew(lambda x: (x * np.conj(x)).real, 2, value) \
                if isinstance(value, DMatrix) else \
                V.simplify((V.as_matrix(value)
                            * np.conj(V.as_matrix(value))).real)
            total = reduce_op(rt, "sum", absq)
            return float(np.sqrt(float(np.real(total))))
        powv = rt.ew(lambda x: np.abs(x) ** p, 3, value) \
            if isinstance(value, DMatrix) else \
            V.simplify(np.abs(V.as_matrix(value)) ** p)
        total = reduce_op(rt, "sum", powv)
        return float(float(np.real(total)) ** (1.0 / p))
    # matrix 2-norm: gathered SVD, replicated
    full = rt.gather_full(value) if isinstance(value, DMatrix) \
        else V.as_matrix(value)
    n = min(full.shape)
    rt.comm.compute(flops=8 * n ** 3)
    return float(np.linalg.norm(full, 2))


def trapz(rt, x: RValue | None, y: RValue) -> RValue:
    """trapz(y) with unit spacing, or trapz(x, y).

    Uniform weights make this a weighted local sum + allreduce; the
    non-uniform form gathers the (small) abscissa vector first.
    """
    shape = rt.shape_of(y)
    is_vec = shape[0] == 1 or shape[1] == 1
    if not is_vec:
        # column-wise trapz over the rows of a matrix
        full_y = rt.gather_full(y) if isinstance(y, DMatrix) else V.as_matrix(y)
        xa = None if x is None else (
            rt.gather_full(x) if isinstance(x, DMatrix)
            else V.as_matrix(x)).reshape(-1)
        rt.comm.compute(elems=full_y.size * 2)
        out = np_trapz(full_y, xa, axis=0).reshape(1, -1)
        return rt.distribute_full(out) if out.size > 1 else V.simplify(out)
    n = shape[0] * shape[1]
    if n < 2:
        return 0.0
    if isinstance(y, FusedDMatrix):
        cplx = np.iscomplexobj(y.full)
        x_full = None if x is None else (
            rt.gather_full(x) if isinstance(x, DMatrix)
            else V.as_matrix(x)).reshape(-1)
        parts = []
        for r in range(rt.size):
            blk = y.block(r)
            gidx = y.rank_global_indices(r)
            if x_full is None:
                w = np.where((gidx == 0) | (gidx == n - 1), 0.5, 1.0)
            else:
                left = np.where(gidx > 0, x_full[np.maximum(gidx - 1, 0)],
                                x_full[0])
                right = np.where(gidx < n - 1,
                                 x_full[np.minimum(gidx + 1, n - 1)],
                                 x_full[n - 1])
                w = (right - left) / 2.0
            if cplx:
                part = complex(np.sum(w * blk)) if blk.size else 0.0
            else:
                part = float(np.real(np.sum(w * blk))) if blk.size else 0.0
            parts.append(part)
        rt.comm.overhead()
        rt.comm.compute_ranks(elems=2 * y.rank_counts())
        rt.comm.charge_reduce(
            max(16 if isinstance(p, complex) else 8 for p in parts))
        return _fold(parts, mpi_ops.SUM)
    if isinstance(y, DMatrix):
        gidx = y.global_row_indices()
        if x is None:
            w = np.where((gidx == 0) | (gidx == n - 1), 0.5, 1.0)
        else:
            x_full = (rt.gather_full(x) if isinstance(x, DMatrix)
                      else V.as_matrix(x)).reshape(-1)
            left = np.where(gidx > 0, x_full[np.maximum(gidx - 1, 0)],
                            x_full[0])
            right = np.where(gidx < n - 1,
                             x_full[np.minimum(gidx + 1, n - 1)],
                             x_full[n - 1])
            w = (right - left) / 2.0
        part = float(np.real(np.sum(w * y.local))) if y.local.size else 0.0
        if np.iscomplexobj(y.local):
            part = complex(np.sum(w * y.local)) if y.local.size else 0.0
        rt.comm.overhead()
        rt.comm.compute(elems=y.local_count() * 2)
        return rt.comm.allreduce(part)
    ya = V.as_matrix(y).reshape(-1)
    xa = None if x is None else V.as_matrix(x).reshape(-1)
    rt.comm.compute(elems=ya.size * 2)
    return float(np_trapz(ya, xa))


def trapz2(rt, z: RValue, dx: RValue = 1.0, dy: RValue = 1.0) -> float:
    """2-D trapezoidal integration with uniform spacings — the
    ocean-engineering script's kernel.  Separable weights keep it a
    weighted local sum + one allreduce."""
    dxv = float(np.real(rt.scalar(dx, "trapz2")))
    dyv = float(np.real(rt.scalar(dy, "trapz2")))
    shape = rt.shape_of(z)
    rows, cols = shape
    if rows < 2 or cols < 2:
        return 0.0
    wc = np.ones(cols)
    wc[0] = wc[-1] = 0.5
    if isinstance(z, FusedDMatrix) and not z.is_vector:
        parts = []
        for r in range(rt.size):
            blk = z.block(r)
            gidx = z.rank_global_indices(r)
            wr = np.where((gidx == 0) | (gidx == rows - 1), 0.5, 1.0)
            parts.append(float(wr @ (blk.real @ wc)) if blk.size else 0.0)
        rt.comm.overhead()
        rt.comm.compute_ranks(elems=3 * z.rank_counts())
        rt.comm.charge_reduce(8)
        total = _fold(parts, mpi_ops.SUM)
        return float(total * dxv * dyv)
    if isinstance(z, DMatrix) and not z.is_vector:
        gidx = z.global_row_indices()
        wr = np.where((gidx == 0) | (gidx == rows - 1), 0.5, 1.0)
        part = float(wr @ (z.local.real @ wc)) if z.local.size else 0.0
        rt.comm.overhead()
        rt.comm.compute(elems=z.local_count() * 3)
        total = rt.comm.allreduce(part)
        return float(total * dxv * dyv)
    full = rt.gather_full(z) if isinstance(z, DMatrix) else V.as_matrix(z)
    wr = np.ones(rows)
    wr[0] = wr[-1] = 0.5
    rt.comm.compute(elems=full.size * 3)
    return float(wr @ (full.real @ wc) * dxv * dyv)


def cumulative(rt, name: str, value: RValue) -> RValue:
    """cumsum/cumprod via local scan + exclusive scan of block totals."""
    np_fn = np.cumsum if name == "cumsum" else np.cumprod
    op = mpi_ops.SUM if name == "cumsum" else mpi_ops.PROD
    identity = 0.0 if name == "cumsum" else 1.0
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        rt.comm.compute(elems=arr.size)
        axis = 1 if arr.shape[0] == 1 else 0
        return V.simplify(np_fn(arr, axis=axis))
    if value.is_vector:
        if isinstance(value, FusedDMatrix):
            blocks = list(value.blocks())
            scanned = [np_fn(blk) if blk.size else blk for blk in blocks]
            totals = [float(np.real(s[-1])) if s.size else identity
                      for s in scanned]
            rt.comm.overhead()
            rt.comm.compute_ranks(elems=value.rank_counts())
            rt.comm.charge_scan(8)
            # inclusive prefix per rank, folded in rank order like scan's
            # combine closure
            outs = []
            inclusive = None
            for r in range(rt.size):
                inclusive = totals[r] if r == 0 else op(inclusive, totals[r])
                if name == "cumsum":
                    offset = inclusive - totals[r]
                    out = scanned[r] + offset if scanned[r].size \
                        else scanned[r]
                else:
                    offset = inclusive / totals[r] if totals[r] != 0 \
                        else identity
                    out = scanned[r] * offset if scanned[r].size \
                        else scanned[r]
                outs.append(np.asarray(out, dtype=value.dtype))
            if value.scheme == "block":
                flat = np.concatenate(outs) if outs else \
                    np.zeros(0, dtype=value.dtype)
            else:
                flat = np.empty(value.numel, dtype=value.dtype)
                for r, out in enumerate(outs):
                    flat[value.rank_global_indices(r)] = out
            full = flat.reshape((value.rows, value.cols), order="F")
            return value.like_full(full, dtype=value.dtype)
        local = value.local
        scanned = np_fn(local) if local.size else local
        block_total = float(np.real(scanned[-1])) if local.size else identity
        rt.comm.overhead()
        rt.comm.compute(elems=value.local_count())
        inclusive = rt.comm.scan(block_total, op=op)
        if name == "cumsum":
            offset = inclusive - block_total
            out = scanned + offset if local.size else scanned
        else:
            offset = inclusive / block_total if block_total != 0 else identity
            out = scanned * offset if local.size else scanned
        return value.like(np.asarray(out, dtype=value.local.dtype))
    # matrix: per-column scans stay within row blocks only if P == 1;
    # gather-based general path
    full = rt.gather_full(value)
    rt.comm.compute(elems=full.size)
    return rt.distribute_full(np_fn(full, axis=0))
