"""Distributed linear algebra (ML_matrix_multiply and friends).

All routines take the :class:`~repro.runtime.context.RuntimeContext` as
first argument and are exposed on it via thin delegating methods.

Algorithms (for the row-contiguous block distribution):

* ``matmul`` (matrix x matrix): allgather B, then each rank multiplies its
  row block of A — the classic replicated-B SUMMA degenerate that the
  original run-time library used.
* ``matvec``: allgather the (block-distributed) vector, local GEMV.
* ``vecmat`` (row-vector x matrix): each rank forms a partial product from
  its row block, combined with an allreduce.
* ``dot`` (row-vector x column-vector): local partial dot + allreduce —
  ML_dot, the paper's peephole target for ``r' * r``.
* ``outer`` (column x row): allgather the row vector, local outer product.
* vector transpose is free (both orientations share the element-block
  layout); matrix transpose is gather-based.
* ``solve`` (``\\`` and ``/``): gathered and solved redundantly on every
  rank — the run-time library has no parallel factorization, and the
  cost model charges the full sequential flops, honestly showing no
  speedup for scripts that lean on it.
"""

from __future__ import annotations

import numpy as np

from ..errors import MatlabRuntimeError
from ..interp import values as V
from .distribution import count_array
from .matrix import DMatrix, FusedDMatrix, RValue


def _as_full(rt, value: RValue) -> np.ndarray:
    return rt.gather_full(value) if isinstance(value, DMatrix) \
        else V.as_matrix(value)


# The fused paths below re-run each rank's *exact* local kernel on that
# rank's block (contiguous views of the full array under the block
# distribution, the same buffers BLAS saw under lockstep) and fold the
# partials in rank order — the order ``Comm``'s combine uses — so both
# the numerical results and the charged costs are bit-identical to the
# lockstep backend.  What fusion removes is the P-fold re-execution of
# the surrounding interpreter, not the arithmetic.


def _fold(parts):
    acc = parts[0]
    for p in parts[1:]:
        acc = acc + p
    return acc


def matmul(rt, a: RValue, b: RValue) -> RValue:
    """MATLAB ``a * b`` (including every scalar/vector special case)."""
    rt._check_numeric(a, "*")
    rt._check_numeric(b, "*")
    a_shape, b_shape = rt.shape_of(a), rt.shape_of(b)
    if a_shape == (1, 1) or b_shape == (1, 1):
        return rt.ew(lambda x, y: x * y, 1, a, b,
                     spec=('.*', '@0', '@1'))
    if a_shape[1] != b_shape[0]:
        raise MatlabRuntimeError(
            f"inner matrix dimensions must agree ({a_shape} * {b_shape})")

    # dot product: (1 x k) * (k x 1)
    if a_shape[0] == 1 and b_shape[1] == 1:
        return dot(rt, a, b)
    # outer product: (m x 1) * (1 x n)
    if a_shape[1] == 1 and b_shape[0] == 1:
        return outer(rt, a, b)
    # matrix x column vector
    if b_shape[1] == 1:
        return matvec(rt, a, b)
    # row vector x matrix
    if a_shape[0] == 1:
        return vecmat(rt, a, b)
    return _matmat(rt, a, b)


def dot(rt, a: RValue, b: RValue) -> RValue:
    """(1 x k) * (k x 1): local partial + allreduce (ML_dot)."""
    if (isinstance(a, DMatrix) and isinstance(b, DMatrix)
            and a.scheme != b.scheme):
        b = rt.realign(b, a.scheme)
    if isinstance(a, FusedDMatrix) and isinstance(b, FusedDMatrix):
        cplx = np.iscomplexobj(a.full) or np.iscomplexobj(b.full)
        parts = [complex(np.dot(av, bv)) if cplx else float(np.dot(av, bv))
                 for av, bv in zip(a.blocks(), b.blocks())]
        rt.comm.overhead()
        rt.comm.compute_ranks(flops=2 * a.rank_counts())
        rt.comm.charge_reduce(16 if cplx else 8)
        return _fold(parts)
    if isinstance(a, DMatrix) and isinstance(b, DMatrix):
        av, bv = a.local, b.local
        if av.shape != bv.shape:  # schemes already realigned above
            raise MatlabRuntimeError("dot: inconsistent distributions")
        partial = np.dot(av, bv)
        rt.comm.overhead()
        rt.comm.compute(flops=2 * av.size)
        total = rt.comm.allreduce(
            complex(partial) if np.iscomplexobj(av) or np.iscomplexobj(bv)
            else float(partial))
        return total
    full_a = _as_full(rt, a).reshape(-1)
    full_b = _as_full(rt, b).reshape(-1)
    rt.comm.compute(flops=2 * full_a.size)
    return V.simplify(np.dot(full_a, full_b))


def outer(rt, a: RValue, b: RValue) -> RValue:
    """(m x 1) * (1 x n): allgather the row vector, local outer rows."""
    m = rt.shape_of(a)[0]
    n = rt.shape_of(b)[1]
    b_full = _as_full(rt, b).reshape(-1)
    if isinstance(a, FusedDMatrix):
        # elementwise products: one full outer == stacked per-rank outers
        # (a's element blocks coincide with the result's row blocks)
        out = np.outer(a.full.reshape(-1), b_full)
        counts = count_array(a.map, n)
        rt.comm.overhead()
        rt.comm.compute_ranks(flops=counts, mem=counts)
        return FusedDMatrix(m, n, out.dtype, out, rt.size, a.scheme)
    if isinstance(a, DMatrix):
        local = np.outer(a.local, b_full)
        rt.comm.overhead()
        rt.comm.compute(flops=local.size, mem=local.size)
        return DMatrix(m, n, local.dtype, local, rt.size, rt.rank, a.scheme)
    full = np.outer(_as_full(rt, a).reshape(-1), b_full)
    rt.comm.compute(flops=full.size, mem=full.size)
    return rt.distribute_full(full)


def matvec(rt, a: RValue, x: RValue) -> RValue:
    """(m x k) * (k x 1): ML_matrix_vector_multiply."""
    if isinstance(a, FusedDMatrix) and not a.is_vector:
        x_full = _as_full(rt, x).reshape(-1)
        parts = [blk @ x_full for blk in a.blocks()]
        m = a.rows
        if a.scheme == "block":
            y = np.concatenate(parts)
        else:
            y = np.empty(m, dtype=np.result_type(*[p.dtype for p in parts]))
            for r, part in enumerate(parts):
                y[a.rank_global_indices(r)] = part
        rt.comm.overhead()
        rt.comm.compute_ranks(flops=2 * a.rank_counts())
        return FusedDMatrix(m, 1, y.dtype, y.reshape(-1, 1),
                            rt.size, a.scheme)
    if isinstance(a, DMatrix) and not a.is_vector:
        x_full = _as_full(rt, x).reshape(-1)
        y_local = a.local @ x_full
        rt.comm.overhead()
        rt.comm.compute(flops=2 * a.local.size)
        m = a.rows
        if m == 1:
            return V.simplify(np.asarray(y_local).reshape(1, 1)) \
                if y_local.size == 1 else rt.distribute_full(
                    np.asarray(y_local).reshape(1, -1))
        # row blocks/cycles of A coincide with the element partition of y
        # under A's own scheme, so y inherits it
        return DMatrix(m, 1, y_local.dtype, np.asarray(y_local),
                       rt.size, rt.rank, a.scheme)
    full = _as_full(rt, a) @ _as_full(rt, x)
    rt.comm.compute(flops=2 * _as_full(rt, a).size)
    return rt.distribute_full(full) if full.size > 1 else V.simplify(full)


def vecmat(rt, x: RValue, a: RValue) -> RValue:
    """(1 x k) * (k x n): partial products over row blocks + allreduce."""
    if isinstance(a, FusedDMatrix) and not a.is_vector:
        x_full = _as_full(rt, x).reshape(-1)
        parts = []
        for r in range(rt.size):
            blk = a.block(r)
            parts.append(x_full[a.rank_global_indices(r)] @ blk
                         if blk.size else
                         np.zeros(a.cols, dtype=a.full.dtype))
        rt.comm.overhead()
        rt.comm.compute_ranks(flops=2 * a.rank_counts())
        rt.comm.charge_reduce(max(np.asarray(p).nbytes for p in parts))
        result = np.asarray(_fold(parts)).reshape(1, -1)
        return rt.distribute_full(result) if result.size > 1 \
            else V.simplify(result)
    if isinstance(a, DMatrix) and not a.is_vector:
        x_full = _as_full(rt, x).reshape(-1)
        rows = a.global_row_indices()
        partial = x_full[rows] @ a.local if a.local.size else \
            np.zeros(a.cols, dtype=a.local.dtype)
        rt.comm.overhead()
        rt.comm.compute(flops=2 * a.local.size)
        total = rt.comm.allreduce(np.asarray(partial))
        result = np.asarray(total).reshape(1, -1)
        return rt.distribute_full(result) if result.size > 1 \
            else V.simplify(result)
    full = _as_full(rt, x) @ _as_full(rt, a)
    rt.comm.compute(flops=2 * _as_full(rt, a).size)
    return rt.distribute_full(full) if full.size > 1 else V.simplify(full)


def _matmat(rt, a: RValue, b: RValue) -> RValue:
    """(m x k) * (k x n): allgather B, multiply local row block of A."""
    b_full = rt.gather_full(b, copy=False)  # read-only: matmul reads B
    if isinstance(a, FusedDMatrix) and not a.is_vector:
        n = b_full.shape[1]
        full = np.empty((a.rows, n), dtype=np.result_type(a.full, b_full))
        # each rank's product lands straight in its rows of the result
        # (the same BLAS call on the same operands as ``blk @ b_full``)
        for r in range(rt.size):
            if a.scheme == "block":
                rows = slice(a.map.start(r), a.map.stop(r))
                np.matmul(a.full[rows], b_full, out=full[rows])
            else:
                full[a.rank_global_indices(r), :] = a.block(r) @ b_full
        rt.comm.overhead()
        rt.comm.compute_ranks(flops=2 * a.rank_counts() * n)
        return FusedDMatrix(a.rows, n, full.dtype, full, rt.size, a.scheme)
    if isinstance(a, DMatrix) and not a.is_vector:
        local = a.local @ b_full
        rt.comm.overhead()
        rt.comm.compute(flops=2 * a.local.shape[0] * a.local.shape[1]
                        * b_full.shape[1])
        return DMatrix(a.rows, b_full.shape[1], local.dtype, local,
                       rt.size, rt.rank, a.scheme)
    a_full = _as_full(rt, a)
    rt.comm.compute(flops=2 * a_full.shape[0] * a_full.shape[1]
                    * b_full.shape[1] // max(rt.size, 1))
    return rt.distribute_full(a_full @ b_full)


def transpose(rt, a: RValue, conjugate: bool = True) -> RValue:
    if not isinstance(a, DMatrix):
        if isinstance(a, str):
            raise MatlabRuntimeError("cannot transpose a string")
        arr = V.as_matrix(a)
        out = arr.conj().T if conjugate else arr.T
        return V.simplify(np.ascontiguousarray(out))
    if a.is_vector:
        if isinstance(a, FusedDMatrix):
            full = a.full.conj() if (conjugate and np.iscomplexobj(a.full)) \
                else a.full
            rt.comm.overhead()
            return FusedDMatrix(a.cols, a.rows, full.dtype,
                                np.ascontiguousarray(full.T).copy(),
                                rt.size, a.scheme)
        # both orientations share the element-block layout: free relabel
        local = a.local.conj() if (conjugate and np.iscomplexobj(a.local)) \
            else a.local
        rt.comm.overhead()
        return DMatrix(a.cols, a.rows, local.dtype, local.copy(),
                       rt.size, rt.rank, a.scheme)
    full = rt.gather_full(a, copy=False)  # read-only: copied just below
    out = full.conj().T if conjugate else full.T
    rt.comm.compute(mem=out.size)
    return rt.distribute_full(np.ascontiguousarray(out))


def solve(rt, a: RValue, b: RValue, left: bool = True) -> RValue:
    """``a \\ b`` (left) or ``a / b`` (right) via gathered LAPACK solve,
    replicated on every rank."""
    a_full = _as_full(rt, a)
    b_full = _as_full(rt, b)
    if left:
        n = a_full.shape[0]
        nrhs = b_full.shape[1]
        result = _lstsq_or_solve(a_full, b_full)
    else:
        # X = A/B <=> B' X' = A'
        n = b_full.shape[0]
        nrhs = a_full.shape[0]
        xt = _lstsq_or_solve(b_full.conj().T if np.iscomplexobj(b_full)
                             else b_full.T,
                             a_full.conj().T if np.iscomplexobj(a_full)
                             else a_full.T)
        result = xt.conj().T if np.iscomplexobj(xt) else xt.T
    rt.comm.overhead()
    rt.comm.compute(flops=2 * n ** 3 // 3 + 2 * n ** 2 * nrhs)
    return rt.distribute_full(result) if result.size > 1 \
        else V.simplify(result)


def _lstsq_or_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[0] == A.shape[1]:
        try:
            return np.linalg.solve(A, B)
        except np.linalg.LinAlgError:
            pass
    result, *_ = np.linalg.lstsq(A, B, rcond=None)
    return result


def matrix_power(rt, a: RValue, k: RValue) -> RValue:
    power = rt.scalar(k, "^")
    p = float(np.real(power))
    if p != int(p) or p < 0:
        raise MatlabRuntimeError("matrix powers must be nonnegative integers")
    shape = rt.shape_of(a)
    if shape[0] != shape[1]:
        raise MatlabRuntimeError("matrix power: matrix must be square")
    p = int(p)
    if p == 0:
        return rt.eye(float(shape[0]), float(shape[0]))
    result = a
    for _ in range(p - 1):
        result = matmul(rt, result, a)
    return result


def matmul_t(rt, a: RValue, b: RValue, conjugate: bool = True) -> RValue:
    """Fused ``a' * b`` (pass 6's transpose+multiply rewrite).

    With both operands distributed over the *same* row blocks,
    ``A' * B = sum_p A_p' B_p`` — one local product and one allreduce,
    with no transpose materialization and no allgather.  For column
    vectors this degenerates to ML_dot.
    """
    if (isinstance(a, DMatrix) and isinstance(b, DMatrix)
            and a.scheme != b.scheme):
        b = rt.realign(b, a.scheme)
    a_shape = rt.shape_of(a)
    b_shape = rt.shape_of(b)
    if a_shape == (1, 1) or b_shape == (1, 1):
        at = transpose(rt, a, conjugate)
        return rt.ew(lambda x, y: x * y, 1, at, b,
                     spec=('.*', '@0', '@1'))
    if a_shape[0] != b_shape[0]:
        raise MatlabRuntimeError(
            f"inner matrix dimensions must agree "
            f"({a_shape[::-1]} * {b_shape})")
    # column-vector case: a (k x 1), b (k x 1) -> scalar dot
    if a_shape[1] == 1 and b_shape[1] == 1 and isinstance(a, DMatrix) \
            and isinstance(b, DMatrix):
        if isinstance(a, FusedDMatrix):
            cplx = np.iscomplexobj(a.full) or np.iscomplexobj(b.full)
            conj = conjugate and np.iscomplexobj(a.full)
            parts = []
            for av, bv in zip(a.blocks(), b.blocks()):
                partial = np.dot(av.conj() if conj else av, bv)
                parts.append(complex(partial) if cplx else float(partial))
            rt.comm.overhead()
            rt.comm.compute_ranks(flops=2 * a.rank_counts())
            rt.comm.charge_reduce(16 if cplx else 8)
            return _fold(parts)
        av = a.local.conj() if (conjugate and np.iscomplexobj(a.local)) \
            else a.local
        partial = np.dot(av, b.local)
        rt.comm.overhead()
        rt.comm.compute(flops=2 * av.size)
        total = rt.comm.allreduce(
            complex(partial) if np.iscomplexobj(a.local)
            or np.iscomplexobj(b.local) else float(partial))
        return total
    if (isinstance(a, DMatrix) and isinstance(b, DMatrix)
            and not a.is_vector and not b.is_vector):
        # The inner-product algorithm allreduces the full m x n result;
        # when that volume exceeds the gather traffic of the unfused
        # transpose+multiply, fall back (the run-time library picks the
        # cheaper plan, as a real ML_matrix_multiply_at would).
        result_bytes = a.cols * b.cols * 8
        gather_bytes = (a.rows * a.cols + b.rows * b.cols) * 8 // rt.size
        if result_bytes > 2 * gather_bytes and rt.size > 1:
            return matmul(rt, transpose(rt, a, conjugate), b)
        if isinstance(a, FusedDMatrix):
            conj = conjugate and np.iscomplexobj(a.full)
            parts = []
            for ab, bb in zip(a.blocks(), b.blocks()):
                al = ab.conj().T if conj else ab.T
                parts.append(np.ascontiguousarray(al @ bb))
            rt.comm.overhead()
            rt.comm.compute_ranks(
                flops=2 * count_array(a.map) * a.cols * b.cols)
            rt.comm.charge_reduce(max(p.nbytes for p in parts))
            return rt.distribute_full(np.asarray(_fold(parts)))
        al = a.local.conj().T if conjugate and np.iscomplexobj(a.local) \
            else a.local.T
        partial = al @ b.local
        rt.comm.overhead()
        # 2 * k_local * m * n flops per rank
        rt.comm.compute(flops=2 * a.local.shape[0] * a.cols * b.cols)
        total = rt.comm.allreduce(np.ascontiguousarray(partial))
        return rt.distribute_full(np.asarray(total))
    # matrix' * vector: partial products over row blocks + one small
    # allreduce — no transpose materialization, no matrix gather
    if (isinstance(a, DMatrix) and not a.is_vector
            and isinstance(b, DMatrix) and b.cols == 1):
        if isinstance(a, FusedDMatrix):
            conj = conjugate and np.iscomplexobj(a.full)
            parts = []
            for ab, bb in zip(a.blocks(), b.blocks()):
                al = ab.conj() if conj else ab
                parts.append(np.asarray(al.T @ bb if al.size
                                        else np.zeros(a.cols)))
            rt.comm.overhead()
            rt.comm.compute_ranks(flops=2 * a.rank_counts())
            rt.comm.charge_reduce(max(p.nbytes for p in parts))
            total = np.asarray(_fold(parts))
            if total.size == 1:
                return V.simplify(total.reshape(1, 1))
            return rt.distribute_full(total.reshape(-1, 1))
        bl = b.local
        al = a.local.conj() if conjugate and np.iscomplexobj(a.local) \
            else a.local
        partial = al.T @ bl if al.size else np.zeros(a.cols)
        rt.comm.overhead()
        rt.comm.compute(flops=2 * a.local.size)
        total = np.asarray(rt.comm.allreduce(np.asarray(partial)))
        if total.size == 1:
            return V.simplify(total.reshape(1, 1))
        return rt.distribute_full(total.reshape(-1, 1))
    # mixed/vector fallbacks: materialize the transpose
    return matmul(rt, transpose(rt, a, conjugate), b)
