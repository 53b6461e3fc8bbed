"""Spec tree -> C source for the native kernel tier.

A *spec* is the elementwise op tree the emitter already lowers into the
``rt.ew`` lambda, serialized as nested tuples::

    ('+', ('fn:sqrt', ('.*', '@0', '@0')), 2.0)

Leaves are ``"@N"`` operand-slot strings and numeric literals; interior
nodes are ``(op, arg, ...)``.  Together with the call-site *signature*
(one ``'a'``/``'s'`` char per slot: float64 array or real scalar) a spec
maps deterministically to one C translation unit: a single loop, one
statement per op node, zero intermediate arrays.

Kernels return ``int``: 0 on success, 1 when a semantic guard fired
(e.g. ``sqrt`` of a negative — MATLAB promotes to complex, C cannot),
in which case the caller discards the output buffer and re-runs the
chain through numpy.
"""

from __future__ import annotations

import hashlib
import math

from .ops import OPS, POW_CONST_REWRITES

#: bump whenever generated code or the calling convention changes — the
#: version participates in the content hash, so stale on-disk kernels
#: from older ABIs are never dlopen'ed
ABI_VERSION = 3


class UnsupportedSpecError(Exception):
    """The spec contains an op/operand the native tier cannot compile."""


def spec_key(spec, sig: str) -> str:
    """Content hash identifying one compiled kernel.

    Covers the canonical op tree, the slot signature, and the codegen
    ABI version; dtype and shape-class are implied (float64, flat
    C-contiguous) because the signature gate admits nothing else.
    """
    text = f"repro-native:{ABI_VERSION}:{sig}:{spec!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _literal(value) -> str:
    if isinstance(value, bool):
        return "1.0" if value else "0.0"
    if isinstance(value, int):
        value = float(value)
    if isinstance(value, complex):
        if value.imag == 0.0:
            value = value.real
        else:
            raise UnsupportedSpecError("complex constant")
    if not isinstance(value, float):
        raise UnsupportedSpecError(f"non-numeric constant {value!r}")
    if math.isnan(value):
        return "(0.0 / 0.0)"
    if math.isinf(value):
        return "(1.0 / 0.0)" if value > 0 else "(-1.0 / 0.0)"
    return repr(value)


def _normalize_pow(node):
    """Rewrite ``a .^ const`` to its probed pseudo-op when possible."""
    op, args = node[0], node[1:]
    if op != ".^" or len(args) != 2:
        return node
    exp = args[1]
    if isinstance(exp, bool) or not isinstance(exp, (int, float)):
        raise UnsupportedSpecError("non-constant .^ exponent")
    exp = float(exp)
    rewrite = POW_CONST_REWRITES.get(exp)
    if rewrite is None:
        raise UnsupportedSpecError(f".^ exponent {exp!r}")
    return (rewrite, args[0])


def generate_source(spec, sig: str, name: str) -> tuple[str, set[str]]:
    """Render the kernel C source.

    Returns ``(source, ops_used)`` where ``ops_used`` is the set of op
    registry keys the kernel depends on (the engine gates PROBED ops on
    their one-time differential probe before compiling).

    Raises :class:`UnsupportedSpecError` for anything outside the
    compilable subset — the caller records the spec as permanently
    numpy-only.
    """
    if not isinstance(spec, tuple):
        raise UnsupportedSpecError("spec is not an op tree")
    body: list[str] = []
    ops_used: set[str] = set()
    counter = [0]

    def emit(node) -> str:
        if isinstance(node, tuple):
            node = _normalize_pow(node)
            op = node[0]
            info = OPS.get(op)
            if info is None:
                raise UnsupportedSpecError(f"op {op!r}")
            if len(node) - 1 != info.arity:
                raise UnsupportedSpecError(f"arity of {op!r}")
            ops_used.add(op)
            args = [emit(a) for a in node[1:]]
            if info.guard is not None:
                body.append(f"        if {info.guard.format(*args)} "
                            "return 1;")
            tmp = f"t{counter[0]}"
            counter[0] += 1
            body.append(f"        double {tmp} = "
                        f"{info.expr.format(*args)};")
            return tmp
        if isinstance(node, str):
            if not node.startswith("@"):
                raise UnsupportedSpecError(f"leaf {node!r}")
            slot = int(node[1:])
            if slot < 0 or slot >= len(sig):
                raise UnsupportedSpecError(f"slot {node!r} out of range")
            return f"a{slot}[i]" if sig[slot] == "a" else f"s{slot}"
        return _literal(node)

    result = emit(spec)
    params = "".join(
        f", const double *restrict a{i}" if kind == "a" else f", double s{i}"
        for i, kind in enumerate(sig))
    lines = [
        "#include <math.h>",
        "",
        f"int {name}(long n, double *restrict out{params})",
        "{",
        "    long i;",
        "    for (i = 0; i < n; i++) {",
        *body,
        f"        out[i] = {result};",
        "    }",
        "    return 0;",
        "}",
        "",
    ]
    return "\n".join(lines), ops_used


def cdef_signature(sig: str, name: str) -> str:
    """The cffi ``cdef`` declaration matching :func:`generate_source`."""
    params = "".join(
        f", const double *a{i}" if kind == "a" else f", double s{i}"
        for i, kind in enumerate(sig))
    return f"int {name}(long n, double *out{params});"
