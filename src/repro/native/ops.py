"""Native-tier op registry: per-op C templates and admission rules.

Every IR elementwise op that the native tier can compile appears here
with a C expression template.  The hard requirement (ISSUE 8, ROADMAP)
is *bit-identity* with the numpy path, so ops are split into two
classes:

``exact``
    IEEE-754 requires a correctly-rounded result (arithmetic,
    comparisons, logicals, ``sqrt``, ``fabs``, ``floor`` ...), so the C
    expression is bitwise-identical to numpy by construction on any
    conforming platform.

``probed``
    numpy may route through its own SIMD implementations (``exp``,
    ``log``, ``sin`` ... differ from libm in the last ulp on this very
    container), so the op is admitted *per process* only after a
    one-time differential probe: compile a single-op kernel, sweep a
    deterministic sample set, and require bitwise equality against the
    numpy reference.  A probe failure rejects the op for the process and
    every chain using it falls back to numpy.

Ops whose MATLAB semantics promote to complex (``sqrt``/``log`` of
negatives, fractional powers of negative bases) carry a *guard*: a C
condition evaluated per element that aborts the kernel (return 1) so the
caller re-runs the chain through numpy, which performs the promotion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..codegen import kernels as K

EXACT = "exact"
PROBED = "probed"


@dataclass(frozen=True)
class OpInfo:
    """One compilable elementwise op.

    ``expr`` and ``guard`` are ``str.format`` templates whose positional
    fields are the C expressions of the operand values.
    """

    arity: int
    expr: str
    kind: str = EXACT
    guard: Optional[str] = None
    #: probe sample domain: "all" | "positive" | "pairs" | "pow_pairs"
    domain: str = "all"


#: IR op name -> OpInfo.  Keys mirror py_emitter._EW_OPERATORS plus the
#: ``fn:<name>`` builtins from kernels.FUNCS.
OPS: dict[str, OpInfo] = {
    # IEEE arithmetic: correctly rounded, always exact
    "+": OpInfo(2, "({0} + {1})"),
    "-": OpInfo(2, "({0} - {1})"),
    ".*": OpInfo(2, "({0} * {1})"),
    "./": OpInfo(2, "({0} / {1})"),
    ".\\": OpInfo(2, "({1} / {0})"),
    "u-": OpInfo(1, "(-{0})"),
    "u+": OpInfo(1, "({0})"),
    # comparisons / logicals produce 0.0/1.0 doubles (NaN compares false,
    # NaN != 0 is true so NaN is truthy — both match numpy)
    "==": OpInfo(2, "(({0} == {1}) ? 1.0 : 0.0)"),
    "~=": OpInfo(2, "(({0} != {1}) ? 1.0 : 0.0)"),
    "<": OpInfo(2, "(({0} < {1}) ? 1.0 : 0.0)"),
    ">": OpInfo(2, "(({0} > {1}) ? 1.0 : 0.0)"),
    "<=": OpInfo(2, "(({0} <= {1}) ? 1.0 : 0.0)"),
    ">=": OpInfo(2, "(({0} >= {1}) ? 1.0 : 0.0)"),
    "&": OpInfo(2, "((({0} != 0.0) && ({1} != 0.0)) ? 1.0 : 0.0)"),
    "|": OpInfo(2, "((({0} != 0.0) || ({1} != 0.0)) ? 1.0 : 0.0)"),
    "&&": OpInfo(2, "((({0} != 0.0) && ({1} != 0.0)) ? 1.0 : 0.0)"),
    "||": OpInfo(2, "((({0} != 0.0) || ({1} != 0.0)) ? 1.0 : 0.0)"),
    "u~": OpInfo(1, "(({0} == 0.0) ? 1.0 : 0.0)"),
    # exact libm subset (IEEE-mandated or pure FP classification)
    "fn:sqrt": OpInfo(1, "sqrt({0})", guard="({0} < 0.0)"),
    "fn:abs": OpInfo(1, "fabs({0})"),
    "fn:floor": OpInfo(1, "floor({0})"),
    "fn:ceil": OpInfo(1, "ceil({0})"),
    "fn:fix": OpInfo(1, "trunc({0})"),
    "fn:round": OpInfo(1, "floor({0} + 0.5)"),
    # numpy's sign maps both zeros to +0.0 and passes NaN through
    "fn:sign": OpInfo(
        1, "(({0} > 0.0) ? 1.0 : (({0} < 0.0) ? -1.0 : "
           "(({0} == 0.0) ? 0.0 : {0})))"),
    "fn:isnan": OpInfo(1, "(({0} != {0}) ? 1.0 : 0.0)"),
    "fn:isinf": OpInfo(1, "(isinf({0}) ? 1.0 : 0.0)"),
    "fn:isfinite": OpInfo(1, "(isfinite({0}) ? 1.0 : 0.0)"),
    "fn:double": OpInfo(1, "({0})"),
    # real float64 inputs only (the signature gate rejects complex)
    "fn:real": OpInfo(1, "({0})"),
    "fn:conj": OpInfo(1, "({0})"),
    "fn:imag": OpInfo(1, "0.0"),
    # transcendentals: numpy's SIMD kernels are *not* libm on every
    # platform — admitted per process only if the probe proves identity
    "fn:exp": OpInfo(1, "exp({0})", kind=PROBED),
    "fn:log": OpInfo(1, "log({0})", kind=PROBED,
                     guard="({0} < 0.0)", domain="positive"),
    "fn:log2": OpInfo(1, "log2({0})", kind=PROBED,
                      guard="({0} < 0.0)", domain="positive"),
    "fn:log10": OpInfo(1, "log10({0})", kind=PROBED,
                       guard="({0} < 0.0)", domain="positive"),
    "fn:sin": OpInfo(1, "sin({0})", kind=PROBED),
    "fn:cos": OpInfo(1, "cos({0})", kind=PROBED),
    "fn:tan": OpInfo(1, "tan({0})", kind=PROBED),
    "fn:asin": OpInfo(1, "asin({0})", kind=PROBED),
    "fn:acos": OpInfo(1, "acos({0})", kind=PROBED),
    "fn:atan": OpInfo(1, "atan({0})", kind=PROBED),
    "fn:sinh": OpInfo(1, "sinh({0})", kind=PROBED),
    "fn:cosh": OpInfo(1, "cosh({0})", kind=PROBED),
    "fn:tanh": OpInfo(1, "tanh({0})", kind=PROBED),
    "fn:angle": OpInfo(1, "atan2(0.0, {0})", kind=PROBED),
    "fn:atan2": OpInfo(2, "atan2({0}, {1})", kind=PROBED, domain="pairs"),
    "fn:hypot": OpInfo(2, "hypot({0}, {1})", kind=PROBED, domain="pairs"),
    "fn:rem": OpInfo(2, "fmod({0}, {1})", kind=PROBED, domain="pairs"),
    # numpy maximum/minimum propagate NaN and return the *second* operand
    # on ties (0.0 vs -0.0).  The inner ternary is exactly x86
    # maxsd/minsd semantics (second operand on false, NaN compares
    # false), so gcc emits the branchless SIMD form; only the rare
    # NaN-in-first-operand blend can branch, and it predicts perfectly
    # on real data — the naive short-circuit form mispredicts on every
    # crossing of the threshold and runs ~4x slower
    "fn:maximum": OpInfo(
        2, "(({0} != {0}) ? {0} : (({0} > {1}) ? {0} : {1}))",
        kind=PROBED, domain="pairs"),
    "fn:minimum": OpInfo(
        2, "(({0} != {0}) ? {0} : (({0} < {1}) ? {0} : {1}))",
        kind=PROBED, domain="pairs"),
    # general a .^ b through libm pow (numpy's pow SIMD kernel usually
    # diverges, so this rarely survives the probe; the constant-exponent
    # rewrites in codegen are the ones that matter)
    "fn:power": OpInfo(2, "pow({0}, {1})", kind=PROBED, domain="pow_pairs"),
}

#: constant-exponent rewrites for ``a .^ c`` (K.pow_ semantics).  numpy
#: evaluates np.asarray(a) ** np.asarray(c) through np.power, and the
#: probe checks that np.power with this exact constant is bitwise equal
#: to the rewritten form.  Keyed by the constant; each value is a
#: (pseudo-op name, expr template) pair registered below as PROBED.
POW_CONST_REWRITES: dict[float, str] = {
    0.0: "pow:0",
    1.0: "pow:1",
    2.0: "pow:2",
    -1.0: "pow:-1",
}

OPS.update({
    "pow:0": OpInfo(1, "1.0", kind=PROBED),
    "pow:1": OpInfo(1, "({0})", kind=PROBED),
    "pow:2": OpInfo(1, "({0} * {0})", kind=PROBED),
    "pow:-1": OpInfo(1, "(1.0 / {0})", kind=PROBED),
})


# --------------------------------------------------------------------- #
# numpy reference interpreter (probes + tests)
# --------------------------------------------------------------------- #

#: IR operator -> the kernels.py callable the emitted lambda would use
_SPEC_KERNELS: dict[str, Callable] = {
    "+": K.add, "-": K.sub,
    ".*": K.mul, "./": K.div, ".\\": K.ldiv, ".^": K.pow_,
    "==": K.eq, "~=": K.ne, "<": K.lt, ">": K.gt, "<=": K.le, ">=": K.ge,
    "&": K.land, "|": K.lor, "&&": K.land, "||": K.lor,
    "u-": K.neg, "u+": K.pos, "u~": K.lnot,
}

#: ``fn:<name>`` reference callables used by rt.ew call sites that pass
#: specs directly (runtime/builtins.py) — these are NOT kernels.FUNCS
#: for every name: power/max/min go through different numpy entry points
_SPEC_FN_REFS: dict[str, Callable] = {
    "power": lambda a, b: np.asarray(a) ** np.asarray(b),
    "maximum": np.maximum,
    "minimum": np.minimum,
}


def spec_reference(spec):
    """Build the numpy reference callable for an op-tree spec.

    The returned function takes one positional argument per ``@N`` slot
    and reproduces exactly what the emitted lambda computes (kernels.K
    for operators, kernels.FUNCS for named functions).  Used by the
    per-op probes and the differential test suite.
    """

    def ev(node, slots):
        if isinstance(node, tuple):
            op, args = node[0], [ev(a, slots) for a in node[1:]]
            if op in _SPEC_KERNELS:
                return _SPEC_KERNELS[op](*args)
            if op.startswith("pow:"):
                return K.pow_(args[0], float(op[4:]))
            if op.startswith("fn:"):
                name = op[3:]
                if name in _SPEC_FN_REFS:
                    return _SPEC_FN_REFS[name](*args)
                return K.fn(name)(*args)
            raise KeyError(op)
        if isinstance(node, str):  # "@N" slot
            return slots[int(node[1:])]
        return node  # literal constant

    def call(*slots):
        with np.errstate(all="ignore"):
            return ev(spec, slots)

    return call


# --------------------------------------------------------------------- #
# probe sample sets
# --------------------------------------------------------------------- #

_SPECIALS = np.array([
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, np.pi, -np.pi,
    np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324,
    0.1, 1.0 / 3.0, 1e-16, 7.25, 1023.5,
])


def probe_samples(domain: str):
    """Deterministic sample arrays for a probe domain.

    Returns a list of operand arrays (one per kernel slot).  Samples are
    fixed-seed so admission decisions are reproducible run to run.
    """
    rng = np.random.default_rng(0xC0FFEE)
    base = np.concatenate([
        rng.uniform(-1e3, 1e3, 1024),
        rng.uniform(-2.0, 2.0, 1024),
        np.exp(rng.uniform(-200.0, 200.0, 1024)) * rng.choice(
            [-1.0, 1.0], 1024),
        _SPECIALS,
    ])
    if domain == "positive":
        return [np.abs(base)]
    if domain == "pairs":
        other = np.concatenate([base[1:], base[:1]])
        return [base, other]
    if domain == "pow_pairs":
        # stay off the complex-promotion guard: integral exponents for
        # arbitrary bases, arbitrary exponents for non-negative bases
        with np.errstate(all="ignore"):
            exps = np.floor(np.concatenate([base[1:], base[:1]]) % 7.0) - 3.0
        bases = np.concatenate([base, np.abs(base)])
        exps = np.concatenate([exps, np.concatenate([base[1:], base[:1]])])
        return [bases, exps]
    return [base]
