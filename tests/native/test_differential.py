"""Hypothesis differential suite: random elementwise op trees executed
by the native tier must be bitwise identical to the numpy reference —
or fall back (return ``None``), never silently diverge.

Bit-identity is modulo NaN representation: compilers may fold
``x + (-y)`` into ``x - y``, which propagates a NaN operand without the
sign flip numpy's separate negate performs.  NaN sign/payload bits are
unspecified by IEEE-754 and not part of the tier's contract (the
first-call verify gate still compares strict bytes and conservatively
falls back on such chains); value positions and all non-NaN bits must
match exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.native import get_engine
from repro.native.ops import EXACT, OPS, spec_reference

engine = get_engine()

pytestmark = pytest.mark.skipif(
    not engine.available,
    reason="no C compiler / cffi: native tier unavailable")

#: EXACT ops with no semantic guard: a kernel can never abort mid-loop
SAFE_OPS = sorted(op for op, info in OPS.items()
                  if info.kind == EXACT and info.guard is None)
ALL_OPS = sorted(op for op in OPS if not op.startswith("pow:"))

SPECIALS = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan,
            1e308, -1e308, 5e-324, 0.5, 2.0, np.pi]

elements = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

NSLOTS = 3


@st.composite
def spec_trees(draw, ops, max_depth=3):
    """A random op tree over ``@0..@{NSLOTS-1}`` slots and float
    constants, rooted at an operator and guaranteed to use slot 0."""

    def node(depth):
        if depth >= max_depth or draw(st.integers(0, 2)) == 0:
            if draw(st.booleans()):
                return f"@{draw(st.integers(0, NSLOTS - 1))}"
            return draw(st.floats(min_value=-100, max_value=100,
                                  allow_nan=False))
        op = draw(st.sampled_from(ops))
        return (op, *(node(depth + 1) for _ in range(OPS[op].arity)))

    op = draw(st.sampled_from(ops))
    tree = (op, *(node(1) for _ in range(OPS[op].arity)))
    if "@0" not in repr(tree):
        tree = ("+", "@0", tree)
    return tree


@st.composite
def operand_lists(draw):
    """NSLOTS operands: slot 0 is always an array; the rest may be
    arrays of the same shape or Python floats.  Size >= 2 because a
    size-1 array demotes to a scalar argument and a chain with no array
    operands never reaches the tier."""
    n = draw(st.integers(min_value=2, max_value=7))
    out = [np.ascontiguousarray(
        draw(st.lists(elements, min_size=n, max_size=n)))]
    for _ in range(NSLOTS - 1):
        if draw(st.booleans()):
            out.append(np.ascontiguousarray(
                draw(st.lists(elements, min_size=n, max_size=n))))
        else:
            out.append(draw(elements))
    return out


def _bits_match(out, ref):
    if out.tobytes() == ref.tobytes():
        return True
    if out.shape != ref.shape:
        return False
    nan_both = np.isnan(out) & np.isnan(ref)
    same = np.ascontiguousarray(out).view(np.uint64) == \
        np.ascontiguousarray(ref).view(np.uint64)
    return bool(np.all(nan_both | same))


def _check(spec, args):
    ref_fn = spec_reference(spec)
    try:
        ref = np.asarray(ref_fn(*args))
    except Exception:
        # the numpy path itself errors (complex intermediate into a
        # real-only ufunc): a guard must have aborted the kernel first,
        # so the tier either raised identically or fell back
        try:
            out = engine.run(spec, args, ref_fn)
        except Exception:
            return
        assert out is None
        return
    out = engine.run(spec, args, ref_fn)
    if out is None:
        return  # fallback is always legal; divergence never is
    if np.iscomplexobj(ref):
        pytest.fail(f"native produced real bits where numpy promotes "
                    f"to complex: {spec!r}")
    assert out.dtype == np.float64
    assert _bits_match(out, np.ascontiguousarray(ref)), (
        f"native bits diverged for {spec!r}\n"
        f"native: {out!r}\nnumpy:  {ref!r}")


@settings(max_examples=120, deadline=None)
@given(spec=spec_trees(SAFE_OPS), args=operand_lists())
def test_exact_chains_never_diverge(spec, args):
    _check(spec, args)


@settings(max_examples=120, deadline=None)
@given(spec=spec_trees(ALL_OPS), args=operand_lists())
def test_full_surface_never_diverges(spec, args):
    _check(spec, args)


@settings(max_examples=40, deadline=None)
@given(args=operand_lists())
def test_pow_const_chains_never_diverge(args):
    for const in (0.0, 1.0, 2.0, -1.0):
        _check((".^", ("+", "@0", "@1"), const), args)


def test_sign_of_negative_zero_after_verification():
    """numpy's sign(-0.0) is +0.0.  First-call verification cannot see a
    kernel that gets this wrong when the first operands hold no -0.0,
    so check a later call that does."""
    spec = ("+", "@0", ("fn:sign", "@1"))
    ref = spec_reference(spec)
    assert engine.run(spec, [np.array([1.0, 2.0]), -3.0], ref) is not None
    args = [np.array([-0.0, 1.0]), -0.0]
    out = engine.run(spec, args, ref)
    assert out is not None
    assert out.tobytes() == np.asarray(ref(*args)).tobytes()


def test_every_safe_op_engages():
    """Engagement, deterministically: every guard-free EXACT op must be
    served natively on benign finite inputs (no probe can reject it, no
    guard can abort it, verification must pass)."""
    a = np.array([1.5, 2.5, -3.5, 0.25])
    b = np.array([0.5, -2.0, 4.0, 8.0])
    for op in SAFE_OPS:
        arity = OPS[op].arity
        spec = (op, *(f"@{i}" for i in range(arity)))
        out = engine.run(spec, [a, b][:arity], spec_reference(spec))
        assert out is not None, f"{op} fell back on benign inputs"
        ref = np.asarray(spec_reference(spec)(*[a, b][:arity]))
        assert out.tobytes() == ref.tobytes(), op
