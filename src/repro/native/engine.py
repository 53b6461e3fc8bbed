"""The native kernel engine: compile, cache, verify, execute, fall back.

``NativeEngine.run(spec, args, reference)`` is the single entry point
``RuntimeContext.ew`` calls.  It either returns the computed float64
array — bitwise identical to what the numpy lambda would produce — or
``None``, in which case the caller runs the numpy path.  Every reason
for returning ``None`` is counted in :class:`NativeStats` so the pass
report and CI can show exactly where the tier engaged.

Correctness layers (all per-kernel, all automatic):

1. *Signature gate*: only float64 C-contiguous arrays of one shape plus
   real scalars are admitted; anything else (complex, ints, views) is a
   numpy call.
2. *Op admission*: PROBED ops run a one-time in-process differential
   probe against the numpy reference (see ops.py) before any kernel
   using them compiles.
3. *Semantic guards*: kernels abort (rc=1) on inputs whose MATLAB
   semantics need complex promotion; the call falls back.
4. *First-call verification*: each kernel's first result is compared
   bitwise against the reference lambda; any mismatch blacklists the
   kernel permanently.

The engine is shared across ranks, backends and the compile/run
server's concurrent sessions, so compilation, cache
mutation, and probing hold a lock (kernel *execution* does not — the
C loop only touches its own buffers).
"""

from __future__ import annotations

import os
import shutil
import sysconfig
import threading
from typing import Optional

import numpy as np

from .cache import KernelCache, KernelCompileError
from .codegen import (UnsupportedSpecError, cdef_signature, generate_source,
                      spec_key)
from .ops import OPS, PROBED, probe_samples, spec_reference

ENV_CC = "REPRO_NATIVE_CC"

#: stat counters, in report order
STAT_FIELDS = (
    "native_calls",       # calls served by a compiled kernel
    "kernels",            # distinct kernels loaded this process
    "compiles",           # kernels built by the C compiler
    "disk_hits",          # kernels dlopen'ed straight from the disk cache
    "mem_hits",           # calls that found their kernel in-process
    "guard_fallbacks",    # calls aborted by a semantic guard (rc != 0)
    "verify_rejects",     # kernels blacklisted by first-call verification
    "unsupported_specs",  # specs outside the compilable subset
    "probe_rejects",      # specs refused because a PROBED op failed
    "signature_fallbacks",  # calls with non-float64/complex/strided args
    "compile_failures",   # cc rejected a kernel (spec blacklisted)
)


class NativeStats:
    """Thread-safe counters for the tier's pass-report section."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(STAT_FIELDS, 0)

    def bump(self, field: str, by: int = 1) -> None:
        with self._lock:
            self._counts[field] += by

    def bump_pair(self, first: str, second: str) -> None:
        """Two counters, one lock acquisition (the warm-call hot path)."""
        with self._lock:
            self._counts[first] += 1
            self._counts[second] += 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


class _Kernel:
    __slots__ = ("cfun", "lib", "nslots", "sig", "verified", "blacklisted")

    def __init__(self, cfun, lib, sig: str):
        self.cfun = cfun
        self.lib = lib  # keep the dlopen handle alive
        self.sig = sig
        self.nslots = len(sig)
        self.verified = 0
        self.blacklisted = False


#: sentinel: spec permanently numpy-only for this process
_UNSUPPORTED = object()


def _resolve_cc(cand: str) -> Optional[str]:
    if os.path.sep in cand:
        if os.path.isfile(cand) and os.access(cand, os.X_OK):
            return cand
        return None
    return shutil.which(cand)


def find_compiler(cc: Optional[str] = None) -> Optional[str]:
    """Resolve the host C compiler.

    An explicit argument or ``$REPRO_NATIVE_CC`` is *authoritative*: if
    it does not resolve, the tier is unavailable — a deliberately
    poisoned compiler (tests, the CI no-compiler leg) must not fall back
    to the system toolchain.  Otherwise try ``$CC``, the python build's
    configured compiler, then ``cc``/``gcc``/``clang`` on PATH.
    Returns ``None`` when nothing usable exists — the tier then reports
    itself unavailable and every chain runs through numpy.
    """
    explicit = cc or os.environ.get(ENV_CC)
    if explicit:
        return _resolve_cc(explicit)
    candidates = [os.environ.get("CC")]
    sys_cc = (sysconfig.get_config_var("CC") or "").split()
    if sys_cc:
        candidates.append(sys_cc[0])
    candidates += ["cc", "gcc", "clang"]
    for cand in candidates:
        if not cand:
            continue
        found = _resolve_cc(cand)
        if found:
            return found
    return None


class NativeEngine:
    """Process-wide JIT tier for fused elementwise chains."""

    def __init__(self, cache_dir: Optional[str] = None,
                 cc: Optional[str] = None, verify_calls: int = 1):
        self._lock = threading.RLock()
        self.stats = NativeStats()
        self.cache = KernelCache(cache_dir)
        self.cc = find_compiler(cc)
        self.verify_calls = verify_calls
        self._ffi = None
        self._dparr = None  # cached ffi.typeof("double[]")
        self._kernels: dict[str, object] = {}
        #: per-call-site memo: id(spec) -> (spec, {sig: _Kernel|_UNSUPPORTED}).
        #: The emitter materializes each call site's spec as a code-object
        #: constant, so its identity is stable across calls — warm calls
        #: skip the content hash entirely.  The strong reference in the
        #: entry keeps the id from ever being reused.  Plain dict ops are
        #: GIL-atomic; a race between threads at worst duplicates the
        #: slow-path lookup, which is idempotent.
        self._fast: dict[int, tuple] = {}
        self._op_admission: dict[str, bool] = {}
        self._probing: set[str] = set()
        self._toolchain: Optional[bool] = None
        self.unavailable_reason: Optional[str] = None
        if self.cc is None:
            self.unavailable_reason = "no C compiler found"

    # ---------------------------------------------------------------- #
    # availability
    # ---------------------------------------------------------------- #

    @property
    def available(self) -> bool:
        """True when cffi + a working compiler + a writable cache exist.

        The first query pays a trial compile; the verdict is cached for
        the life of the engine.
        """
        with self._lock:
            if self._toolchain is None:
                self._toolchain = self._probe_toolchain()
            return self._toolchain

    def _probe_toolchain(self) -> bool:
        if self.cc is None:
            return False
        try:
            import cffi  # noqa: F401
        except ImportError:
            self.unavailable_reason = "cffi is not installed"
            return False
        try:
            source, _ = generate_source(("+", "@0", 1.0), "a", "k_trial")
            self.cache.build("trial", source, self.cc)
        except (KernelCompileError, OSError) as exc:
            self.unavailable_reason = f"toolchain probe failed: {exc}"
            return False
        return True

    def _get_ffi(self):
        if self._ffi is None:
            from cffi import FFI
            self._ffi = FFI()
            self._dparr = self._ffi.typeof("double[]")
        return self._ffi

    # ---------------------------------------------------------------- #
    # the hot path
    # ---------------------------------------------------------------- #

    def run(self, spec, args, reference=None) -> Optional[np.ndarray]:
        """Execute ``spec`` over ``args`` natively, or return ``None``.

        ``args`` is the positional operand list the numpy lambda would
        receive (float64 arrays and scalars).  ``reference`` is that
        lambda, used only for first-call verification.  A ``None``
        return means "use the numpy path" — never an error.
        """
        prep = self._prepare_args(spec, args)
        if prep is None:
            self.stats.bump("signature_fallbacks")
            return None
        sig, shape, call_values = prep
        ent = self._fast.get(id(spec))
        if ent is not None and ent[0] is spec:
            kern = ent[1].get(sig)
        else:
            ent = kern = None
        if kern is None:
            kern = self._kernel_for(spec, sig)
            if ent is None:
                ent = (spec, {})
                self._fast[id(spec)] = ent
            ent[1][sig] = kern if kern is not None else _UNSUPPORTED
            if kern is None:
                return None
            warm = False
        elif kern is _UNSUPPORTED or kern.blacklisted:
            return None
        else:
            warm = True
        out = np.empty(shape, dtype=np.float64)
        ffi = self._ffi
        dparr = self._dparr
        from_buffer = ffi.from_buffer
        cargs = [
            from_buffer(dparr, v) if v.__class__ is np.ndarray else v
            for v in call_values
        ]
        rc = kern.cfun(out.size, from_buffer(dparr, out), *cargs)
        if rc != 0:
            self.stats.bump("guard_fallbacks")
            return None
        if kern.verified < self.verify_calls:
            if reference is None:
                return None
            with np.errstate(divide="ignore", invalid="ignore"):
                ref = np.asarray(reference(*args))
            if (ref.dtype != np.float64 or ref.shape != out.shape
                    or ref.tobytes() != out.tobytes()):
                kern.blacklisted = True
                self.stats.bump("verify_rejects")
                return None
            kern.verified += 1
        if warm:
            self.stats.bump_pair("mem_hits", "native_calls")
        else:
            self.stats.bump("native_calls")
        return out

    def _prepare_args(self, spec, args):
        """Gate + normalize the operand list.

        Returns ``(sig, shape, call_values)`` or ``None``.  Arrays must
        be float64, C-contiguous, and share one shape; size-1 arrays and
        numpy scalars demote to C ``double`` arguments; complex anywhere
        means the numpy path (output dtype would differ).
        """
        if not isinstance(spec, tuple):
            return None
        sig = []
        values = []
        shape = None
        for a in args:
            if isinstance(a, np.ndarray):
                if a.size != 1:
                    if a.dtype != np.float64 or not a.flags.c_contiguous:
                        return None
                    if shape is None:
                        shape = a.shape
                    elif a.shape != shape:
                        return None
                    sig.append("a")
                    values.append(a)
                    continue
                if a.dtype != np.float64:  # size-1 broadcast
                    return None
                sig.append("s")
                values.append(float(a.reshape(-1)[0]))
                continue
            # bool before int: bool is an int subclass
            if isinstance(a, (bool, np.bool_)):
                sig.append("s")
                values.append(1.0 if a else 0.0)
                continue
            if isinstance(a, (float, int, np.floating, np.integer)):
                sig.append("s")
                values.append(float(a))
                continue
            return None
        if shape is None:
            return None  # pure-scalar chains never reach the tier
        return "".join(sig), shape, values

    # ---------------------------------------------------------------- #
    # kernel construction
    # ---------------------------------------------------------------- #

    def _kernel_for(self, spec, sig: str) -> Optional[_Kernel]:
        key = spec_key(spec, sig)
        kern = self._kernels.get(key)
        if kern is not None:
            if kern is _UNSUPPORTED:
                return None
            self.stats.bump("mem_hits")
            return None if kern.blacklisted else kern
        with self._lock:
            kern = self._kernels.get(key)
            if kern is not None:  # raced another thread
                if kern is _UNSUPPORTED:
                    return None
                self.stats.bump("mem_hits")
                return None if kern.blacklisted else kern
            kern = self._build_kernel(spec, sig, key, gate_probes=True)
            self._kernels[key] = kern if kern is not None else _UNSUPPORTED
            return kern

    def _build_kernel(self, spec, sig: str, key: str,
                      gate_probes: bool) -> Optional[_Kernel]:
        """Compile-or-load one kernel.  Caller holds the lock."""
        if not self.available:
            return None
        name = f"k_{key}"
        try:
            source, ops_used = generate_source(spec, sig, name)
        except UnsupportedSpecError:
            self.stats.bump("unsupported_specs")
            return None
        if gate_probes:
            for op in sorted(ops_used):
                if not self._op_admitted(op):
                    self.stats.bump("probe_rejects")
                    return None
            # a single-op spec IS its own probe kernel: a passing probe
            # already compiled and registered it under this very key
            existing = self._kernels.get(key)
            if existing is not None and existing is not _UNSUPPORTED:
                return existing
        path = self.cache.lookup(key)
        if path is not None:
            self.stats.bump("disk_hits")
        else:
            try:
                path = self.cache.build(key, source, self.cc)
            except KernelCompileError:
                self.stats.bump("compile_failures")
                return None
            self.stats.bump("compiles")
        ffi = self._get_ffi()
        try:
            ffi.cdef(cdef_signature(sig, name))
            lib = ffi.dlopen(str(path))
            cfun = getattr(lib, name)
        except Exception:
            self.stats.bump("compile_failures")
            return None
        self.stats.bump("kernels")
        return _Kernel(cfun, lib, sig)

    # ---------------------------------------------------------------- #
    # per-op differential probes
    # ---------------------------------------------------------------- #

    def _op_admitted(self, op: str) -> bool:
        info = OPS[op]
        if info.kind != PROBED:
            return True
        verdict = self._op_admission.get(op)
        if verdict is not None:
            return verdict
        if op in self._probing:  # defensive: no recursive probes
            return False
        self._probing.add(op)
        try:
            verdict = self._probe_op(op)
        finally:
            self._probing.discard(op)
        self._op_admission[op] = verdict
        return verdict

    def _probe_op(self, op: str) -> bool:
        """One-time bitwise sweep of a PROBED op against numpy.

        Builds the single-op kernel, runs it over the deterministic
        sample set for the op's domain, and admits the op only if every
        result bit matches the reference.  numpy builds whose SIMD
        transcendentals differ from libm fail here and their chains stay
        on the numpy path — correctness never depends on the platform.
        """
        info = OPS[op]
        samples = probe_samples(info.domain)[:info.arity]
        spec = (op, *(f"@{i}" for i in range(info.arity)))
        sig = "a" * info.arity
        key = spec_key(spec, sig)
        kern = self._kernels.get(key)
        if kern is None or kern is _UNSUPPORTED:
            kern = self._build_kernel(spec, sig, key, gate_probes=False)
            self._kernels[key] = kern if kern is not None else _UNSUPPORTED
        if kern is None or kern is _UNSUPPORTED:
            return False
        arrays = [np.ascontiguousarray(s, dtype=np.float64)
                  for s in samples]
        out = np.empty(arrays[0].shape, dtype=np.float64)
        ffi = self._get_ffi()
        cargs = [ffi.cast("double *", a.ctypes.data) for a in arrays]
        rc = kern.cfun(out.size, ffi.cast("double *", out.ctypes.data),
                       *cargs)
        if rc != 0:
            return False
        ref = np.asarray(spec_reference(spec)(*arrays))
        return (ref.dtype == np.float64 and ref.shape == out.shape
                and ref.tobytes() == out.tobytes())
