"""One resolved run configuration: every per-run knob, one precedence rule.

:meth:`RunConfig.resolve` applies the rule once per run — an explicit
argument beats its ``REPRO_*`` environment variable, which beats the
default — and the frozen result then travels unchanged through the
compiler, the SPMD launcher, the autotuner, the CLI, the REPL, and the
server.  This module is the only code that reads these nine variables.

The knob table (field, CLI flag, environment variable, default) is in
docs/INTERNALS.md; :data:`ENV_VARS` and the :class:`RunConfig` field
defaults are its source of truth.

``backend`` is ``fused`` or ``lockstep`` (:mod:`repro.mpi.executor`).
``fault_plan`` is a :class:`~repro.mpi.faults.FaultPlan`, given as a
plan, an inline spec, or a path.  ``watchdog`` is the host-seconds
budget of the whole call.  ``trace`` is ``False``, ``True``, or a string
that records and tells the CLI where the trace goes (``summary`` or a
Chrome-trace path; ``"0"`` is off).  ``tune`` is the autotuner's
candidate budget or ``None``; ``True`` or a non-integer string means
:data:`DEFAULT_TUNE_BUDGET`.  ``on_fault``/``max_restarts``/
``checkpoint_every`` are the self-healing policy
(:mod:`repro.mpi.recovery`).  ``native`` is the JIT kernel tier mode
(``auto``/``off``/``require``).

Process-level deployment settings stay with their modules and are not
run knobs: ``REPRO_NATIVE_CC``, ``REPRO_KERNEL_CACHE``,
``REPRO_COMPILE_CACHE`` and ``REPRO_MAP_CACHE_SIZE``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Optional, Union

from .errors import MpiError

if TYPE_CHECKING:  # the mpi package imports this module
    from .mpi.faults import FaultPlan
    from .mpi.recovery import RecoveryPolicy

BACKENDS = ("lockstep", "fused")
NATIVE_MODES = ("auto", "off", "require")
DEFAULT_MAX_RESTARTS = 2

#: candidate budget used when tuning is enabled without an explicit one
DEFAULT_TUNE_BUDGET = 64

#: the environment variable behind each field
ENV_VARS = {
    "backend": "REPRO_SPMD_BACKEND",
    "fault_plan": "REPRO_FAULT_PLAN",
    "watchdog": "REPRO_WATCHDOG_SECONDS",
    "trace": "REPRO_TRACE",
    "tune": "REPRO_TUNE",
    "on_fault": "REPRO_ON_FAULT",
    "max_restarts": "REPRO_MAX_RESTARTS",
    "checkpoint_every": "REPRO_CHECKPOINT_EVERY",
    "native": "REPRO_NATIVE",
}


def _number(kind, what: str):
    def parse(value, label: str):
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise MpiError(
                f"{label} must be {what} (got {value!r})") from None
    return parse


def _trace(value, _label: str) -> Union[bool, str]:
    if isinstance(value, str):
        return value if value not in ("", "0") else False
    return bool(value)


def _tune(value, _label: str) -> Optional[int]:
    if value is True:
        return DEFAULT_TUNE_BUDGET
    if not value:
        return None
    try:
        budget = int(value)
    except ValueError:
        return DEFAULT_TUNE_BUDGET
    return budget if budget > 0 else None


def _fault_plan(value, _label: str) -> Optional[FaultPlan]:
    from .mpi.faults import load_plan

    return load_plan(value)


#: how a raw argument or environment string becomes a field value
#: (fields not listed take it verbatim)
_PARSERS = {
    "fault_plan": _fault_plan,
    "watchdog": _number(float, "a number of seconds"),
    "trace": _trace,
    "tune": _tune,
    "max_restarts": _number(int, "an integer"),
    "checkpoint_every": _number(int, "an integer"),
}


def _parse(name: str, value, label: str):
    parser = _PARSERS.get(name)
    return value if parser is None else parser(value, label)


def resolve_field(name: str, value: Any = None) -> Any:
    """One field's args > env > default step, parsed.  Reads only that
    field's variable, so a caller that needs one knob (the compile-cache
    key) is not failed by a bad value in another."""
    if value is not None:
        return _parse(name, value, name)
    raw = os.environ.get(ENV_VARS[name])
    if raw:
        return _parse(name, raw, ENV_VARS[name])
    return getattr(RunConfig, name)


@dataclass(frozen=True)
class RunConfig:
    """The resolved per-run knobs (docs/INTERNALS.md has the table).

    Construct directly for an explicit, environment-free configuration
    (the autotuner's candidate runs do); use :meth:`resolve` everywhere a
    user's arguments and environment should apply."""

    backend: str = "fused"
    fault_plan: Optional[FaultPlan] = None
    watchdog: Optional[float] = None
    trace: Union[bool, str] = False
    tune: Optional[int] = None
    on_fault: str = "abort"
    max_restarts: int = DEFAULT_MAX_RESTARTS
    checkpoint_every: Optional[int] = None
    native: str = "auto"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise MpiError(
                f"unknown SPMD backend {self.backend!r} (expected one of "
                f"{', '.join(BACKENDS)})")
        if self.watchdog is not None and self.watchdog <= 0:
            raise MpiError(
                f"watchdog must be positive (got {self.watchdog:g}s)")
        if self.native not in NATIVE_MODES:
            raise ValueError(f"native mode must be one of {NATIVE_MODES}, "
                             f"got {self.native!r}")
        self.recovery  # validates on_fault/max_restarts/checkpoint_every

    @classmethod
    def resolve(cls, config: Optional[RunConfig] = None,
                **overrides: Any) -> RunConfig:
        """Apply args > env > defaults.  ``overrides`` are field values
        (``None`` means "not given"); with an already-resolved
        ``config`` the environment is not consulted again."""
        given = {name: value for name, value in overrides.items()
                 if value is not None}
        if config is not None:
            return replace(config, **{
                name: _parse(name, value, name)
                for name, value in given.items()}) if given else config
        return cls(**{name: resolve_field(name, given.get(name))
                      for name in ENV_VARS.keys() | given.keys()})

    @property
    def recovery(self) -> RecoveryPolicy:
        from .mpi.recovery import RecoveryPolicy

        return RecoveryPolicy(on_fault=self.on_fault,
                              max_restarts=self.max_restarts,
                              checkpoint_every=self.checkpoint_every)

    def as_meta(self) -> dict[str, Any]:
        """JSON-ready form (the ``config`` entry of a trace's meta)."""
        meta = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.fault_plan is not None:
            meta["fault_plan"] = self.fault_plan.describe()
        return meta
