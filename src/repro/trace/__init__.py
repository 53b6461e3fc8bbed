"""Deterministic observability for the Otter reproduction.

The trace layer answers the question the paper reasons with — *where
does the (virtual) time go, statement by statement?* — without
perturbing the run it observes:

* :class:`~repro.trace.recorder.WorldTrace` holds one
  :class:`~repro.trace.recorder.RankRecorder` per simulated rank.  The
  MPI substrate (``Comm``/``FusedComm``/``World``), the runtime library,
  and the fault injector append events to the recorder of the acting
  rank only, so no locking is ever needed.
* Events are stamped with the **virtual clock**; host time is carried as
  an advisory side-channel and excluded from canonical output.  Because
  per-rank virtual-clock trajectories are bit-identical across the
  ``lockstep`` and ``fused`` backends (the repo's standing
  differential invariant), the canonical trace is too.
* :mod:`repro.trace.profile` folds events into the per-source-line
  communication profile (calls, messages, bytes, collectives, virtual
  seconds per statement) shared by the interpreter's ``--profile`` and
  the compiler's ``--trace-summary``.
* :mod:`repro.trace.export` renders Chrome ``trace_event`` JSON
  (viewable in Perfetto), the canonical event text, and the
  compiler-pass timing report.

See docs/OBSERVABILITY.md for the event taxonomy and the determinism
guarantees.
"""

from .recorder import RankRecorder, TraceEvent, WorldTrace
from .profile import (
    ProfileRow,
    merge_line_profiles,
    render_ranked_profile,
    render_source_profile,
)
from .export import (
    canonical_events,
    chrome_trace,
    pass_report,
    write_chrome_trace,
)

__all__ = [
    "RankRecorder",
    "TraceEvent",
    "WorldTrace",
    "ProfileRow",
    "merge_line_profiles",
    "render_ranked_profile",
    "render_source_profile",
    "canonical_events",
    "chrome_trace",
    "pass_report",
    "write_chrome_trace",
]
