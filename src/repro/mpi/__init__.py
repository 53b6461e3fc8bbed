"""Simulated MPI substrate: communicator, machine models, SPMD executor.

Real data exchange, virtual time — see :mod:`repro.mpi.comm` for the
design.  The public surface mirrors mpi4py's lowercase API.
"""

from .comm import (
    ANY_SOURCE,
    ANY_TAG,
    Comm,
    LAND,
    LOR,
    MAX,
    MIN,
    PROD,
    Request,
    Status,
    SUM,
    World,
)
from .datatypes import (
    BYTE,
    CHAR,
    DOUBLE,
    DOUBLE_COMPLEX,
    Datatype,
    FLOAT,
    INT,
    LONG,
    sizeof,
)
from ..errors import (
    FusionDivergence,
    MpiCorruptionError,
    MpiError,
    MpiRetryExhaustedError,
    MpiTimeoutError,
    RankCrashedError,
    SpmdWatchdogError,
)
from ..config import BACKENDS
from .executor import (
    FusedFallback,
    SpmdResult,
    resolve_backend,
    run_spmd,
)
from .faults import FaultPlan, FaultRule, load_plan
from .fused import FusedComm, PerRankScalar
from .recovery import (
    Checkpoint,
    CheckpointStore,
    ON_FAULT_POLICIES,
    RecoveryPolicy,
    RecoveryReport,
)
from .machine import (
    CpuModel,
    FATTREE_CLUSTER,
    GPU_CLUSTER,
    Link,
    MACHINES,
    MEIKO_CS2,
    MachineModel,
    SPARC20_CLUSTER,
    SUN_ENTERPRISE,
    get_machine,
)
from .scheduler import DeadlockError, LockstepScheduler

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "Comm", "World", "Request", "Status",
    "SUM", "PROD", "MAX", "MIN", "LAND", "LOR",
    "Datatype", "DOUBLE", "FLOAT", "INT", "LONG", "CHAR",
    "DOUBLE_COMPLEX", "BYTE", "sizeof",
    "SpmdResult", "FusedFallback", "run_spmd", "BACKENDS", "resolve_backend",
    "LockstepScheduler", "DeadlockError", "MpiError",
    "FusedComm", "PerRankScalar", "FusionDivergence",
    "FaultPlan", "FaultRule", "load_plan",
    "MpiTimeoutError", "SpmdWatchdogError", "MpiCorruptionError",
    "RankCrashedError", "MpiRetryExhaustedError",
    "RecoveryPolicy", "RecoveryReport", "Checkpoint", "CheckpointStore",
    "ON_FAULT_POLICIES",
    "CpuModel", "Link", "MachineModel", "MACHINES",
    "MEIKO_CS2", "SUN_ENTERPRISE", "SPARC20_CLUSTER",
    "FATTREE_CLUSTER", "GPU_CLUSTER", "get_machine",
]

from .machine import WORKSTATION_MEMORY  # noqa: E402

__all__.append("WORKSTATION_MEMORY")
