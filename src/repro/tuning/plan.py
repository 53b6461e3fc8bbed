"""Optimization plans: every compiler/runtime knob as one value object.

A :class:`Plan` bundles the choices the paper's compiler hard-codes —
row-block distribution, one peephole fusion order, one LICM policy,
owner-computes guards — plus the collective-algorithm selection of the
machine model, into a single frozen, hashable description.  The default
plan reproduces the shipped compiler's behavior bit-for-bit (the golden
traces pin this); the autotuner searches the neighborhood.

Knob reference:

``scheme``
    Default data distribution for created arrays (``block`` | ``cyclic``).
``dist``
    Per-array overrides, a sorted tuple of ``(name, scheme)`` pairs;
    arrays created under a name listed here get that scheme instead of
    the default.  Derived arrays inherit the scheme of their template
    operand; the runtime realigns mixed-scheme operands (at an honest
    allgather cost) so every plan is *correct*, merely not always fast.
``fusion``
    Peephole rewrite schedule for pass 6, an ordered subset of
    ``("transpose_matmul", "cse")``.  Empty tuple disables pass 6.
``licm``
    Pass 6b policy: ``off`` | ``safe`` (only always-safe ops) |
    ``aggressive`` (speculative hoisting, the shipped default).
``guard``
    Guarded-assignment placement: ``owner`` (pass 5 owner-computes
    SetElement, the shipped default) | ``replicated`` (skip pass 5;
    element stores go through the gather-based replicated path).
``ew_split``
    When True, pass 4's fused elementwise trees are split back into
    single-operator statements (the pre-fusion compiler) — an ablation
    axis the tuner can measure but should never pick.
``gather_algo`` / ``allreduce_algo``
    Collective algorithms on the machine model (see
    :class:`repro.mpi.machine.MachineModel`).
``hierarchy``
    Collective topology strategy on the machine model: ``auto`` (the
    default: two-level MagPIe-style collectives whenever the world
    spans nodes) | ``flat`` (topology-oblivious single-level
    collectives over the inter-node link).  Only meaningful on
    hierarchical machines; the axis is offered only when the probe
    world actually spans nodes.
``cache_gathers``
    Reuse gathered replicas of unmodified distributed values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

SCHEMES = ("block", "cyclic")
FUSION_REWRITES = ("transpose_matmul", "cse")
LICM_POLICIES = ("off", "safe", "aggressive")
GUARD_PLACEMENTS = ("owner", "replicated")
GATHER_ALGOS = ("ring", "doubling")
ALLREDUCE_ALGOS = ("tree", "halving")
HIERARCHIES = ("auto", "flat")


@dataclass(frozen=True)
class Plan:
    """One point in the optimization-plan space (hashable, canonical)."""

    scheme: str = "block"
    dist: tuple[tuple[str, str], ...] = ()
    fusion: tuple[str, ...] = FUSION_REWRITES
    licm: str = "aggressive"
    guard: str = "owner"
    ew_split: bool = False
    gather_algo: str = "ring"
    allreduce_algo: str = "tree"
    hierarchy: str = "auto"
    cache_gathers: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES} "
                             f"(got {self.scheme!r})")
        object.__setattr__(self, "dist",
                           tuple(sorted(tuple(pair) for pair in self.dist)))
        for name, scheme in self.dist:
            if scheme not in SCHEMES:
                raise ValueError(f"dist[{name!r}] must be one of {SCHEMES} "
                                 f"(got {scheme!r})")
        object.__setattr__(self, "fusion", tuple(self.fusion))
        seen = set()
        for rewrite in self.fusion:
            if rewrite not in FUSION_REWRITES:
                raise ValueError(f"unknown fusion rewrite {rewrite!r}; "
                                 f"choose from {FUSION_REWRITES}")
            if rewrite in seen:
                raise ValueError(f"duplicate fusion rewrite {rewrite!r}")
            seen.add(rewrite)
        if self.licm not in LICM_POLICIES:
            raise ValueError(f"licm must be one of {LICM_POLICIES} "
                             f"(got {self.licm!r})")
        if self.guard not in GUARD_PLACEMENTS:
            raise ValueError(f"guard must be one of {GUARD_PLACEMENTS} "
                             f"(got {self.guard!r})")
        if self.gather_algo not in GATHER_ALGOS:
            raise ValueError(f"gather_algo must be one of {GATHER_ALGOS} "
                             f"(got {self.gather_algo!r})")
        if self.allreduce_algo not in ALLREDUCE_ALGOS:
            raise ValueError(f"allreduce_algo must be one of "
                             f"{ALLREDUCE_ALGOS} (got {self.allreduce_algo!r})")
        if self.hierarchy not in HIERARCHIES:
            raise ValueError(f"hierarchy must be one of {HIERARCHIES} "
                             f"(got {self.hierarchy!r})")

    # -- identity -------------------------------------------------------- #

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def key(self) -> str:
        """Content hash of the full plan (candidate-evaluation memo key)."""
        blob = json.dumps(self.as_dict(), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def short_key(self) -> str:
        return self.key()[:12]

    def compile_key(self) -> tuple:
        """The compile-affecting projection: two plans sharing this key
        lower to byte-identical Python (runtime knobs differ only at
        ``run`` time), so the compile memo can share the module."""
        return (self.fusion, self.licm, self.guard, self.ew_split)

    # -- application ----------------------------------------------------- #

    def apply_machine(self, machine):
        """Machine model with this plan's collective algorithms and
        topology strategy."""
        if (machine.gather_algo == self.gather_algo
                and machine.allreduce_algo == self.allreduce_algo
                and machine.collective_hierarchy == self.hierarchy):
            return machine
        return dataclasses.replace(
            machine,
            gather_algo=self.gather_algo,
            allreduce_algo=self.allreduce_algo,
            collective_hierarchy=self.hierarchy)

    # -- rendering ------------------------------------------------------- #

    def summary(self) -> str:
        """Compact diff against :data:`DEFAULT_PLAN` (``"default"`` if
        nothing differs)."""
        deltas = []
        for field in dataclasses.fields(self):
            mine = getattr(self, field.name)
            base = getattr(DEFAULT_PLAN, field.name)
            if mine == base:
                continue
            if field.name == "dist":
                rendered = ",".join(f"{n}:{s}" for n, s in mine)
            elif field.name == "fusion":
                rendered = "+".join(mine) or "none"
            else:
                rendered = str(mine)
            deltas.append(f"{field.name}={rendered}")
        return " ".join(deltas) if deltas else "default"

    def describe(self) -> str:
        """Full multi-line rendering (the ``--explain-plan`` body)."""
        lines = [f"plan {self.short_key()}:"]
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "dist":
                value = ", ".join(f"{n}:{s}" for n, s in value) or "(none)"
            elif field.name == "fusion":
                value = " -> ".join(value) or "(disabled)"
            lines.append(f"  {field.name:<15s} {value}")
        return "\n".join(lines)


DEFAULT_PLAN = Plan()
