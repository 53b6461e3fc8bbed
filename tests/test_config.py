"""The one run-configuration rule: args > env > defaults, resolved only in
:mod:`repro.config`.

``test_precedence`` is the table of every field under an explicit
argument, its environment variable, its default, and a bad environment
value.  ``test_only_config_reads_run_env_vars`` is the structural gate
that keeps the nine per-run variables out of every other module.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.config import DEFAULT_TUNE_BUDGET, ENV_VARS, RunConfig
from repro.errors import MpiError
from repro.mpi.executor import resolve_backend

PLAN = "seed=7; drop src=0 count=1"
PLAN_TEXT = "seed=7; drop rank=0 count=1"

# (field, env value, argument, expected as_meta() value or exception)
ROWS = [
    ("backend", None, None, "fused"),
    ("backend", "lockstep", None, "lockstep"),
    ("backend", "lockstep", "fused", "fused"),
    ("backend", "fibers", None, (MpiError, "unknown SPMD backend")),
    ("backend", "threads", None, (MpiError, "unknown SPMD backend")),
    ("backend", None, "threads", (MpiError, "unknown SPMD backend")),
    ("fault_plan", None, None, None),
    ("fault_plan", PLAN, None, PLAN_TEXT),
    ("fault_plan", "seed=1", PLAN, PLAN_TEXT),
    ("fault_plan", PLAN, "", None),
    ("fault_plan", "explode rank=0", None, (MpiError, "explode")),
    ("watchdog", None, None, None),
    ("watchdog", "2.5", None, 2.5),
    ("watchdog", "2.5", 0.5, 0.5),
    ("watchdog", "not-a-number", None, (MpiError, "number of seconds")),
    ("watchdog", "-3", None, (MpiError, "positive")),
    ("trace", None, None, False),
    ("trace", None, True, True),
    ("trace", "1", None, "1"),
    ("trace", "1", False, False),
    ("trace", "0", None, False),
    ("trace", "summary", None, "summary"),
    ("tune", None, None, None),
    ("tune", None, True, DEFAULT_TUNE_BUDGET),
    ("tune", "5", None, 5),
    ("tune", "5", 8, 8),
    ("tune", "5", False, None),
    ("tune", "0", None, None),
    ("tune", "yes", None, DEFAULT_TUNE_BUDGET),
    ("on_fault", None, None, "abort"),
    ("on_fault", "restart", None, "restart"),
    ("on_fault", "degrade", "retry", "retry"),
    ("on_fault", "panic", None, (MpiError, "unknown on_fault.*abort")),
    ("max_restarts", None, None, 2),
    ("max_restarts", "5", None, 5),
    ("max_restarts", "7", 1, 1),
    ("max_restarts", "many", None, (MpiError, "must be an integer")),
    ("max_restarts", "-1", None, (MpiError, "max_restarts")),
    ("checkpoint_every", None, None, None),
    ("checkpoint_every", "3", None, 3),
    ("checkpoint_every", "9", 2, 2),
    ("checkpoint_every", "often", None, (MpiError, "must be an integer")),
    ("checkpoint_every", "0", None, (MpiError, "checkpoint_every")),
    ("native", None, None, "auto"),
    ("native", "off", None, "off"),
    ("native", "require", "off", "off"),
    ("native", "fast", None, (ValueError, "native mode")),
    ("native", None, "fast", (ValueError, "native mode")),
]


@pytest.fixture
def clean_env(monkeypatch):
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


@pytest.mark.parametrize("field,env,arg,expected", ROWS)
def test_precedence(clean_env, field, env, arg, expected):
    if env is not None:
        clean_env.setenv(ENV_VARS[field], env)
    overrides = {} if arg is None else {field: arg}
    if isinstance(expected, tuple):
        error, match = expected
        with pytest.raises(error, match=match):
            RunConfig.resolve(**overrides)
        return
    assert RunConfig.resolve(**overrides).as_meta()[field] == expected


def test_every_field_has_rows():
    assert {row[0] for row in ROWS} == set(ENV_VARS)
    assert set(ENV_VARS) == set(RunConfig.__dataclass_fields__)


def test_resolved_config_never_rereads_the_environment(clean_env):
    config = RunConfig.resolve()
    clean_env.setenv(ENV_VARS["backend"], "lockstep")
    clean_env.setenv(ENV_VARS["trace"], "1")
    assert RunConfig.resolve(config) is config
    assert RunConfig.resolve(config, native="off") == \
        RunConfig(native="off")


def test_unknown_override_is_rejected(clean_env):
    with pytest.raises(TypeError):
        RunConfig.resolve(backnd="fused")


def test_recovery_policy_follows_the_config(clean_env):
    policy = RunConfig.resolve().recovery
    assert policy.on_fault == "abort"
    assert not policy.active
    assert not policy.restarts_enabled and not policy.degrade
    clean_env.setenv(ENV_VARS["on_fault"], "restart")
    clean_env.setenv(ENV_VARS["max_restarts"], "5")
    clean_env.setenv(ENV_VARS["checkpoint_every"], "3")
    policy = RunConfig.resolve().recovery
    assert (policy.on_fault, policy.max_restarts,
            policy.checkpoint_every) == ("restart", 5, 3)
    assert policy.active and policy.restarts_enabled


def test_resolve_backend_delegates(clean_env):
    assert resolve_backend() == "fused"
    clean_env.setenv(ENV_VARS["backend"], "lockstep")
    assert resolve_backend() == "lockstep"
    assert resolve_backend("fused") == "fused"


def test_run_spmd_passes_unused_fields_to_fn(clean_env):
    from repro.mpi import MEIKO_CS2, run_spmd

    spmd = run_spmd(2, MEIKO_CS2, lambda comm, **kw: kw, tune=True,
                    native="off", trace=True)
    assert spmd.results[0] == {"tune": True, "native": "off"}
    assert spmd.trace is not None


# ---------------------------------------------------------------------- #
# structural gate
# ---------------------------------------------------------------------- #

SRC = Path(repro.__file__).parent


def _run_env_reads(source: str) -> list[str]:
    """Places in ``source`` that name a per-run variable or the
    :data:`ENV_VARS` table (the only ways to read one)."""
    names = set(ENV_VARS.values())
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value in names:
            found.append(f"line {node.lineno}: {node.value}")
        elif (isinstance(node, ast.Name) and node.id == "ENV_VARS") or \
                (isinstance(node, ast.Attribute) and node.attr == "ENV_VARS"):
            found.append(f"line {node.lineno}: ENV_VARS")
    return found


def test_gate_flags_a_direct_read():
    assert _run_env_reads('import os\nos.environ.get("REPRO_TRACE")\n')
    assert _run_env_reads("from repro import config\n"
                          "os.getenv(config.ENV_VARS['trace'])\n")
    assert not _run_env_reads('os.environ.get("REPRO_NATIVE_CC")\n')


def test_only_config_reads_run_env_vars():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "config.py":
            continue
        hits = _run_env_reads(path.read_text(encoding="utf-8"))
        if hits:
            offenders[str(path.relative_to(SRC))] = hits
    assert offenders == {}
