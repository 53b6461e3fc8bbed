"""Reference outputs from the interpreter, and the correctness rule.

References come from ``repro.interp`` only, never from the compiler
under test.  A job is correct when its printed numbers match the
reference's by the ``BenchHarness._check_output`` rule (same count,
``np.allclose`` with rtol 1e-5, atol 1e-8) and every scalar variable of
the reference workspace matches by the same rule.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

RTOL, ATOL = 1e-5, 1e-8

_NUMBER = re.compile(r"[-+]?\d+\.?\d*(?:[eE][-+]?\d+)?")


def printed_numbers(text: str) -> list[float]:
    return [float(token) for token in _NUMBER.findall(text)]


def scalars(workspace: dict) -> dict:
    """The workspace's one-element numeric values, as Python complex."""
    out = {}
    for name, value in workspace.items():
        if isinstance(value, str):
            continue
        arr = np.asarray(value)
        if arr.size == 1 and arr.dtype.kind in "biufc":
            out[name] = complex(arr.reshape(-1)[0])
    return out


def reference(job) -> tuple[list[float], dict]:
    """(printed numbers, scalar workspace) of ``job`` under the
    interpreter."""
    from repro.interp import run_source

    interp = run_source(job.source, provider=job.provider())
    return printed_numbers("".join(interp.output)), scalars(interp.workspace)


def mismatch(numbers: list[float], values: dict,
             ref: tuple[list[float], dict]) -> Optional[str]:
    """``None`` when a job's output agrees with ``ref``, else why not."""
    want_numbers, want_values = ref
    if len(numbers) != len(want_numbers) or not np.allclose(
            numbers, want_numbers, rtol=RTOL, atol=ATOL):
        return f"printed {numbers} != oracle {want_numbers}"
    for name, want in want_values.items():
        got = values.get(name)
        if got is None or not np.allclose(got, want, rtol=RTOL, atol=ATOL):
            return f"{name} = {got} != oracle {want}"
    return None
