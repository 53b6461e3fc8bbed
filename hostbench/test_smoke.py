"""Smoke test of the benchmark itself, at minimal length.

    python3 -m pytest hostbench/test_smoke.py -q

It is not part of the tier-1 suite (``testpaths`` names only ``tests``).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(workload, seed=1, trace=0, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    result, lines = bench(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and
                   line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("failed_frac = 0 ratio") for line in lines)


def test_second_seed_gives_the_same_metric_set():
    first, _ = bench("compile_stream", seed=1)
    second, _ = bench("compile_stream", seed=2)
    assert set(first["metrics"]) == set(second["metrics"])
    assert second["correct"] and second["failed"] == 0


@pytest.fixture
def hermetic(tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    return {"root": ROOT, "seed": 3, "seconds": 0.01,
            "chrome": str(tmp_path / "trace.json")}


def test_corrupted_reference_fails_jobs(hermetic, monkeypatch):
    real = oracle.reference

    def corrupted(job):
        numbers, values = real(job)
        return [x + 1.0 for x in numbers], values

    monkeypatch.setattr(oracle, "reference", corrupted)
    out = worker.main(dict(hermetic, workload="meiko_p1"))
    assert out["attempted"] >= 6
    assert out["failed"] / out["attempted"] > 0


def test_self_times_are_nonnegative_and_nest_in_the_job():
    spec = {"root": ROOT, "seed": 3, "seconds": 0.01, "trace": True,
            "workload": "meiko_p16"}
    client = worker.Client(spec)
    try:
        client.setup()
        client.warmup()
        client.timed_phase()
        snap = client.snapshot()
    finally:
        client.tracer.uninstall()
    for name, (self_w, self_c, wall, cpu, count) in snap["spans"].items():
        assert self_w >= 0 and self_c >= 0, name
        assert self_w <= wall + 1e-9 and count > 0, name
    for rec in client.records:
        spans = snap["jobs"][f"job{rec['index']}"]
        # a parked lockstep rank waits inside an mpi span on its own
        # thread while other ranks run, so mpi spans count CPU time here
        busy = sum(cpu if name.startswith("mpi.comm") else wall
                   for name, (wall, cpu) in spans.items())
        assert 0 < busy <= rec["job_s"] * 1.01 + 1e-3, (rec["ident"], spans)
        assert "mpi.comm" in spans and "codegen.program" in spans
