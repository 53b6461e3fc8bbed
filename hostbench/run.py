"""Host-time benchmark of the Otter compiler: end to end and layer by layer.

Run from the repository root::

    python3 hostbench/run.py --workload meiko_p16 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split (see README.md beside this file).  Each workload runs in fresh
worker processes (``worker.py``), pinned to one CPU, with every
``REPRO_*`` variable cleared and the kernel and compile caches pointed at
new empty directories.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of a run (host fingerprint, configuration,
every job's backend and native mode, exact counts, failures) is written
to ``.hostbench/results/``; a traced run also writes a Chrome trace to
``.hostbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".hostbench")

WORKLOADS = ("compile_stream", "meiko_p1", "meiko_p16", "fattree_p1024")

#: set-ups measured in an untraced run; setup_s is their median
SETUP_RUNS = 3
#: the whole run, every worker included, must end within this
RUN_BUDGET_S = 170.0

#: the sources every workload is built from
REQUIRED = ("src/repro/__init__.py", "benchmarks/test_wallclock.py",
            "tests/test_differential_programs.py")

E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s_geomean": "s",
             "compile_s_p50": "s", "compile_s_p90": "s",
             "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A worker failed or the run is over budget: no result is printed."""


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def worker_env(tmp: str) -> dict:
    """The hermetic environment: no REPRO_* setting leaks in, both
    caches start empty, BLAS runs on one thread and hashing is fixed.
    Temporary files (the C compiler's too) stay inside ``tmp``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "TMPDIR": tmp,
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "REPRO_KERNEL_CACHE": os.path.join(tmp, "kernels"),
        "REPRO_COMPILE_CACHE": os.path.join(tmp, "compile"),
    })
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.spawned = 0
        #: every worker runs on this one CPU.  The vCPUs of a shared
        #: virtual machine can differ in speed by 15% or more; a worker
        #: left to the scheduler lands on either and the runs split into
        #: a fast and a slow group.
        self.cpu = max(os.sched_getaffinity(0))

    def spawn(self, **spec) -> dict:
        """Run one worker to completion; its set-up time is measured from
        the moment it is started."""
        self.spawned += 1
        tmp = os.path.join(WORK, "tmp", f"{os.getpid()}-{self.spawned}")
        os.makedirs(tmp)
        spec.update(root=ROOT, workload=self.args.workload,
                    seed=self.args.seed, seconds=self.args.seconds,
                    out=os.path.join(tmp, "result.json"))
        try:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("run budget exhausted")
            started = time.time()
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"),
                     json.dumps(spec)],
                    env=worker_env(tmp), cwd=ROOT, capture_output=True,
                    text=True, timeout=remaining,
                    preexec_fn=lambda: os.sched_setaffinity(0, {self.cpu}))
            except subprocess.TimeoutExpired as exc:
                raise BenchError("worker exceeded the run budget") from exc
            if proc.returncode != 0:
                raise BenchError(f"worker exited {proc.returncode}:\n"
                                 + proc.stderr[-4000:])
            with open(spec["out"], encoding="utf-8") as fh:
                result = json.load(fh)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        result["setup_s_raw"] = result["ready"] - started
        result["setup_s"] = result["setup_s_raw"] * result["setup_scale"]
        result["cpu"] = self.cpu
        return result

    def untraced(self) -> tuple[dict, dict]:
        workers = [self.spawn(setup_only=True)
                   for _ in range(SETUP_RUNS - 1)]
        main = self.spawn()
        workers.append(main)
        samples = main["compile_samples"]
        deciles = statistics.quantiles(samples, n=10, method="inclusive") \
            if len(samples) > 1 else samples * 9
        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "jobs_per_s": main["jobs_per_s"],
            "job_s_geomean": main["job_s_geomean"],
            "compile_s_p50": deciles[4],
            "compile_s_p90": deciles[8],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        main["setups_s"] = [w["setup_s"] for w in workers]
        main["setups_s_raw"] = [w["setup_s_raw"] for w in workers]
        main["compile_sample_count"] = len(samples)
        return metrics, main

    def traced(self) -> tuple[dict, dict]:
        plain = self.spawn()
        chrome = os.path.join(WORK, "traces",
                              f"{self.args.workload}.chrome.json")
        main = self.spawn(trace=True, chrome=chrome)
        metrics = dict(main["per_layer"])
        metrics["trace.overhead_ratio"] = main["jobs_per_s"] \
            / plain["jobs_per_s"]
        main["attempted"] += plain["attempted"]
        main["failed"] += plain["failed"]
        main["jobs"] += plain["jobs"]
        main["drift"] = {i: [plain["exact"][i], main["exact"][i]]
                         for i in plain["exact"].keys() & main["exact"]
                         if plain["exact"][i] != main["exact"][i]}
        main["chrome"] = os.path.relpath(chrome, ROOT)
        return metrics, main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"hostbench: not a checkout of the compiler (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    runner = Runner(args)
    try:
        metrics, detail = runner.traced() if args.trace \
            else runner.untraced()
    except BenchError as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = detail["attempted"], detail["failed"]
    drift = detail.get("drift") or {}
    correct = failed == 0 and not drift
    failures = [j for j in detail["jobs"] if not j["ok"]]
    detail.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  metrics=metrics, failures=failures[:20])
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    fp = detail["fingerprint"]
    print(f"hostbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host: nproc={fp['nproc']} cpu={fp['cpu']!r} "
          f"python={fp['python']} numpy={fp['numpy']} blas={fp['blas']!r} "
          f"cc={fp['cc']!r}")
    print(f"backend requested={detail['requested_backend']} ran="
          f"{sorted({j['backend'] for j in detail['jobs'] if j['backend']})}"
          f" native={sorted({j['native'] for j in detail['jobs'] if j['native']})}")
    for name, value in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} jobs)")
    for job in failures[:5]:
        print(f"FAILED {job['ident']}: {job['error']}")
    for ident, (a, b) in drift.items():
        print(f"DRIFT {ident}: exact counts {a} != {b}")
    print(f"details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
