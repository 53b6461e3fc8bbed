"""The workload process: one fresh interpreter per set-up or measurement.

``run.py`` starts it as ``python3 hostbench/worker.py '<json spec>'`` with
a hermetic environment and reads the JSON it writes to ``spec["out"]``.

A measuring worker: imports, sets up (the moment set-up ends is stamped
in ``ready``), warms up, runs the timed phase, then — outside every
timing — checks each job against the interpreter oracle.  With
``trace`` true it installs the span wrappers of ``spans.py`` right after
the imports, so set-up, warm-up and the timed phase are all traced.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import repro.mpi
from repro.compiler import compile_source
from repro.mpi import MEIKO_CS2
from repro.mpi.executor import resolve_backend
from repro.native import get_engine
from repro.service.cache import (CompileCache, get_compile_cache,
                                 set_compile_cache)

import oracle
import workloads as W

_perf = time.perf_counter

#: rounds of cold compiles of the six programs in a run workload's
#: untraced timed phase: 120 samples, so p90 has twelve beyond it
COMPILE_PROBES = 20

#: Host-speed reference.  On a shared virtual machine the same job runs
#: up to 70% slower in one minute than in the next, because neighbours
#: load the hardware.  So the timed phase also runs ``reference_loop``,
#: fixed interpreter and numpy work that no change to the compiler can
#: alter, ``SPEED_SAMPLES`` times spread over the phase.  Every timing is
#: scaled by NOMINAL_LOOP_S ÷ (median of the ``SPEED_NEIGHBOURS`` loops
#: nearest to it in time): it reads as host seconds on a host where the
#: loop takes NOMINAL_LOOP_S.  The unscaled times are kept in the record.
SPEED_SAMPLES = 60
SPEED_NEIGHBOURS = 5
#: reference loops run right after set-up, to scale that process's
#: set-up time
SETUP_SPEED_LOOPS = 25
NOMINAL_LOOP_S = 0.004

#: native counters that mean "the numpy path ran instead"
_NATIVE_FALLBACKS = ("guard_fallbacks", "verify_rejects",
                     "unsupported_specs", "probe_rejects",
                     "signature_fallbacks", "compile_failures")


def reference_loop() -> float:
    """Host seconds of one fixed unit of interpreter and numpy work."""
    import numpy as np

    t0 = _perf()
    acc, table = 0, {}
    for i in range(20000):
        table[i & 255] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
    a = np.arange(4096.0)
    for _ in range(50):
        a = np.sqrt(a * a + 1.0)
    return _perf() - t0


class Client:
    """The single-threaded closed-loop client of one workload."""

    def __init__(self, spec: dict):
        self.root = spec["root"]
        self.workload = spec["workload"]
        self.seed = int(spec["seed"])
        self.seconds = float(spec["seconds"])
        self.tracer = None
        if spec.get("trace"):
            from spans import Tracer

            self.tracer = Tracer()
            self.tracer.install()
        if self.workload == "compile_stream":
            set_compile_cache(CompileCache(max_entries=W.STREAM_CACHE_ENTRIES))
        self.cache = get_compile_cache()
        self.engine = get_engine()
        self.cache0 = self.cache.stats()
        self.native0 = self.engine.stats.snapshot()
        if self.workload == "compile_stream":
            self.nprocs, self.machine, self.backend = 1, MEIKO_CS2, None
        else:
            nprocs, machine, backend = W.RUN_WORKLOADS[self.workload]
            self.nprocs, self.backend = nprocs, backend
            self.machine = getattr(repro.mpi, machine)
        self.requested = resolve_backend(self.backend)
        self.compile_samples: list[float] = []
        #: (start, seconds) of each timed compile sample
        self.compile_at: list[tuple[float, float]] = []
        #: (time, seconds of one reference loop) over the timed phase
        self.speed: list[tuple[float, float]] = []
        self.programs: dict = {}
        self.records: list[dict] = []
        #: ident -> the Job, for the oracle
        self.job_of: dict = {}
        #: ident -> exact counts of its first run
        self.exact: dict[str, dict] = {}
        self.job_index = 0

    # ------------------------------------------------------------- #
    # set-up
    # ------------------------------------------------------------- #

    def setup(self) -> None:
        if self.workload == "compile_stream":
            for job in W.warmup_jobs(self.root):
                program = compile_source(job.source, job.provider(),
                                         name=job.family)
                program.c_source
                program.run(nprocs=1, machine=MEIKO_CS2)
            return
        self.jobs = W.paper_programs(self.root)
        for key in W.PROGRAM_KEYS:
            outcome = self.cache.get_or_compile(self.jobs[key].source,
                                                name=key)
            outcome.program.c_source
            self.programs[key] = outcome.program
        for key in W.PROGRAM_KEYS:
            self.programs[key].run(nprocs=1, machine=self.machine,
                                   backend=self.backend)

    # ------------------------------------------------------------- #
    # jobs
    # ------------------------------------------------------------- #

    def _run(self, program):
        return program.run(nprocs=self.nprocs, machine=self.machine,
                           backend=self.backend)

    def run_job(self, job) -> dict:
        """Run one job; every failure is recorded, none propagates."""
        tracer = self.tracer
        provider = job.provider()
        self.job_of.setdefault(job.ident, job)
        rec = {"family": job.family, "ident": job.ident, "ok": False}
        if tracer is not None:
            tracer.job = f"job{self.job_index}"
            frame = tracer.begin("client.job", "job")
        t0 = rec["t"] = _perf()
        try:
            if self.workload == "compile_stream":
                outcome = self.cache.get_or_compile(
                    job.source, name=job.family, provider=provider)
                t1 = _perf()
                outcome.program.c_source
                result = self._run(outcome.program)
                rec["hit"] = outcome.hit
                if not outcome.hit and not outcome.shared:
                    rec["compile_s"] = t1 - t0
                program = outcome.program
            else:
                program = self.programs[job.family]
                result = self._run(program)
            rec["job_s"] = _perf() - t0
        except Exception as exc:  # noqa: BLE001 - a failed job is data
            rec["job_s"] = _perf() - t0
            rec["error"] = f"{type(exc).__name__}: {exc}".splitlines()[0]
            return rec
        finally:
            if tracer is not None:
                tracer.end(frame)
            rec["index"] = self.job_index
            self.job_index += 1
        spmd = result.spmd
        rec["backend"] = spmd.backend
        rec["native"] = result.native["mode"] if result.native else "off"
        rec["numbers"] = oracle.printed_numbers(result.output)
        rec["scalars"] = oracle.scalars(result.workspace)
        rec["counts"] = {"messages": int(spmd.messages_sent),
                         "bytes": int(spmd.bytes_sent),
                         "collectives": int(spmd.collectives),
                         "vclock_s": float(result.elapsed),
                         "backend": spmd.backend}
        if job.ident not in self.exact:
            self.exact[job.ident] = dict(
                rec["counts"],
                peak_local_bytes=int(max(result.peak_local_bytes or [0])),
                peephole_fused=program.peephole_stats.transpose_fused,
                licm_hoisted=program.licm_stats.hoisted,
                py_bytes=len(program.python_source),
                c_bytes=len(program.c_source))
        return rec

    def warmup(self) -> None:
        """One untimed round at the workload's configuration; its exact
        counts are the baseline every timed job must repeat."""
        if self.workload == "compile_stream":
            return
        for key in W.PROGRAM_KEYS:
            self.run_job(self.jobs[key])

    def sample_speed(self, start: float) -> None:
        """Run the reference loop when its next slot in the phase is due."""
        if _perf() - start >= len(self.speed) * self.seconds / SPEED_SAMPLES:
            self.speed.append((_perf(), reference_loop()))

    def timed_phase(self) -> float:
        start = _perf()
        if self.workload == "compile_stream":
            jobs = W.stream(self.root, self.seed)
            while (len(self.records) < W.EXACT_PREFIX
                   or _perf() - start < self.seconds):
                self.sample_speed(start)
                self.records.append(self.run_job(next(jobs)))
            return _perf() - start
        # run workloads compile nothing in their jobs; an untraced run
        # takes its compile samples between jobs, spread over the phase
        probes = 0 if self.tracer is None else COMPILE_PROBES
        for order in W.run_order(self.seed):
            for key in order:
                if (probes < COMPILE_PROBES and _perf() - start
                        >= probes * self.seconds / COMPILE_PROBES):
                    self.compile_probe()
                    probes += 1
                self.sample_speed(start)
                self.records.append(self.run_job(self.jobs[key]))
            if _perf() - start >= self.seconds:
                break
        for _ in range(probes, COMPILE_PROBES):
            self.compile_probe()
        return _perf() - start

    def compile_probe(self) -> None:
        """Cold compiles of the six programs, each on a fresh in-memory
        cache."""
        for key in W.PROGRAM_KEYS:
            cache = CompileCache(disk_root=False)
            t0 = _perf()
            cache.get_or_compile(self.jobs[key].source, name=key)
            self.compile_at.append((t0, _perf() - t0))

    # ------------------------------------------------------------- #
    # checking and read-out
    # ------------------------------------------------------------- #

    def exact_idents(self) -> list[str]:
        """The programs whose exact counts are reported: the six, or the
        distinct sources of compile_stream's first jobs."""
        prefix = self.records[:W.EXACT_PREFIX] \
            if self.workload == "compile_stream" else self.records
        return [i for i in dict.fromkeys(r["ident"] for r in prefix)
                if i in self.exact]

    def check(self) -> None:
        """Mark each record ok or failed, outside every timing."""
        refs: dict = {}
        for rec in self.records:
            if "error" in rec:
                continue
            ident = rec["ident"]
            if ident not in refs:
                refs[ident] = oracle.reference(self.job_of[ident])
            why = oracle.mismatch(rec.pop("numbers"), rec.pop("scalars"),
                                  refs[ident])
            first = {k: self.exact[ident][k] for k in rec["counts"]}
            if why is None and rec["counts"] != first:
                why = f"exact counts drifted: {rec['counts']} != {first}"
            if why is None:
                rec["ok"] = True
            else:
                rec["error"] = why

    def scale(self, t: float) -> float:
        """NOMINAL_LOOP_S ÷ the median of the reference loops nearest to
        time ``t``."""
        times = [x for x, _ in self.speed]
        i = bisect.bisect_left(times, t) - SPEED_NEIGHBOURS // 2
        i = max(0, min(i, len(self.speed) - SPEED_NEIGHBOURS))
        near = [v for _, v in self.speed[i:i + SPEED_NEIGHBOURS]]
        return NOMINAL_LOOP_S / statistics.median(near)

    def apply_speed_scale(self) -> None:
        """Scale every timed job and compile sample; keep the raw times."""
        for rec in self.records:
            factor = self.scale(rec["t"])
            rec["job_s_raw"] = rec["job_s"]
            rec["job_s"] *= factor
            if "compile_s" in rec:
                rec["compile_s"] *= factor
        self.compile_samples = [dt * self.scale(t)
                                for t, dt in self.compile_at]

    def end_to_end(self) -> dict:
        """Throughput counts only the jobs' own host time, so the client's
        probes between jobs do not dilute it."""
        ok = [r for r in self.records if r["ok"]]
        medians = program_medians(ok, split_hits=True)
        busy = sum(r["job_s"] for r in self.records)
        return {
            "jobs_per_s": len(ok) / busy,
            "job_s_geomean": math.exp(statistics.fmean(
                math.log(medians[k]) for k in medians)) if medians else 0.0,
        }

    def snapshot(self) -> dict:
        """The traced window's spans and counters, taken as the timed
        phase ends."""
        native = self.engine.stats.snapshot()
        cache = self.cache.stats()
        return {"spans": self.tracer.totals(),
                "jobs": self.tracer.job_totals(),
                "native": {k: native[k] - self.native0[k] for k in native},
                "hits": cache["hits"] - self.cache0["hits"],
                "misses": cache["misses"] - self.cache0["misses"]}

    def per_layer(self, snap: dict, medians: dict) -> dict:
        tot = snap["spans"]

        def self_s(name):
            return tot.get(name, [0.0] * 5)[0]

        def count(name):
            return tot.get(name, [0] * 5)[4]

        hits, misses, native = snap["hits"], snap["misses"], snap["native"]
        comm = tot.get("mpi.comm", [0.0] * 5)
        exact = [self.exact[i] for i in self.exact_idents()]

        def total(key):
            return sum(e[key] for e in exact)

        m = {
            "service.lookups": hits + misses,
            "service.hits": hits,
            "service.misses": misses,
            "service.hit_ratio": hits / max(hits + misses, 1),
            "service.lookup_s": self_s("service.lookup"),
            "frontend.parse_s": self_s("frontend.parse"),
            "analysis.resolve_s": self_s("analysis.resolve"),
            "analysis.infer_s": self_s("analysis.infer"),
            "ir.lower_s": self_s("ir.lower"),
            "ir.guard_s": self_s("ir.guard"),
            "ir.peephole_s": self_s("ir.peephole"),
            "ir.licm_s": self_s("ir.licm"),
            "ir.peephole_fused": total("peephole_fused"),
            "ir.licm_hoisted": total("licm_hoisted"),
            "codegen.emit_py_s": self_s("codegen.emit_py"),
            "codegen.emit_c_s": self_s("codegen.emit_c"),
            "codegen.py_bytes": total("py_bytes"),
            "codegen.c_bytes": total("c_bytes"),
            "codegen.program_self_s": self_s("codegen.program"),
        }
        from spans import RUNTIME_FAMILIES

        for family in RUNTIME_FAMILIES:
            m[f"runtime.{family}_s"] = self_s(f"runtime.{family}")
            m[f"runtime.{family}_calls"] = count(f"runtime.{family}")
        m["runtime.peak_local_bytes"] = max(e["peak_local_bytes"]
                                            for e in exact)
        m.update({
            "native.call_s": self_s("native.call"),
            "native.compile_s": self_s("native.compile"),
            "native.calls": native["native_calls"],
            "native.compiles": native["compiles"],
            "native.fallbacks": sum(native[k] for k in _NATIVE_FALLBACKS),
            "native.engaged_ratio": native["native_calls"]
            / max(count("runtime.ew"), 1),
            "mpi.comm_s": comm[1],
            "mpi.comm_calls": comm[4],
            "mpi.sched_wait_s": comm[0] - comm[1],
            "mpi.executor_s": self_s("mpi.executor"),
            "mpi.messages": total("messages"),
            "mpi.bytes": total("bytes"),
            "mpi.collectives": total("collectives"),
            # fsum: the sum must not depend on the seeded program order
            "mpi.vclock_s": math.fsum(e["vclock_s"] for e in exact),
            "mpi.fused_fallbacks": sum(e["backend"] != self.requested
                                       for e in exact),
        })
        for key in W.PROGRAM_KEYS:
            m[f"programs.{key}_s"] = medians.get(key, 0.0)
        return m

    def cold_job_shares(self, snap: dict) -> dict:
        """compile_stream: share of cold (cache-miss) job time spent in
        each layer's self time — the front end should dominate."""
        jobs = snap["jobs"]
        layer_s: dict[str, float] = {}
        total = 0.0
        for rec in self.records:
            if "compile_s" not in rec:
                continue
            total += rec["job_s"]
            for name, (self_w, _c) in jobs.get(
                    f"job{rec['index']}", {}).items():
                layer = name.split(".")[0]
                layer_s[layer] = layer_s.get(layer, 0.0) + self_w
        return {k: v / total for k, v in sorted(layer_s.items())} \
            if total else {}

    def chrome_trace(self, path: str) -> None:
        """Host spans, plus the virtual-clock trace of one more run of
        the last program, in one Chrome trace_event file."""
        from repro.trace.export import chrome_trace

        last = self.records[-1]
        if self.workload == "compile_stream":
            job = self.job_of[last["ident"]]
            program = compile_source(job.source, job.provider(),
                                     name=job.family)
        else:
            program = self.programs[last["family"]]
        result = program.run(nprocs=min(self.nprocs, 16),
                             machine=self.machine, backend=self.backend,
                             trace=True)
        doc = chrome_trace(result.trace)
        doc["traceEvents"].extend(self.tracer.chrome())
        doc["otherData"] = {"workload": self.workload, "seed": self.seed,
                            "virtual_program": last["ident"],
                            "dropped_host_spans": self.tracer.dropped}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def program_medians(records: list[dict], split_hits: bool = False
                    ) -> dict[str, float]:
    """Median job time of each of the six programs (compile_stream: each
    template; corpus jobs have no row).  ``split_hits`` keeps a
    template's cache hits and misses apart: their times differ several
    fold, and the median of the mixture would move with the seed's
    share of repeats."""
    times: dict[str, list] = {}
    for rec in records:
        if rec["family"] in W.PROGRAM_KEYS:
            key = rec["family"]
            if split_hits and "hit" in rec:
                key += ":hit" if rec["hit"] else ":miss"
            times.setdefault(key, []).append(rec["job_s"])
    return {k: statistics.median(v) for k, v in times.items()}


def fingerprint() -> dict:
    import platform

    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        cc = "unavailable"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "cc": cc}


def main(spec: dict) -> dict:
    client = Client(spec)
    client.setup()
    out = {"ready": time.time()}
    # set-up time is scaled by this process's own reference loops
    out["setup_scale"] = NOMINAL_LOOP_S / statistics.median(
        reference_loop() for _ in range(SETUP_SPEED_LOOPS))
    if spec.get("setup_only"):
        return out
    client.warmup()
    phase_s = client.timed_phase()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = client.tracer
    if tracer is not None:
        snap = client.snapshot()
        tracer.uninstall()
    client.apply_speed_scale()
    client.check()
    ok = [r for r in client.records if r["ok"]]
    if client.workload == "compile_stream":
        cold = [r for r in ok if "compile_s" in r]
        client.compile_samples = [r["compile_s"] for r in cold]
        # untraced evidence of what cold jobs spend in get_or_compile
        out["cold_compile_share"] = sum(client.compile_samples) \
            / max(sum(r["job_s"] for r in cold), 1e-12)
    medians = program_medians(ok)
    out.update(client.end_to_end())
    out.update({
        "phase_s": phase_s,
        "reference_loop_s": client.speed,
        "jobs_per_s_raw": sum(r["ok"] for r in client.records)
        / sum(r["job_s_raw"] for r in client.records),
        "peak_rss_mb": rss_mb,
        "compile_samples": client.compile_samples,
        "attempted": len(client.records),
        "failed": len(client.records) - len(ok),
        "medians": medians,
        "exact": {i: client.exact[i] for i in client.exact_idents()},
        "requested_backend": client.requested,
        "jobs": [{k: r.get(k) for k in ("family", "ident", "backend",
                                        "native", "t", "job_s",
                                        "job_s_raw", "ok", "error")}
                 for r in client.records],
        "fingerprint": fingerprint(),
    })
    if tracer is not None:
        out["per_layer"] = client.per_layer(snap, medians)
        out["cold_job_shares"] = client.cold_job_shares(snap)
        client.chrome_trace(spec["chrome"])
    return out


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
