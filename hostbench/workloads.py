"""Workload definitions: the programs each workload runs and the seeded
job sequence that drives them.

Every source comes from the repository itself (``repro.bench.workloads``,
the heat stencil of ``benchmarks/test_wallclock.py`` and the differential
corpus of ``tests/test_differential_programs.py``); the last two are read
with :mod:`ast` so that importing them runs no test code.
"""

from __future__ import annotations

import ast
import os
import random
from dataclasses import dataclass
from typing import Iterator, Optional

#: the six programs of the run workloads: the paper's four applications,
#: the heat stencil and the MatlabMPI image-filter family
PROGRAM_KEYS = ("cg", "ocean", "nbody", "closure", "heat", "image_filter")

RUN_WORKLOADS = {
    # name: (nprocs, machine attribute of repro.mpi, requested backend)
    "meiko_p1": (1, "MEIKO_CS2", None),
    "meiko_p16": (16, "MEIKO_CS2", None),
    "fattree_p1024": (1024, "FATTREE_CLUSTER", "fused"),
}

#: compile_stream's shared compile cache holds this many programs.  The
#: cache also keeps up to four times as many compiled programs in its
#: compile-projection memo, which therefore fills within the first few
#: seconds of every run: memory then measures the steady state and does
#: not grow with the number of jobs a run completes.
STREAM_CACHE_ENTRIES = 64
#: share of draws that repeat a recent source, and how far back a repeat
#: reaches (inside the LRU, so a repeat is a memory-tier hit)
REPEAT_SHARE = 1 / 3
REPEAT_WINDOW = 32
#: compile_stream always runs at least this many jobs; its exact counts
#: are taken over the distinct sources among them
EXACT_PREFIX = 24


@dataclass(frozen=True)
class Job:
    """One program to compile and/or run.  ``family`` groups jobs whose
    per-program median is reported (a template name, or ``corpus``);
    ``ident`` names the exact source."""

    family: str
    ident: str
    source: str
    mfiles: Optional[tuple] = None     # ((name, source), ...) M-files

    def provider(self):
        if self.mfiles is None:
            return None
        from repro.frontend.mfile import DictProvider

        return DictProvider(dict(self.mfiles))


def _literal(path: str, name: str):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {path}")


def heat_source(root: str) -> str:
    return _literal(os.path.join(root, "benchmarks", "test_wallclock.py"),
                    "HEAT_SOURCE")


def corpus(root: str) -> list[Job]:
    """The differential corpus, in a fixed order."""
    path = os.path.join(root, "tests", "test_differential_programs.py")
    jobs = [Job("corpus", f"corpus:{key}", src)
            for key, src in sorted(_literal(path, "PROGRAMS").items())]
    for key, (src, mfiles) in sorted(_literal(path,
                                              "MFILE_PROGRAMS").items()):
        jobs.append(Job("corpus", f"corpus:{key}", src,
                        tuple(sorted(mfiles.items()))))
    return jobs


def paper_programs(root: str) -> dict[str, Job]:
    """The six run-workload programs at the sizes the paper used."""
    from repro.bench.workloads import image_filter, make_workload

    sources = {key: make_workload(key, "paper").source
               for key in ("cg", "ocean", "nbody", "closure")}
    sources["heat"] = heat_source(root)
    sources["image_filter"] = image_filter().source
    return {key: Job(key, key, sources[key]) for key in PROGRAM_KEYS}


def run_order(seed: int) -> Iterator[list[str]]:
    """Seeded round-robin: every round runs each program once, in a
    fresh seeded order."""
    rng = random.Random(seed)
    while True:
        keys = list(PROGRAM_KEYS)
        rng.shuffle(keys)
        yield keys


# -------------------------------------------------------------------- #
# compile_stream
# -------------------------------------------------------------------- #

def template_job(family: str, rng: random.Random, heat: str) -> Job:
    """One of the six templates at a tiny, seed-drawn size.

    Only values the emitted code holds in variables are drawn: a literal
    inside an elementwise chain would change the native kernel's spec
    and put a C compile into the job."""
    from repro.bench import workloads as W

    if family == "cg":
        n, iters = rng.randint(16, 96), rng.randint(3, 6)
        source = W.conjugate_gradient(n, iters).source
        ident = f"cg:{n}:{iters}"
    elif family == "ocean":
        nt, nz, nf = rng.randint(16, 64), rng.randint(8, 24), rng.randint(1, 3)
        source = W.ocean_engineering(nt, nz, nf).source
        ident = f"ocean:{nt}:{nz}:{nf}"
    elif family == "nbody":
        n, steps = rng.randint(50, 400), rng.randint(2, 6)
        source = W.nbody(n, steps).source
        ident = f"nbody:{n}:{steps}"
    elif family == "closure":
        n = rng.randint(16, 64)
        source = W.transitive_closure(n).source
        ident = f"closure:{n}"
    elif family == "heat":
        n, steps = rng.randint(64, 512), rng.randint(5, 30)
        alpha = rng.choice((0.1, 0.15, 0.2, 0.25, 0.3))
        source = (heat.replace("n = 4000;", f"n = {n};")
                  .replace("steps = 150;", f"steps = {steps};")
                  .replace("alpha = 0.2;", f"alpha = {alpha};"))
        ident = f"heat:{n}:{steps}:{alpha}"
    elif family == "image_filter":
        n, steps = rng.randint(16, 48), rng.randint(1, 4)
        tau = rng.choice((0.05, 0.08, 0.1))
        source = W.image_filter(n, steps).source.replace(
            "tau = 0.08;", f"tau = {tau};")
        ident = f"image_filter:{n}:{steps}:{tau}"
    else:
        raise KeyError(family)
    return Job(family, ident, source)


def warmup_jobs(root: str) -> list[Job]:
    """compile_stream's set-up programs: each template once at a fixed
    tiny size, and the corpus.  Running them builds every native kernel
    the stream will need, so timed jobs pay no C compiles."""
    rng, heat = random.Random(0), heat_source(root)
    return [template_job(key, rng, heat) for key in PROGRAM_KEYS] \
        + corpus(root)


def stream(root: str, seed: int) -> Iterator[Job]:
    """compile_stream's seeded job sequence (endless).

    A fresh draw picks uniformly among the six templates and the corpus
    programs not drawn yet; about a third of draws instead repeat one of
    the last ``REPEAT_WINDOW`` distinct sources."""
    rng, heat = random.Random(seed), heat_source(root)
    fresh_corpus = corpus(root)
    recent: list[Job] = []
    seen: set[str] = set()
    while True:
        if recent and rng.random() < REPEAT_SHARE:
            yield rng.choice(recent)
            continue
        pick = rng.randrange(len(PROGRAM_KEYS) + len(fresh_corpus))
        if pick < len(PROGRAM_KEYS):
            job = template_job(PROGRAM_KEYS[pick], rng, heat)
        else:
            job = fresh_corpus.pop(pick - len(PROGRAM_KEYS))
        if job.ident not in seen:
            seen.add(job.ident)
            recent.append(job)
            del recent[:-REPEAT_WINDOW]
        yield job
