"""twistalex benchmark: seeded job workloads through the public job API.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each run is a closed loop with one client: one process, no
threads, jobs run one after another through ``jobs.parse_job`` and
``jobs.run_job``, the same path as ``twistalex compute|check``.  The jobs
are texts generated from the seed (``jobgen.py``), so the package only ever
sees job files.  Every job runs at least once and passes repeat until ``--seconds``
have gone by; the end-to-end metrics are taken over per-job medians, so
every job weighs the same in every run whatever the number of passes.

Host normalization.  The host's speed drifts by tens of percent over tens
of seconds.  A probe that runs no package code (``probe.py``) is timed at
least every ``PROBE_INTERVAL_S``; each job's time is multiplied by
``probe.scale`` of the probe readings just before and after it.  Every time
reported (``job_ms``, ``jobs_per_s``, ``setup_s`` and the per-layer
``self_ms``) is therefore in units of the reference host; the raw medians
and the probe readings are printed alongside.

Output: a ``meta`` line (git rev, source digest, Python, nproc, seed, probe
reading), a ``details`` line (sample counts, failed_frac, raw times, trace
shares and overhead), and as the last line the result object.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run alternates untraced and traced passes and reports per-layer self time
and calls per job (``spans.py``), size counters, and the tracing overhead.

A job fails when its exit code is not 0, when its output fails
``verify.job_failures``, when its output differs from its own earlier
output in the run, or, for the default seed, when the sha256 of its records
output differs from ``digests.json``.  Refresh that file with
``--record-digests`` only when a change to the reports is intended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import random
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobgen  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402

DEFAULT_SEED = 0
MIN_SAMPLES = 100  # p90 needs ten samples beyond it
SETUP_REPEATS = 5
PROBE_INTERVAL_S = 0.1
DIGESTS = HERE / "digests.json"
# The metric names and units to print come from the contract file.
CONTRACT = HERE.parent / "BENCHMARK.json"

# name -> (generator, job count, run_job mode, formats cycled per execution)
WORKLOADS = {
    "long_relators": (jobgen.long_relator_jobs, 123, "compute", ("records",)),
    "twisted_snf": (jobgen.twisted_snf_jobs, 140, "compute", ("records",)),
    "corpus_check": (jobgen.corpus_jobs, 250, "check", ("text", "records")),
}



class BenchError(RuntimeError):
    """The checkout cannot run the benchmark (no package source, no corpus),
    or a run has too few samples to report."""


def load_package(root: Path):
    """Import twistalex from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "twistalex" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src / 'twistalex'}")
    sys.path.insert(0, str(src))
    import twistalex
    from twistalex import jobs

    if Path(twistalex.__file__).resolve().parent != (src / "twistalex").resolve():
        raise BenchError(f"twistalex imported from {twistalex.__file__}, not from {src}")
    return jobs


def make_jobs(workload: str, seed: int, root: Path):
    gen, count, _, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus_check":
        if not (root / "sample_jobs").is_dir():
            raise BenchError(f"no sample corpus at {root / 'sample_jobs'}")
        return gen(rng, count, root / "sample_jobs")
    return gen(rng, count)


EXIT_CRASH = -1  # the job raised; the CLI would print a traceback


def run_one(jobs_mod, job, mode, fmt):
    """parse_job then run_job, as ``twistalex compute|check`` does.  A job
    that raises counts as one failed job, not as a failed run."""
    try:
        spec = jobs_mod.parse_job(job.text)
        return jobs_mod.run_job(spec, mode=mode, fmt=fmt, seed=job.check_seed)
    except jobs_mod.JobParseError as exc:
        return str(exc), jobs_mod.EXIT_INPUT_ERROR
    except Exception:
        return traceback.format_exc(), EXIT_CRASH


# ---------------------------------------------------------------------------
# set-up time


def setup_child(workload: str, seed: int, root: Path):
    """Import, generate, run the first job; report when that ended."""
    jobs_mod = load_package(root)
    job_list = make_jobs(workload, seed, root)
    _, _, mode, formats = WORKLOADS[workload]
    run_one(jobs_mod, job_list[0], mode, formats[0])
    print(json.dumps({"end": time.perf_counter()}))


def measure_setup(workload: str, seed: int, root: Path):
    """Median over SETUP_REPEATS fresh interpreters of the time from spawn to
    the end of the first job, host-normalized by probes taken here just
    before and after each child (a cold probe in the child reads slow).
    time.perf_counter is the system-wide monotonic clock, so parent and
    child readings compare."""
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        before = probe.probe_ms()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
        reading = json.loads(proc.stdout.strip().splitlines()[-1])
        seconds = reading["end"] - start
        raw.append(seconds)
        norm.append(seconds * probe.scale([before, probe.probe_ms()]))
    return statistics.median(norm), statistics.median(raw)


# ---------------------------------------------------------------------------
# the timed loop


class Loop:
    """Runs passes over the job list, times each job, probes the host
    between jobs and checks every output."""

    def __init__(self, jobs_mod, job_list, mode, formats, digests):
        self.jobs_mod = jobs_mod
        self.job_list = job_list
        self.mode = mode
        self.formats = formats
        self.digests = digests
        self.probes: list[float] = []  # probe readings, in order
        self.last_probe = float("-inf")
        self.records: list[dict] = []  # one per execution
        self.failures: list[str] = []
        self.seen: dict[tuple, str] = {}  # (job, fmt) -> sha256 of first output

    def probe_if_due(self, force=False):
        now = time.perf_counter()
        if force or now - self.last_probe >= PROBE_INTERVAL_S:
            self.probes.append(probe.probe_ms())
            self.last_probe = time.perf_counter()

    def run_pass(self, pass_index: int, tracer=None, deadline=None):
        """One pass over the job list; stops early once ``deadline`` (a
        perf_counter reading) has passed, if given."""
        for i, job in enumerate(self.job_list):
            if deadline is not None and time.perf_counter() >= deadline:
                return
            fmt = self.formats[(i + pass_index) % len(self.formats)]
            self.probe_if_due()
            before = len(self.probes) - 1
            t0 = time.perf_counter()
            report, code = run_one(self.jobs_mod, job, self.mode, fmt)
            elapsed = time.perf_counter() - t0
            spans = tracer.take() if tracer is not None else None
            failed = self.check(job, fmt, report, code)
            self.records.append({"job": i, "s": elapsed, "probe": before, "traced": tracer is not None,
                                 "spans": spans, "failed": failed})

    def check(self, job, fmt, report, code) -> bool:
        reasons = verify.job_failures(job.hopf, fmt, report, code)
        digest = hashlib.sha256(report.encode()).hexdigest()
        first = self.seen.setdefault((job.name, fmt), digest)
        if first != digest:
            reasons.append("output differs from its earlier run")
        if fmt == "records" and self.digests is not None and self.digests.get(job.name) != digest:
            reasons.append("records digest differs from digests.json")
        if reasons and len(self.failures) < 20:
            self.failures.append(f"{job.name} [{fmt}]: {'; '.join(reasons)}")
        return bool(reasons)

    def finish(self):
        """Scale each execution by the mean of the probes around it."""
        self.probe_if_due(force=True)
        for rec in self.records:
            rec["scale"] = probe.scale(self.probes[rec["probe"]: rec["probe"] + 2])


def per_job_medians(recs, key):
    """One value per distinct job: the median of key(execution) over its
    executions, so a partly repeated last pass weighs no job twice."""
    by_job: dict[int, list] = {}
    for r in recs:
        by_job.setdefault(r["job"], []).append(key(r))
    return [statistics.median(v) for v in by_job.values()]


def end_to_end(loop: Loop):
    """jobs_per_s and job_ms percentiles over the per-job medians; the
    samples are the distinct jobs, p90 has a tenth of them beyond it."""
    recs = [r for r in loop.records if not r["traced"]]
    norm_ms = per_job_medians(recs, lambda r: r["s"] * r["scale"] * 1000)
    raw_ms = per_job_medians(recs, lambda r: r["s"] * 1000)
    n = len(norm_ms)
    if n < MIN_SAMPLES:
        raise BenchError(f"only {n} distinct jobs; p90 needs {MIN_SAMPLES}")
    return {
        "jobs_per_s": n / (sum(norm_ms) / 1000),
        "job_ms.p50": statistics.median(norm_ms),
        "job_ms.p90": statistics.quantiles(norm_ms, n=10)[8],
    }, {"samples": n, "executions": len(recs), "raw_jobs_per_s": n / (sum(raw_ms) / 1000),
        "raw_job_ms.p50": statistics.median(raw_ms)}


def per_layer(loop: Loop, tracer):
    traced = [r for r in loop.records if r["traced"]]
    untraced = [r for r in loop.records if not r["traced"]]
    n = len(traced)
    totals: dict[str, list] = {}
    for rec in traced:
        for name, (calls, self_s, incl_s) in rec["spans"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s * rec["scale"] * 1000
            acc[2] += incl_s * rec["scale"] * 1000
    # Per job: calls, self time and inclusive time of every span.
    values = {}
    for name, (calls, self_ms, incl_ms) in totals.items():
        values[f"{name}.calls"] = calls / n
        values[f"{name}.self_ms"] = self_ms / n
        values[f"{name}.total_ms"] = incl_ms / n
    # Size counters over the first traced pass: one complex per distinct job.
    first = tracer.sizes[: len(loop.job_list)]
    for name in spans.SIZE_COUNTERS:
        values[name] = sum(s[name] for s in first) / len(loop.job_list)
    traced_ms = sum(r["s"] * r["scale"] for r in traced) * 1000 / n
    untraced_ms = sum(r["s"] * r["scale"] for r in untraced) * 1000 / len(untraced)
    values["trace.job_ms"] = traced_ms
    values["trace.overhead"] = untraced_ms / traced_ms
    shares = {name: round(acc[1] / n / traced_ms, 4) for name, acc in sorted(totals.items())}
    overhead = {
        "traced_jobs_per_s": 1000 / traced_ms,
        "untraced_jobs_per_s": 1000 / untraced_ms,
        "ratio": untraced_ms / traced_ms,
        "base": "untraced jobs_per_s of the same run, same passes of the same jobs",
        "traced_samples": n,
        "untraced_samples": len(untraced),
    }
    return values, shares, overhead


# ---------------------------------------------------------------------------
# metadata


def git_rev(root: Path):
    """HEAD of a checkout that is a git work tree, read from files."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "twistalex").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def meta(args, root: Path, loop: Loop):
    return {
        "record": "meta",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "probe_ms": {"median": statistics.median(loop.probes), "min": min(loop.probes),
                     "max": max(loop.probes), "readings": len(loop.probes)},
        "probe_reference_ms": probe.REFERENCE_MS,
        "normalization": "time x (probe_reference_ms / mean probe around it) ** probe_exponent",
        "probe_exponent": probe.EXPONENT,
        "loop": "closed, 1 client, 1 process, every job at least once",
    }


def record_digests(root: Path):
    """Write the records-output digest of every job for the default seed."""
    jobs_mod = load_package(root)
    out = {}
    for workload, (_, _, mode, _) in WORKLOADS.items():
        for job in make_jobs(workload, DEFAULT_SEED, root):
            report, _ = run_one(jobs_mod, job, mode, "records")
            out[job.name] = hashlib.sha256(report.encode()).hexdigest()
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the default seed and exit")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.record_digests:
        record_digests(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_child:
        setup_child(args.workload, args.seed, root)
        return 0

    jobs_mod = load_package(root)
    job_list = make_jobs(args.workload, args.seed, root)
    _, _, mode, formats = WORKLOADS[args.workload]
    digests = json.loads(DIGESTS.read_text()) if args.seed == DEFAULT_SEED else None
    setup = measure_setup(args.workload, args.seed, root) if args.trace == 0 else None

    loop = Loop(jobs_mod, job_list, mode, formats, digests)
    run_one(jobs_mod, job_list[0], mode, formats[0])  # warm caches
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
    deadline = time.perf_counter() + args.seconds
    passes = 0
    if tracer is None:
        # Every job runs once, then passes repeat until the deadline.
        while passes == 0 or time.perf_counter() < deadline:
            loop.run_pass(passes, deadline=deadline if passes else None)
            passes += 1
    else:
        # Whole passes, alternately untraced and traced, at least one each.
        while passes < 2 or time.perf_counter() < deadline:
            if passes % 2:
                tracer.install()
                try:
                    loop.run_pass(passes, tracer)
                finally:
                    tracer.uninstall()
            else:
                loop.run_pass(passes)
            passes += 1
    loop.finish()

    failed = sum(r["failed"] for r in loop.records)
    attempted = len(loop.records)
    details = {"record": "details", "passes": passes, "distinct_jobs": len(job_list),
               "failed_frac": {"value": failed / attempted, "unit": "fraction"},
               "first_failures": loop.failures}
    if args.trace == 0:
        values, info = end_to_end(loop)
        values["setup_s"] = setup[0]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        details.update(info)
        details["raw_setup_s"] = setup[1]
        details["sample_counts"] = {"job_ms.p50": info["samples"], "job_ms.p90": info["samples"],
                                    "jobs_per_s": info["samples"], "setup_s": SETUP_REPEATS,
                                    "unit": "distinct jobs (each the median of its executions)"}
    else:
        values, shares, overhead = per_layer(loop, tracer)
        details["self_share_of_traced_job"] = shares
        details["tracing_overhead"] = overhead
    metrics = {}
    for m in json.loads(CONTRACT.read_text())["end_to_end" if args.trace == 0 else "per_layer"]:
        name = m["name"]
        if name not in values and not name.endswith((".calls", ".self_ms", ".total_ms")):
            raise BenchError(f"no value for metric {name}")
        # A span that never ran in this workload reads 0.
        metrics[name] = {"value": values.get(name, 0.0), "unit": m["unit"]}
    print(json.dumps(meta(args, root, loop)))
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
