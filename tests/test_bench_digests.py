"""Every default-seed job of the benchmark keeps its report: it exits 0, and
the sha256 of its records output is the one bench/digests.json holds.

The benchmark's own tests (bench/tests) lie outside the tier-1 test paths.
This file loads bench/run.py, which generates the jobs from the seed, and
reads it and digests.json only; the package comes from the import path, as
for every other test here."""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from twistalex import jobs

ROOT = Path(__file__).resolve().parents[1]


def _load_bench_runner():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_bench_runner()


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_every_default_seed_bench_job_keeps_its_digest(workload):
    mode = RUN.WORKLOADS[workload][2]
    digests = json.loads(RUN.DIGESTS.read_text(encoding="utf-8"))
    names = set()
    for job in RUN.make_jobs(workload, RUN.DEFAULT_SEED, ROOT):
        report, code = RUN.run_one(jobs, job, mode, "records")
        assert code == jobs.EXIT_OK, (job.name, report)
        assert hashlib.sha256(report.encode()).hexdigest() == digests[job.name], job.name
        names.add(job.name)
    assert names == {name for name in digests if name.startswith(f"{workload}/")}
