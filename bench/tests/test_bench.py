"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import jobgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
from twistalex import jobs  # noqa: E402

# The package re-exports the function homology.homology under the module's
# name, so the module itself comes from sys.modules.
homology_module = sys.modules["twistalex.homology"]

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_identical_job_texts(workload):
    first = [(j.name, j.text, j.hopf) for j in run.make_jobs(workload, 7, ROOT)]
    again = [(j.name, j.text, j.hopf) for j in run.make_jobs(workload, 7, ROOT)]
    other = [(j.name, j.text, j.hopf) for j in run.make_jobs(workload, 8, ROOT)]
    assert first == again
    assert [t for _, t, _ in first] != [t for _, t, _ in other]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_default_seed_job_exits_0_and_matches_its_digest(workload):
    _, _, mode, formats = run.WORKLOADS[workload]
    digests = json.loads(run.DIGESTS.read_text())
    for job in run.make_jobs(workload, run.DEFAULT_SEED, ROOT):
        for fmt in formats:
            report, code = run.run_one(jobs, job, mode, fmt)
            assert verify.job_failures(job.hopf, fmt, report, code) == [], (job.name, fmt, report)
            if fmt == "records":
                assert hashlib.sha256(report.encode()).hexdigest() == digests[job.name], job.name


def test_corpus_variants_pass_on_other_seeds():
    for seed in (1, 2):
        for job in run.make_jobs("corpus_check", seed, ROOT):
            report, code = run.run_one(jobs, job, "check", "records")
            assert verify.job_failures(job.hopf, "records", report, code) == [], (seed, job.name, report)


def _hopf_job():
    job = jobgen.hopf_job(random.Random(3), "t", 12, 4, 2, ("delta", "wada"))
    report, code = run.run_one(jobs, job, "compute", "records")
    return job, report, code


def test_gate_catches_wrong_outputs():
    job, report, code = _hopf_job()
    assert verify.job_failures(job.hopf, "records", report, code) == []
    assert verify.job_failures(job.hopf, "records", report, 1) == ["exit code 1"]
    d, e0, n, diagonal = job.hopf
    wrong = (d, e0 + 1, n, diagonal)
    assert verify.job_failures(wrong, "records", report, code) == [
        "hopf ratio differs from det(Phi(x0) - Id)^(d-2)"
    ]
    bad = report.replace('"agrees": true', '"agrees": false')
    assert "wada disagrees with homology" in verify.job_failures(job.hopf, "records", bad, code)
    text, code = run.run_one(jobs, job, "check", "text")
    assert verify.job_failures(job.hopf, "text", text, code) == []
    broken = text.replace("check euler-ranks: ok", "check euler-ranks: FAIL")
    assert verify.job_failures(job.hopf, "text", broken, code) == ["check euler-ranks failed"]


def test_tracer_counts_self_time_and_restores_the_package():
    original = jobs.build_complex
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert jobs.build_complex is not original
        job, report, code = _hopf_job()
    finally:
        tracer.uninstall()
    assert jobs.build_complex is original and homology_module.build_complex is original
    stats = tracer.take()
    calls, self_s, incl_s = stats["homology.build_complex"]
    assert calls == 1 and 0 < self_s < incl_s
    assert stats["presentations.validate"][0] == 3
    assert stats["jobs.run_job"][2] >= incl_s
    sizes = tracer.sizes[0]
    assert (sizes["homology.c0"], sizes["homology.c1"], sizes["homology.c2"]) == (2, 8, 6)
    assert sizes["homology.boundary2.cells"] == 48


def _result(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_entry_command_prints_every_metric_with_its_unit(trace, kind):
    proc = _result(["--workload", "corpus_check", "--seed", "3", "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    meta, details = json.loads(lines[-3]), json.loads(lines[-2])
    assert meta["seed"] == 3 and meta["python"] and meta["nproc"] >= 1 and meta["probe_ms"]["median"] > 0
    assert details["failed_frac"] == {"value": 0.0, "unit": "fraction"}
    if trace == "1":
        assert details["tracing_overhead"]["untraced_jobs_per_s"] > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _result(["--workload", "long_relators", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
