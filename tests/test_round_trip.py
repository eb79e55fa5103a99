"""parse_job(serialize_job(s)) == s, and the canonical text is a fixed
point, over the benchmark's default-seed jobs and over the line kinds and
parameter texts those jobs lack.

The benchmark's jobs come from bench/run.py, loaded as
tests/test_bench_digests.py loads it; nothing under bench/ is written."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from twistalex.jobs import parse_job, serialize_job

ROOT = Path(__file__).resolve().parents[1]


def _load_bench_runner():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_bench_runner()


def _assert_round_trips(text: str) -> str:
    spec = parse_job(text)
    dumped = serialize_job(spec)
    assert parse_job(dumped) == spec
    assert serialize_job(parse_job(dumped)) == dumped
    return dumped


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_every_default_seed_bench_job_round_trips(workload):
    for job in RUN.make_jobs(workload, RUN.DEFAULT_SEED, ROOT):
        try:
            _assert_round_trips(job.text)
        except AssertionError as exc:
            raise AssertionError(job.name) from exc


CURVE = "builder cusp\nrho trivial 1\ncomponent degree=2 weight=1\n"

# Line kinds the benchmark's jobs do not use, and parameter texts that are
# not canonical, with the line each canonicalizes to.
CANONICAL_LINES = [
    ("builder hopf d=+03", "builder hopf d=3"),
    ("builder torus q=3 p=2", "builder torus p=2 q=3"),
    ("builder union factors=torus:03:2,line", "builder union factors=torus:3:2,line"),
    ("builder union factors=cusp,line,line", "builder union factors=cusp,line,line"),
    ("local ordinary 3 weights 1 1 1", "local ordinary 3 weights 1 1 1"),
    ("local torus 03 2 weights 1", "local torus 3 2 weights 1"),
    ("local torus +2 3 weights 1 scalars -1, 1", "local torus 2 3 weights 1 scalars -1, 1"),
    ("singularity torus components=0 params=2,3", "singularity torus components=0 params=2,3"),
    ("singularity a_odd components=0 params=+2", "singularity a_odd components=0 params=2"),
    ("singularity cusp components=0", "singularity cusp components=0"),
    ("singularity ordinary components=0 params=03", "singularity ordinary components=0 params=3"),
]


@pytest.mark.parametrize("line,canonical", CANONICAL_LINES)
def test_a_parameter_text_canonicalizes_and_round_trips(line, canonical):
    text = f"{line}\nrho trivial 1\n" if line.startswith("builder") else CURVE + line + "\n"
    assert canonical in _assert_round_trips(text).splitlines()
