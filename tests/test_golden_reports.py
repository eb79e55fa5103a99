"""Golden reports: every sample job's output is pinned byte for byte.

``golden_reports.json`` holds the report and exit code of each job in
``sample_jobs/`` for compute and check mode (seed 0), in text and records
format.  Regenerate it only when a report change is intended:

    PYTHONPATH=src python3 tests/test_golden_reports.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from twistalex.jobs import parse_job, run_job

HERE = Path(__file__).resolve().parent
SAMPLES = sorted((HERE.parent / "sample_jobs").glob("*.job"))
GOLDEN = HERE / "golden_reports.json"
RUNS = [(mode, fmt) for mode in ("compute", "check") for fmt in ("text", "records")]


def _run(path: Path, mode: str, fmt: str) -> dict:
    report, code = run_job(parse_job(path.read_text(encoding="utf-8")), mode=mode, fmt=fmt, seed=0)
    return {"report": report, "exit": code}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_sample():
    assert sorted(_golden()) == [p.name for p in SAMPLES]


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
@pytest.mark.parametrize("mode,fmt", RUNS)
def test_report_matches_golden(path, mode, fmt):
    assert _run(path, mode, fmt) == _golden()[path.name][f"{mode}/{fmt}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    data = {p.name: {f"{m}/{f}": _run(p, m, f) for m, f in RUNS} for p in SAMPLES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
