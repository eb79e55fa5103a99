"""Golden edge reports: the report branches that ``sample_jobs/`` never takes.

``golden_edge_reports.json`` pins, byte for byte, the reports of a few jobs
whose paths the sample corpus does not reach (compute and check mode, seed 0,
text and records format), and the ``run_corpus`` summaries of the sample
corpus alone and together with those jobs and one unparsable file:

- ``a_odd n=1`` asking for the Wada ratio: not applicable, result FAIL;
- ``torus p=2 q=3`` asking for divisibility: an input error;
- a JobSpec whose eps does not kill a relator: validation FAILED;
- a free group on two generators: H1 has positive free rank, so its
  specialize line skips the dimension bound.

Regenerate it only when a report change is intended:

    PYTHONPATH=src python3 tests/test_golden_edge_reports.py --regenerate
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from twistalex.jobs import JobSpec, parse_job, run_corpus, run_job

HERE = Path(__file__).resolve().parent
SAMPLES = HERE.parent / "sample_jobs"
GOLDEN = HERE / "golden_edge_reports.json"
RUNS = [(mode, fmt) for mode in ("compute", "check") for fmt in ("text", "records")]
FORMATS = ("text", "records")

JOB_TEXTS = {
    "a_odd_wada_not_applicable": "field rational\nbuilder a_odd n=1\nrho trivial 1\nanalyze wada\n",
    "torus_divisibility_input_error": "field rational\nbuilder torus p=2 q=3\nrho trivial 1\nanalyze divisibility\n",
    "free_h1_specialize_bound_skipped": "field rational\ngenerators x y\nrho trivial 1\nspecialize 1, -1\n",
}
UNPARSABLE = "field rational\nbuilder hopf d=3\nrho trivial 1\nanalyze everything\n"


def _invalid_triple() -> JobSpec:
    # The trefoil germ <x, y | x^2 = y^3> with eps (1, 1), which the parser
    # would refuse: eps no longer kills the relator.
    spec = parse_job((SAMPLES / "trefoil_germ.job").read_text(encoding="utf-8"))
    spec.eps_values = (1, 1)
    return spec


def _specs() -> dict:
    specs = {name: parse_job(text) for name, text in JOB_TEXTS.items()}
    specs["invalid_triple"] = _invalid_triple()
    return specs


def _run(spec: JobSpec, mode: str, fmt: str) -> dict:
    report, code = run_job(spec, mode=mode, fmt=fmt, seed=0)
    return {"report": report, "exit": code}


def _corpus(with_edges: bool) -> dict:
    """run_corpus over a copy of sample_jobs/, optionally with the edge jobs
    and one unparsable file added."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for path in SAMPLES.glob("*.job"):
            shutil.copy(path, root / path.name)
        if with_edges:
            for name, text in JOB_TEXTS.items():
                (root / f"{name}.job").write_text(text, encoding="utf-8")
            (root / "unparsable.job").write_text(UNPARSABLE, encoding="utf-8")
        paths = sorted(root.glob("*.job"))
        out = {}
        for fmt in FORMATS:
            report, code = run_corpus(paths, fmt=fmt, seed=0)
            out[fmt] = {"report": report, "exit": code}
        return out


def _generate() -> dict:
    jobs = {name: {f"{m}/{f}": _run(spec, m, f) for m, f in RUNS} for name, spec in _specs().items()}
    corpus = {"sample_jobs": _corpus(False), "sample_jobs+edges": _corpus(True)}
    return {"jobs": jobs, "corpus": corpus}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_edge_job():
    assert sorted(_golden()["jobs"]) == sorted(_specs())


@pytest.mark.parametrize("name", sorted(JOB_TEXTS) + ["invalid_triple"])
@pytest.mark.parametrize("mode,fmt", RUNS)
def test_edge_report_matches_golden(name, mode, fmt):
    assert _run(_specs()[name], mode, fmt) == _golden()["jobs"][name][f"{mode}/{fmt}"]


@pytest.mark.parametrize("with_edges", [False, True], ids=["sample_jobs", "sample_jobs+edges"])
def test_corpus_report_matches_golden(with_edges):
    key = "sample_jobs+edges" if with_edges else "sample_jobs"
    assert _corpus(with_edges) == _golden()["corpus"][key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(_generate(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
