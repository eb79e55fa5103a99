"""How often a job runs its expensive passes: validation, the Wada minors and
specialization."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from twistalex.homology import specialize_homology, wada_ratio
from twistalex.jobs import parse_job, run_job
from twistalex.presentations import validate

SAMPLES = Path(__file__).resolve().parent.parent / "sample_jobs"


def _count_calls(monkeypatch, original):
    """Count calls to a package function through every module that holds it."""
    name = original.__name__
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("twistalex") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("mode", ["compute", "check"])
def test_a_job_validates_its_triple_twice(monkeypatch, mode):
    # Once when the job is parsed, once when the complex is built; the
    # validation record reuses the second.
    calls = _count_calls(monkeypatch, validate)
    spec = parse_job((SAMPLES / "hopf4_twisted_z12.job").read_text(encoding="utf-8"))
    _, code = run_job(spec, mode=mode)
    assert code == 0
    assert len(calls) == 2


def test_invalid_triple_reports_the_build_verdict():
    spec = parse_job((SAMPLES / "trefoil_germ.job").read_text(encoding="utf-8"))
    # A spec the parser would refuse: eps no longer kills x^2 = y^3.
    spec.eps_values = (1, 1)
    for fmt, verdict in (("text", "validation: FAILED (eps image index 1)"), ("records", '"ok": false')):
        report, code = run_job(spec, fmt=fmt)
        lines = report.splitlines()
        assert code == 2
        assert len(lines) == 2
        assert verdict in lines[1]
    assert "eps does not kill relator 0 (value -1)" in lines[1]


def test_check_mode_reuses_the_reported_wada_ratio(monkeypatch):
    calls = _count_calls(monkeypatch, wada_ratio)
    spec = parse_job((SAMPLES / "hopf3_untwisted.job").read_text(encoding="utf-8"))
    report, code = run_job(spec, mode="check")
    assert code == 0
    assert "check wada-agreement: ok" in report
    assert len(calls) == 1


def test_check_mode_computes_wada_when_not_requested(monkeypatch):
    calls = _count_calls(monkeypatch, wada_ratio)
    text = (SAMPLES / "hopf3_untwisted.job").read_text(encoding="utf-8")
    text = text.replace("analyze delta wada", "analyze delta")
    report, code = run_job(parse_job(text), mode="check")
    assert code == 0
    assert "check wada-agreement: ok" in report
    assert "\nwada:" not in report
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["compute", "check"])
def test_each_specialize_point_is_specialized_once(monkeypatch, mode):
    # trefoil_germ has torsion H0 and H1 and specializes at 1 and -1: the
    # dimension bound's own specialization gives the reported dims.
    calls = _count_calls(monkeypatch, specialize_homology)
    spec = parse_job((SAMPLES / "trefoil_germ.job").read_text(encoding="utf-8"))
    report, code = run_job(spec, mode=mode)
    assert code == 0
    assert report.count("\nspecialize t=") == 2
    assert len(calls) == 2
