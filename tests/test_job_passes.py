"""How often a job runs its expensive passes: validation, the Wada minors,
specialization and the Fox Jacobian."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from twistalex.homology import build_complex, specialize_homology, wada_ratio
from twistalex.jobs import parse_job, run_job
from twistalex.laurent import LaurentMatrix
from twistalex.presentations import Augmentation, Presentation, Representation, Word, fox_derivative, validate
from twistalex.scalars import FieldContext, Matrix, ScalarMatrix

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


LONG_RELATOR_JOB = """
field cyclotomic 6
generators x y
relator x^40 y^-40 x^3 y^5 x^-3 y^-5
eps x=1 y=1
rho x = [[z]]
rho y = [[z^4]]
analyze delta wada
"""


@pytest.mark.parametrize(
    "text",
    [(SAMPLES / "hopf4_twisted_z12.job").read_text(encoding="utf-8"), LONG_RELATOR_JOB],
    ids=["hopf4_twisted_z12", "long_relator"],
)
def test_the_engine_does_not_call_the_symbolic_fox_derivative(monkeypatch, text):
    # fox_derivative is the oracle of the check battery's fox-identity check;
    # compute mode builds the Fox Jacobian without it.
    calls = _count_calls(monkeypatch, fox_derivative)
    _, code = run_job(parse_job(text), mode="compute")
    assert code == 0
    assert calls == []


def _products_in_build_complex(monkeypatch, length: int) -> dict:
    x_l_y_minus_l = Word([(0, 1)] * length + [(1, -1)] * length)
    pres = Presentation(["x", "y"], [x_l_y_minus_l])
    eps = Augmentation([1, 1])
    rho = Representation.trivial(FieldContext(1), 2)
    calls = {ScalarMatrix: 0, LaurentMatrix: 0}

    def counted(self, other):
        calls[type(self)] += 1
        return Matrix.__mul__(self, other)

    with monkeypatch.context() as patch:
        for cls in calls:
            patch.setattr(cls, "__mul__", counted)
        build_complex(pres, eps, rho)
    return calls


def test_build_complex_makes_a_linear_number_of_matrix_products(monkeypatch):
    # A deterministic count, not a timing: the symbolic route made a number
    # of Laurent-matrix products quadratic in the relator length.
    at_500 = _products_in_build_complex(monkeypatch, 500)
    at_1000 = _products_in_build_complex(monkeypatch, 1000)
    assert at_500[ScalarMatrix] >= 1000
    for cls in (ScalarMatrix, LaurentMatrix):
        assert at_1000[cls] <= 2 * at_500[cls] + 10, cls
