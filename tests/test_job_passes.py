"""How often a job runs its expensive passes: validation (once per
distinct triple, in the build_complex of parse_job), homology (once per
distinct triple), the Wada minors, specialization and the Fox Jacobian;
how often the polynomial and scalar-matrix layers build or invert field
elements; and how often their eliminations divide."""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import associates, certified_smith_form, fox_derivative, random_hopf_representation
from twistalex.homology import TwistedChainComplex, build_complex, homology, specialize_homology, wada_agreement
from twistalex import jobs
from twistalex.jobs import JobParseError, parse_job, run_job
from twistalex.obstructions import local_polynomial
from twistalex.laurent import LaurentMatrix, LaurentPoly, RationalFunction
from twistalex.presentations import (
    Augmentation,
    Presentation,
    Representation,
    Word,
    hopf_augmentation,
    hopf_presentation,
    validate,
)
from twistalex.scalars import CycloNumber, FieldContext, Matrix, ScalarMatrix, _Residues, parse_scalar

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
def test_a_job_validates_its_triple_once(monkeypatch, mode):
    # parse_job builds the complex, which validates the triple; run_job and
    # its validation record reuse that complex.
    calls = _count_calls(monkeypatch, validate)
    spec = parse_job((SAMPLES / "hopf4_twisted_z12.job").read_text(encoding="utf-8"))
    _, code = run_job(spec, mode=mode)
    assert code == 0
    assert len(calls) == 1


# One complex per distinct triple: a local germ whose triple is the job's own
# shares the job's complex and its homology; any other germ has its own.


def _root(k: int) -> str:
    return "1" if k == 0 else f"z^{k}"


def _variant_jobs() -> dict:
    """Seeded cusp, torus and a_odd_reduced jobs, each with a local line
    whose germ is the job's own triple."""
    rng = random.Random(34)
    out = {}
    for k in range(3):
        n, w = rng.choice((6, 12)), rng.choice((1, 2, 3))
        s = _root(rng.randrange(n))
        out[f"cusp-{k}"] = (
            f"field cyclotomic {n}\nbuilder cusp\neps x={w} y={w}\nrho x = [[{s}]]\nrho y = [[{s}]]\n"
            f"analyze delta wada\nlocal cusp weights {w} scalars {s}\n"
        )
        (p, q), w = rng.choice(((2, 3), (2, 5), (3, 4), (3, 5))), rng.choice((1, 2))
        kx, ky = rng.choice([(a, b) for a in range(n) for b in range(n) if (p * a - q * b) % n == 0])
        sx, sy = _root(kx), _root(ky)
        out[f"torus-{k}"] = (
            f"field cyclotomic {n}\nbuilder torus p={p} q={q}\neps x={q * w} y={p * w}\n"
            f"rho x = [[{sx}]]\nrho y = [[{sy}]]\nanalyze delta wada\nspecialize -1\n"
            f"local torus {p} {q} weights {w} scalars {sx}, {sy}\n"
        )
        m, ke, ko = rng.choice((2, 3)), rng.randrange(n), rng.randrange(n)
        rho = "".join(f"rho a{i} = [[{_root(ko if i % 2 else ke)}]]\n" for i in range(2 * m))
        out[f"a_odd_reduced-{k}"] = (
            f"field cyclotomic {n}\nbuilder a_odd_reduced n={m}\n{rho}rho b = [[{_root((ke + ko) % n)}]]\n"
            f"analyze delta wada\nlocal a_odd {m} weights 1 1 scalars {_root(ke)}, {_root(ko)}\n"
        )
    return out


SHARING_JOBS = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SAMPLES.glob("*.job"))}
SHARING_JOBS.update(_variant_jobs())
# A germ with the job's presentation and eps but not its rho.
SHARING_JOBS["cusp_other_rho"] = (
    "field cyclotomic 6\nbuilder cusp\nrho x = [[z]]\nrho y = [[z]]\nanalyze delta\nlocal cusp weights 1 scalars z^2\n"
)
# The jobs with a local germ that is not the job's triple; every other job
# has one triple.
DISTINCT_TRIPLES = {"cusp_braid": 2, "cusp_other_rho": 2, "hopf3_untwisted": 2, "trefoil_germ": 2}


def _fields_twin(spec):
    return jobs.JobSpec(*(getattr(spec, name) for name in jobs.JobSpec.__slots__ if not name.startswith("_")))


def test_a_germ_with_the_jobs_triple_shares_the_jobs_complex():
    spec = parse_job(SHARING_JOBS["cusp_braid"])
    assert spec.chain_complex(0) is spec.chain_complex()
    # The control: weights 3 make another eps, so another triple.
    germ = spec.chain_complex(1)
    assert germ is not spec.chain_complex()
    assert germ.triple[1] == Augmentation([3, 3])


@pytest.mark.parametrize("route", ["parsed", "fields"])
@pytest.mark.parametrize("name", sorted(SHARING_JOBS))
def test_each_distinct_triple_is_validated_and_reduced_once(monkeypatch, name, route):
    validated = _count_calls(monkeypatch, validate)
    reduced = _count_calls(monkeypatch, homology)
    spec = parse_job(SHARING_JOBS[name])
    if route == "fields":
        # A spec made directly builds its complexes when run.
        spec = _fields_twin(spec)
        validated.clear()
    out, code = run_job(spec)
    assert code == 0, out
    distinct = DISTINCT_TRIPLES.get(name, 1)
    assert len(validated) == len(reduced) == distinct
    # No triple is validated twice.
    triples = [(pres, eps, rho.matrices) for pres, eps, rho in validated]
    assert all(a != b for i, a in enumerate(triples) for b in triples[:i])


@pytest.mark.parametrize("name", sorted(n for n, text in SHARING_JOBS.items() if "\nlocal " in text))
def test_a_local_record_equals_the_standalone_local_polynomial(name):
    # obstructions.local_polynomial builds and reduces a complex of its own.
    spec = parse_job(SHARING_JOBS[name])
    out, code = run_job(spec, fmt="records")
    assert code == 0, out
    records = [r for r in map(json.loads, out.splitlines()) if r["record"] == "local"]
    context = spec.context()
    assert len(records) == len(spec.local_requests)
    for record, (kind, params, weights, texts) in zip(records, spec.local_requests):
        scalars = None if texts is None else [parse_scalar(t, context) for t in texts]
        loc = local_polynomial(context, kind, weights, scalars, params)
        ratio = (None, None) if loc.ratio is None else (str(loc.ratio.numerator), str(loc.ratio.denominator))
        assert record == {
            "record": "local",
            "kind": kind,
            "params": list(params),
            "weights": list(weights),
            "delta0": str(loc.delta0),
            "delta1": str(loc.delta1),
            "ratio_numerator": ratio[0],
            "ratio_denominator": ratio[1],
            "printed_matches": loc.printed_matches,
        }


def test_an_invalid_shared_triple_is_refused_at_its_local_line():
    # z^2 != z^3 in Q(zeta_6): rho breaks x^2 = y^3, and the local line asks
    # for the same triple; the local line, checked first, is blamed.
    text = (
        "field cyclotomic 6\nbuilder torus p=2 q=3\neps x=3 y=2\nrho x = [[z]]\nrho y = [[z]]\n"
        "analyze delta\nlocal torus 2 3 weights 1 scalars z, z\n"
    )
    with pytest.raises(JobParseError) as info:
        parse_job(text)
    assert info.value.line == 7
    assert info.value.message == "local torus: invalid triple: rho does not kill relator 0"


def test_a_builder_with_a_step_keeps_its_germs_apart(monkeypatch):
    # A step may make a complex that is not the triple's, so a germ of the
    # job's triple gets its own complex under it.
    def step(complex_):
        return TwistedChainComplex(complex_.boundaries, complex_.triple)

    monkeypatch.setitem(jobs._BUILDERS, "cusp", (*jobs._BUILDERS["cusp"][:4], step))
    validated = _count_calls(monkeypatch, validate)
    spec = parse_job(SHARING_JOBS["cusp_braid"])
    assert spec.chain_complex(0) is not spec.chain_complex()
    assert len(validated) == 3
    assert run_job(spec) == run_job(_fields_twin(spec))


def _record_calls(monkeypatch, cls, name):
    """Record the receiver of every call to the method cls.name."""
    receivers, original = [], getattr(cls, name)

    def recorded(self, *args, **kwargs):
        receivers.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, recorded)
    return receivers


def test_validate_inverts_each_generator_once_and_takes_no_det_or_rank(monkeypatch):
    # Forming rho(x)^-1 for the letter table is the one judge of a singular
    # rho(x): no determinant and no rank mod the split prime runs.
    ctx = FieldContext(12)
    pres = hopf_presentation(3)
    rho = random_hopf_representation(ctx, 3, 2, random.Random(3))
    inverses = _record_calls(monkeypatch, ScalarMatrix, "inverse")
    dets = _record_calls(monkeypatch, ScalarMatrix, "det")
    ranks = _record_calls(monkeypatch, _Residues, "is_full_rank")
    report = validate(pres, hopf_augmentation([1, 1, 1]), rho)
    assert report.ok
    assert inverses == list(rho.matrices)
    assert dets == [] and ranks == []


def test_a_check_run_forms_its_letter_table_once(monkeypatch):
    # validate, build_complex's d1 and the fox-identity battery all read the
    # one letter table of the job's rho.
    inverses = _record_calls(monkeypatch, ScalarMatrix, "inverse")
    spec = parse_job((SAMPLES / "a3_reduced.job").read_text(encoding="utf-8"))
    _, code = run_job(spec, mode="check")
    assert code == 0
    matrices = spec.chain_complex().triple[2].matrices
    assert [m for m in inverses if any(m is r for r in matrices)] == list(matrices)


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
    calls = _count_calls(monkeypatch, wada_agreement)
    spec = parse_job((SAMPLES / "hopf3_untwisted.job").read_text(encoding="utf-8"))
    report, code = run_job(spec, mode="check")
    assert code == 0
    assert "check wada-agreement: ok" in report
    assert len(calls) == 1


def test_check_mode_computes_wada_when_not_requested(monkeypatch):
    calls = _count_calls(monkeypatch, wada_agreement)
    text = (SAMPLES / "hopf3_untwisted.job").read_text(encoding="utf-8")
    text = text.replace("analyze delta wada", "analyze delta")
    report, code = run_job(parse_job(text), mode="check")
    assert code == 0
    assert "check wada-agreement: ok" in report
    assert "\nwada:" not in report
    assert len(calls) == 1


POWER_RELATOR_JOB = """
field cyclotomic 6
generators x y
relator x^30 y^-30
eps x=1 y=1
rho x = [[z]]
rho y = [[z^2]]
analyze delta wada
"""


@pytest.mark.parametrize("job", ["hopf3_untwisted", "power_relator"])
@pytest.mark.parametrize(
    "mode, analyses", [("compute", "delta wada"), ("check", "delta wada"), ("check", "delta")]
)
def test_the_wada_verdict_is_one_cross_multiplication(monkeypatch, job, mode, analyses):
    # A job evaluates the minor formula once and takes the verdict from its
    # cross-multiplication (RationalFunction.unit_multiple): no unit_equal
    # judges the ratios again and the Fox minor a is never normalized.  Its
    # unit m goes into the short determinant b, and the three products with
    # a long operand are a*d, u*c and (u*c)*(m*b), for the homology ratio
    # c/d and the unit u read off leading terms.
    if job == "hopf3_untwisted":
        text = (SAMPLES / "hopf3_untwisted.job").read_text(encoding="utf-8")
        text = text.replace("analyze delta wada divisibility root-field", f"analyze {analyses}")
    else:
        text = POWER_RELATOR_JOB.replace("analyze delta wada", f"analyze {analyses}")
    spec = parse_job(text)
    judged = _record_calls(monkeypatch, RationalFunction, "unit_equal")
    normalized = [_record_calls(monkeypatch, LaurentPoly, name) for name in ("normalize", "_normalizer")]
    inside, evaluations, determinants, products = [], [], [], []
    determinant, multiply = LaurentMatrix.determinant, LaurentPoly.__mul__

    def recorded_determinant(self):
        inside.append("det")
        try:
            det = determinant(self)
        finally:
            inside.pop()
        if inside:
            determinants.append(det)
        return det

    def recorded_multiply(self, other):
        product = multiply(self, other)
        if inside == ["wada"]:
            products.append((self, other, product))
        return product

    def traced(complex_, ratio):
        inside.append("wada")
        try:
            verdict = wada_agreement(complex_, ratio)
        finally:
            inside.pop()
        evaluations.append((ratio, verdict))
        return verdict

    monkeypatch.setattr(LaurentMatrix, "determinant", recorded_determinant)
    monkeypatch.setattr(LaurentPoly, "__mul__", recorded_multiply)
    monkeypatch.setattr(jobs, "wada_agreement", traced)
    report, code = run_job(spec, mode=mode)
    assert code == 0
    assert ("wada:" in report) == ("wada" in analyses)
    assert mode == "compute" or "check wada-agreement: ok" in report
    assert len(evaluations) == 1
    [(ratio, (wada, agrees))] = evaluations
    assert agrees and wada.denominator is ratio.denominator
    assert judged == []
    minor = determinants[-1]
    assert not any(p is minor for receivers in normalized for p in receivers)
    names = (
        ("a", minor),
        ("c", ratio.numerator),
        ("d", ratio.denominator),
        ("u*c", wada.numerator),
        ("m*b", products[0][2]),
    )

    def name(p):
        return next((n for n, q in names if p is q), "unit" if len(p.rows) == 1 else "b")

    assert [(name(x), name(y)) for x, y, _ in products] == [("b", "unit"), ("unit", "c"), ("a", "d"), ("u*c", "m*b")]


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
    # fox_derivative is the tests' symbolic oracle, outside the package
    # (tests/oracles.py): check mode builds the Fox Jacobian and runs the
    # fox-identity check without it.
    calls = _count_calls(monkeypatch, fox_derivative)
    _, code = run_job(parse_job(text), mode="check")
    assert code == 0
    assert calls == []


# rho(x) = rho(y) = [[2]] has infinite order, so no run of x^L y^-L repeats
# a prefix and the Fox pass makes one product per letter; rho(x) = rho(y) = z
# over Q(zeta_6) has order 6, and a run of it makes at most 6.
INFINITE_ORDER = (1, "2")
ORDER_SIX = (6, "z")


def _products_in_build_complex(monkeypatch, length: int, letters=INFINITE_ORDER) -> dict:
    x_l_y_minus_l = Word([(0, 1)] * length + [(1, -1)] * length)
    pres = Presentation(["x", "y"], [x_l_y_minus_l])
    eps = Augmentation([1, 1])
    conductor, scalar = letters
    ctx = FieldContext(conductor)
    rho = Representation(ctx, [[[parse_scalar(scalar, ctx)]]] * 2)
    with monkeypatch.context() as patch:
        calls = {
            "per-letter": _count_method(patch, FieldContext, "_matrix_product"),
            LaurentMatrix: _count_method(patch, LaurentMatrix, "__mul__"),
        }
        build_complex(pres, eps, rho)
    return {kind: len(made) for kind, made in calls.items()}


def test_build_complex_makes_a_linear_number_of_matrix_products(monkeypatch):
    # A deterministic count, not a timing: the symbolic route made a number
    # of Laurent-matrix products quadratic in the relator length.
    at_500 = _products_in_build_complex(monkeypatch, 500)
    at_1000 = _products_in_build_complex(monkeypatch, 1000)
    assert at_500["per-letter"] >= 1000
    for kind in ("per-letter", LaurentMatrix):
        assert at_1000[kind] <= 2 * at_500[kind] + 10, kind


def test_build_complex_walks_each_relator_once(monkeypatch):
    # The Fox pass ends on (eps(r), rho(r)), and validation reads the relator
    # verdict from there: one scalar product per letter of x^L y^-L, not two.
    for length in (100, 300):
        assert _products_in_build_complex(monkeypatch, length)["per-letter"] <= 2 * length + 10


def test_build_complex_makes_at_most_the_letter_order_in_products_per_run(monkeypatch):
    # Each run of x^L y^-L reads its prefixes back after six letters, so the
    # count does not grow with L.
    for length in (120, 1200):
        assert _products_in_build_complex(monkeypatch, length, ORDER_SIX)["per-letter"] <= 2 * 6 + 10


def _x_l_y_minus_l_job(length: int, scalar: str = "1") -> str:
    return f"generators x y\nrelator x^{length} y^-{length}\neps x=1 y=1\nrho x = [[{scalar}]]\nrho y = [[{scalar}]]\n"


def test_a_compute_job_walks_its_relator_letters_once(monkeypatch):
    # In the Fox pass of the build_complex that parse_job runs; run_job
    # reuses the complex.  rho(x) = rho(y) = [[2]] has infinite order, so
    # every letter makes its product.
    length = 200
    products = _count_method(monkeypatch, FieldContext, "_matrix_product")
    _, code = run_job(parse_job(_x_l_y_minus_l_job(length, "2")), mode="compute")
    assert code == 0
    assert 2 * length <= len(products) <= 2 * length + 10


def test_a_compute_job_builds_no_field_element_per_letter(monkeypatch):
    # The per-letter products and sums of the Fox pass and the relator walk
    # run on integer rows: how many CycloNumbers a job builds does not
    # depend on the length of its relator.
    built = _count_method(monkeypatch, CycloNumber, "__init__")
    counts = []
    for length in (100, 400):
        before = len(built)
        _, code = run_job(parse_job(_x_l_y_minus_l_job(length)), mode="compute")
        assert code == 0
        counts.append(len(built) - before)
    assert counts[0] == counts[1]


def _count_method(monkeypatch, cls, name):
    """Count calls to a method, through a wrapper set on its class."""
    original = getattr(cls, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _random_poly(ctx, rng, span, lead=None):
    coeffs = [
        CycloNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)], rng.choice((1, 2, 3)))
        for _ in range(span + 1)
    ]
    coeffs[-1] = lead if lead is not None else coeffs[-1] + ctx.zeta(1)
    return LaurentPoly(ctx, coeffs, rng.randint(-2, 2))


def test_polynomial_products_and_monic_divisions_build_no_field_elements(monkeypatch):
    # Integer rows all the way: no CycloNumber is constructed inside a
    # product, nor inside a division by a monic divisor.
    ctx = FieldContext(12)
    rng = random.Random(12)
    pairs = [(_random_poly(ctx, rng, 5), _random_poly(ctx, rng, 5)) for _ in range(5)]
    monic = [(_random_poly(ctx, rng, 6), _random_poly(ctx, rng, 2, ctx.one)) for _ in range(5)]
    built = _count_method(monkeypatch, CycloNumber, "__init__")
    for a, b in pairs:
        a * b
    assert built == []
    for a, b in monic:
        q, r = divmod(a, b)
        assert q * b + r == a
    assert built == []


def _hopf4_boundaries():
    spec = parse_job((SAMPLES / "hopf4_twisted_z12.job").read_text(encoding="utf-8"))
    ctx = spec.context()
    complex_ = build_complex(spec.presentation(), spec.augmentation(), spec.representation(ctx))
    _, rank, _, _, vinv = certified_smith_form(complex_.boundaries[0])
    w = vinv * complex_.boundaries[1]
    return complex_.boundaries[0], w.submatrix(range(rank, w.rows), range(w.cols))


@pytest.mark.parametrize("which", ["d1", "Y"])
def test_smith_form_inverts_at_most_once_per_corner_entry(monkeypatch, which):
    # An entry enters the corner when a pivot is chosen (once per divisor)
    # or when a division by the corner leaves a nonzero remainder, so these
    # bound the entries.  Each entry is made monic with at most one inverse,
    # and the divisions by the monic corner invert nothing.
    matrix = dict(zip(("d1", "Y"), _hopf4_boundaries()))[which]
    inverses = _count_method(monkeypatch, CycloNumber, "inverse")
    divide = LaurentPoly.__divmod__
    remainders, inside = [], []

    def counted_divmod(a, b):
        before = len(inverses)
        q, r = divide(a, b)
        remainders.append(bool(r))
        inside.append(len(inverses) - before)
        return q, r

    monkeypatch.setattr(LaurentPoly, "__divmod__", counted_divmod)
    snf = matrix.smith_normal_form()
    assert snf.rank > 0 and remainders
    assert sum(inside) == 0
    assert len(inverses) <= snf.rank + sum(remainders)


HOPF4_RANK2_JOB = """
field cyclotomic 12
builder hopf d=4
eps x0=4 x1=1 x2=1 x3=1
rho x0 = [[z, 0], [0, z]]
rho x1 = [[1, z], [z^2, 2]]
rho x2 = [[z^3, 1], [0, 1]]
rho x3 = [[1, 0], [z, z^5]]
analyze delta wada
"""


@pytest.mark.parametrize(
    "text",
    [(SAMPLES / "hopf4_twisted_z12.job").read_text(encoding="utf-8"), HOPF4_RANK2_JOB],
    ids=["hopf4_twisted_z12", "hopf4_rank2"],
)
def test_bareiss_determinant_inverts_at_most_once_per_step(monkeypatch, text):
    # Every entry of a Bareiss step is divided by the same previous pivot,
    # which is made monic once for the step, not once per division.  The
    # rank-2 job's Wada minor is 6 x 6.
    spec = parse_job(text)
    ctx = spec.context()
    complex_ = build_complex(spec.presentation(), spec.augmentation(), spec.representation(ctx))
    inverses = _count_method(monkeypatch, CycloNumber, "inverse")
    determinant = LaurentMatrix.determinant
    per_call = []

    def counted_determinant(self):
        before = len(inverses)
        det = determinant(self)
        per_call.append((self.rows, len(inverses) - before))
        return det

    monkeypatch.setattr(LaurentMatrix, "determinant", counted_determinant)
    wada_agreement(complex_, None)
    assert per_call and max(n for n, _ in per_call) > 2
    for n, count in per_call:
        assert count <= n - 1, (n, count)


@pytest.mark.parametrize("n", [1, 5, 12])
def test_scalar_rank_and_det_invert_nothing(monkeypatch, n):
    # Fraction-free elimination on integer rows: rank builds no field
    # element, det builds only its result, and neither inverts.
    ctx = FieldContext(n)
    rng = random.Random(n)
    rows = [
        [CycloNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)], rng.choice((1, 2, 3))) for _ in range(6)]
        for _ in range(6)
    ]
    square = ScalarMatrix(ctx, rows)
    wide = ScalarMatrix(ctx, rows[:4])
    inverses = _count_method(monkeypatch, CycloNumber, "inverse")
    built = _count_method(monkeypatch, CycloNumber, "__init__")
    assert square.rank() == 6 and wide.rank() == 4
    assert built == []
    assert not square.det().is_zero()
    assert len(built) == 1
    assert inverses == []


def _random_scalar_matrix(ctx, rng, n):
    return ScalarMatrix(
        ctx,
        [[CycloNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)], rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)],
    )


@pytest.mark.parametrize("n", [1, 2, 5])
def test_scalar_inverse_inverts_nothing(monkeypatch, n):
    # Fraction-free Gauss-Jordan: one cofactor per step after the first and
    # one for the final division by the last pivot, no field inverse.
    ctx = FieldContext(12)
    m = _random_scalar_matrix(ctx, random.Random(f"inverse-{n}"), n)
    inverses = _count_method(monkeypatch, CycloNumber, "inverse")
    cofactors = _count_method(monkeypatch, FieldContext, "_cofactor")
    inv = m.inverse()
    assert inverses == []
    assert len(cofactors) <= n
    assert (m * inv).is_identity()


def test_each_elimination_runs_one_bareiss(monkeypatch):
    # rank, det, inverse and the Laurent determinant share one loop, and
    # each runs it once on a matrix with a nonempty core.
    ctx = FieldContext(12)
    rng = random.Random("one-bareiss")
    m = _random_scalar_matrix(ctx, rng, 4)
    lm = LaurentMatrix(ctx, [[_random_poly(ctx, rng, 1) for _ in range(3)] for _ in range(3)])
    calls = _count_method(monkeypatch, Matrix, "_bareiss")
    for op in (m.rank, m.det, m.inverse, lm.determinant):
        before = len(calls)
        op()
        assert len(calls) - before == 1, op


def test_smith_form_with_a_unit_corner_walks_no_empty_divisor(monkeypatch):
    # A unit corner is 1 after it enters monic: it divides every entry
    # without a walk over the entry's rows, and the divisibility pass skips
    # it.
    import twistalex.laurent as laurent

    ctx = FieldContext(12)
    rng = random.Random(21)
    rows = [[_random_poly(ctx, rng, 2) for _ in range(4)] for _ in range(3)]
    rows[1][2] = LaurentPoly(ctx, [ctx.zeta(5)], 3)
    matrix = LaurentMatrix(ctx, rows)
    product_rows = laurent._product_rows
    empty_tails = []

    def counted(context, flat, terms):
        def checked():
            for term in terms:
                if not term[2]:
                    empty_tails.append(term)
                yield term

        return product_rows(context, flat, checked())

    monkeypatch.setattr(laurent, "_product_rows", counted)
    snf = matrix.smith_normal_form()
    assert snf.rank == 3 and snf.divisors[0].is_one()
    assert empty_tails == []


def test_polynomial_text_builds_no_field_elements(monkeypatch):
    # Reports print many polynomials: each coefficient's text is read off its
    # integer row.
    ctx = FieldContext(12)
    rng = random.Random(8)
    polys = [_random_poly(ctx, rng, 6) for _ in range(5)]
    built = _count_method(monkeypatch, CycloNumber, "__init__")
    assert all(str(p) for p in polys)
    assert built == []


def test_evaluate_builds_only_its_result(monkeypatch):
    # Horner on the integer rows, the t^low factor included: one field
    # element per evaluation, whatever the span.
    ctx = FieldContext(12)
    rng = random.Random(5)
    polys = [_random_poly(ctx, rng, span) for span in (0, 3, 8)]
    polys += [LaurentPoly(ctx, p.coeffs, low) for p in polys for low in (-3, 4)]
    values = [ctx.zeta(5), CycloNumber(ctx, [1, -2, 0, 3], 5), ctx.from_rational(-3)]
    matrix = LaurentMatrix(ctx, [polys[:3], polys[3:6]])
    built = _count_method(monkeypatch, CycloNumber, "__init__")
    for p in polys:
        for a in values:
            before = len(built)
            p.evaluate(a)
            assert len(built) - before == 1, (p, a)
    before = len(built)
    matrix.specialize(values[1])
    assert len(built) - before == 6


def _inversion_sign(order) -> int:
    inversions = sum(1 for i in range(len(order)) for j in range(i) if order[j] > order[i])
    return -1 if inversions % 2 else 1


def _permuted(entries, rows, cols):
    return [[entries[i][j] for j in cols] for i in rows]


@pytest.mark.parametrize("shape", ["diagonal", "triangular"])
def test_a_permuted_triangular_determinant_divides_nothing(monkeypatch, shape):
    # Singleton peeling empties the whole matrix: the determinant is the
    # signed product of the diagonal, with no Bareiss division.
    ctx = FieldContext(12)
    rng = random.Random(f"peel-{shape}")
    n = 12
    zero = LaurentPoly.zero(ctx)
    diagonal = [_random_poly(ctx, rng, rng.randint(0, 3)) for _ in range(n)]
    entries = [
        [diagonal[i] if i == j else _random_poly(ctx, rng, 2) if shape == "triangular" and j > i else zero for j in range(n)]
        for i in range(n)
    ]
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    if _inversion_sign(rows) * _inversion_sign(cols) > 0:
        rows[0], rows[1] = rows[1], rows[0]
    expected = -math.prod(diagonal[1:], start=diagonal[0])
    matrix = LaurentMatrix(ctx, _permuted(entries, rows, cols))
    divisions = _count_method(monkeypatch, LaurentPoly, "__divmod__")
    assert matrix.determinant() == expected
    assert divisions == []


@pytest.mark.parametrize("d", [20, 40])
def test_the_hopf_wada_ratio_makes_a_linear_number_of_divisions(monkeypatch, d):
    # The reduced Fox matrix of the Hopf arrangement is diagonal up to a row
    # permutation: dense Bareiss made a number of exact divisions cubic in d.
    spec = parse_job(f"field rational\nbuilder hopf d={d}\nrho trivial 1\nanalyze delta wada\n")
    complex_ = spec.chain_complex()
    ctx = complex_.context
    divisions = _count_method(monkeypatch, LaurentPoly, "__divmod__")
    ratio = wada_agreement(complex_, None)[0]
    assert len(divisions) <= d
    t_d_minus_1 = LaurentPoly(ctx, [-1] + [0] * (d - 1) + [1])
    assert ratio.unit_equal(t_d_minus_1 ** (d - 2))


# Unit pivots in front of Bareiss: a unit u = c t^k of the determinant's
# core leaves with its row and column by a Schur step that divides by
# nothing, and forms u^-1 only when another row has an entry in its column.


def _unit_blocks(ctx, rng, blocks):
    """Blocks [[a, b], [c, 2 c b / a]] of units on the diagonal, rows and
    columns shuffled, and the product of the block determinants b c with
    the sign of the shuffle.  Every Schur complement of a unit in a block is
    a unit."""
    n = 2 * blocks
    zero = LaurentPoly.zero(ctx)
    entries = [[zero] * n for _ in range(n)]
    expected = LaurentPoly.one(ctx)
    for k in range(0, n, 2):
        a, b, c = (_random_poly(ctx, rng, 0) for _ in range(3))
        entries[k][k], entries[k][k + 1], entries[k + 1][k] = a, b, c
        entries[k + 1][k + 1] = (c * b * 2).exact_div(a)
        expected = expected * b * c
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    sign = _inversion_sign(rows) * _inversion_sign(cols)
    return LaurentMatrix(ctx, _permuted(entries, rows, cols)), -expected if sign < 0 else expected


@pytest.mark.parametrize("blocks", [2, 3, 6])
def test_a_matrix_whose_units_exhaust_it_runs_no_bareiss(monkeypatch, blocks):
    # Unit pivots clear the core down to two rows, a d - b c: no Bareiss
    # loop and no division.  The first pivot of a block updates the other
    # row of its block and inverts once; the unit it leaves, alone in its
    # row and column, goes next and inverts nothing.
    ctx = FieldContext(12)
    matrix, expected = _unit_blocks(ctx, random.Random(f"unit-blocks-{blocks}"), blocks)
    calls = _count_method(monkeypatch, Matrix, "_bareiss")
    divisions = _count_method(monkeypatch, LaurentPoly, "__divmod__")
    inverses = _count_method(monkeypatch, CycloNumber, "inverse")
    assert matrix.determinant() == expected
    assert calls == [] and divisions == []
    assert len(inverses) <= blocks - 1


@pytest.mark.parametrize("line", ["row", "column"])
def test_a_schur_step_that_leaves_a_zero_line_ends_the_determinant(monkeypatch, line):
    # Rows a and b of units with equal exponents and k = a + b, the other
    # rows nonunits: the first unit pivot leaves rows b and k equal, the
    # second leaves a zero row, and the determinant returns 0 there, with
    # no Bareiss loop and no closing a d - b c.  The transpose does the
    # same with columns.
    ctx = FieldContext(12)
    rng = random.Random("zero-row")
    n = 6
    entries = [[_random_poly(ctx, rng, 1) for _ in range(n)] for _ in range(n)]
    entries[0] = [_random_poly(ctx, rng, 0) for _ in range(n)]
    entries[1] = [LaurentPoly(ctx, [ctx.zeta(rng.randrange(12)) * rng.randint(1, 5)], x.low) for x in entries[0]]
    entries[2] = [x + y for x, y in zip(entries[0], entries[1])]
    matrix = LaurentMatrix(ctx, entries if line == "row" else [list(col) for col in zip(*entries)])
    calls = _count_method(monkeypatch, Matrix, "_bareiss")
    crosses = _count_method(monkeypatch, LaurentMatrix, "_cross")
    assert matrix.determinant().is_zero()
    assert calls == [] and crosses == []


A5_RANK2_JOB = """
field cyclotomic 12
builder a_odd_reduced n=3
rho a0 = [[z^7, -z^9], [z^9, 0]]
rho a1 = [[-z + z^9, z^3 - z^7 + z^11], [-z^11, z^9]]
rho a2 = [[2*z^7 - z^11, -2*z + 2*z^5 - z^9], [z, -z^7 + z^11]]
rho a3 = [[0, z^11], [-z^3, -z + 2*z^9]]
rho a4 = [[-z^3 + 2*z^7, -2*z + 3*z^5 - 2*z^9], [z^5, z^3 - z^7]]
rho a5 = [[-z + z^5, 3*z^3 - z^7 - z^11], [-z^7, -z^5 + 2*z^9]]
rho b = [[1, -z^6 + z^10], [0, z^8]]
analyze delta wada
"""


def test_the_a5_wada_minors_invert_once_per_unit_pivot_that_updates_a_row(monkeypatch):
    # The rank-2 A_5 Fox matrix is mostly units: its Wada minors leave no
    # core for Bareiss, and each unit pivot row that updates another row
    # (the src of laurent._add_multiple) costs at most one inverse.
    import twistalex.laurent as laurent

    complex_ = parse_job(A5_RANK2_JOB).chain_complex()
    inverses = _count_method(monkeypatch, CycloNumber, "inverse")
    bareiss = _count_method(monkeypatch, Matrix, "_bareiss")
    add_multiple = laurent._add_multiple
    pivot_rows = []

    def counted_add_multiple(context, row, factor, src, *args):
        if not any(src is p for p in pivot_rows):
            pivot_rows.append(src)
        return add_multiple(context, row, factor, src, *args)

    monkeypatch.setattr(laurent, "_add_multiple", counted_add_multiple)
    determinant = LaurentMatrix.determinant
    per_call = []

    def counted_determinant(self):
        pivot_rows.clear()
        before = len(inverses)
        det = determinant(self)
        per_call.append((self.rows, len(pivot_rows), len(inverses) - before))
        return det

    monkeypatch.setattr(LaurentMatrix, "determinant", counted_determinant)
    wada_agreement(complex_, None)
    assert bareiss == []
    assert max(n for n, _, _ in per_call) == 12 and sum(p for _, p, _ in per_call) > 0
    for n, pivots, count in per_call:
        assert count <= pivots, (n, pivots, count)


@pytest.mark.parametrize("seed", range(6))
def test_a_unit_rich_determinant_is_the_product_of_the_smith_divisors(seed):
    # The Smith form chooses its pivots and clears its corners its own way;
    # both must agree up to a unit, and on 0 for a dependent row.
    ctx = FieldContext(12)
    rng = random.Random(f"unit-rich-smith-{seed}")
    n = 5
    zero = LaurentPoly.zero(ctx)
    entries = [
        [rng.choice([zero, _random_poly(ctx, rng, 1)] + [_random_poly(ctx, rng, 0)] * 3) for _ in range(n)]
        for _ in range(n)
    ]
    dependent = seed % 3 == 2
    if dependent:
        a, b, k = rng.sample(range(n), 3)
        entries[k] = [x + y for x, y in zip(entries[a], entries[b])]
    matrix = LaurentMatrix(ctx, entries)
    snf = matrix.smith_normal_form()
    det = matrix.determinant()
    assert (snf.rank < n) == dependent
    if dependent:
        assert det.is_zero()
    else:
        assert associates(det, math.prod(snf.divisors[1:], start=snf.divisors[0]))


def test_the_scalar_rank_of_a_permuted_diagonal_takes_no_cofactor(monkeypatch):
    # Peeling leaves no core for Bareiss, whose exact divisions by
    # non-rational pivots each take a cofactor.
    ctx = FieldContext(60)
    rng = random.Random(60)
    n = 8
    diagonal = []
    while len(diagonal) < n:
        a = CycloNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)], rng.choice((1, 2, 3)))
        if not a.is_rational():
            diagonal.append(a)
    entries = [[diagonal[i] if i == j else ctx.zero for j in range(n)] for i in range(n)]
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    sign = _inversion_sign(rows) * _inversion_sign(cols)
    matrix = ScalarMatrix(ctx, _permuted(entries, rows, cols))
    expected = math.prod(diagonal[1:], start=diagonal[0])
    cofactors = _count_method(monkeypatch, FieldContext, "_cofactor")
    assert matrix.rank() == n
    assert matrix.det() == (expected if sign > 0 else -expected)
    assert cofactors == []


def test_a_division_is_one_pass_of_the_kernel(monkeypatch):
    # The division subtracts every s * divisor in place in one flat buffer,
    # so a dense 31-row quotient is one kernel call, not one per row.  A
    # rational unit factor scales rows: a product by a rational constant and
    # the normalization of a rational top coefficient convolve nothing.
    import twistalex.laurent as laurent

    ctx = FieldContext(12)
    rng = random.Random(15)
    a = _random_poly(ctx, rng, 40)
    b = _random_poly(ctx, rng, 10, ctx.from_rational(Fraction(3, 2)))
    p = _random_poly(ctx, rng, 6, ctx.from_rational(-7))
    calls = _count_calls(monkeypatch, laurent._product_rows)
    q, r = divmod(a, b)
    assert len(calls) <= 1
    assert q.span == 30 and all(any(row) for row in q.rows)
    calls.clear()
    c = Fraction(-2, 5)
    assert p * c == LaurentPoly(ctx, [x * c for x in p.coeffs], p.low)
    assert calls == []
    m = p.normalize()
    assert m.low == 0 and m.leading_coefficient() == ctx.one
    assert calls == []


@pytest.mark.parametrize("kind", ["laurent", "scalar"])
def test_a_power_squares_only_below_its_top_bit(monkeypatch, kind):
    # p ** k makes floor(log2 k) squares and popcount(k) - 1 other products.
    ctx = FieldContext(12)
    rng = random.Random(16)
    if kind == "laurent":
        cls, base = LaurentPoly, _random_poly(ctx, rng, 2)
    else:
        cls, base = CycloNumber, CycloNumber(ctx, [1, -1, 0, 2], 3)
    expected = [base**0]
    for _ in range(19):
        expected.append(expected[-1] * base)
    products = _count_method(monkeypatch, cls, "__mul__")
    assert base**0 == ctx.one and products == []
    for k in range(1, 20):
        products.clear()
        assert base**k == expected[k], k
        squares = sum(1 for x, y in products if x is y)
        assert squares == k.bit_length() - 1, k
        assert len(products) - squares == bin(k).count("1") - 1, k
