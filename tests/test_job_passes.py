"""How often a job runs its expensive passes: validation (once, in the
build_complex of parse_job), the Wada minors, specialization and the Fox
Jacobian; how often the polynomial and scalar-matrix layers build or
invert field elements; and how often their eliminations divide."""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest

from twistalex.homology import build_complex, specialize_homology, wada_ratio
from twistalex.jobs import parse_job, run_job
from twistalex.laurent import LaurentMatrix, LaurentPoly
from twistalex.presentations import Augmentation, Presentation, Representation, Word, fox_derivative, validate
from twistalex.scalars import CycloNumber, FieldContext, ScalarMatrix

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


def _x_l_y_minus_l_job(length: int) -> str:
    return f"generators x y\nrelator x^{length} y^-{length}\neps x=1 y=1\nrho x = [[1]]\nrho y = [[1]]\n"


def test_a_compute_job_walks_its_relator_letters_once(monkeypatch):
    # In the Fox pass of the build_complex that parse_job runs; run_job
    # reuses the complex.
    length = 200
    products = _count_method(monkeypatch, FieldContext, "_matrix_product")
    _, code = run_job(parse_job(_x_l_y_minus_l_job(length)), mode="compute")
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
    snf1 = complex_.boundary1.smith_normal_form()
    w = snf1.Vinv * complex_.boundary2
    return complex_.boundary1, w.submatrix(range(snf1.rank, w.rows), range(w.cols))


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
    wada_ratio(complex_)
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

    def counted(context, a, b):
        if not b:
            empty_tails.append(a)
        return product_rows(context, a, b)

    monkeypatch.setattr(laurent, "_product_rows", counted)
    for certificates in (True, False):
        snf = matrix.smith_normal_form(certificates=certificates)
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
    ratio = wada_ratio(complex_)
    assert len(divisions) <= d
    t_d_minus_1 = LaurentPoly(ctx, [-1] + [0] * (d - 1) + [1])
    assert ratio.unit_equal(t_d_minus_1 ** (d - 2))


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
