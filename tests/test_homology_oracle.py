"""homology() against the certified route it replaced.

The certified route reads H1 off a kernel basis of d1: with U d1 V = D from
the Smith form with certificates, the image of d2 in the basis V is
W = V^-1 d2, whose first rank(d1) rows vanish, and H1 is the cokernel of the
rows below them.  homology() reads the same modules off the ranks and
divisors of d1 and d2 alone; both must give the same free ranks and the same
normalized divisors in every degree."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from oracles import random_a_odd_representation, random_hopf_representation
from twistalex.homology import build_complex, homology
from twistalex.jobs import parse_job
from twistalex.laurent import LaurentMatrix, ModuleShape
from twistalex.presentations import (
    Augmentation,
    Presentation,
    Representation,
    a_odd_augmentation,
    a_odd_presentation,
    a_odd_reduced_presentation,
    hopf_augmentation,
    hopf_presentation,
)
from twistalex.scalars import FieldContext

SAMPLES = Path(__file__).resolve().parent.parent / "sample_jobs"


def _cokernel(snf) -> ModuleShape:
    # R^rows / (column span), read off the divisors.
    m = snf.matrix
    return ModuleShape(m.context, m.rows - snf.rank, [d for d in snf.divisors if not d.is_one()])


def _certified_homology(complex_) -> tuple[ModuleShape, ModuleShape, ModuleShape]:
    ctx = complex_.context
    snf1 = complex_.boundaries[0].smith_normal_form()
    s = snf1.rank
    w = snf1.Vinv * complex_.boundaries[1]
    assert w.submatrix(range(s), range(w.cols)).is_zero()
    snf_y = w.submatrix(range(s, w.rows), range(w.cols)).smith_normal_form()
    return _cokernel(snf1), _cokernel(snf_y), ModuleShape(ctx, complex_.ranks[2] - snf_y.rank, ())


def _sample_complexes():
    out = []
    for path in sorted(SAMPLES.glob("*.job")):
        spec = parse_job(path.read_text(encoding="utf-8"))
        ctx = spec.context()
        out.append((path.stem, build_complex(spec.presentation(), spec.augmentation(), spec.representation(ctx))))
    return out


def _seeded_complexes():
    # Hopf and A_(2n-1) triples of rank 1-3 over Q, Q(zeta_6), Q(zeta_12).
    out = []
    for n in (1, 6, 12):
        ctx = FieldContext(n)
        rng = random.Random(f"homology-oracle-{n}")
        for r in (1, 2, 3):
            for d, family in ((2, "scalar"), (3, "diagonal"), (3, "scalar")):
                rho = random_hopf_representation(ctx, d, r, rng, family=family)
                cx = build_complex(hopf_presentation(d), hopf_augmentation([1] * d), rho)
                out.append((f"hopf d={d} {family} r={r} n={n}", cx))
            for pres in (a_odd_presentation(2), a_odd_reduced_presentation(2)):
                rho = random_a_odd_representation(ctx, 2, r, rng, family="conjugate")
                cx = build_complex(pres, a_odd_augmentation(2), rho)
                out.append((f"a_3 {pres.relator_count} relators r={r} n={n}", cx))
    return out


def _free_group_complex():
    # Three parallel lines: the free group on three generators, no relators,
    # so H1 is free of rank r (g - 1) and there is no d2 to take divisors of.
    ctx = FieldContext(6)
    pres = Presentation(["x", "y", "w"], [])
    rho = Representation(ctx, [[[ctx.zeta(1), 0], [0, 1]], [[0, 1], [1, 0]], [[2, 0], [0, ctx.zeta(2)]]])
    return build_complex(pres, Augmentation([1, 1, 1]), rho)


CASES = _sample_complexes() + _seeded_complexes() + [("free group on 3 generators", _free_group_complex())]


@pytest.mark.parametrize("label, complex_", CASES, ids=[label for label, _ in CASES])
def test_homology_matches_the_certified_route(label, complex_):
    result = homology(complex_)
    assert result.shapes == _certified_homology(complex_), label


def test_free_group_control_has_free_h1():
    result = homology(_free_group_complex())
    assert result.shapes[1].free_rank == 2 * (3 - 1)
    assert result.shapes[0].free_rank == 0 and result.shapes[2].free_rank == 0
    assert result.delta(1).is_zero()


@pytest.mark.parametrize("label, complex_", CASES[::3], ids=[label for label, _ in CASES[::3]])
def test_smith_form_without_certificates_gives_the_same_divisors(label, complex_):
    for matrix in (complex_.boundaries[0], complex_.boundaries[1]):
        full = matrix.smith_normal_form()
        bare = matrix.smith_normal_form(certificates=False)
        assert bare.divisors == full.divisors and bare.rank == full.rank, label
        assert (bare.U, bare.V, bare.Vinv) == (None, None, None)


def test_homology_makes_no_matrix_product_and_no_certified_smith_form(monkeypatch):
    products = []
    forms = []
    multiply = LaurentMatrix.__mul__
    smith = LaurentMatrix.smith_normal_form

    def counted_product(self, other):
        products.append((self.rows, self.cols))
        return multiply(self, other)

    def recorded_smith(self, *args, **kwargs):
        snf = smith(self, *args, **kwargs)
        forms.append(snf)
        return snf

    complexes = [cx for _, cx in CASES[::3]]
    monkeypatch.setattr(LaurentMatrix, "__mul__", counted_product)
    monkeypatch.setattr(LaurentMatrix, "smith_normal_form", recorded_smith)
    for cx in complexes:
        homology(cx)
    assert products == []
    assert len(forms) == 2 * len(complexes)
    assert all(snf.U is None and snf.V is None and snf.Vinv is None for snf in forms)
