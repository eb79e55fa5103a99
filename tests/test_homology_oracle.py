"""homology() against the certified route it replaced.

The certified route reads H1 off a kernel basis of d1: with U d1 V = D from
the certified Smith form of tests/oracles.py, the image of d2 in the basis V
is W = V^-1 d2, whose first rank(d1) rows vanish, and H1 is the cokernel of
the rows below them.  homology() reads the same modules off the ranks and
divisors of the engine's Smith forms of d1 and d2 alone; both must give the
same free ranks and the same normalized divisors in every degree."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from oracles import certified_smith_form, random_a_odd_representation, random_hopf_representation
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


def _cokernel(m, divisors, rank) -> ModuleShape:
    # R^rows / (column span), read off the divisors.
    return ModuleShape(m.context, m.rows - rank, [d for d in divisors if not d.is_one()])


def _certified_homology(complex_) -> tuple[ModuleShape, ModuleShape, ModuleShape]:
    ctx = complex_.context
    d1 = complex_.boundaries[0]
    divisors1, s, _, _, vinv = certified_smith_form(d1)
    w = vinv * complex_.boundaries[1]
    assert w.submatrix(range(s), range(w.cols)).is_zero()
    y = w.submatrix(range(s, w.rows), range(w.cols))
    divisors_y, rank_y = certified_smith_form(y)[:2]
    h2 = ModuleShape(ctx, complex_.ranks[2] - rank_y, ())
    return _cokernel(d1, divisors1, s), _cokernel(y, divisors_y, rank_y), h2


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


SAMPLE_CASES = _sample_complexes()
CASES = SAMPLE_CASES + _seeded_complexes() + [("free group on 3 generators", _free_group_complex())]
# Every sample job and a third of the rest.
SMITH_CASES = SAMPLE_CASES + CASES[len(SAMPLE_CASES) :: 3]


@pytest.mark.parametrize("label, complex_", CASES, ids=[label for label, _ in CASES])
def test_homology_matches_the_certified_route(label, complex_):
    result = homology(complex_)
    assert result.shapes == _certified_homology(complex_), label


def test_free_group_control_has_free_h1():
    result = homology(_free_group_complex())
    assert result.shapes[1].free_rank == 2 * (3 - 1)
    assert result.shapes[0].free_rank == 0 and result.shapes[2].free_rank == 0
    assert result.delta(1).is_zero()


@pytest.mark.parametrize("label, complex_", SMITH_CASES, ids=[label for label, _ in SMITH_CASES])
def test_the_smith_form_gives_the_certified_divisors(label, complex_):
    # Every boundary, as built and as reduced.
    for matrix in (*complex_.boundaries, *complex_.reduced()[0]):
        snf = matrix.smith_normal_form()
        assert (snf.divisors, snf.rank) == certified_smith_form(matrix)[:2], label


def test_homology_makes_no_matrix_product_and_keeps_no_transform(monkeypatch):
    products = []
    forms = []
    multiply = LaurentMatrix.__mul__
    smith = LaurentMatrix.smith_normal_form

    def counted_product(self, other):
        products.append((self.rows, self.cols))
        return multiply(self, other)

    def recorded_smith(self):
        snf = smith(self)
        forms.append((self, snf))
        return snf

    complexes = [cx for _, cx in CASES[::3]]
    monkeypatch.setattr(LaurentMatrix, "__mul__", counted_product)
    monkeypatch.setattr(LaurentMatrix, "smith_normal_form", recorded_smith)
    for cx in complexes:
        homology(cx)
    assert products == []
    assert len(forms) == 2 * len(complexes)
    for matrix, snf in forms:
        assert (snf.divisors, snf.rank) == certified_smith_form(matrix)[:2]
        assert type(snf).__slots__ == ("divisors", "rank")
