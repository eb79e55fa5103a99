"""The reduced complex: unit pairs cancelled before any Smith form.

homology and specialize_homology read TwistedChainComplex.reduced(); these
tests hold it against the complex as built, whose Smith forms and ranks at a
point are computed here directly."""

from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

from oracles import random_a_odd_representation, random_hopf_representation
from twistalex.homology import TwistedChainComplex, _free_ranks, build_complex, homology, specialize_homology
from twistalex.jobs import parse_job
from twistalex.laurent import LaurentMatrix, LaurentPoly
from twistalex.presentations import (
    Augmentation,
    Presentation,
    Word,
    a_odd_augmentation,
    a_odd_presentation,
    a_odd_reduced_presentation,
    hopf_augmentation,
    hopf_presentation,
    rank_one_representation,
)
from twistalex.scalars import FieldContext

SAMPLES = sorted((Path(__file__).resolve().parent.parent / "sample_jobs").glob("*.job"))
Z12 = FieldContext(12)
Q = FieldContext(1)


@lru_cache(maxsize=None)
def _seeded_complexes():
    """Hopf and A_(2n-1) complexes over Q(zeta_12), rho of rank 1 to 3.  A
    diagonal rho on Hopf leaves no unit entry; the others have some."""
    rng = random.Random(23)
    out = []
    for i in range(64):
        d, r = (3, 4, 5, 6)[i % 4], 2 + (i % 5 == 0)
        family = "scalar" if i < 60 else "diagonal"
        pres, eps = hopf_presentation(d), hopf_augmentation([1] * d)
        out.append(build_complex(pres, eps, random_hopf_representation(Z12, d, r, rng, family)))
    for i in range(12):
        n, r = 1 + i % 3, 1 + i % 2
        family = "conjugate" if i % 2 else "diagonal"
        pres = (a_odd_presentation, a_odd_reduced_presentation)[i % 2](n)
        out.append(build_complex(pres, a_odd_augmentation(n), random_a_odd_representation(Z12, n, r, rng, family)))
    return tuple(out)


def _sample_complexes():
    return [parse_job(path.read_text(encoding="utf-8")).chain_complex() for path in SAMPLES]


def _koszul_complex(values, eps_values):
    """T^3 from the commutator presentation of Z^3 and its 3-cell, under the
    rank-1 rho with the given values: the Koszul complex of
    (u_x, u_y, u_z), u = rho(g) t^eps(g) - 1, with d_3 = (u_z, -u_y, u_x)^T."""
    names = ["x", "y", "z"]
    relators = [Word.parse(text, names) for text in ("x y x^-1 y^-1", "x z x^-1 z^-1", "y z y^-1 z^-1")]
    pres = Presentation(names, relators)
    ctx = FieldContext(1)
    cx2 = build_complex(pres, Augmentation(eps_values), rank_one_representation(ctx, pres, values))
    u = [LaurentPoly(ctx, [v], e) - LaurentPoly.one(ctx) for v, e in zip(values, eps_values)]
    d3 = LaurentMatrix(ctx, [[u[2]], [-u[1]], [u[0]]])
    assert (cx2.boundaries[1] * d3).is_zero()
    return TwistedChainComplex((*cx2.boundaries, d3), cx2.triple)


def _unreduced_shapes(cx):
    """(free rank, nonunit divisors) in every degree, from one Smith form of
    each boundary as built."""
    snfs = [d.smith_normal_form() for d in cx.boundaries]
    free = _free_ranks(cx.ranks, [snf.rank for snf in snfs])
    torsion = [tuple(d for d in snf.divisors if not d.is_one()) for snf in snfs] + [()]
    return list(zip(free, torsion))


def _unreduced_dims(cx, value):
    """h_i at t = value from the exact ranks of the boundaries as built,
    lifted into the field of value."""
    boundaries = cx.boundaries
    if value.context is not cx.context:
        boundaries = [d.embed(value.context) for d in boundaries]
    return _free_ranks(cx.ranks, [d.specialize(value).rank() for d in boundaries])


def _cancelled(cx):
    return sum(cx.ranks) - sum(cx.reduced()[1])


def _all_complexes():
    # Three Koszul complexes of T^3 with one unit u_g each: the middle
    # boundary loses cells to its own units and to those of both neighbours.
    units = [([3, 2, 1], [1, 0, 1]), ([1, 1, 2], [1, 1, 0]), ([2, 1, 1], [0, 1, 1])]
    return [*_sample_complexes(), *_seeded_complexes(), *(_koszul_complex(*args) for args in units)]


def test_reduced_homology_matches_the_smith_forms_of_the_complex_as_built():
    complexes = _all_complexes()
    for cx in complexes:
        shapes = homology(cx).shapes
        assert [(s.free_rank, tuple(s.divisors)) for s in shapes] == _unreduced_shapes(cx)
    # Not vacuous: most complexes lose cells.
    assert sum(1 for cx in complexes if _cancelled(cx)) > len(complexes) // 2


def test_the_reduced_boundaries_compose_to_zero_and_hold_no_unit():
    for cx in _all_complexes():
        boundaries, ranks = cx.reduced()
        assert len(ranks) == len(cx.ranks)
        assert sum((-1) ** i * c for i, c in enumerate(ranks)) == cx.euler_characteristic
        # The shapes: d_i is c_(i-1) x c_i, with no rows or no columns too.
        for i, d in enumerate(boundaries, 1):
            assert (d.rows, d.cols) == (ranks[i - 1], ranks[i])
        for low, high in zip(boundaries, boundaries[1:]):
            assert (low * high).is_zero()
        assert not any(e.is_unit() for d in boundaries for row in d.entries for e in row)
        # The complex as built is left as it was.
        assert cx.ranks == (cx.boundaries[0].rows, *(d.cols for d in cx.boundaries))


def test_a_boundary_that_loses_every_row_keeps_its_columns():
    # d1 = (1, 0) cancels C0 whole; the reduced d1 is 0 x 1, so d1 d2 is
    # still defined, and H1 = R/(t - 1).
    t_minus_1 = LaurentPoly(Q, [-1, 1])
    cx = TwistedChainComplex([LaurentMatrix(Q, [[1, 0]]), LaurentMatrix(Q, [[0], [t_minus_1]])])
    (d1, d2), ranks = cx.reduced()
    assert ranks == (0, 1, 1)
    assert (d1.rows, d1.cols) == (0, 1) and (d2.rows, d2.cols) == (1, 1)
    assert d1 * d2 == LaurentMatrix.zero(Q, 0, 1)
    shapes = homology(cx).shapes
    assert [(s.free_rank, tuple(s.divisors)) for s in shapes] == _unreduced_shapes(cx) == [(0, ()), (0, (t_minus_1,)), (0, ())]


def test_ranks_at_a_root_of_a_divisor_match_the_complex_as_built():
    # At a root a of a torsion divisor the ranks of the boundaries drop, and
    # h_i(a) > 0 for some i.  The points are the zeta_12^k, for every complex
    # over a subfield of Q(zeta_12).
    drops = 0
    for cx in _all_complexes():
        if 12 % cx.context.conductor:
            continue
        divisors = [d.embed(Z12) for shape in homology(cx).shapes for d in shape.divisors]
        for a in (Z12.zeta(k) for k in range(12)):
            if any(d.evaluate(a).is_zero() for d in divisors):
                dims = specialize_homology(cx, a)
                assert dims == _unreduced_dims(cx, a)
                assert any(dims)
                drops += bool(_cancelled(cx))
    assert drops >= 5


def test_the_koszul_complex_of_the_three_torus_reduces_in_every_degree():
    # u_y = 2 - 1 is a unit: the Koszul complex is exact, and the reduction
    # cancels cells in each of its three boundaries' degrees.
    cx = _koszul_complex([1, 2, 1], [1, 0, 1])
    assert cx.ranks == (1, 3, 3, 1)
    boundaries, ranks = cx.reduced()
    assert ranks == (0, 0, 0, 0)
    assert all(not d.rows for d in boundaries)
    assert [(s.free_rank, tuple(s.divisors)) for s in homology(cx).shapes] == _unreduced_shapes(cx) == [(0, ())] * 4
    for value in (1, 2, -1):
        assert specialize_homology(cx, value) == _unreduced_dims(cx, cx.context.from_rational(value)) == (0, 0, 0, 0)
    # With no unit nothing cancels: H_i = (F[t^+-1] / (t - 1))^C(2, i).
    plain = _koszul_complex([1, 1, 1], [1, 1, 1])
    assert plain.reduced()[1] == plain.ranks
    step = LaurentPoly(plain.context, [-1, 1])
    assert [list(s.divisors) for s in homology(plain).shapes] == [[step], [step, step], [step], []]
    assert specialize_homology(plain, 1) == (1, 3, 3, 1)
