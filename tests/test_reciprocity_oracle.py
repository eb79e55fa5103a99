"""Reciprocity as an exact oracle for the twisted Alexander ratio.

For a unitary representation of a link group, here one of finite order,
the ratio Delta_1 / Delta_0 of a deficiency-1 presentation equals its own
conjugate under t -> t^-1 up to a unit (Kirk-Livingston, Topology 1999;
Kitano, Pacific J. Math. 1996; Hillman-Silver-Williams, AGT 2010): the
twisted complex is dual to itself, and RationalFunction.bar conjugates the
coefficients and inverts t.  The draws are roots of unity on the Hopf,
torus and cusp groups; the cusp with rho = 2 over Q is not unitary, and
there the check must fail."""

from __future__ import annotations

import random

import pytest

from oracles import random_root_of_unity
from twistalex.homology import build_complex, homology
from twistalex.presentations import (
    Augmentation,
    Representation,
    braid_cusp_presentation,
    hopf_augmentation,
    hopf_presentation,
    rank_one_representation,
    torus_germ_augmentation,
    torus_germ_presentation,
)
from twistalex.scalars import FieldContext, ScalarMatrix

CONDUCTORS = (1, 3, 4, 6, 12)
TORUS = ((2, 3), (2, 5), (3, 4), (3, 5))


def _root(ctx, rng):
    return random_root_of_unity(ctx, rng) * rng.choice((1, -1))


def _hopf_rank_two(ctx, d, rng):
    # x0 a scalar root of unity, the others a diagonal of roots of unity,
    # half of them times the swap: all unitary, and all commute with x0.
    images = [ScalarMatrix.identity(ctx, 2) * _root(ctx, rng)]
    for _ in range(1, d):
        a, b = _root(ctx, rng), _root(ctx, rng)
        images.append(ScalarMatrix(ctx, [[0, a], [b, 0]] if rng.random() < 0.5 else [[a, 0], [0, b]]))
    return Representation(ctx, images)


def _unitary_draws(n):
    ctx = FieldContext(n)
    rng = random.Random(f"reciprocity-{n}")
    draws = []
    for _ in range(2):
        for d in (2, 3, 4):
            pres, eps = hopf_presentation(d), hopf_augmentation([1] * d)
            roots = [_root(ctx, rng) for _ in range(d)]
            draws.append((f"hopf d={d} rank 1", pres, eps, rank_one_representation(ctx, pres, roots)))
            draws.append((f"hopf d={d} rank 2", pres, eps, _hopf_rank_two(ctx, d, rng)))
        for p, q in TORUS:
            pres, w = torus_germ_presentation(p, q), _root(ctx, rng)
            rho = rank_one_representation(ctx, pres, [w**q, w**p])
            draws.append((f"torus ({p}, {q})", pres, torus_germ_augmentation(p, q), rho))
        pres, w = braid_cusp_presentation(), _root(ctx, rng)
        draws.append(("cusp", pres, Augmentation([1, 1]), rank_one_representation(ctx, pres, [w, w])))
    return draws


@pytest.mark.parametrize("n", CONDUCTORS)
def test_the_ratio_of_a_unitary_representation_is_reciprocal(n):
    for label, pres, eps, rho in _unitary_draws(n):
        ratio = homology(build_complex(pres, eps, rho)).ratio()
        assert ratio.unit_equal(ratio.bar()), (label, str(ratio))


def test_the_cusp_with_rho_two_is_not_reciprocal():
    # Delta_1 / Delta_0 = (4t^2 - 2t + 1) / (2t - 1), whose bar is
    # (t^2 - 2t + 4) / (t - 2): not the same ratio up to a unit.
    ctx = FieldContext(1)
    pres = braid_cusp_presentation()
    rho = rank_one_representation(ctx, pres, [2, 2])
    ratio = homology(build_complex(pres, Augmentation([1, 1]), rho)).ratio()
    assert not ratio.unit_equal(ratio.bar()), str(ratio)
