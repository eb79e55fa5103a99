"""The Milnor fibration as an exact oracle for the degree of Delta_1 / Delta_0.

When eps is the class of a fibration X -> S^1 with fiber F, the infinite
cyclic cover of X is homotopy equivalent to F, so every H_i of the twisted
complex is the finite-dimensional space H_i(F; rho), with t acting by the
monodromy.  So every free rank is 0, and Delta_i, the characteristic
polynomial of that action, has degree dim H_i(F; rho); for rank-r rho the
alternating sum of these dimensions is r * chi(F).  F is a graph, so
H_2(F) = 0 and

    deg Delta_1 - deg Delta_0 = -r * chi(F).

chi(F) is a closed form of the family and its weights, computed here with
no code of the engine:

- hopf(d), weights w: f = prod l_i^(w_i) is homogeneous of degree
  sum(w) = eps(x0), and F covers P^1 minus d points sum(w) times, so
  chi(F) = -eps(x0) * (d - 2) (Milnor, Singular points of complex
  hypersurfaces, 1968, 9).
- a_odd_reduced(n), the A_(2n-1) germ y^2 = x^(2n) with unit weights: the
  Milnor number is 2n - 1, so chi(F) = 1 - (2n - 1) = 2 - 2n.
- torus(p, q) with weight w: the Milnor number is (p - 1)(q - 1), and the
  weight w takes the w-fold class, so chi(F) = w * (1 - (p - 1)(q - 1)).
  The cusp in braid form is torus(2, 3): chi(F) = -w.
- circle, one line with weight w: F is w points, chi(F) = w.

The control is hopf(3) with weights (1, 1, -2): sum(w) = 0 is no fibration
class, and with trivial rank-1 rho its H_1 and H_2 are free of rank 1.
"""

from __future__ import annotations

import itertools
import random

import pytest

from oracles import (
    random_a_odd_representation,
    random_hopf_representation,
    random_invertible_matrix,
)
from twistalex.homology import build_complex, homology
from twistalex.presentations import (
    Augmentation,
    Presentation,
    Representation,
    a_odd_augmentation,
    a_odd_reduced_presentation,
    braid_cusp_presentation,
    hopf_augmentation,
    hopf_presentation,
    rank_one_representation,
    torus_germ_augmentation,
    torus_germ_presentation,
)
from twistalex.scalars import FieldContext

CONDUCTORS = (1, 3, 4, 12)


def _degree_gap(pres, eps, rho):
    """(free ranks, deg Delta_1 - deg Delta_0) from the engine."""
    result = homology(build_complex(pres, eps, rho))
    free = tuple(shape.free_rank for shape in result.shapes)
    if any(free):
        return free, None
    return free, result.delta(1).span - result.delta(0).span


def _assert_fibration(pres, eps, rho, chi, label):
    free, gap = _degree_gap(pres, eps, rho)
    rank = rho.matrices[0].rows
    assert free == (0,) * len(free), label
    assert gap == -rank * chi, label


@pytest.mark.parametrize("n", CONDUCTORS)
def test_hopf_fibrations(n):
    ctx = FieldContext(n)
    rng = random.Random(f"fibration-hopf-{n}")
    for family in ("scalar", "diagonal"):
        for d in range(2, 6):
            for weights in ([1] * d, [rng.randint(1, 3) for _ in range(d)]):
                for rank in (1, 2):
                    rho = random_hopf_representation(ctx, d, rank, rng, family)
                    label = (family, d, weights, rank)
                    chi = -sum(weights) * (d - 2)
                    _assert_fibration(hopf_presentation(d), hopf_augmentation(weights), rho, chi, label)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_a_odd_fibrations(n):
    ctx = FieldContext(n)
    rng = random.Random(f"fibration-a-odd-{n}")
    for family in ("diagonal", "conjugate"):
        for k, rank in itertools.product(range(1, 4), (1, 2)):
            rho = random_a_odd_representation(ctx, k, rank, rng, family)
            label = (family, k, rank)
            _assert_fibration(a_odd_reduced_presentation(k), a_odd_augmentation(k, 1, 1), rho, 2 - 2 * k, label)


def _roots(ctx):
    return [ctx.zeta(j) for j in range(ctx.conductor)] if ctx.conductor > 1 else [ctx.one, -ctx.one]


def _root_pair(ctx, rng, p, q):
    """Roots of unity a, b of the context with a^p = b^q."""
    return rng.choice([(a, b) for a in _roots(ctx) for b in _roots(ctx) if a**p == b**q])


@pytest.mark.parametrize("n", CONDUCTORS)
def test_torus_fibrations(n):
    ctx = FieldContext(n)
    rng = random.Random(f"fibration-torus-{n}")
    for p, q in ((2, 3), (2, 5), (3, 4)):
        w = rng.randint(1, 3)
        pres = torus_germ_presentation(p, q)
        rho = rank_one_representation(ctx, pres, _root_pair(ctx, rng, p, q))
        chi = w * (1 - (p - 1) * (q - 1))
        _assert_fibration(pres, torus_germ_augmentation(p, q, w), rho, chi, (p, q, w))
    # The cusp in braid form is torus(2, 3) on meridians, where rank-1 rho
    # takes one value on both.
    w = rng.randint(1, 3)
    a = rng.choice(_roots(ctx))
    pres = braid_cusp_presentation()
    _assert_fibration(pres, Augmentation([w, w]), rank_one_representation(ctx, pres, [a, a]), -w, ("cusp", w))


@pytest.mark.parametrize("n", CONDUCTORS)
def test_circle_fibrations(n):
    # One line: z -> z^w on C^*, whose fiber is w points.
    ctx = FieldContext(n)
    rng = random.Random(f"fibration-circle-{n}")
    pres = Presentation(["x0"], [])
    for w, rank in itertools.product((1, 2, 3), (1, 2)):
        rho = Representation(ctx, [random_invertible_matrix(ctx, rank, rng)])
        _assert_fibration(pres, Augmentation([w]), rho, w, ("circle", w, rank))


def test_a_weight_sum_of_zero_is_no_fibration():
    ctx = FieldContext(1)
    free, gap = _degree_gap(hopf_presentation(3), hopf_augmentation([1, 1, -2]), Representation.trivial(ctx, 3, 1))
    assert free == (0, 1, 1)
    assert gap is None
