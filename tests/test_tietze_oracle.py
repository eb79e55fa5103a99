"""Tietze invariance as an exact oracle for the twisted complex.

The twisted Alexander modules depend on the group, eps and rho, not on the
presentation (Wada, Topology 1994), nor on the basis of rho.  Each draw is
a valid triple on torus(2, 3), torus(3, 4), the cusp, hopf(3) or
a_odd_reduced(2), with rho of rank 1 or 2 over Q, Q(zeta_3) or Q(zeta_6),
taken through three seeded sequences of 1-3 moves:

- T1 appends u r u^-1 for a relator r: the new 2-cell is attached along a
  null-homotopic loop, so the complex becomes the old one wedged with a
  sphere.  H0 and H1 are unchanged, and H2 gains a free summand of rank r,
  the rank of rho.
- T2 adds a generator z with the relator z w^-1, eps(z) = eps(w) and
  rho(z) = rho(w): a cancelling pair of cells, and every degree is
  unchanged.

Conjugating every rho(x) by one invertible matrix changes nothing.  The
control appends the commutator [x, y] to torus(2, 3) with rho trivial;
[x, y] is no consequence of x^2 = y^3, and the T1 prediction fails there.
"""

from __future__ import annotations

import random

import pytest

from oracles import (
    random_a_odd_representation,
    random_hopf_representation,
    random_invertible_matrix,
    random_root_of_unity,
    rho_of_word,
)
from twistalex.homology import build_complex, homology
from twistalex.laurent import LaurentPoly
from twistalex.presentations import (
    Augmentation,
    Presentation,
    Representation,
    Word,
    a_odd_augmentation,
    a_odd_reduced_presentation,
    braid_cusp_presentation,
    hopf_augmentation,
    hopf_presentation,
    random_word,
    torus_germ_augmentation,
    torus_germ_presentation,
)
from twistalex.scalars import FieldContext, ScalarMatrix

CONDUCTORS = (1, 3, 6)


def _diagonal(ctx, values) -> ScalarMatrix:
    n = len(values)
    return ScalarMatrix(ctx, [[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _conjugate(m: ScalarMatrix, s: ScalarMatrix) -> ScalarMatrix:
    return s * m * s.inverse()


def _roots(ctx, k: int) -> list:
    # The k-th roots of unity of the field among +-z^j.
    candidates = [ctx.zeta(j) * s for j in range(ctx.conductor) for s in (1, -1)]
    return [c for c in candidates if c**k == ctx.one]


def _torus(ctx, p, q, rank, rng):
    # rho(x) = S diag(l^q a_i) S^-1 and rho(y) = T diag(l^p b_i) T^-1 with
    # a_i^p = b_i^q = 1: both sides of x^p = y^q are l^(pq) Id.
    lam = rng.choice((1, -1, 2))
    xs = _diagonal(ctx, [rng.choice(_roots(ctx, p)) * lam**q for _ in range(rank)])
    ys = _diagonal(ctx, [rng.choice(_roots(ctx, q)) * lam**p for _ in range(rank)])
    if rank > 1:
        xs = _conjugate(xs, random_invertible_matrix(ctx, rank, rng))
        ys = _conjugate(ys, random_invertible_matrix(ctx, rank, rng))
    pres = torus_germ_presentation(p, q)
    return pres, torus_germ_augmentation(p, q), Representation(ctx, [xs, ys])


def _cusp(ctx, rank, rng):
    # Rank 1: x and y go to one scalar.  Rank 2: the reduced Burau
    # representation of the braid group B_3 at a scalar s, conjugated.
    s = random_root_of_unity(ctx, rng) * rng.choice((1, -1, 2))
    if rank == 1:
        images = [ScalarMatrix(ctx, [[s]])] * 2
    else:
        conj = random_invertible_matrix(ctx, 2, rng)
        images = [_conjugate(ScalarMatrix(ctx, m), conj) for m in ([[-s, 1], [0, 1]], [[1, 0], [s, -s]])]
    return braid_cusp_presentation(), Augmentation([1, 1]), Representation(ctx, images)


def _hopf(ctx, rank, rng):
    family = rng.choice(("scalar", "diagonal"))
    eps = hopf_augmentation([rng.randint(1, 2) for _ in range(3)])
    return hopf_presentation(3), eps, random_hopf_representation(ctx, 3, rank, rng, family)


def _a_odd(ctx, rank, rng):
    family = rng.choice(("diagonal", "conjugate"))
    eps = a_odd_augmentation(2, rng.randint(1, 2), rng.randint(1, 2))
    return a_odd_reduced_presentation(2), eps, random_a_odd_representation(ctx, 2, rank, rng, family)


FAMILIES = {
    "torus(2, 3)": lambda ctx, rank, rng: _torus(ctx, 2, 3, rank, rng),
    "torus(3, 4)": lambda ctx, rank, rng: _torus(ctx, 3, 4, rank, rng),
    "cusp": _cusp,
    "hopf(3)": _hopf,
    "a_odd_reduced(2)": _a_odd,
}


def _t1(pres, eps, rho, rng):
    r = rng.choice(pres.relators)
    u = random_word(pres.generator_count, 3, rng)
    relator = u * (r if rng.random() < 0.5 else r.inverse()) * u.inverse()
    return Presentation(pres.generator_names, pres.relators + (relator,)), eps, rho


def _t2(pres, eps, rho, rng):
    w = random_word(pres.generator_count, 3, rng)
    z = pres.generator_count
    pres = Presentation(pres.generator_names + (f"z{z}",), pres.relators + (Word([(z, 1)]) * w.inverse(),))
    eps = Augmentation(eps.values + (eps.of_word(w),))
    return pres, eps, Representation(rho.context, rho.matrices + (rho_of_word(rho, w),))


def _shapes(pres, eps, rho):
    return homology(build_complex(pres, eps, rho)).shapes


def _holds(before, after, t1_moves: int, rank: int) -> bool:
    # H0 and H1 unchanged; H2 torsion-free in both, its free rank up by
    # rank for each T1 move.
    return (
        after[:2] == before[:2]
        and not before[2].divisors
        and not after[2].divisors
        and after[2].free_rank == before[2].free_rank + t1_moves * rank
    )


def _draws(conductor: int, family: str):
    ctx = FieldContext(conductor)
    rng = random.Random(f"tietze-{conductor}-{family}")
    for rank in (1, 2):
        yield rank, rng, FAMILIES[family](ctx, rank, rng)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("conductor", CONDUCTORS)
def test_tietze_moves_keep_the_homology(conductor, family):
    for rank, rng, triple in _draws(conductor, family):
        before = _shapes(*triple)
        for _ in range(3):
            moved, t1_moves, names = triple, 0, []
            for _ in range(rng.randint(1, 3)):
                move = rng.choice((_t1, _t2))
                moved = move(*moved, rng)
                t1_moves += move is _t1
                names.append(move.__name__)
            assert _holds(before, _shapes(*moved), t1_moves, rank), (rank, names, moved[0])


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("conductor", CONDUCTORS)
def test_conjugating_rho_keeps_the_homology(conductor, family):
    for rank, rng, (pres, eps, rho) in _draws(conductor, family):
        s = random_invertible_matrix(rho.context, rank, rng)
        conjugated = Representation(rho.context, [_conjugate(m, s) for m in rho.matrices])
        assert _shapes(pres, eps, conjugated) == _shapes(pres, eps, rho), (rank, s)


def test_a_commutator_that_is_no_consequence_fails_the_prediction():
    ctx = FieldContext(1)
    pres, eps = torus_germ_presentation(2, 3), torus_germ_augmentation(2, 3)
    rho = Representation.trivial(ctx, 2)
    before = _shapes(pres, eps, rho)
    assert before[1].torsion_order() == LaurentPoly(ctx, [1, -1, 1])
    assert before[2].free_rank == 0
    commutator = Word([(0, 1), (1, 1), (0, -1), (1, -1)])
    after = _shapes(Presentation(pres.generator_names, pres.relators + (commutator,)), eps, rho)
    assert not _holds(before, after, 1, 1)
    assert after[1].torsion_order() == LaurentPoly.one(ctx)
    assert after[2].free_rank == 1 and not after[2].divisors
    # The true moves hold on the same triple.
    rng = random.Random("tietze-control")
    assert _holds(before, _shapes(*_t1(pres, eps, rho, rng)), 1, 1)
    assert _holds(before, _shapes(*_t2(pres, eps, rho, rng)), 0, 1)
