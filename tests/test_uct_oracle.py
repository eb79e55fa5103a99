"""The universal coefficient theorem as an exact oracle for the divisors.

Over the PID R = F[t, t^-1], for a point a != 0 of F,

    dim H_i(C (x) R/(t - a)) = free_rank(H_i) + n(a, i) + n(a, i - 1),

where n(a, q) counts the elementary divisors of H_q that vanish at a.  The
left side is specialize_homology, the ranks of the boundaries at t = a; the
right side reads the Smith divisors of homology, evaluated at a here with
plain integer arithmetic modulo the cyclotomic polynomial, which shares no
code with the engine.  Merging two divisors into their product keeps every
Delta_i, so it passes every check that reads only the Deltas, and the
dimension bound too; it changes a count here (hopf(3) with trivial rho has
H_1 = R/(t - 1) + R/(t^3 - 1), whose dimension at t = 1 is 3, and 2 after
the merge)."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from oracles import random_a_odd_representation, random_hopf_representation
from twistalex.homology import build_complex, homology, specialize_homology
from twistalex.presentations import (
    Representation,
    a_odd_augmentation,
    a_odd_presentation,
    a_odd_reduced_presentation,
    hopf_augmentation,
    hopf_presentation,
)
from twistalex.scalars import FieldContext

CONDUCTORS = (1, 3, 4, 6, 12)


def _quotient(num, den):
    """num / den for integer coefficient lists (ascending), den monic and
    dividing num."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in reversed(range(len(out))):
        out[i] = num[i + len(den) - 1]
        for j, c in enumerate(den):
            num[i + j] -= out[i] * c
    assert not any(num)
    return out


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n, ascending: z^n - 1 over Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _quotient(poly, _cyclotomic(d))
    return tuple(poly)


def _vanishes(p, scale: int, k: int) -> bool:
    """Whether p(scale * z^k) = 0 in Q(zeta_n), n the conductor of p: the
    value as a polynomial in z, exponents taken mod n, reduced mod Phi_n."""
    n = p.context.conductor
    value = [Fraction(0)] * n
    for j, row in enumerate(p.rows):
        e = p.low + j
        c = Fraction(scale) ** e
        for i, x in enumerate(row):  # x is the coefficient of z^i
            value[(i + k * e) % n] += c * x
    phi = _cyclotomic(n)
    deg = len(phi) - 1
    for top in reversed(range(deg, n)):
        if value[top]:
            c = value[top]
            for j, x in enumerate(phi):
                value[top - deg + j] -= c * x
    return not any(value[:deg])


def _points(ctx: FieldContext):
    """(scale, k, a) with a = scale * z^k: 1, -1 and 2 over Q, else every
    n-th root of unity."""
    if ctx.conductor == 1:
        return [(s, 0, ctx.from_rational(s)) for s in (1, -1, 2)]
    return [(1, k, ctx.zeta(k)) for k in range(ctx.conductor)]


def _complexes():
    """Seeded hopf, a_odd_reduced and a_odd complexes of rank 1 to 3 in every
    conductor, and hopf(2..4) with trivial rho."""
    rng = random.Random(13)
    for n in CONDUCTORS:
        ctx = FieldContext(n)
        for d in (2, 3, 4):
            yield build_complex(hopf_presentation(d), hopf_augmentation([1] * d), Representation.trivial(ctx, d))
        for r in (1, 2, 3):
            for i, d in enumerate((2, 3, 4, 5)):
                rho = random_hopf_representation(ctx, d, r, rng, ("scalar", "diagonal")[i % 2])
                yield build_complex(hopf_presentation(d), hopf_augmentation([1] * d), rho)
            for i, m in enumerate((1, 2, 3)):
                rho = random_a_odd_representation(ctx, m, r, rng, ("conjugate", "diagonal")[i % 2])
                yield build_complex(a_odd_reduced_presentation(m), a_odd_augmentation(m), rho)
            for m in (1, 2):
                rho = random_a_odd_representation(ctx, m, r, rng, "conjugate")
                yield build_complex(a_odd_presentation(m), a_odd_augmentation(m), rho)


def test_the_dimensions_at_a_point_count_the_divisors_that_vanish_there():
    points = torsion_points = 0
    for cx in _complexes():
        shapes = homology(cx).shapes
        for scale, k, a in _points(cx.context):
            vanishing = [sum(_vanishes(d, scale, k) for d in shape.divisors) for shape in shapes]
            predicted = tuple(
                shape.free_rank + vanishing[i] + (vanishing[i - 1] if i else 0) for i, shape in enumerate(shapes)
            )
            assert specialize_homology(cx, a) == predicted, (cx.ranks, scale, k)
            points += 1
            torsion_points += any(vanishing)
    assert points > 700 and torsion_points > 50, (points, torsion_points)
