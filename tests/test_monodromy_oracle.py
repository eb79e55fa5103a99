"""The monodromy as an exact oracle for the coefficients of every Delta_i.

When eps is the class of a fibration X -> S^1 with fiber F, each H_i of
the twisted complex is H_i(F; rho), and Delta_i is the characteristic
polynomial of the monodromy acting on it (see tests/test_fibration_oracle.py
for the degrees).  If every rho(x) lies in GL_r(Z[zeta_n]), so does every
rho(x)^-1, and the monodromy is an automorphism of a lattice over
Z[zeta_n].  So each normalized Delta_i (lowest exponent 0, monic) has
coefficients in Z[zeta_n] and a unit constant term: the twisted form of "a
fibered knot has a monic Alexander polynomial" (Cha, Trans. AMS 2003;
Goda-Kitano-Morifuji, Comment. Math. Helv. 2005).

The power basis is an integral basis of Z[zeta_n], so integrality is
den == 1 on every coefficient, and the constant term is a unit when its
norm, the resultant with Phi_n taken in sympy, is +-1.

The draws cover every fibration builder: hopf, torus and the cusp in braid
form (rank 2 by the reduced Burau representation of B_3 at s = zeta^k), the
reduced A_(2n-1) germ, and one line.  Two controls fail the oracle: the
cusp with rho = 2 over Q, which no lattice carries, and the two-bridge knot
5_2 = 7/3, which is not fibered, with trivial rho.
"""

from __future__ import annotations

import random

import pytest

from oracles import (
    random_a_odd_representation,
    random_hopf_representation,
    random_root_of_unity,
    random_unimodular_matrix,
)
from twistalex import (
    Augmentation,
    FieldContext,
    Presentation,
    Representation,
    ScalarMatrix,
    Word,
    build_complex,
    homology,
)
from twistalex.presentations import (
    a_odd_augmentation,
    a_odd_reduced_presentation,
    braid_cusp_presentation,
    hopf_augmentation,
    hopf_presentation,
    rank_one_representation,
    torus_germ_augmentation,
    torus_germ_presentation,
)

sympy = pytest.importorskip("sympy")

Z = sympy.Symbol("z")
CONDUCTORS = (1, 3, 4, 12)


def _monodromy_failures(pres, eps, rho) -> list:
    """(i, reason) for every normalized Delta_i that is not integral, and
    for every one whose constant term is no unit; a free H_i fails too."""
    result = homology(build_complex(pres, eps, rho))
    n = rho.context.conductor
    failures = []
    for i in range(len(result.shapes)):
        delta = result.delta(i).normalize()
        if delta.is_zero():
            failures.append((i, "free"))
            continue
        coefficients = [delta.coefficient(e) for e in range(delta.low, delta.high + 1)]
        if any(c.den != 1 for c in coefficients):
            failures.append((i, "not integral"))
        head = coefficients[0]
        constant = sum(sympy.Rational(x, head.den) * Z**j for j, x in enumerate(head.nums))
        if abs(sympy.resultant(sympy.cyclotomic_poly(n, Z), constant, Z)) != 1:
            failures.append((i, "constant term is no unit"))
    return failures


def _conjugate_diagonal(ctx, s, diagonal) -> ScalarMatrix:
    n = len(diagonal)
    d = ScalarMatrix(ctx, [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return s * d * s.inverse()


def _draws(n: int):
    """(label, pres, eps, rho): fibration classes with rho in GL_r(Z[zeta_n])."""
    ctx = FieldContext(n)
    rng = random.Random(f"monodromy-{n}")
    roots = [ctx.zeta(j) for j in range(n)] if n > 1 else [ctx.one, -ctx.one]
    for d, rank in ((2, 2), (3, 1), (3, 2), (4, 1)):
        weights = [rng.randint(1, 3) for _ in range(d)]
        rho = random_hopf_representation(ctx, d, rank, rng, "unimodular")
        yield ("hopf", d, weights, rank), hopf_presentation(d), hopf_augmentation(weights), rho
    for (p, q), rank in (((2, 3), 2), ((2, 5), 1), ((3, 4), 2)):
        # x -> S diag(a_j) S^-1, y -> S diag(b_j) S^-1 with a_j^p = b_j^q.
        pairs = [rng.choice([(a, b) for a in roots for b in roots if a**p == b**q]) for _ in range(rank)]
        s = random_unimodular_matrix(ctx, rank, rng)
        rho = Representation(ctx, [_conjugate_diagonal(ctx, s, diagonal) for diagonal in zip(*pairs)])
        w = rng.randint(1, 3)
        yield ("torus", p, q, w, rank), torus_germ_presentation(p, q), torus_germ_augmentation(p, q, w), rho
    cusp = braid_cusp_presentation()
    w = rng.randint(1, 3)
    a = random_root_of_unity(ctx, rng)
    yield ("cusp", w, 1), cusp, Augmentation([w, w]), rank_one_representation(ctx, cusp, [a, a])
    # The reduced Burau representation of B_3 at a root of unity s.
    s = random_root_of_unity(ctx, rng)
    burau = Representation(ctx, [[[-s, 1], [0, 1]], [[1, 0], [s, -s]]])
    yield ("cusp burau", w, 2), cusp, Augmentation([w, w]), burau
    for k, rank in ((1, 2), (2, 1), (2, 2)):
        rho = random_a_odd_representation(ctx, k, rank, rng, "unimodular")
        yield ("a_odd_reduced", k, rank), a_odd_reduced_presentation(k), a_odd_augmentation(k, 1, 1), rho
    for w, rank in ((1, 3), (2, 2)):
        rho = Representation(ctx, [random_unimodular_matrix(ctx, rank, rng)])
        yield ("circle", w, rank), Presentation(["x0"], []), Augmentation([w]), rho


@pytest.mark.parametrize("n", CONDUCTORS)
def test_fibrations_have_integral_polynomials_with_unit_constant_terms(n):
    for label, pres, eps, rho in _draws(n):
        for m in rho.matrices:
            assert all(e.den == 1 for row in m.inverse().entries for e in row), label
        assert _monodromy_failures(pres, eps, rho) == [], label


def test_the_cusp_at_rho_two_fails_both_oracles():
    # Free ranks 0 and the degree gap -chi(F) = 1 of the fibration oracle
    # hold, but 2 is no unit of Z: Delta_0 = t - 1/2 and Delta_1 = t^2 -
    # t/2 + 1/4 are not integral, and their constant terms are no units.
    ctx = FieldContext(1)
    pres = braid_cusp_presentation()
    failures = _monodromy_failures(pres, Augmentation([1, 1]), rank_one_representation(ctx, pres, [2, 2]))
    assert failures == [(i, reason) for i in (0, 1) for reason in ("not integral", "constant term is no unit")]


def test_the_knot_five_two_is_not_fibered():
    # The two-bridge knot 7/3 (Schubert normal form <a, b | a w = w b>,
    # w = b a b^-1 a^-1 b a): Delta_1 = t^2 - (3/2) t + 1 once monic.
    w = [(1, 1), (0, 1), (1, -1), (0, -1), (1, 1), (0, 1)]
    relator = Word([(0, 1), *w, (1, -1), *[(g, -s) for g, s in reversed(w)]])
    pres = Presentation(["a", "b"], [relator])
    ctx = FieldContext(1)
    failures = _monodromy_failures(pres, Augmentation([1, 1]), Representation.trivial(ctx, 2, 1))
    assert failures == [(1, "not integral")]
