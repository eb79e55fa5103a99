"""Laurent polynomial ring over a cyclotomic field: gcd, units, Smith form."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from twistalex.laurent import (
    LaurentMatrix,
    LaurentPoly,
    RationalFunction,
    gcd_many,
    laurent_gcd,
    multiplicity,
)
from twistalex.scalars import ContextMismatchError, FieldContext


def _poly(ctx, coeffs, low=0):
    return LaurentPoly(ctx, coeffs, low)


def _random_poly(rng, ctx, max_span=4):
    coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, max_span))]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    return LaurentPoly(ctx, coeffs, rng.randint(-2, 2))


def test_canonical_text_form():
    ctx = FieldContext(1)
    p = _poly(ctx, [-1, 2, 0, 1])
    assert str(p) == "-1 + 2*t + t^3"
    assert str(_poly(ctx, [1], -2)) == "t^-2"
    assert str(LaurentPoly.zero(ctx)) == "0"
    assert str(_poly(ctx, [0, -3], 1)) == "-3*t^2"


def test_arithmetic_against_hand_expansion():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    assert (t - one) * (t + one) == t**2 - one
    assert (t - one) * (t**2 + t + one) == t**3 - one
    # Laurent units multiply freely
    tinv = LaurentPoly.t_power(ctx, -1)
    assert t * tinv == one


def test_divmod_exact_and_with_remainder():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    q, r = divmod(t**3 - one, t - one)
    assert r.is_zero()
    assert q == t**2 + t + one
    q, r = divmod(t**2 + one, t - one)
    assert q * (t - one) + r == t**2 + one
    assert r.is_zero() is False
    assert (t - one).divides(t**6 - one)
    assert not (t + one).divides(t**3 - one)
    with pytest.raises(ValueError):
        (t**3 - one).exact_div(t + one)


def test_normalize_is_monic_with_lowest_exponent_zero():
    ctx = FieldContext(4)
    z = ctx.zeta(1)
    p = LaurentPoly(ctx, [z * 2, -2], 3)
    n = p.normalize()
    assert n.low == 0
    assert n.leading_coefficient() == ctx.one
    assert p.unit_equal(n)
    # normalization is idempotent and collapses all unit multiples
    assert n.normalize() == n
    unit = LaurentPoly.t_power(ctx, -5, z)
    assert (p * unit).normalize() == n


def test_gcd_oracles():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    g = laurent_gcd(t**2 - one, t**3 - one)
    assert g.unit_equal(t - one)
    # gcd(t^4 - 1, t^6 - 1) = t^2 - 1
    assert laurent_gcd(t**4 - one, t**6 - one).unit_equal(t**2 - one)
    assert laurent_gcd(LaurentPoly.zero(ctx), t + one).unit_equal(t + one)
    assert gcd_many([t**2 - one, t**3 - one, t**4 - one]).unit_equal(t - one)
    # coprime pair gives a unit
    assert laurent_gcd(t - one, t + one).is_one()


def test_gcd_divides_both_arguments_randomized():
    rng = random.Random(77)
    ctx = FieldContext(4)
    for _ in range(40):
        a = _random_poly(rng, ctx)
        b = _random_poly(rng, ctx)
        g = laurent_gcd(a, b)
        assert g.divides(a) and g.divides(b)
        # common factors always land in the gcd
        c = _random_poly(rng, ctx, max_span=3)
        assert (laurent_gcd(a * c, b * c)).unit_equal(laurent_gcd(a, b) * c)


def test_substitute_power():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    p = t**2 - t + one
    assert p.substitute_power(3) == t**6 - t**3 + one
    assert p.substitute_power(1) == p
    with pytest.raises(ValueError):
        p.substitute_power(0)
    rng = random.Random(3)
    for _ in range(20):
        a = _random_poly(rng, ctx)
        b = _random_poly(rng, ctx)
        n = rng.randint(1, 4)
        assert (a * b).substitute_power(n) == a.substitute_power(n) * b.substitute_power(n)


def test_bar_involution():
    ctx = FieldContext(4)
    z = ctx.zeta(1)
    p = LaurentPoly(ctx, [1, z], 0)
    # bar conjugates coefficients and inverts t
    assert p.bar() == LaurentPoly(ctx, [-z, 1], -1)
    rng = random.Random(9)
    for _ in range(20):
        a = _random_poly(rng, ctx)
        b = _random_poly(rng, ctx)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_evaluate():
    ctx = FieldContext(6)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    p = t**2 - t + one
    # zeta_6 is a root of t^2 - t + 1
    assert p.evaluate(ctx.zeta(1)).is_zero()
    assert p.evaluate(ctx.from_rational(2)) == ctx.from_rational(3)
    q = LaurentPoly(ctx, [1, 1], -1)
    assert q.evaluate(ctx.from_rational(2)) == ctx.from_rational(2) ** -1 * 3
    with pytest.raises(ZeroDivisionError):
        p.evaluate(0)


def test_multiplicity():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    p = (t - one) ** 3 * (t + 2 * one)
    assert multiplicity(p, 1) == 3
    assert multiplicity(p, -2) == 1
    assert multiplicity(p, 2) == 0
    assert multiplicity(one, 1) == 0


def test_rational_function_reduction():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    f = RationalFunction(t**2 - one, t - one)
    assert f.is_polynomial()
    assert f.as_laurent() == t + one
    g = RationalFunction(t + one, t - one)
    assert not g.is_polynomial()
    with pytest.raises(ValueError):
        g.as_laurent()
    # equality is cross-multiplied, insensitive to common factors
    assert RationalFunction((t + one) * (t - one), (t - one) ** 2) == g
    assert (f * g).unit_equal(RationalFunction((t + one) ** 2, t - one))
    assert f.bar().unit_equal(RationalFunction(t.bar() ** 2 - one, t.bar() - one))


def test_matrix_determinant():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    m = LaurentMatrix(ctx, [[t, one], [LaurentPoly.zero(ctx), t]])
    assert m.determinant() == t**2
    m2 = LaurentMatrix(ctx, [[t - one, t], [t, t + one]])
    # (t-1)(t+1) - t^2 = -1
    assert m2.determinant() == -one


def test_smith_form_frozen_example():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    m = LaurentMatrix(ctx, [[t, one], [LaurentPoly.zero(ctx), t]])
    snf = m.smith_normal_form()
    # the off-diagonal 1 is a unit, so d1 = 1 and d2 = det = t^2
    assert snf.rank == 2
    assert snf.divisors[0].is_one()
    assert snf.divisors[1].unit_equal(t**2)
    assert (snf.U * m * snf.V) == snf.diagonal()


def test_smith_form_diagonal_chain():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    m = LaurentMatrix(
        ctx,
        [
            [(t - one) * (t + one), LaurentPoly.zero(ctx)],
            [LaurentPoly.zero(ctx), t - one],
        ],
    )
    snf = m.smith_normal_form()
    assert snf.divisors[0].unit_equal(t - one)
    assert snf.divisors[1].unit_equal(t**2 - one)
    for i in range(len(snf.divisors) - 1):
        assert snf.divisors[i].divides(snf.divisors[i + 1])


def test_smith_form_properties_randomized():
    rng = random.Random(123)
    ctx = FieldContext(1)
    for _ in range(15):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = LaurentMatrix(
            ctx,
            [[_random_poly(rng, ctx, 3) if rng.random() < 0.8 else LaurentPoly.zero(ctx)
              for _ in range(cols)] for _ in range(rows)],
        )
        snf = m.smith_normal_form()
        assert snf.U.determinant().is_unit()
        assert snf.V.determinant().is_unit()
        assert snf.U * m * snf.V == snf.diagonal()
        assert (snf.V * snf.Vinv) == LaurentMatrix.identity(ctx, cols)
        prod = LaurentPoly.one(ctx)
        for k, d in enumerate(snf.divisors, start=1):
            prod = prod * d
            assert prod.unit_equal(m.minors_gcd(k))


def test_minors_gcd_edges():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    m = LaurentMatrix(ctx, [[t, t**2]])
    assert m.minors_gcd(0).is_one()
    assert m.minors_gcd(1).unit_equal(t)
    with pytest.raises(ValueError):
        m.minors_gcd(2)


def test_cokernel_shape():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    # cokernel of (t-1 0 / 0 0) on rank-2 target: one torsion piece, one free
    m = LaurentMatrix(
        ctx,
        [[t - one, LaurentPoly.zero(ctx)], [LaurentPoly.zero(ctx), LaurentPoly.zero(ctx)]],
    )
    shape = m.smith_normal_form().cokernel_shape()
    assert shape.free_rank == 1
    assert len(shape.divisors) == 1
    assert shape.divisors[0].unit_equal(t - one)
    assert not shape.is_torsion()
    assert shape.torsion_order().unit_equal(t - one)


def test_matrix_specialize_and_power_substitution():
    ctx = FieldContext(4)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    m = LaurentMatrix(ctx, [[t + one, t], [one, t - one]])
    s = m.specialize(ctx.zeta(1))
    z = ctx.zeta(1)
    assert s[0, 0] == z + 1 and s[1, 1] == z - 1
    m2 = m.substitute_power(2)
    assert m2[0, 0] == t**2 + one and m2[0, 1] == t**2


def test_public_constructor_rejects_a_foreign_context_scalar():
    q, z6 = FieldContext(1), FieldContext(6)
    with pytest.raises(ContextMismatchError):
        LaurentPoly(q, [1, z6.zeta(1)])
    with pytest.raises(ContextMismatchError):
        LaurentPoly(q, [1]) + LaurentPoly(z6, [1])


def test_arithmetic_results_are_trimmed_like_the_public_constructor():
    ctx = FieldContext(6)
    z = ctx.zeta(1)
    a = _poly(ctx, [z, 1, -z], -2)
    b = _poly(ctx, [z, 0, -1], -2)
    assert a + (-a) == LaurentPoly.zero(ctx)
    assert (a + (-a)).low == 0
    assert a - b == _poly(ctx, [0, 1, 1 - z], -2)
    assert (a - b).low == -1
    assert a * b == _poly(ctx, [z * z, z, -z * z - z, -1, z], -4)


def test_equal_scalars_and_constant_polynomials_hash_alike():
    # Equal objects must hash equal, or set and dict lookups miss them.
    for n in (1, 12):
        ctx = FieldContext(n)
        z = ctx.zeta(1)
        for value in (1, 0, -3, Fraction(2, 3)):
            poly = LaurentPoly.from_scalar(ctx, value)
            scalar = ctx.from_rational(value)
            assert poly == value and scalar == value and poly == scalar
            assert hash(poly) == hash(value) == hash(scalar)
            assert value in {poly} and value in {scalar} and scalar in {poly}
            assert {poly: "p"}[value] == "p" and {value: "v"}[scalar] == "v"
        const = LaurentPoly.from_scalar(ctx, z + Fraction(1, 2))
        assert const == z + Fraction(1, 2) and hash(const) == hash(z + Fraction(1, 2))
    ctx = FieldContext(12)
    assert 1 in {LaurentPoly.one(ctx)}
    assert FieldContext(12).one in {1}
