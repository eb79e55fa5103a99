"""Laurent polynomial ring over a cyclotomic field: gcd, units, Smith form."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    associates,
    certified_smith_form,
    random_a_odd_representation,
    random_hopf_representation,
    substitute_power,
)
from twistalex import laurent
from twistalex.laurent import (
    LaurentMatrix,
    LaurentPoly,
    ModuleShape,
    RationalFunction,
    gcd_many,
    laurent_gcd,
)
from twistalex.scalars import ContextMismatchError, FieldContext


def _diagonal(m, divisors) -> LaurentMatrix:
    # diag(divisors) in the shape of m: what U * M * V must be.
    zero = LaurentPoly.zero(m.context)
    entries = [[divisors[i] if i == j < len(divisors) else zero for j in range(m.cols)] for i in range(m.rows)]
    return LaurentMatrix(m.context, entries)


def _certified(m):
    """The divisors and rank of the certified Smith form of m
    (tests/oracles.py), its certificates checked: U * M * V = D with
    unimodular U and V, and Vinv * V = Id."""
    divisors, rank, U, V, Vinv = certified_smith_form(m)
    assert U.determinant().is_unit()
    assert V.determinant().is_unit()
    assert U * m * V == _diagonal(m, divisors)
    assert Vinv * V == V * Vinv == LaurentMatrix.identity(m.context, m.cols)
    return divisors, rank


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
    assert associates(p, n)
    # normalization is idempotent and collapses all unit multiples
    assert n.normalize() == n
    unit = LaurentPoly.t_power(ctx, -5, z)
    assert (p * unit).normalize() == n


def test_gcd_oracles():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    g = laurent_gcd(t**2 - one, t**3 - one)
    assert associates(g, t - one)
    # gcd(t^4 - 1, t^6 - 1) = t^2 - 1
    assert associates(laurent_gcd(t**4 - one, t**6 - one), t**2 - one)
    assert associates(laurent_gcd(LaurentPoly.zero(ctx), t + one), t + one)
    assert associates(gcd_many([t**2 - one, t**3 - one, t**4 - one]), t - one)
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
        assert associates(laurent_gcd(a * c, b * c), laurent_gcd(a, b) * c)


def test_substitute_power():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    p = t**2 - t + one
    assert substitute_power(p, 3) == t**6 - t**3 + one
    assert substitute_power(p, 1) == p
    with pytest.raises(ValueError):
        substitute_power(p, 0)
    rng = random.Random(3)
    for _ in range(20):
        a = _random_poly(rng, ctx)
        b = _random_poly(rng, ctx)
        n = rng.randint(1, 4)
        assert substitute_power(a * b, n) == substitute_power(a, n) * substitute_power(b, n)


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
    assert laurent._strip_root(p, ctx.from_rational(1))[0] == 3
    assert laurent._strip_root(p, ctx.from_rational(-2))[0] == 1
    assert laurent._strip_root(p, ctx.from_rational(2))[0] == 0
    assert laurent._strip_root(one, ctx.from_rational(1))[0] == 0


def test_rational_function_reduction():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    f = RationalFunction(t**2 - one, t - one)
    assert f.is_polynomial()
    assert f.numerator == t + one
    g = RationalFunction(t + one, t - one)
    assert not g.is_polynomial()
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
    assert associates(snf.divisors[1], t**2)
    assert (snf.divisors, snf.rank) == _certified(m)


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
    assert associates(snf.divisors[0], t - one)
    assert associates(snf.divisors[1], t**2 - one)
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
        assert (snf.divisors, snf.rank) == _certified(m)
        prod = LaurentPoly.one(ctx)
        for k, d in enumerate(snf.divisors, start=1):
            prod = prod * d
            assert associates(prod, m.minors_gcd(k))


def _checked_smith_form(m):
    """The Smith form of m after every check that needs no other engine:
    the divisors and rank of the certified form (_certified), monic
    divisors in divisibility order, and d_1 ... d_k = gcd of the k x k
    minors up to units."""
    ctx = m.context
    snf = m.smith_normal_form()
    assert (snf.divisors, snf.rank) == _certified(m)
    assert all(d == d.normalize() for d in snf.divisors)
    for a, b in zip(snf.divisors, snf.divisors[1:]):
        assert a.divides(b)
    prod = LaurentPoly.one(ctx)
    for k, d in enumerate(snf.divisors, start=1):
        prod = prod * d
        assert associates(prod, m.minors_gcd(k))
    return snf


@pytest.mark.parametrize("seed", range(4))
def test_smith_form_of_a_permuted_diagonal_out_of_divisibility_order(seed):
    # The clearing leaves this diagonal as it is, out of order; the
    # divisibility pass turns it into gcds and lcms.
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    zero = LaurentPoly.zero(ctx)
    diagonal = [(t - one) ** 2, t + one, t - one, one]
    rng = random.Random(seed)
    rows, cols = list(range(4)), list(range(4))
    rng.shuffle(rows)
    rng.shuffle(cols)
    m = LaurentMatrix(ctx, [[diagonal[i] if i == j else zero for j in cols] for i in rows])
    snf = _checked_smith_form(m)
    assert snf.divisors == (one, one, t - one, ((t - one) ** 2 * (t + one)).normalize())


def test_smith_form_of_a_coprime_pair_that_one_clearing_leaves_unordered():
    # gcd(a, b) = 1, but one clearing of diag(a, b) ends on diag(t - 1, c)
    # with c(1) = -1: the divisibility pass has to clear the pair again.
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    zero = LaurentPoly.zero(ctx)
    a = t**3 + 2 * t**2 - 2 * t - 2 * one
    b = (t - one) * (t**3 + 2 * t**2 - t - one)
    for m in ([[a, zero], [zero, b]], [[b, zero], [zero, a]], [[zero, a], [b, zero]]):
        snf = _checked_smith_form(LaurentMatrix(ctx, m))
        assert snf.divisors == (one, (a * b).normalize())


def test_smith_form_of_diagonal_pairs_against_gcd_and_lcm():
    # diag(a, b) for a = t^3 + p t^2 + q t + r and b = (t - s)(t^3 + 2t^2 - t - 1):
    # a family in which several pairs need more than one clearing in the
    # divisibility pass.  The divisors must be gcd(a, b) and lcm(a, b).
    ctx = FieldContext(1)
    zero = LaurentPoly.zero(ctx)
    cubic = LaurentPoly(ctx, [-1, -1, 2, 1])
    for p, q, r in itertools.product(range(-2, 3), repeat=3):
        if r == 0:
            continue
        a = LaurentPoly(ctx, [r, q, p, 1])
        for s in (-1, 1, 2):
            b = LaurentPoly(ctx, [-s, 1]) * cubic
            g = laurent_gcd(a, b)
            expected = (g, divmod(a * b, g)[0].normalize())
            snf = LaurentMatrix(ctx, [[a, zero], [zero, b]]).smith_normal_form()
            assert snf.divisors == expected


@pytest.mark.parametrize("n", [1, 12])
def test_smith_form_of_sparse_matrices_with_rich_divisors(n):
    # P * D * Q up to row and column permutations, with D a diagonal of
    # products of small factors and P, Q sparse triangular with unit
    # diagonals: the divisors are those of D, far from divisibility order.
    ctx = FieldContext(n)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    zero = LaurentPoly.zero(ctx)
    factors = [t - one, t + one, t - ctx.zeta(1), t**2 + one]
    rng = random.Random(f"sparse-smith-{n}")
    for rows, cols in ((4, 4), (5, 4), (4, 5)):
        size = min(rows, cols)
        d = [[zero] * cols for _ in range(rows)]
        for i in range(size - rng.randint(0, 1)):
            d[i][i] = math.prod(rng.sample(factors, rng.randint(0, 2)), start=one)

        def triangular(k):
            return LaurentMatrix(
                ctx,
                [[one if i == j else _random_poly(rng, ctx, 2) if j < i and rng.random() < 0.3 else zero
                  for j in range(k)] for i in range(k)],
            )

        m = triangular(rows) * LaurentMatrix(ctx, d) * LaurentMatrix(ctx, list(zip(*triangular(cols).entries)))
        row_order, col_order = list(range(rows)), list(range(cols))
        rng.shuffle(row_order)
        rng.shuffle(col_order)
        _checked_smith_form(m.submatrix(row_order, col_order))


def test_minors_gcd_edges():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    m = LaurentMatrix(ctx, [[t, t**2]])
    assert m.minors_gcd(0).is_one()
    assert associates(m.minors_gcd(1), t)
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
    snf = m.smith_normal_form()
    shape = ModuleShape(ctx, m.rows - snf.rank, [d for d in snf.divisors if not d.is_one()])
    assert shape.free_rank == 1
    assert len(shape.divisors) == 1
    assert associates(shape.divisors[0], t - one)
    assert not shape.is_torsion()
    assert associates(shape.torsion_order(), t - one)


def _left_fold_order(ctx, divisors):
    acc = LaurentPoly.one(ctx)
    for d in divisors:
        acc = acc * d
    return acc.normalize()


@pytest.mark.parametrize("conductor", [1, 6])
def test_torsion_order_tree_product_matches_the_left_fold(conductor):
    ctx = FieldContext(conductor)
    rng = random.Random(conductor)
    for length in range(9):
        # A divisibility chain: each divisor a multiple of the one before.
        chain = []
        for _ in range(length):
            step = _random_poly(rng, ctx, max_span=3)
            chain.append(step if not chain else chain[-1] * step)
        chain = [d for d in chain if not d.normalize().is_one()]
        shape = ModuleShape(ctx, 0, chain)
        expect = _left_fold_order(ctx, shape.divisors)
        assert shape.torsion_order() == expect, length
    assert ModuleShape(ctx, 2, []).torsion_order().is_one()
    single = _poly(ctx, [3, -1, 2], 4)
    assert ModuleShape(ctx, 0, [single]).torsion_order() == single.normalize()


def test_torsion_order_is_multiplied_once(monkeypatch):
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    shape = ModuleShape(ctx, 0, [t - one, t**2 - one, t**4 - one, t**8 - one, t**8 - one])
    original = LaurentPoly.__mul__
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    first = shape.torsion_order()
    assert calls
    calls.clear()
    assert shape.torsion_order() is first
    assert calls == []


def test_matrix_specialize_and_power_substitution():
    ctx = FieldContext(4)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    m = LaurentMatrix(ctx, [[t + one, t], [one, t - one]])
    s = m.specialize(ctx.zeta(1))
    z = ctx.zeta(1)
    assert s[0, 0] == z + 1 and s[1, 1] == z - 1
    m2 = substitute_power(m, 2)
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


def test_polynomial_rational_functions_hash_like_their_numerator():
    # A rational function with denominator 1 equals its numerator, so set
    # and dict lookups must find one by the other.
    for n in (1, 12):
        ctx = FieldContext(n)
        for p in (LaurentPoly(ctx, [1, 2, 3]), LaurentPoly(ctx, [ctx.zeta(1), 0, 5], -2), LaurentPoly.one(ctx)):
            rf = RationalFunction.from_poly(p)
            assert rf == p and hash(rf) == hash(p)
            assert p in {rf} and rf in {p}
            assert {rf: "r"}[p] == "r" and {p: "p"}[rf] == "p"
        ratio = RationalFunction(LaurentPoly(ctx, [1, 2, 3]), LaurentPoly(ctx, [1, 1]))
        assert ratio in {ratio} and ratio not in {LaurentPoly(ctx, [1, 2, 3])}


def test_gcd_many_stops_at_a_unit_and_folds_shortest_first(monkeypatch):
    import twistalex.laurent as laurent

    ctx = FieldContext(5)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    zero = LaurentPoly.zero(ctx)
    calls = []
    fold = laurent.laurent_gcd
    monkeypatch.setattr(laurent, "laurent_gcd", lambda a, b: calls.append((len(a.rows), len(b.rows))) or fold(a, b))
    # A unit anywhere gives 1 without one Euclid.
    assert gcd_many([(t - one) ** 3, t**2 + one, LaurentPoly.t_power(ctx, -2, ctx.zeta(1))]).is_one()
    assert calls == []
    # The fold starts on the shortest input, and an input that the gcd so
    # far divides runs no Euclid.
    g = gcd_many([(t - one) ** 4 * (t + one), (t - one) ** 2, (t - one) ** 3 * (t**2 + one), zero])
    assert g == ((t - one) ** 2).normalize()
    assert calls == []
    g = gcd_many([(t - one) ** 3 * (t + one), (t - one) ** 2 * (t - 2 * one)])
    assert g == ((t - one) ** 2).normalize()
    assert len(calls) == 1 and calls[0][0] == 4
    assert gcd_many([zero, zero]).is_zero()
    with pytest.raises(ValueError):
        gcd_many([])


def test_gcd_many_matches_the_left_fold_randomized():
    rng = random.Random(31)
    for n in (1, 12):
        ctx = FieldContext(n)
        for _ in range(30):
            polys = [_random_poly(rng, ctx) for _ in range(rng.randint(1, 5))]
            common = _random_poly(rng, ctx, 3)
            polys = [p * common if rng.random() < 0.7 else p for p in polys]
            acc = polys[0].normalize()
            for p in polys[1:]:
                acc = laurent_gcd(acc, p)
            assert gcd_many(polys) == acc


def _random_entry(rng, ctx, units):
    # Zeros, units c * t^k and short polynomials, with cyclotomic
    # coefficients in a cyclotomic context.
    roll = rng.random()
    if roll < 0.3:
        return LaurentPoly.zero(ctx)
    coeff = ctx.zeta(rng.randrange(ctx.conductor)) * rng.choice([1, -2, Fraction(1, 3)])
    if roll < 0.3 + units:
        return LaurentPoly.t_power(ctx, rng.randint(-2, 2), coeff)
    return _random_poly(rng, ctx, 3) * LaurentPoly.from_scalar(ctx, coeff)


@pytest.mark.parametrize("n", [1, 5, 6, 12])
def test_smith_form_matches_the_certified_one(n):
    # Every shortcut of the engine's form: unit corners, vector blocks
    # (1 x n, m x 1 and blocks that end in one row or column), zero lines.
    # The certified form of tests/oracles.py satisfies U M V = D.
    ctx = FieldContext(n)
    rng = random.Random(f"bare-smith-{n}")
    zero = LaurentPoly.zero(ctx)
    shapes = [(1, 1), (1, 4), (4, 1), (2, 5), (5, 2), (3, 3), (4, 3), (3, 5)]
    for rows, cols in shapes * 3:
        units = rng.choice([0.0, 0.3, 0.6])
        entries = [[_random_entry(rng, ctx, units) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            entries[rng.randrange(rows)] = [zero] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in entries:
                row[j] = zero
        m = LaurentMatrix(ctx, entries)
        snf = m.smith_normal_form()
        assert (snf.divisors, snf.rank) == _certified(m)
        prod = LaurentPoly.one(ctx)
        for k, d in enumerate(snf.divisors, start=1):
            prod = prod * d
            assert associates(prod, m.minors_gcd(k))


@pytest.mark.parametrize("n", [1, 6])
def test_each_path_of_the_smith_form_gives_the_certified_divisors(monkeypatch, n):
    # No entry of the first matrix is a unit, but t + 1 mod t - 1 = 2
    # enters the corner mid-elimination, its column is scaled so that it
    # becomes 1, and the rows below clear against a pivot row whose corner
    # is 1.  A block of one row or one column ends in gcd_many.  A permuted
    # diagonal out of divisibility order is left as it is by the clearing,
    # so only the divisibility pass orders it, handing a pair where d does
    # not divide e to laurent_gcd; in the last matrix every pair of the
    # three entries shares a factor.  Each matrix is also drawn with its
    # rows and columns scaled by seeded units c t^k, which keep every span
    # and zero, so every pivot and path.
    ctx = FieldContext(n)
    rng = random.Random(f"smith-paths-{n}")
    t = LaurentPoly.t_power(ctx, 1)
    one, zero, z = LaurentPoly.one(ctx), LaurentPoly.zero(ctx), ctx.zeta(1)
    unit_corners, gcds, replaced = [], [], []
    gcd, pair_gcd, add_multiple = laurent.gcd_many, laurent.laurent_gcd, laurent._add_multiple

    def counted_gcd(polys):
        gcds.append(len(polys))
        return gcd(polys)

    def recorded_pair_gcd(d, e):
        replaced.append(not d.divides(e))
        return pair_gcd(d, e)

    def recorded_add_multiple(context, row, factor, src, col, value):
        unit_corners.append(src[col].is_one())
        return add_multiple(context, row, factor, src, col, value)

    monkeypatch.setattr(laurent, "gcd_many", counted_gcd)
    monkeypatch.setattr(laurent, "laurent_gcd", recorded_pair_gcd)
    monkeypatch.setattr(laurent, "_add_multiple", recorded_add_multiple)
    w = t - 2 * z
    cases = [
        ([[t - one, t + one], [zero, t**2 - z * t]], unit_corners),
        ([[t**2 - one, zero, (t - z) * (t + one)]], gcds),
        ([[t**2 + t], [t - z], [zero]], gcds),
        ([[zero, t + one, zero], [(t - one) ** 2, zero, zero], [zero, zero, t - z * one]], replaced),
        ([[zero, zero, (t - one) * w], [(t - one) * (t + one), zero, zero], [zero, (t + one) * w, zero]], replaced),
    ]
    assert not any(e.is_unit() for row in cases[0][0] for e in row)
    for entries, path in cases:
        for draw in range(4):
            rows = [_random_unit(rng, ctx) if draw else one for _ in entries]
            cols = [_random_unit(rng, ctx) if draw else one for _ in entries[0]]
            m = LaurentMatrix(ctx, [[r * e * c for e, c in zip(row, cols)] for r, row in zip(rows, entries)])
            del unit_corners[:], gcds[:], replaced[:]
            snf = m.smith_normal_form()
            assert any(path), (entries, draw)
            assert (snf.divisors, snf.rank) == _certified(m)
    # The last draw of the last matrix: no factor is common to all three
    # entries, and each pair shares one.
    lcm = ((t - one) * (t + one) * w).normalize()
    assert snf.divisors == (one, lcm, lcm)


def _mixed_poly(rng, ctx, max_span=4):
    # Coefficients with denominators 1..6 and a z part, so the terms of a
    # sum bring different denominators.
    z = ctx.zeta()
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) + rng.randint(-1, 1) * z for _ in range(rng.randint(1, max_span))]
    if not any(coeffs):
        coeffs[0] = Fraction(1, rng.randint(1, 6))
    return LaurentPoly(ctx, coeffs, rng.randint(-2, 2))


@pytest.mark.parametrize("n", [1, 5, 12, 60])
def test_sums_of_products_equal_each_sum_formed_with_plus_and_times(n):
    # One kernel call for many sums: mixed denominators, a term with b None
    # (the 1 of a row update), signs -1, an empty sum and a sum cancelling
    # to zero, each against the same sum formed with + and *.
    ctx = FieldContext(n)
    rng = random.Random(f"sums-{n}")
    zero = LaurentPoly.zero(ctx)
    for _ in range(6):
        a, b, c, d = (_mixed_poly(rng, ctx) for _ in range(4))
        sums = [
            [(1, a, b), (-1, c, d)],
            [(1, a, None), (1, b, c)],
            [(-1, a, None), (-1, d, None), (1, zero, b)],
            [],
            [(1, a, b), (-1, b, a)],
            [(1, c, d), (1, a, None), (-1, b, c), (1, d, zero)],
        ]
        got = laurent._sums_of_products(ctx, sums)
        expected = []
        for terms in sums:
            total = zero
            for sign, x, y in terms:
                product = x if y is None else x * y
                total = total + product if sign > 0 else total - product
            expected.append(total)
        assert got == expected
        assert got[3] == zero and got[4] == zero


@pytest.mark.parametrize("n", [1, 5, 12, 60])
def test_an_operand_scaled_by_the_kernel_keeps_its_flat_form(n):
    # The kept flat form is shared by every use; a term with scale != 1
    # (a sign -1, a denominator below the lcm) must scale a copy.
    ctx = FieldContext(n)
    rng = random.Random(f"scaled-{n}")
    width = 2 * ctx.degree - 1
    for _ in range(6):
        polys = [_mixed_poly(rng, ctx, 5) for _ in range(4)]
        for p in polys:
            p._flat_form()
        a, b, c, d = polys
        laurent._sums_of_products(ctx, [[(-1, a, b), (1, c, None)], [(-1, d, None), (1, b, d)], [(-1, c, a)]])
        for p in polys:
            assert p._flat_form() == laurent._flat(p.rows, width)


@pytest.mark.parametrize("n", [1, 12])
def test_a_row_update_is_one_kernel_call(n, monkeypatch):
    ctx = FieldContext(n)
    rng = random.Random(f"row-update-{n}")
    zero = LaurentPoly.zero(ctx)
    row = [_mixed_poly(rng, ctx) for _ in range(5)] + [zero]
    src = [_mixed_poly(rng, ctx), zero, _mixed_poly(rng, ctx), _mixed_poly(rng, ctx), zero, _mixed_poly(rng, ctx)]
    factor = _mixed_poly(rng, ctx)
    calls = []
    kernel = laurent._product_rows
    monkeypatch.setattr(laurent, "_product_rows", lambda *args: calls.append(1) or kernel(*args))
    out = laurent._add_multiple(ctx, row, factor, src, 3, zero)
    assert len(calls) == 1
    assert out == [a + factor * b if j != 3 else zero for j, (a, b) in enumerate(zip(row, src))]


def _random_unit(rng, ctx):
    scalar = ctx.zeta(rng.randrange(ctx.conductor)) * Fraction(rng.choice([1, -1, 2, -3]), rng.randint(1, 4))
    return LaurentPoly.t_power(ctx, rng.randint(-3, 3), scalar)


@pytest.mark.parametrize("n", [1, 4, 12])
def test_unit_multiple_is_the_reduced_form_exactly_when_the_ratios_agree(n):
    # Half the triples are known x a unit over a common factor, the rest
    # are drawn apart; the cross-multiplication must decide exactly what
    # unit_equal on the independently reduced ratio decides, and a result
    # must be that reduced ratio field for field.
    ctx = FieldContext(n)
    rng = random.Random(f"unit-multiple-{n}")
    agreed = 0
    for i in range(40):
        known = RationalFunction(_mixed_poly(rng, ctx), _mixed_poly(rng, ctx))
        if i % 2 == 0:
            common = _mixed_poly(rng, ctx, 3)
            num = known.numerator * _random_unit(rng, ctx) * common
            den = known.denominator * common
        else:
            num, den = _mixed_poly(rng, ctx), _mixed_poly(rng, ctx)
        full = RationalFunction(num, den)
        got = RationalFunction.unit_multiple(num, den, known)
        assert (got is not None) == full.unit_equal(known)
        if got is not None:
            agreed += 1
            for part in ("numerator", "denominator"):
                a, b = getattr(got, part), getattr(full, part)
                assert (a.context, a.low, a.rows, a.den) == (b.context, b.low, b.rows, b.den)
    assert agreed >= 20
    zero = LaurentPoly.zero(ctx)
    assert RationalFunction.unit_multiple(zero, _mixed_poly(rng, ctx), RationalFunction.from_poly(zero)) is None


def test_wada_ratio_with_a_wrong_known_ratio_reduces_its_own():
    # The Wada minor enters un-normalized, its unit folded into the
    # determinant, so the minors here include leading coefficients outside
    # Q: rank-2 Hopf and A_3 complexes over Q(zeta_12).  Whatever known is,
    # the ratio is the one the minor formula reaches alone, and only the
    # homology ratio agrees.
    from twistalex.homology import build_complex, homology, wada_agreement
    from twistalex.presentations import (
        a_odd_augmentation,
        a_odd_reduced_presentation,
        hopf_augmentation,
        hopf_presentation,
    )

    ctx = FieldContext(12)
    rng = random.Random("wada-known")
    t = LaurentPoly.t_power(ctx, 1)
    complexes = [
        build_complex(hopf_presentation(d), hopf_augmentation([1] * d), random_hopf_representation(ctx, d, r, rng))
        for d, r in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2))
    ]
    complexes += [
        build_complex(
            a_odd_reduced_presentation(2), a_odd_augmentation(2), random_a_odd_representation(ctx, 2, r, rng, family)
        )
        for r in (1, 2)
        for family in ("diagonal", "conjugate")
    ]
    irrational = 0
    for cx in complexes:
        r, d1, d2 = cx.ranks[0], *cx.boundaries
        if not d1.submatrix(range(r), range(r)).determinant().is_zero():
            minor = d2.submatrix(range(r, d2.rows), range(d2.cols)).determinant()
            irrational += not minor.leading_coefficient().is_rational()
        alone = wada_agreement(cx, None)[0]
        right = homology(cx).ratio()
        zero = RationalFunction.from_poly(LaurentPoly.zero(ctx))
        for known in (right * (t + 2), right / (t - 3), RationalFunction.from_poly(t + 5), zero, right):
            got, agrees = wada_agreement(cx, known)
            assert (got.numerator, got.denominator) == (alone.numerator, alone.denominator)
            assert agrees == (known is right)
    assert irrational >= 4
