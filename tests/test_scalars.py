"""Exact cyclotomic arithmetic: power-basis reduction, inversion, embedding."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from oracles import multiplicative_order
from twistalex.scalars import (
    ContextMismatchError,
    CycloNumber,
    FieldContext,
    ScalarMatrix,
    cyclotomic_polynomial,
    embed,
    lcm,
    parse_scalar,
    totient,
)


def test_cyclotomic_polynomial_small_values():
    # Phi_1 = z - 1, Phi_2 = z + 1, Phi_4 = z^2 + 1, Phi_6 = z^2 - z + 1,
    # Phi_12 = z^4 - z^2 + 1, all monic with integer coefficients.
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_totient_and_lcm():
    assert [totient(n) for n in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]
    assert lcm([4, 6]) == 12
    assert lcm([1]) == 1


def test_power_basis_reduction_conductor_12():
    # In the basis 1, z, z^2, z^3 of Q(zeta_12): z^4 = z^2 - 1 and z^6 = -1,
    # both read off the reduction rows of Phi_12.
    ctx = FieldContext(12)
    z4 = ctx.zeta(4)
    assert (z4.nums, z4.den) == ((-1, 0, 1, 0), 1)
    assert ctx.zeta(6) == -ctx.one
    assert ctx.zeta(12) == ctx.one


def test_zeta_powers_multiply():
    ctx = FieldContext(12)
    for a in range(12):
        for b in range(12):
            assert ctx.zeta(a) * ctx.zeta(b) == ctx.zeta(a + b)


def test_inverse_of_one_plus_i():
    # (1 + i)(1 - i) = 2, so the inverse of 1 + zeta_4 is (1 - zeta_4)/2.
    ctx = FieldContext(4)
    value = ctx.one + ctx.zeta(1)
    expected = (ctx.one - ctx.zeta(1)) * Fraction(1, 2)
    assert value.inverse() == expected
    assert value * value.inverse() == ctx.one


def test_rational_context_is_fraction_arithmetic():
    ctx = FieldContext(1)
    a = ctx.from_rational(Fraction(3, 7))
    b = ctx.from_rational(Fraction(-2, 5))
    assert a + b == Fraction(1, 35)
    assert a * b == Fraction(-6, 35)
    assert a.inverse() == Fraction(7, 3)


def test_field_axioms_randomized():
    rng = random.Random(20260819)
    ctx = FieldContext(12)

    def rand():
        return CycloNumber(
            ctx,
            [rng.randint(-5, 5) for _ in range(4)],
            rng.randint(1, 4),
        )

    for _ in range(50):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == ctx.one
            assert (a / a) == ctx.one


def test_conjugation_is_a_ring_involution():
    rng = random.Random(11)
    ctx = FieldContext(12)
    for _ in range(25):
        a = CycloNumber(ctx, [rng.randint(-4, 4) for _ in range(4)], rng.randint(1, 3))
        b = CycloNumber(ctx, [rng.randint(-4, 4) for _ in range(4)], rng.randint(1, 3))
        assert a.conj().conj() == a
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()
    # conj sends each root of unity to its inverse
    for k in range(12):
        assert ctx.zeta(k).conj() == ctx.zeta(-k)


def test_multiplicative_order():
    ctx = FieldContext(12)
    assert multiplicative_order(ctx.one) == 1
    assert multiplicative_order(-ctx.one) == 2
    assert multiplicative_order(ctx.zeta(1)) == 12
    assert multiplicative_order(ctx.zeta(4)) == 3
    # 2 is not a root of unity
    assert multiplicative_order(ctx.from_rational(2)) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12, 15, 60])
def test_multiplicative_order_of_every_root_of_unity(n):
    # The roots of unity of Q(zeta_n) form the cyclic group generated by
    # w = zeta_N, N = lcm(2, n): z = w^(N/n) and -1 = w^(N/2), so +-z^k =
    # w^e has order N / gcd(N, e).
    ctx = FieldContext(n)
    big = lcm([2, n])
    for k in range(n):
        for sign, shift in ((1, 0), (-1, big // 2)):
            e = k * (big // n) + shift
            assert multiplicative_order(sign * ctx.zeta(k)) == big // math.gcd(big, e)
    assert multiplicative_order(ctx.from_rational(2)) is None
    # 1 + z is not a root of unity, except in Q(zeta_3), where it is -z^2.
    assert multiplicative_order(ctx.one + ctx.zeta(1)) == (6 if n == 3 else None)


def test_embed_commutes_with_arithmetic():
    rng = random.Random(5)
    small = FieldContext(3)
    big = FieldContext(12)
    for _ in range(25):
        a = CycloNumber(small, [rng.randint(-4, 4) for _ in range(2)], rng.randint(1, 3))
        b = CycloNumber(small, [rng.randint(-4, 4) for _ in range(2)], rng.randint(1, 3))
        assert embed(a + b, big) == embed(a, big) + embed(b, big)
        assert embed(a * b, big) == embed(a, big) * embed(b, big)
    # zeta_3 goes to zeta_12^4
    assert embed(small.zeta(1), big) == big.zeta(4)


def test_embed_requires_divisible_conductor():
    with pytest.raises(ValueError):
        embed(FieldContext(4).zeta(1), FieldContext(6))


def test_mixed_context_arithmetic_is_rejected():
    a = FieldContext(4).zeta(1)
    b = FieldContext(12).zeta(3)
    with pytest.raises(ContextMismatchError):
        a + b  # noqa: B018  the addition itself is the assertion


def test_scalar_parse_round_trip():
    ctx = FieldContext(12)
    for text in ("0", "1", "-1", "1/2 + 3*z^2 - z^3", "-2/5*z", "z^5"):
        value = parse_scalar(text, ctx)
        again = parse_scalar(str(value), ctx)
        assert again == value
        assert str(again) == str(value)


def test_scalar_parse_rejects_garbage():
    ctx = FieldContext(12)
    for text in ("", "z^", "1//2", "3/0", "q", "z*z"):
        with pytest.raises(ValueError):
            parse_scalar(text, ctx)
    with pytest.raises(ValueError):
        parse_scalar("z", FieldContext(1))


def test_scalar_matrix_inverse_and_det():
    ctx = FieldContext(4)
    z = ctx.zeta(1)
    m = ScalarMatrix(ctx, [[1, z], [0, 2]])
    inv = m.inverse()
    assert (m * inv).is_identity()
    assert m.det() == ctx.from_rational(2)
    singular = ScalarMatrix(ctx, [[1, 1], [1, 1]])
    assert singular.det().is_zero()


def test_scalar_matrix_rank():
    ctx = FieldContext(1)
    m = ScalarMatrix(ctx, [[1, 2, 3], [2, 4, 6], [0, 1, 0]])
    assert m.rank() == 2


def test_scalar_parse_sums_terms_like_field_arithmetic():
    # One row over one denominator gives the element that the term-by-term
    # field sum gives, for exponents past the conductor too.
    rng = random.Random(17)
    for n in (1, 5, 12, 60):
        ctx = FieldContext(n)
        for _ in range(40):
            terms = [(rng.randint(1, 9), rng.randint(1, 6), rng.randint(0, 2 * n)) for _ in range(rng.randint(1, 10))]
            signs = [rng.choice("+-") for _ in terms]
            if n == 1:
                text = "".join(f" {s} {a}/{b}" for s, (a, b, _) in zip(signs, terms))
                expected = sum(((-1 if s == "-" else 1) * Fraction(a, b) for s, (a, b, _) in zip(signs, terms)), ctx.zero)
            else:
                text = "".join(f" {s} {a}/{b}*z^{k}" for s, (a, b, k) in zip(signs, terms))
                expected = sum(
                    (ctx.zeta(k) * ((-1 if s == "-" else 1) * Fraction(a, b)) for s, (a, b, k) in zip(signs, terms)),
                    ctx.zero,
                )
            value = parse_scalar(text, ctx)
            assert value == expected
            assert (value.nums, value.den) == (expected.nums, expected.den)


@pytest.mark.parametrize(
    "text, conductor, message",
    [
        ("", 12, "empty scalar"),
        ("+", 12, "cannot parse scalar '+'"),
        ("1 + + 2", 12, "cannot parse scalar '1 + + 2'"),
        ("z^", 12, "cannot parse scalar factor 'z^'"),
        ("z^-", 12, "cannot parse scalar factor 'z^-'"),
        ("z^-x", 12, "cannot parse scalar factor 'z^-x'"),
        ("1e", 12, "cannot parse scalar factor '1e'"),
        ("zz", 12, "cannot parse scalar factor 'zz'"),
        ("z*z", 12, "repeated z factor in 'z*z'"),
        ("2**z", 12, "cannot parse scalar term '2**z'"),
        ("3/0", 12, "cannot parse scalar factor '3/0'"),
        ("1_000", 12, "cannot parse scalar factor '1_000'"),
        ("z^1_2", 12, "cannot parse scalar factor 'z^1_2'"),
        ("\u0663/4", 12, "cannot parse scalar factor '\u0663/4'"),
        ("z", 1, "z is not available in the rational context"),
        ("1 + z^0 - q", 1, "z is not available in the rational context"),
    ],
)
def test_scalar_parse_error_texts(text, conductor, message):
    with pytest.raises(ValueError) as info:
        parse_scalar(text, FieldContext(conductor))
    assert str(info.value) == message


def test_a_sign_after_a_caret_or_an_exponent_mark_belongs_to_its_factor():
    # z^k takes any integer k, and a decimal exponent may carry a sign.
    ctx = FieldContext(12)
    assert parse_scalar("z^-1", ctx) == ctx.zeta(11)
    assert parse_scalar("1/2*z^-3", ctx) == ctx.zeta(9) * Fraction(1, 2)
    assert parse_scalar("z^+2", ctx) == ctx.zeta(2)
    assert parse_scalar("2 - z^-1", ctx) == 2 - ctx.zeta(11)
    assert parse_scalar("1e-5", ctx) == ctx.from_rational(Fraction(1, 100000))


def test_scalar_parse_keeps_the_quirks_of_the_grammar():
    # A sign right after a separator belongs to the term, and Fraction reads
    # decimals; a digit group such as 1_000 is refused (the error texts above).
    ctx = FieldContext(12)
    assert parse_scalar("1+-2*z", ctx) == 1 - 2 * ctx.zeta(1)
    assert parse_scalar("0.5*z^13", ctx) == ctx.zeta(1) * Fraction(1, 2)


def test_every_accepted_quirk_of_the_grammar_prints():
    # The strings the test above accepts, and the largest exponents a factor
    # may have, print and read back as themselves.
    ctx = FieldContext(12)
    for text in ("1+-2*z", "0.5*z^13", "1e4299", "1e-4299", "1e4299*1e-4299"):
        value = parse_scalar(text, ctx)
        assert parse_scalar(str(value), ctx) == value


@pytest.mark.parametrize(
    "text, message",
    [
        ("1e5000", "scalar factor '1e5000' has an exponent past 4300"),
        ("1e-5000", "scalar factor '1e-5000' has an exponent past 4300"),
        ("1e9999999999", "scalar factor '1e9999999999' has an exponent past 4300"),
        ("1e4000*1e4000", "scalar '1e4000*1e4000' has a coefficient of more than 4300 digits"),
    ],
)
def test_a_scalar_that_would_not_print_is_refused(text, message):
    # Python prints no integer of more than 4300 digits, so such a scalar is
    # refused as it is parsed; the exponent is bounded before Fraction would
    # expand it (1e9999999999 is 10^(10^10)).
    with pytest.raises(ValueError) as info:
        parse_scalar(text, FieldContext(12))
    assert str(info.value) == message


def test_a_long_product_of_large_factors_is_refused_early():
    # The bound applies on the way: 10000 factors of 4300 digits are refused
    # at the second, not multiplied out.
    text = "*".join(["1e4300"] * 10_000)
    with pytest.raises(ValueError, match="more than 4300 digits"):
        parse_scalar(text, FieldContext(1))


def test_an_element_past_the_printed_digit_limit_prints_in_full():
    # Products of parsed scalars may pass 4300 digits; their text is cut into
    # chunks, never refused.  The chunks are read back a few digits at a time.
    ctx = FieldContext(5)
    big, den = 3**20000 - 1, 7**6000
    text = str(CycloNumber(ctx, [0, big, 0, 0], den))
    num_text, den_text = text.removesuffix("*z").split("/")

    def value(digits):
        out = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i : i + 1000]
            out = out * 10 ** len(chunk) + int(chunk)
        return out

    assert text.endswith("*z") and not num_text.startswith("0")
    assert (value(num_text), value(den_text)) == (big, den)


def test_an_all_digit_factor_reads_as_its_integer():
    # The int fast path keeps Fraction's value, and its refusal of a factor
    # past Python's 4300-digit string limit keeps the factor text.
    ctx = FieldContext(12)
    assert parse_scalar("007*z - 3", ctx) == 7 * ctx.zeta(1) - 3
    digits = "1" * 5000
    with pytest.raises(ValueError) as info:
        parse_scalar(digits, ctx)
    assert str(info.value) == f"cannot parse scalar factor {digits!r}"


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 12, 15, 60])
def test_cofactor_through_the_real_subfield_is_the_product_of_conjugates(n, monkeypatch):
    # c = conj(a) * prod sigma_k(a conj(a)) over 1 < k < n/2 is the product
    # of all conjugates sigma_k(a), k != 1; it takes phi(n)/2 + 1 products
    # with the norm check, and the check alone when phi(n) = 2.
    ctx = FieldContext(n)
    rng = random.Random(n)
    units = [k for k in range(2, n) if math.gcd(k, n) == 1]
    for _ in range(5):
        a = [rng.randint(-4, 4) for _ in range(ctx.degree)]
        if not any(a[1:]):
            a[1] = 1
        expected = ctx.one
        for k in units:
            expected = expected * CycloNumber(ctx, ctx._substitute(a, k))
        calls = []
        product = ctx._product
        monkeypatch.setattr(FieldContext, "_product", lambda self, x, y: calls.append(1) or product(x, y))
        c, norm = ctx._cofactor(a)
        monkeypatch.undo()
        assert CycloNumber(ctx, c) == expected
        assert CycloNumber(ctx, a) * CycloNumber(ctx, c) == norm
        assert len(calls) == (totient(n) // 2 + 1 if totient(n) > 2 else 1)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 15, 60])
def test_cofactor_of_a_root_of_unity_is_read_off_the_table(n, monkeypatch):
    # Every non-rational +-z^k: c is the product of the other conjugates,
    # the norm is 1, and no product is formed.
    ctx = FieldContext(n)
    units = [k for k in range(2, n) if math.gcd(k, n) == 1]
    roots = {tuple(s * x for x in ctx.zeta(k).nums) for k in range(n) for s in (1, -1)}
    roots = [a for a in roots if any(a[1:])]
    assert len(roots) == (n if n % 2 == 0 else 2 * n) - 2
    calls = []
    product = ctx._product
    for a in roots:
        expected = ctx.one
        for k in units:
            expected = expected * CycloNumber(ctx, ctx._substitute(a, k))
        monkeypatch.setattr(FieldContext, "_product", lambda self, x, y: calls.append(1) or product(x, y))
        c, norm = ctx._cofactor(a)
        monkeypatch.undo()
        assert CycloNumber(ctx, c) == expected
        assert norm == 1
    assert calls == []
