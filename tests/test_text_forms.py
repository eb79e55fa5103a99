"""The text of cyclotomic numbers and Laurent polynomials against a reference
formatter that builds a Fraction per power-basis coordinate, on seeded random
values: zero and negative coordinates, zero inner coefficients, and
denominators 1, 2, 3 and 6."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from twistalex.laurent import LaurentPoly
from twistalex.scalars import CycloNumber, FieldContext

CONDUCTORS = (1, 2, 3, 5, 12, 60)


def _reference_scalar(c: CycloNumber) -> str:
    if c.is_zero():
        return "0"
    parts = []
    for k, coeff in enumerate(Fraction(x, c.den) for x in c.nums):
        if coeff == 0:
            continue
        mag = abs(coeff)
        if k == 0:
            body = str(mag)
        else:
            z = "z" if k == 1 else f"z^{k}"
            body = z if mag == 1 else f"{mag}*{z}"
        parts.append(("-" if coeff < 0 else "") + body)
    out = parts[0]
    for p in parts[1:]:
        out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    return out


def _reference_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e in range(p.low, p.high + 1):
        c = p.coefficient(e)
        if c.is_zero():
            continue
        cs = _reference_scalar(c)
        composite = "+" in cs or " - " in cs
        negated = cs.startswith("-") and not composite
        if negated:
            cs = cs[1:]
        if composite:
            cs = f"({cs})"
        if e == 0:
            body = cs
        else:
            tpart = "t" if e == 1 else f"t^{e}"
            body = tpart if cs == "1" else f"{cs}*{tpart}"
        parts.append(("-" if negated else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _coefficient(ctx: FieldContext, rng: random.Random) -> CycloNumber:
    """Zero, a single signed term, or a sum of terms with some zero
    coordinates; each over a denominator from 1, 2, 3, 6."""
    den = rng.choice((1, 2, 3, 6))
    kind = rng.random()
    nums = [0] * ctx.degree
    if kind < 0.2:
        pass
    elif kind < 0.55:
        nums[rng.randrange(ctx.degree)] = rng.choice((-1, 1)) * rng.choice((1, 1, 2, 3, 6))
    else:
        nums = [rng.choice((0, 0, rng.randint(-7, 7))) for _ in range(ctx.degree)]
    return CycloNumber(ctx, nums, den)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_scalar_and_polynomial_text_match_the_reference(n):
    ctx = FieldContext(n)
    rng = random.Random(f"text-{n}")
    for _ in range(60):
        c = _coefficient(ctx, rng)
        assert str(c) == _reference_scalar(c), c.nums
    for _ in range(40):
        coeffs = [_coefficient(ctx, rng) for _ in range(rng.randint(1, 7))]
        p = LaurentPoly(ctx, coeffs, rng.randint(-4, 4))
        assert str(p) == _reference_poly(p), [c.nums for c in coeffs]
        assert str(-p) == _reference_poly(-p)
