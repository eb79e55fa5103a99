"""Cyclotomic arithmetic against sympy, coefficient for coefficient in the
power basis: inverse, complex conjugation and the embedding into a larger
cyclotomic field."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from twistalex.scalars import CycloNumber, FieldContext, embed  # noqa: E402

Z = sympy.Symbol("z")
CONDUCTORS = (1, 2, 3, 5, 6, 8, 9, 10, 12, 15, 30, 60, 84)
KINDS = ("small", "grown")


def _small(ctx: FieldContext, rng: random.Random) -> CycloNumber:
    return CycloNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)], rng.randint(1, 4))


def _elements(n: int, kind: str, count: int = 4) -> list[CycloNumber]:
    """Seeded nonzero elements of Q(zeta_n); a grown one is the product of
    three small ones, so its coefficients are several digits long."""
    ctx = FieldContext(n)
    rng = random.Random(f"{n}-{kind}")
    out = []
    while len(out) < count:
        a = _small(ctx, rng)
        if kind == "grown":
            a = a * _small(ctx, rng) * _small(ctx, rng)
        if a:
            out.append(a)
    return out


def _expr(a: CycloNumber, k: int = 1, n: int | None = None):
    """a(z^k) as a sympy expression, exponents folded mod n when given (z^n
    = 1 modulo Phi_n, and the fold keeps sympy's remainder small)."""
    return sum(
        sympy.Rational(x, a.den) * Z ** (j * k if n is None else j * k % n) for j, x in enumerate(a.nums)
    )


def _coords(expr, n: int) -> tuple[Fraction, ...]:
    """Power-basis coordinates of expr reduced modulo Phi_n."""
    modulus = sympy.Poly(sympy.cyclotomic_poly(n, Z), Z, domain="QQ")
    rem = sympy.Poly(expr, Z, domain="QQ").rem(modulus)
    coeffs = list(reversed(rem.all_coeffs()))
    coeffs += [0] * (modulus.degree() - len(coeffs))
    return tuple(Fraction(str(c)) for c in coeffs)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", CONDUCTORS)
def test_inverse_matches_sympy(n, kind):
    phi = sympy.cyclotomic_poly(n, Z)
    for a in _elements(n, kind):
        expected = _coords(sympy.invert(_expr(a), phi, Z), n)
        assert a.inverse().coords == expected, a


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", CONDUCTORS)
def test_conj_matches_sympy(n, kind):
    for a in _elements(n, kind):
        expected = _coords(_expr(a, n - 1, n), n)
        assert a.conj().coords == expected, a


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", CONDUCTORS)
def test_embed_matches_sympy(n, kind):
    for k in (1, 2, 3):
        target = FieldContext(k * n)
        for a in _elements(n, kind, count=2):
            expected = _coords(_expr(a, k), k * n)
            assert embed(a, target).coords == expected, (a, k)
            assert a.embed(target) == embed(a, target)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_inverse_of_zero_raises(n):
    with pytest.raises(ZeroDivisionError):
        FieldContext(n).zero.inverse()
