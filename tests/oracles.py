"""The tests' oracles and samplers, kept out of the package.

Fox's free derivative in symbolic form (Fox, Ann. of Math. 1953), free
reduction, the eliminated Hopf meridian, the order of a root of unity and
the substitution t -> t^n are checks of the engine written from their
definitions.  The seeded Hopf and A_(2n-1) samplers draw valid triples for
the property tests; every draw goes through a caller-supplied random.Random.

This module imports only names of twistalex.__all__ and reads no private
attribute (tests/test_exports.py checks both), so no oracle here shares a
code path with the engine's Fox pass or its internals.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from twistalex import (
    CycloNumber,
    FieldContext,
    LaurentMatrix,
    LaurentPoly,
    RationalFunction,
    Representation,
    ScalarMatrix,
    Word,
)


def free_reduce(word: Word) -> Word:
    """word with every adjacent pair x x^-1 or x^-1 x cancelled."""
    stack: list[tuple[int, int]] = []
    for letter in word.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return Word(stack)


def fox_derivative(word: Word, generator: int) -> dict[tuple, int]:
    """The Fox free derivative d(word)/d(x_generator), as the dict from each
    freely reduced word (its letter tuple) to its nonzero integer coefficient.

    Satisfies d(x)/d(x) = 1, d(y)/d(x) = 0, d(x^-1)/d(x) = -x^-1, and the
    product rule d(uv)/d(x) = d(u)/d(x) + u * d(v)/d(x).  Closed form used
    here: a letter x^+1 at position i contributes +prefix(i), a letter x^-1
    contributes -prefix(i) * x^-1 (the prefix through the letter inclusive).
    One pass keeps the freely reduced prefix as a stack, so every term is
    keyed by a reduced word without a reduction of its own.  Under Phi
    (PhiMap.element_image) it is the oracle of the engine's Fox pass.
    """
    out: dict[tuple, int] = {}
    prefix: list[tuple[int, int]] = []  # the reduced prefix, as a stack
    for g, s in word.letters:
        if g == generator and s == 1:
            key = tuple(prefix)
            out[key] = out.get(key, 0) + 1
        if prefix and prefix[-1] == (g, -s):
            prefix.pop()
        else:
            prefix.append((g, s))
        if g == generator and s == -1:
            key = tuple(prefix)
            out[key] = out.get(key, 0) - 1
    return {w: c for w, c in out.items() if c}


def hopf_extra_meridian_word(d: int) -> Word:
    """The eliminated d-th meridian expressed in the d-generator presentation:
    x0 = xd * x(d-1) * ... * x1 gives xd = x0 * x1^-1 * ... * x(d-1)^-1."""
    return Word([(0, 1)] + [(i, -1) for i in range(1, d)])


def multiplicative_order(a: CycloNumber):
    """Order of a as a root of unity, or None if it is none.  The roots of
    unity of Q(zeta_n) are the +-z^k, whose orders divide N = lcm(2, n), so
    the order is the least divisor k of N with a^k = 1."""
    big = math.lcm(2, a.conductor)
    if a**big != a.context.one:
        return None
    return next(k for k in range(1, big + 1) if big % k == 0 and a**k == a.context.one)


def substitute_power(x, n: int):
    """x with t -> t^n, n a positive integer, for a LaurentPoly, a
    RationalFunction or a LaurentMatrix."""
    if n < 1:
        raise ValueError("substitution exponent must be a positive integer")
    if isinstance(x, RationalFunction):
        return RationalFunction(substitute_power(x.numerator, n), substitute_power(x.denominator, n))
    if isinstance(x, LaurentMatrix):
        return LaurentMatrix(x.context, [[substitute_power(e, n) for e in row] for row in x.entries])
    if x.is_zero():
        return x
    coeffs = [x.context.zero] * (x.span * n + 1)
    coeffs[::n] = x.coeffs
    return LaurentPoly(x.context, coeffs, x.low * n)


# ---------------------------------------------------------------------------
# Randomized valid-triple samplers for the property tests.


def _random_scalar(context: FieldContext, rng: random.Random, *, nonzero=False) -> CycloNumber:
    while True:
        if context.conductor == 1 or rng.random() < 0.4:
            v = context.from_rational(Fraction(rng.randint(-3, 3)))
        else:
            v = context.zeta(rng.randrange(context.conductor)) * rng.randint(-2, 2)
        if not nonzero or not v.is_zero():
            return v


def _diagonal(context: FieldContext, diag) -> ScalarMatrix:
    n = len(diag)
    return ScalarMatrix(context, [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


def random_invertible_matrix(context: FieldContext, size: int, rng: random.Random) -> ScalarMatrix:
    while True:
        m = ScalarMatrix(
            context,
            [[_random_scalar(context, rng) for _ in range(size)] for _ in range(size)],
        )
        if not m.det().is_zero():
            return m


def random_root_of_unity(context: FieldContext, rng: random.Random) -> CycloNumber:
    if context.conductor == 1:
        return context.from_rational(rng.choice([1, -1]))
    return context.zeta(rng.randrange(context.conductor))


def random_hopf_representation(
    context: FieldContext, d: int, dimension: int, rng: random.Random, family: str = "scalar"
) -> Representation:
    """A valid representation of the Hopf group: the central generator must
    commute with every other image.

    family 'scalar': rho(x0) = lambda * Id (lambda a random root of unity
    times a nonzero rational), the rest random invertible.
    family 'diagonal': every image diagonal.
    """
    if family == "scalar":
        lam = random_root_of_unity(context, rng) * rng.choice([1, 1, 2, -1])
        eye = ScalarMatrix.identity(context, dimension)
        mats = [eye * lam]
        for _ in range(1, d):
            mats.append(random_invertible_matrix(context, dimension, rng))
        return Representation(context, mats)
    if family == "diagonal":
        diags = []
        for _ in range(d):
            diags.append(tuple(_random_scalar(context, rng, nonzero=True) for _ in range(dimension)))
        return Representation(context, [_diagonal(context, diag) for diag in diags])
    raise ValueError(f"unknown family {family!r}")


def random_a_odd_representation(
    context: FieldContext, n: int, dimension: int, rng: random.Random, family: str = "conjugate"
) -> Representation:
    """A valid representation of the A_{2n-1} group.

    family 'diagonal': all images diagonal with equal even-index and equal
    odd-index values (so conjugation by b acts trivially).
    family 'conjugate': rho(b) = Q with Q^n scalar, rho(a0) = A arbitrary
    invertible, rho(a1) = Q * A^-1, and a(i+2) = b^-1 * a(i) * b derived; the
    wrap-around closes because Q^n is central.
    """
    m = 2 * n
    if family == "diagonal":
        even = tuple(_random_scalar(context, rng, nonzero=True) for _ in range(dimension))
        odd = tuple(_random_scalar(context, rng, nonzero=True) for _ in range(dimension))
        diags = [even if i % 2 == 0 else odd for i in range(m)]
        diags.append(tuple(o * e for o, e in zip(odd, even)))
        return Representation(context, [_diagonal(context, diag) for diag in diags])
    if family == "conjugate":
        # Q = S * diag(mu_j) * S^-1 with each mu_j^n equal to one shared
        # value, so Q^n is scalar.
        while True:
            S = random_invertible_matrix(context, dimension, rng)
            base = random_root_of_unity(context, rng)
            if base.is_zero():
                continue
            # mu_j = base * eta_j with eta_j^n = 1; eta drawn from the n-th
            # roots of unity available in the context.
            etas = []
            for _ in range(dimension):
                if context.conductor % n == 0 and context.conductor > 1:
                    k = rng.randrange(n)
                    etas.append(context.zeta(k * (context.conductor // n)))
                else:
                    etas.append(context.one)
            Q = S * _diagonal(context, [base * eta for eta in etas]) * S.inverse()
            if not Q.det().is_zero():
                break
        A = random_invertible_matrix(context, dimension, rng)
        Qinv = Q.inverse()
        images = [None] * m
        images[0] = A
        images[1] = Q * A.inverse()
        for i in range(2, m):
            images[i] = Qinv * images[i - 2] * Q
        images.append(Q)
        return Representation(context, images)
    raise ValueError(f"unknown family {family!r}")
