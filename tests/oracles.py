"""The tests' oracles and samplers, kept out of the package.

Fox's free derivative in symbolic form (Fox, Ann. of Math. 1953), free
reduction, rho of a word, the eliminated Hopf meridian, the order of a root
of unity, the substitution t -> t^n, equality up to a unit and the
certified Smith form are checks of the engine written from their
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


def rho_of_word(rho: Representation, word: Word) -> ScalarMatrix:
    """rho(word) from its definition: a left fold of ScalarMatrix products
    of rho(x) or its inverse over the letters."""
    image = ScalarMatrix.identity(rho.context, rho.dimension)
    for g, s in word.letters:
        m = rho.matrices[g]
        image = image * (m if s == 1 else m.inverse())
    return image


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


def associates(a: LaurentPoly, b: LaurentPoly) -> bool:
    """a = u * b for a unit u = c * t^k of F[t, t^-1]: both have the same
    canonical unit form."""
    return a.normalize() == b.normalize()


def certified_smith_form(matrix: LaurentMatrix):
    """The textbook Smith form of a LaurentMatrix over F[t, t^-1] with its
    certificates: (divisors, rank, U, V, Vinv), where U * M * V is
    diag(divisors) in the shape of M, U and V are unimodular, Vinv = V^-1,
    and the divisors are normalized, each dividing the next.

    Euclid on the corner (Newman, Integral Matrices, 1972): the entry of
    least span in the block moves to the corner, which reduces every entry
    of its row and column, and this repeats until both are clear.  A block
    entry that the corner does not divide then has its row added to the
    corner's, and it repeats again; each repeat lowers the corner's span.
    Every row operation also acts on U, every column operation on V, and
    its inverse on the rows of Vinv."""
    ctx = matrix.context
    m, n = matrix.rows, matrix.cols
    one = LaurentPoly.one(ctx)
    A = [list(row) for row in matrix.entries]
    U, V, Vinv = ([list(row) for row in LaurentMatrix.identity(ctx, k).entries] for k in (m, n, n))

    def add_row(dst, src, f):
        # row_dst += f * row_src.
        for X in (A, U):
            X[dst] = [a + f * b for a, b in zip(X[dst], X[src])]

    def add_column(dst, src, f):
        # col_dst += f * col_src; its inverse is row_src -= f * row_dst.
        for X in (A, V):
            for row in X:
                row[dst] = row[dst] + f * row[src]
        Vinv[src] = [a - f * b for a, b in zip(Vinv[src], Vinv[dst])]

    def swap_into_corner(k, i, j):
        for X in (A, U):
            X[k], X[i] = X[i], X[k]
        for X in (A, V):
            for row in X:
                row[k], row[j] = row[j], row[k]
        Vinv[k], Vinv[j] = Vinv[j], Vinv[k]

    rank = 0
    while rank < min(m, n):
        k = rank
        block = [(len(A[i][j].rows), i, j) for i in range(k, m) for j in range(k, n) if not A[i][j].is_zero()]
        if not block:
            break
        swap_into_corner(k, *min(block)[1:])
        d = A[k][k]
        for i in range(k + 1, m):
            if not (q := A[i][k] // d).is_zero():
                add_row(i, k, -q)
        for j in range(k + 1, n):
            if not (q := A[k][j] // d).is_zero():
                add_column(j, k, -q)
        if any(not A[i][k].is_zero() for i in range(k + 1, m)) or any(not e.is_zero() for e in A[k][k + 1 :]):
            continue
        stray = next((i for i in range(k + 1, m) for j in range(k + 1, n) if not (A[i][j] % d).is_zero()), None)
        if stray is not None:
            add_row(k, stray, one)
            continue
        unit = d.normalize().exact_div(d)
        A[k], U[k] = ([unit * a for a in X[k]] for X in (A, U))
        rank += 1
    divisors = tuple(A[k][k] for k in range(rank))
    return divisors, rank, *(LaurentMatrix(ctx, X) for X in (U, V, Vinv))


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
