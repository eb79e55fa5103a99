"""Exact Laurent polynomials over the context field, and matrices over them.

F[t, t^-1] over a field F is a principal ideal domain whose units are the
monomials c*t^k.  Everything an order computation needs lives here: canonical
unit normalization, Euclidean division by degree span, GCDs, determinants,
minor GCDs, and Smith normal form, with unimodular transform certificates
when a caller asks for them.

A polynomial keeps its coefficients as integer power-basis rows over one
denominator (Cohen, A Course in Computational Algebraic Number Theory,
4.2): ring operations are integer convolutions folded through the power
table of the context, and field elements are built only when a caller
reads a coefficient.

LaurentMatrix shares its storage and ring-independent operations with
ScalarMatrix through scalars.Matrix.  It adds only the promotion of scalar
entries to constant polynomials, the maps into and out of the field
(from_scalar_matrix, specialize, substitute_power) and
the elimination over F[t, t^-1]: determinants, minor gcds and Smith
normal form.  The eliminations follow the sparsity of their input.  A
determinant peels singleton rows and columns first (Matrix._peel_singletons,
shared with the scalar rank and det) and runs Bareiss on the core alone.
The Smith form breaks span ties between pivots by the Markowitz count, so
units whose row or column holds nothing else leave without fill, and it
orders the divisors in one pass at the end, not by a scan per corner.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain

from .scalars import (
    ContextMismatchError,
    CycloNumber,
    FieldContext,
    Matrix,
    ScalarMatrix,
    _scalar_text,
    embed as embed_scalar,
    lcm,
)

__all__ = [
    "LaurentPoly",
    "laurent_gcd",
    "gcd_many",
    "multiplicity",
    "RationalFunction",
    "ModuleShape",
    "SmithNormalForm",
    "LaurentMatrix",
]


def _coerce_scalar(context: FieldContext, value) -> CycloNumber:
    if isinstance(value, CycloNumber):
        if value.context is not context:
            raise ContextMismatchError("scalar from a different field context")
        return value
    return context.from_rational(value)


def _product_rows(context: FieldContext, a, b) -> list[list[int]]:
    """The integer rows of the product of two sequences of power-basis rows.

    Row i of a stands for the coefficient of t^i.  The product is one integer
    convolution in t and z: with rows laid out at a stride of 2*phi(n) - 1,
    the exponents of z in a product of two rows never reach the next row.
    Each output row then folds its z^e, e >= phi(n), through the power table
    once."""
    deg = context.degree
    width = 2 * deg - 1
    fa = [(i * width + p, x) for i, row in enumerate(a) for p, x in enumerate(row) if x]
    fb = [(j * width + q, y) for j, row in enumerate(b) for q, y in enumerate(row) if y]
    size = (len(a) + len(b) - 1) * width
    flat = [0] * size
    for ia, x in fa:
        for ib, y in fb:
            flat[ia + ib] += x * y
    if deg == 1:
        return [[c] for c in flat]
    fold = context._fold
    rows = []
    for base in range(0, size, width):
        row = flat[base : base + deg]
        for c, table in zip(flat[base + deg : base + width], fold):
            if c:
                for j, r in table:
                    row[j] += c * r
        rows.append(row)
    return rows


class LaurentPoly:
    """A Laurent polynomial sum_i (rows[i] / den) * t^(low + i).

    Each coefficient is a row of integer power-basis coordinates (length
    phi(n)) over one positive denominator shared by the whole polynomial.
    The form is canonical: the rows are trimmed at both ends, the zero
    polynomial has no rows (low 0, den 1), and the content is reduced once
    per polynomial, gcd(den, every row entry) = 1; so == and hash compare
    fields.  Products are one integer convolution in t and z, sums align the
    two denominators once, and division works on the rows too, as do
    evaluate (up to its one result) and the text form.  CycloNumber objects
    appear only at the API boundary: coeffs, coefficient,
    leading_coefficient, the result of evaluate, bar and embed.
    """

    __slots__ = ("context", "low", "rows", "den")

    def __init__(self, context: FieldContext, coeffs, low: int = 0):
        cs = [_coerce_scalar(context, c) for c in coeffs]
        den = lcm(c.den for c in cs)
        self._set(context, low, [c.nums if c.den == den else [x * (den // c.den) for x in c.nums] for c in cs], den)

    @classmethod
    def _make(cls, context: FieldContext, low: int, rows, den: int) -> LaurentPoly:
        """rows / den * t^low brought to canonical form: results of ring
        operations skip the coercion of the public constructor."""
        p = object.__new__(cls)
        p._set(context, low, rows, den)
        return p

    @classmethod
    def _raw(cls, context: FieldContext, low: int, rows: tuple, den: int) -> LaurentPoly:
        # Fields already in canonical form.
        p = object.__new__(cls)
        p.context, p.low, p.rows, p.den = context, low, rows, den
        return p

    def _set(self, context: FieldContext, low: int, rows, den: int):
        start, end = 0, len(rows)
        while start < end and not any(rows[start]):
            start += 1
        while end > start and not any(rows[end - 1]):
            end -= 1
        self.context = context
        if start == end:
            self.low, self.rows, self.den = 0, (), 1
            return
        rows = rows[start:end]
        if den < 0:
            den = -den
            rows = [[-x for x in row] for row in rows]
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(rows))
            if g != 1:
                den //= g
                rows = [[x // g for x in row] for row in rows]
        self.low = low + start
        self.rows = tuple(map(tuple, rows))
        self.den = den

    @classmethod
    def zero(cls, context: FieldContext) -> LaurentPoly:
        return cls._raw(context, 0, (), 1)

    @classmethod
    def one(cls, context: FieldContext) -> LaurentPoly:
        return cls._raw(context, 0, (context.one.nums,), 1)

    @classmethod
    def t_power(cls, context: FieldContext, k: int, scalar=1) -> LaurentPoly:
        return cls(context, (scalar,), k)

    @classmethod
    def from_scalar(cls, context: FieldContext, value) -> LaurentPoly:
        return cls(context, (value,))

    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self) -> bool:
        return bool(self.rows)

    @property
    def coeffs(self) -> tuple[CycloNumber, ...]:
        """The coefficients as field elements, lowest exponent first."""
        ctx, den = self.context, self.den
        return tuple(CycloNumber(ctx, row, den) for row in self.rows)

    @property
    def high(self) -> int:
        if not self.rows:
            raise ValueError("zero polynomial has no degree")
        return self.low + len(self.rows) - 1

    @property
    def span(self) -> int:
        """Degree span (top minus bottom exponent); the Euclidean size."""
        if not self.rows:
            raise ValueError("zero polynomial has no span")
        return len(self.rows) - 1

    def coefficient(self, exponent: int) -> CycloNumber:
        i = exponent - self.low
        if not 0 <= i < len(self.rows):
            return self.context.zero
        return CycloNumber(self.context, self.rows[i], self.den)

    def leading_coefficient(self) -> CycloNumber:
        if not self.rows:
            raise ValueError("zero polynomial has no leading coefficient")
        return CycloNumber(self.context, self.rows[-1], self.den)

    def is_unit(self) -> bool:
        return len(self.rows) == 1

    def is_one(self) -> bool:
        return self.low == 0 and self.den == 1 and self.rows == (self.context.one.nums,)

    def _is_normal(self) -> bool:
        # Lowest exponent 0 and top coefficient 1.
        top = self.rows[-1]
        return self.low == 0 and top[0] == self.den and not any(top[1:])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            other = LaurentPoly.from_scalar(self.context, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (
            self.context is other.context
            and self.low == other.low
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self):
        # A constant equals its scalar, so it hashes like the scalar.
        if self.low == 0 and len(self.rows) <= 1:
            return hash(self.coefficient(0))
        return hash((self.context.conductor, self.low, self.rows, self.den))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw(self.context, self.low, tuple(tuple(-x for x in row) for row in self.rows), self.den)

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.context is not self.context:
                raise ContextMismatchError("Laurent polynomials from different contexts")
            return other
        if isinstance(other, (int, Fraction, CycloNumber)):
            return LaurentPoly.from_scalar(self.context, other)
        return None

    def _combine(self, o: LaurentPoly, sign: int) -> LaurentPoly:
        # self + sign * o over the lcm of the two denominators.
        if not o.rows:
            return self
        if not self.rows:
            return o if sign > 0 else -o
        da, db = self.den, o.den
        den = da if da == db else da * db // math.gcd(da, db)
        fa, fb = den // da, sign * (den // db)
        low = min(self.low, o.low)
        out = [(0,) * self.context.degree] * (max(self.low + len(self.rows), o.low + len(o.rows)) - low)
        off = self.low - low
        for i, row in enumerate(self.rows):
            out[off + i] = row if fa == 1 else [x * fa for x in row]
        off = o.low - low
        for i, row in enumerate(o.rows):
            j = off + i
            if fb == 1:
                out[j] = list(map(operator.add, out[j], row))
            elif fb == -1:
                out[j] = list(map(operator.sub, out[j], row))
            else:
                out[j] = [x + y * fb for x, y in zip(out[j], row)]
        return LaurentPoly._make(self.context, low, out, den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._combine(self, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.rows or not o.rows:
            return LaurentPoly.zero(self.context)
        rows = _product_rows(self.context, self.rows, o.rows)
        return LaurentPoly._make(self.context, self.low + o.low, rows, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = LaurentPoly.one(self.context)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        """Division with remainder; the remainder has strictly smaller degree
        span than the divisor (t-powers are units, so spans drive Euclid).

        The division runs on integer rows against a divisor whose top
        coefficient is rational.  A divisor with any other top coefficient is
        replaced by its monic associate, and the quotient is scaled back by
        that coefficient's inverse once; a monic divisor needs no inverse."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.rows:
            raise ZeroDivisionError("Laurent division by zero")
        ctx = self.context
        nb = len(o.rows)
        if len(self.rows) < nb:
            return LaurentPoly.zero(ctx), self
        if nb == 1:
            # A unit c * t^k divides exactly; its inverse is its normalizer.
            return (self if o.is_one() else self * o._normalizer()), LaurentPoly.zero(ctx)
        inv = None
        if any(o.rows[-1][1:]):
            inv = o._normalizer()
            o = o * inv
        divisor = o.rows
        lead = divisor[-1][0]
        # Invariant: the remainder is rem / den, den > 0.  Clearing the top
        # row g*s of rem, with g = +-gcd(lead, g*s) of the sign of lead,
        # subtracts (s / den') * divisor * t^off, den' = den * lead / g, after
        # rem is scaled to den'.
        rem = [list(row) for row in self.rows]
        den = self.den
        steps = []
        for i in range(len(rem) - 1, nb - 2, -1):
            top = rem[i]
            if not any(top):
                continue
            g = math.gcd(lead, *top) if lead > 0 else -math.gcd(lead, *top)
            m = lead // g
            s = top if g == 1 else [x // g for x in top]
            if m != 1:
                rem[:i] = [[x * m for x in row] for row in rem[:i]]
                den *= m
            off = i - nb + 1
            for j, row in enumerate(_product_rows(ctx, (s,), divisor[:-1])):
                rem[off + j] = list(map(operator.sub, rem[off + j], row))
            steps.append((off, s, den))
        # quotient = (sum_off s / den_off * t^off) * o.den over the last den,
        # a multiple of every earlier one.
        zero_row = (0,) * ctx.degree
        quot = [zero_row] * (len(rem) - nb + 1)
        for off, s, step_den in steps:
            f = den // step_den * o.den
            quot[off] = [x * f for x in s]
        q = LaurentPoly._make(ctx, self.low - o.low, quot, den)
        if inv is not None:
            q = q * inv
        return q, LaurentPoly._make(ctx, self.low, rem[: nb - 1], den)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def exact_div(self, other) -> LaurentPoly:
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    def divides(self, other) -> bool:
        if self.is_zero():
            return isinstance(other, LaurentPoly) and other.is_zero()
        return divmod(other, self)[1].is_zero()

    def _normalizer(self) -> LaurentPoly:
        """The unit u = lead^-1 * t^-low with u * self in canonical unit form;
        a rational top coefficient needs no field inverse."""
        top = self.rows[-1]
        if any(top[1:]):
            inv = self.leading_coefficient().inverse()
            return LaurentPoly._raw(self.context, -self.low, (inv.nums,), inv.den)
        one = self.context.one.nums
        return LaurentPoly._make(self.context, -self.low, [[self.den * x for x in one]], top[0])

    def normalize(self) -> LaurentPoly:
        """Canonical unit form: lowest exponent 0 and monic top coefficient.
        Zero normalizes to zero."""
        if not self.rows or self._is_normal():
            return self
        return self._normalizer() * self

    def unit_equal(self, other: LaurentPoly) -> bool:
        return self.normalize() == other.normalize()

    def substitute_power(self, n: int) -> LaurentPoly:
        """t -> t^n for a positive integer n."""
        if n < 1:
            raise ValueError("substitution exponent must be a positive integer")
        if self.is_zero() or n == 1:
            return self
        rows = [(0,) * self.context.degree] * ((len(self.rows) - 1) * n + 1)
        rows[::n] = self.rows
        return LaurentPoly._raw(self.context, self.low * n, tuple(rows), self.den)

    def bar(self) -> LaurentPoly:
        """The involution: conjugate coefficients and t -> t^-1."""
        if self.is_zero():
            return self
        return LaurentPoly(self.context, [c.conj() for c in reversed(self.coeffs)], -self.high)

    def evaluate(self, value) -> CycloNumber:
        """Specialize t to a nonzero scalar a = u / d of the same context, u
        a row of Z[z].  Horner runs on the integer rows, homogenized in u and
        d: sum_i rows[i] u^i d^(span - i).  t^low is u^low / d^low, or for
        low < 0 (d c)^-low / N^-low with u c = N the cofactor of u.  Only the
        result is a field element."""
        a = _coerce_scalar(self.context, value)
        if a.is_zero():
            raise ZeroDivisionError("cannot specialize t to 0 in a Laurent ring")
        ctx = self.context
        if not self.rows:
            return ctx.zero
        product = ctx._product
        u, d = a.nums, a.den
        acc, scale = self.rows[-1], 1
        for row in reversed(self.rows[:-1]):
            scale *= d
            acc = [x + scale * y for x, y in zip(product(acc, u), row)]
        den = self.den * scale
        k = self.low
        if k < 0:
            cofactor, norm = ctx._cofactor(u)
            u = [d * x for x in cofactor]
            k, d = -k, norm
        for _ in range(k):
            acc = product(acc, u)
            den *= d
        return CycloNumber(ctx, acc, den)

    def embed(self, target: FieldContext) -> LaurentPoly:
        if target is self.context:
            return self
        return LaurentPoly(target, [embed_scalar(c, target) for c in self.coeffs], self.low)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for e, row in enumerate(self.rows, self.low):
            if not any(row):
                continue
            negated, cs, composite = _scalar_text(row, self.den)
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

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """GCD in F[t, t^-1], returned in canonical unit form.  Euclid on degree
    spans with monic remainders to control coefficient growth."""
    a = a.normalize()
    b = b.normalize()
    while not b.is_zero():
        if b.is_unit():
            return LaurentPoly.one(a.context)
        _, r = divmod(a, b)
        a, b = b, r.normalize()
    return a


def gcd_many(polys) -> LaurentPoly:
    it = iter(polys)
    try:
        acc = next(it).normalize()
    except StopIteration:
        raise ValueError("gcd of an empty collection")
    for p in it:
        if acc.is_one():
            return acc
        acc = laurent_gcd(acc, p)
    return acc


def multiplicity(p: LaurentPoly, a) -> int:
    """Multiplicity of the root t = a (a nonzero scalar) in p.  p = 0 is
    refused with ValueError, since every power of (t - a) divides 0."""
    if p.is_zero():
        raise ValueError("every (t - a) power divides the zero polynomial")
    linear = LaurentPoly(p.context, (-_coerce_scalar(p.context, a), p.context.one))
    count = 0
    while p.evaluate(a).is_zero():
        p = p.exact_div(linear)
        count += 1
    return count


class RationalFunction:
    """A ratio of Laurent polynomials, kept coprime with canonical-form
    denominator (any unit ambiguity is carried by the numerator)."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: LaurentPoly, denominator: LaurentPoly):
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator")
        if numerator.context is not denominator.context:
            raise ContextMismatchError("numerator and denominator contexts differ")
        if numerator.is_zero():
            self.numerator = numerator
            self.denominator = LaurentPoly.one(numerator.context)
            return
        g = laurent_gcd(numerator, denominator)
        if not g.is_one():
            numerator = numerator.exact_div(g)
            denominator = denominator.exact_div(g)
        # Make the denominator canonical and push its unit into the numerator,
        # preserving the exact ratio.
        den_norm = denominator.normalize()
        unit = LaurentPoly.t_power(
            numerator.context, denominator.low - den_norm.low, denominator.leading_coefficient()
        )
        self.numerator = numerator.exact_div(unit)
        self.denominator = den_norm

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> RationalFunction:
        return cls(p, LaurentPoly.one(p.context))

    def is_polynomial(self) -> bool:
        return self.denominator.is_one()

    def as_laurent(self) -> LaurentPoly:
        if not self.is_polynomial():
            raise ValueError(f"{self} is not a Laurent polynomial")
        return self.numerator

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            other = RationalFunction.from_poly(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    def __truediv__(self, other):
        if isinstance(other, LaurentPoly):
            other = RationalFunction.from_poly(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if other.numerator.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(
            self.numerator * other.denominator, self.denominator * other.numerator
        )

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            other = RationalFunction.from_poly(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def unit_equal(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            other = RationalFunction.from_poly(other)
        return (
            self.denominator == other.denominator
            and self.numerator.normalize() == other.numerator.normalize()
        )

    def bar(self) -> RationalFunction:
        return RationalFunction(self.numerator.bar(), self.denominator.bar())

    def substitute_power(self, n: int) -> RationalFunction:
        return RationalFunction(
            self.numerator.substitute_power(n), self.denominator.substitute_power(n)
        )

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


class ModuleShape:
    """A finitely generated module over F[t, t^-1]: a free rank plus the
    nonunit elementary divisors in divisibility order."""

    __slots__ = ("context", "free_rank", "divisors")

    def __init__(self, context: FieldContext, free_rank: int, divisors):
        self.context = context
        self.free_rank = free_rank
        divs = tuple(d.normalize() for d in divisors)
        for d in divs:
            if d.is_zero() or d.is_one():
                raise ValueError("elementary divisors stored here are nonzero nonunits")
        for a, b in zip(divs, divs[1:]):
            if not a.divides(b):
                raise ValueError("elementary divisors must form a divisibility chain")
        self.divisors = divs

    def torsion_order(self) -> LaurentPoly:
        """Product of the elementary divisors, in canonical unit form; 1 for a
        torsion-free module."""
        acc = LaurentPoly.one(self.context)
        for d in self.divisors:
            acc = acc * d
        return acc.normalize()

    def is_torsion(self) -> bool:
        return self.free_rank == 0

    def __eq__(self, other):
        if not isinstance(other, ModuleShape):
            return NotImplemented
        return self.free_rank == other.free_rank and self.divisors == other.divisors

    def __repr__(self):
        divs = ", ".join(str(d) for d in self.divisors)
        return f"ModuleShape(free_rank={self.free_rank}, divisors=[{divs}])"


class SmithNormalForm:
    """U * M * V = diag(divisors) with unimodular U, V; Vinv = V^-1 is tracked
    so kernels can be read off without solving.  U, V and Vinv are None for a
    form computed without certificates."""

    __slots__ = ("matrix", "divisors", "rank", "U", "V", "Vinv")

    def __init__(self, matrix, divisors, rank, U, V, Vinv):
        self.matrix = matrix
        self.divisors = divisors
        self.rank = rank
        self.U = U
        self.V = V
        self.Vinv = Vinv

    def cokernel_shape(self) -> ModuleShape:
        """The module R^rows / (column span) read off the divisors."""
        ctx = self.matrix.context
        nontrivial = [d for d in self.divisors if not d.is_one()]
        return ModuleShape(ctx, self.matrix.rows - self.rank, nontrivial)

    def diagonal(self) -> "LaurentMatrix":
        ctx = self.matrix.context
        zero = LaurentPoly.zero(ctx)
        rows, cols = self.matrix.rows, self.matrix.cols
        entries = [[zero] * cols for _ in range(rows)]
        for i, d in enumerate(self.divisors):
            entries[i][i] = d
        return LaurentMatrix(ctx, entries)


class LaurentMatrix(Matrix):
    """A matrix over F[t, t^-1], with Bareiss determinants, minor gcds and
    Smith normal form."""

    __slots__ = ()

    @staticmethod
    def _entry(context: FieldContext, value) -> LaurentPoly:
        # Scalars are promoted to constant polynomials.
        if isinstance(value, LaurentPoly):
            if value.context is not context:
                raise ContextMismatchError("entry from a different context")
            return value
        return LaurentPoly.from_scalar(context, value)

    @staticmethod
    def _ring_zero(context: FieldContext) -> LaurentPoly:
        return LaurentPoly.zero(context)

    @staticmethod
    def _ring_one(context: FieldContext) -> LaurentPoly:
        return LaurentPoly.one(context)

    @classmethod
    def from_scalar_matrix(cls, m: ScalarMatrix, t_exponent: int = 0) -> LaurentMatrix:
        return cls._from_row_terms(m.context, {t_exponent: m._rows()})

    @classmethod
    def _from_row_terms(cls, context: FieldContext, terms: dict) -> LaurentMatrix:
        """sum_e t^e * terms[e] for a nonempty dict of equally shaped
        matrices in (entries, den) row form, keyed by exponent: each entry's
        rows are laid out over the lcm of the denominators, absent exponents
        sharing one zero row."""
        entries = next(iter(terms.values()))[0]
        low = min(terms)
        width = max(terms) - low + 1
        den = lcm(d for _, d in terms.values())
        scaled = []
        for e, (m, d) in terms.items():
            if d != den:
                m = [[[x * (den // d) for x in v] for v in row] for row in m]
            scaled.append((e - low, m))
        zero = context.zero.nums
        out = []
        for i, row in enumerate(entries):
            new = []
            for j in range(len(row)):
                rows = [zero] * width
                for k, m in scaled:
                    rows[k] = m[i][j]
                new.append(LaurentPoly._make(context, low, rows, den))
            out.append(new)
        return cls._make(context, out)

    def determinant(self) -> LaurentPoly:
        """The signed product of the peeled singletons
        (Matrix._peel_singletons) and the Bareiss determinant of the core.

        Bareiss is fraction-free elimination; every division is exact over
        the integral domain.  The previous pivot p divides every entry of a
        step, so it is made monic once per step, p = m / u with u the unit of
        p.normalize(): each entry is divided by the monic m, which needs no
        field inverse, and the quotient is scaled by u.  A matrix that is
        triangular or diagonal up to permutations has an empty core and
        makes no division, and a 1 x 1 matrix is its entry, with no
        product by 1."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows < 2:
            return self.entries[0][0] if self.rows else LaurentPoly.one(self.context)
        zero = LaurentPoly.zero(self.context)
        peeled, rows, cols, sign = self._peel_singletons()
        if not sign:
            return zero
        det = None
        for i, j in peeled:
            e = self.entries[i][j]
            det = e if det is None else det * e
        if not rows:
            return -det if sign < 0 else det
        work = [[self.entries[i][j] for j in cols] for i in rows]
        n = len(work)
        prev = None  # the pivot of the previous step; 1 before the first
        for k in range(n - 1):
            pivot_row = None
            best = None
            for i in range(k, n):
                e = work[i][k]
                if not e.is_zero():
                    s = e.span
                    if best is None or s < best:
                        best = s
                        pivot_row = i
            if pivot_row is None:
                return zero
            if pivot_row != k:
                work[k], work[pivot_row] = work[pivot_row], work[k]
                sign = -sign
            if prev is not None:
                unit = prev._normalizer()
                monic = unit * prev
            pk = work[k][k]
            for i in range(k + 1, n):
                rik = work[i][k]
                for j in range(k + 1, n):
                    num = work[i][j] * pk - rik * work[k][j]
                    work[i][j] = num if prev is None else num.exact_div(monic) * unit
                work[i][k] = zero
            prev = pk
        core = work[n - 1][n - 1]
        det = core if det is None else det * core
        return -det if sign < 0 else det

    def minors_gcd(self, k: int) -> LaurentPoly:
        """GCD of all k x k minors, canonical form; zero if all minors vanish."""
        from itertools import combinations

        if k == 0:
            # det of the empty matrix is 1; keeps the k = relator_count
            # callers uniform for presentations with no relators.
            return LaurentPoly.one(self.context)
        if k < 0 or k > min(self.rows, self.cols):
            raise ValueError("minor size out of range")
        acc = LaurentPoly.zero(self.context)
        for rows in combinations(range(self.rows), k):
            for cols in combinations(range(self.cols), k):
                d = self.submatrix(rows, cols).determinant()
                if d.is_zero():
                    continue
                acc = d if acc.is_zero() else laurent_gcd(acc, d)
                if acc.is_one():
                    return acc
        return acc.normalize()

    def specialize(self, value) -> ScalarMatrix:
        """Evaluate every entry at t = value (a nonzero scalar)."""
        a = _coerce_scalar(self.context, value)
        return self._map(lambda e: e.evaluate(a), cls=ScalarMatrix)

    def substitute_power(self, n: int) -> LaurentMatrix:
        return self._map(lambda e: e.substitute_power(n))

    def smith_normal_form(self, certificates: bool = True) -> SmithNormalForm:
        """Diagonalize by elementary row/column operations over F[t, t^-1],
        then put the diagonal in divisibility order.

        Each pivot is a nonzero entry of minimal degree span in the active
        block; ties go to the least Markowitz count (r - 1)(c - 1), r and c
        the nonzeros of its row and column in the block (Markowitz,
        Management Sci. 1957), then to the first in row order.  A unit whose
        row or column holds nothing else thus leaves without fill.
        Remainders swap into the pivot, so spans strictly decrease and the
        clearing of a corner's row and column terminates.  Whenever an entry
        enters the corner its row is scaled by the unit that puts it in
        canonical form (monic, lowest exponent 0), a unit row operation that
        only U records; every division by the corner is then by a monic
        divisor and needs no field inverse.

        The diagonal d_0, ..., d_(k-1) that the clearing leaves need not be
        a divisibility chain.  One pass over the pairs i < j mends it: when
        d_i does not divide d_j, row j is added to row i and the 2 x 2 block
        of rows and columns i, j is cleared again by the same operations.
        One clearing can leave a corner that still does not divide the other
        entry, so the step repeats until it does; each repeat lowers the
        corner's span, and the pair ends as gcd(d_i, d_j) at i and
        lcm(d_i, d_j), made monic, at j.
        After the pairs of i, d_i divides every later entry, and the gcds
        and lcms keep the earlier ones dividing; so the pass ends on the
        normalized divisors d_1 | d_2 | ....

        With certificates (the default) it returns unimodular U, V such that
        U*M*V is diagonal, and Vinv = V^-1.  With certificates=False the
        same operations skip every update of U, V and Vinv and return None
        for all three: the divisors and the rank, which are all a homology
        computation reads, come out the same.
        """
        ctx = self.context
        m, n = self.rows, self.cols
        A = [list(row) for row in self.entries]
        if certificates:
            U, V, Vinv = ([list(row) for row in LaurentMatrix.identity(ctx, k).entries] for k in (m, n, n))

        def swap_rows(i, j):
            if i != j:
                A[i], A[j] = A[j], A[i]
                if certificates:
                    U[i], U[j] = U[j], U[i]

        def swap_cols(i, j):
            if i != j:
                for row in A:
                    row[i], row[j] = row[j], row[i]
                if certificates:
                    for row in V:
                        row[i], row[j] = row[j], row[i]
                    Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

        def add_row(dst, src, factor):
            # row_dst += factor * row_src; U tracks the same operation.
            A[dst] = [a + factor * b if b else a for a, b in zip(A[dst], A[src])]
            if certificates:
                U[dst] = [a + factor * b for a, b in zip(U[dst], U[src])]

        def normalize_row(k):
            # Scale row k by the unit that makes A[k][k] canonical.
            d = A[k][k]
            if not d._is_normal():
                unit = d._normalizer()
                A[k] = [unit * a if a else a for a in A[k]]
                if certificates:
                    U[k] = [unit * a for a in U[k]]

        def enter_corner(corner, i, j):
            # Move entry (i, j) into the corner and scale its row monic.
            swap_rows(corner, i)
            swap_cols(corner, j)
            normalize_row(corner)

        def settle(corner, rows, cols):
            # Clear the corner's column over rows and its row over cols.
            while True:
                dirty = False
                for i in rows:
                    e = A[i][corner]
                    if not e:
                        continue
                    q, r = divmod(e, A[corner][corner])
                    if q:
                        add_row(i, corner, -q)
                    if r:
                        enter_corner(corner, i, corner)
                        dirty = True
                        break
                if dirty:
                    continue
                # The corner's column is clear now, so a column operation
                # col_j -= q * col_corner changes only A[corner][j], to r.
                for j in cols:
                    e = A[corner][j]
                    if not e:
                        continue
                    q, r = divmod(e, A[corner][corner])
                    A[corner][j] = r
                    if certificates and q:
                        # V tracks the column operation; Vinv the inverse
                        # one on rows, row_corner += q * row_j.
                        for row in V:
                            row[j] = row[j] - q * row[corner]
                        Vinv[corner] = [a + q * b for a, b in zip(Vinv[corner], Vinv[j])]
                    if r:
                        enter_corner(corner, corner, j)
                        dirty = True
                        break
                if not dirty:
                    return

        corner = 0
        limit = min(m, n)
        while corner < limit:
            # A pivot of minimal span in the active block, the least
            # Markowitz count among those, then the first.  A block of one
            # row or one column gives every entry the count 0.
            best = None
            tied = []
            for i in range(corner, m):
                row = A[i]
                for j in range(corner, n):
                    s = len(row[j].rows)
                    if s and (best is None or s <= best):
                        if s != best:
                            best = s
                            tied = []
                        tied.append((i, j))
            if best is None:
                break
            pivot = tied[0]
            if len(tied) > 1 and m - corner > 1 and n - corner > 1:
                block = A[corner:]
                row_nnz = {i: sum(1 for e in A[i][corner:] if e.rows) for i in {i for i, _ in tied}}
                col_nnz = {j: sum(1 for row in block if row[j].rows) for j in {j for _, j in tied}}
                pivot = min(tied, key=lambda ij: (row_nnz[ij[0]] - 1) * (col_nnz[ij[1]] - 1))
            enter_corner(corner, *pivot)
            settle(corner, range(corner + 1, m), range(corner + 1, n))
            corner += 1

        # The divisibility pass.  A corner entered monic is 1 when it is a
        # unit, and 1 divides everything.  One clearing of the pair need not
        # leave a corner that divides the other entry, so it repeats; each
        # repeat swaps a remainder into the corner, of strictly smaller span.
        for i in range(corner):
            for j in range(i + 1, corner):
                d, e = A[i][i], A[j][j]
                if d.is_one():
                    break
                while d != e and divmod(e, d)[1]:
                    add_row(i, j, LaurentPoly.one(ctx))
                    settle(i, (j,), (j,))
                    normalize_row(j)
                    d, e = A[i][i], A[j][j]

        divisors = tuple(A[i][i] for i in range(corner))
        if not certificates:
            return SmithNormalForm(self, divisors, corner, None, None, None)
        U, V, Vinv = (LaurentMatrix._make(ctx, X) for X in (U, V, Vinv))
        return SmithNormalForm(self, divisors, corner, U, V, Vinv)
