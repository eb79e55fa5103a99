"""Exact Laurent polynomials over the context field, and matrices over them.

F[t, t^-1] over a field F is a principal ideal domain whose units are the
monomials c*t^k.  Everything an order computation needs lives here: canonical
unit normalization, Euclidean division by degree span, GCDs, determinants,
minor GCDs, and the divisors and rank of a Smith normal form.

A polynomial keeps its coefficients as integer power-basis rows over one
denominator (Cohen, A Course in Computational Algebraic Number Theory,
4.2), and field elements are built only when a caller reads a coefficient.
Every product goes through one kernel, _product_rows: an integer
convolution in t and z into a flat row buffer, each row then folded once
through the power table of the context.  An operand enters the kernel as
the nonzero (position, value) pairs of its rows in that buffer, which a
polynomial forms on first use and keeps (_flat_form), so no operand is
flattened twice.  A product, a cross a*p - f*b and a whole division are one
call each; the division is one pass over flat rows.  Many sums share one
call, each in its own band of the buffer (_sums_of_products): a whole row
update row + f*src (_add_multiple) is one call, whether the Smith form, a
Schur step of the determinant or the reduction of a chain complex runs it.
A product of two matrices stays one call per entry: a call per product row
holds the bands of all its entries until the fold, and for the d1*d2 check
of builder hopf d=2000, whose entries are all zero, that raised the peak
memory of parse_job from 145 to 392 MB.  A rational unit scales the rows
and convolves nothing.

LaurentMatrix shares its storage and ring-independent operations with
ScalarMatrix through scalars.Matrix.  It adds only the promotion of scalar
entries to constant polynomials, the maps into and out of the field
(from_scalar_matrix and specialize) and the elimination over
F[t, t^-1]: determinants, minor gcds and Smith normal form, each following
the sparsity of its input.  A determinant peels singleton rows and columns,
clears the units of the core by Schur steps that divide by nothing, and
hands a rest of more than two rows to the Bareiss loop of Matrix, shared
with the scalar rank, det and inverse.  The Schur step and its choice of
unit (_UnitSchur) are the same ones that cancel the unit pairs of a chain
complex before its Smith forms (homology.TwistedChainComplex.reduced).  The
Smith form breaks span ties between pivots by the Markowitz count, so units
whose row or column holds nothing else leave without fill.  It has one
clearing rule: a corner's column is scaled to make it monic, so a unit
corner is 1, and its divisors come off the diagonal by gcds and lcms in one
pass at the end.  The rank at a point t = a is read modulo the split prime
of the context first (_rank_at): a full rank there proves the exact rank,
and only a deficiency needs the exact specialization.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain, combinations

from .scalars import (
    ContextMismatchError,
    CycloNumber,
    FieldContext,
    Matrix,
    ScalarMatrix,
    _Residues,
    _scalar_text,
    embed as embed_scalar,
    lcm,
)

__all__ = [
    "LaurentPoly",
    "laurent_gcd",
    "gcd_many",
    "RationalFunction",
    "ModuleShape",
    "SmithNormalForm",
    "LaurentMatrix",
]


def _flat(rows, width: int) -> list[tuple[int, int]]:
    """The nonzero coordinates of a sequence of power-basis rows as (position,
    value) pairs, row i starting at position i * width."""
    return [(i * width + p, x) for i, row in enumerate(rows) for p, x in enumerate(row) if x]


def _fold(context: FieldContext, flat, base: int) -> list[int]:
    """The row at base of a flat buffer, its z^e, e >= phi(n), folded."""
    deg = context.degree
    row = flat[base : base + deg]
    for c, table in zip(flat[base + deg : base + 2 * deg - 1], context._fold):
        if c:
            for j, r in table:
                row[j] += c * r
    return row


def _product_rows(context: FieldContext, flat, terms) -> list:
    """Add the products of terms into a flat buffer and return its rows, each
    folded once through the power table: the one convolution in t and z.

    Row i of the buffer, the coefficient of t^i, starts at i * (2*phi(n) - 1),
    so the exponents of z in a product of two rows never reach the next row.
    A term (offset, fa, fb) adds fa * fb, both in the form of _flat, at
    offset.  A division passes a generator that reads and cuts off its top
    row between terms, so what is left to fold is its remainder."""
    for offset, fa, fb in terms:
        for ia, x in fa:
            base = offset + ia
            for ib, y in fb:
                flat[base + ib] += x * y
    deg = context.degree
    width = 2 * deg - 1
    if len(flat) <= 4 * width:
        return [_fold(context, flat, base) for base in range(0, len(flat), width)]
    # A longer buffer folds by columns, flat[p::width] being coordinate p:
    # a fixed cost per power-table entry that only many rows repay.
    cols = [flat[p::width] for p in range(deg)]
    for e, table in enumerate(context._fold, deg):
        high = flat[e::width]
        if any(high):
            for j, r in table:
                if r == 1 or r == -1:
                    cols[j] = list(map(operator.add if r == 1 else operator.sub, cols[j], high))
                else:
                    cols[j] = [x + r * c for x, c in zip(cols[j], high)]
    return list(zip(*cols))


def _sums_of_products(context: FieldContext, sums) -> list:
    """For each sum, a list of terms (sign, a, b), b None for 1, the
    polynomial sum of sign * a * b: one kernel call for all of them.

    Each sum gets its own band of rows in one flat buffer, over the lcm of
    its denominators (an empty sum an empty band), and the folded buffer is
    split back into the bands.
    The operands are the kept flat forms (LaurentPoly._flat_form); a term
    whose scale is not 1 scales a copy of its shorter operand."""
    width = 2 * context.degree - 1
    bands, products, size = [], [], 0
    for terms in sums:
        parts, low, high, den = [], math.inf, -math.inf, 1
        for sign, a, b in terms:
            if a.rows and (b is None or b.rows):
                lo, d, hi, fb = a.low, a.den, a.low + len(a.rows), ((0, 1),)
                if b is not None:
                    lo, d, hi, fb = lo + b.low, d * b.den, hi + b.low + len(b.rows) - 1, b._flat_form()
                parts.append((lo, d, sign, a._flat_form(), fb))
                low = lo if lo < low else low
                high = hi if hi > high else high
                den = den if den % d == 0 else math.lcm(den, d)
        if not parts:
            low = high = 0
        base = size * width
        for lo, d, sign, fa, fb in parts:
            scale = sign * (den // d)
            if scale != 1:
                if len(fb) <= len(fa):
                    fb = [(p, x * scale) for p, x in fb]
                else:
                    fa = [(p, x * scale) for p, x in fa]
            products.append((base + (lo - low) * width, fa, fb))
        bands.append((low, size, size + high - low, den))
        size += high - low
    rows = _product_rows(context, [0] * (size * width), products) if products else ()
    return [LaurentPoly._make(context, low, rows[start:end], den) for low, start, end, den in bands]


def _add_multiple(context: FieldContext, row, factor: LaurentPoly, src, col: int, value: LaurentPoly) -> list:
    """row + factor * src as one kernel call, the sum of each nonzero entry
    of src its own band (_sums_of_products), with value, which the caller
    already holds (zero after a Schur step, a remainder in the Smith form),
    as the new entry of column col."""
    cols = [j for j, b in enumerate(src) if b and j != col]
    new = _sums_of_products(context, [((1, row[j], None), (1, factor, src[j])) for j in cols])
    out = list(row)
    for j, e in zip(cols, new):
        out[j] = e
    out[col] = value
    return out


class _UnitSchur:
    """Schur steps on the units c t^k of a matrix over F[t, t^-1], a list of
    rows changed in place: the one unit elimination, shared by
    LaurentMatrix.determinant and the reduced form of a chain complex.

    pivot() is the unit of least Markowitz count (r - 1)(c - 1), r and c the
    nonzeros of its row and column among the live lines, then the first in
    row order; None when no unit is left.  eliminate(i, j) takes each live
    row with an entry e in column j to row - (e u^-1) row_i, u = work[i][j],
    and row i and column j leave, so the live block becomes the Schur
    complement of u.  It divides by nothing, and forms u^-1 only when such a
    row exists and row i holds more than u; each such row is one row update,
    one kernel call (_add_multiple).  row_count and col_count hold the
    nonzeros of each live line, kept under every step; a line that left
    counts 0.
    """

    __slots__ = ("context", "work", "row_count", "col_count", "units")

    def __init__(self, context: FieldContext, work):
        self.context = context
        self.work = work
        width = len(work[0]) if work else 0
        self.row_count = [sum(1 for e in row if e) for row in work]
        self.col_count = [sum(1 for row in work if row[j]) for j in range(width)]
        self.units = {(i, j) for i, row in enumerate(work) for j, e in enumerate(row) if e.is_unit()}

    def pivot(self):
        if not self.units:
            return None
        row_count, col_count = self.row_count, self.col_count
        return min(self.units, key=lambda ij: ((row_count[ij[0]] - 1) * (col_count[ij[1]] - 1), ij))

    def eliminate(self, i: int, j: int) -> bool:
        """The Schur step at the unit (i, j); False when it leaves a live row
        or column it touched with no nonzero."""
        work, row_count, col_count = self.work, self.row_count, self.col_count
        pivot = work[i]
        row_count[i] = col_count[j] = 0
        units = {(a, b) for a, b in self.units if a != i and b != j}
        # Live rows are zero in earlier pivot columns; a step changes span alone.
        span = [c for c in range(len(pivot)) if pivot[c] and col_count[c]]
        targets = [k for k in range(len(work)) if row_count[k] and work[k][j]]
        # A pivot alone in its row only clears its column.
        minus_inv = -pivot[j]._normalizer() if targets and span else None
        zero = LaurentPoly.zero(self.context)
        for c in span:
            col_count[c] -= 1
        emptied = False
        for k in targets:
            old = work[k]
            if minus_inv is None:
                work[k] = row = [*old[:j], zero, *old[j + 1 :]]
            else:
                work[k] = row = _add_multiple(self.context, old, old[j] * minus_inv, pivot, j, zero)
            row_count[k] -= 1
            for c in span:
                units.discard((k, c))
                if row[c].is_unit():
                    units.add((k, c))
                change = bool(row[c]) - bool(old[c])
                col_count[c] += change
                row_count[k] += change
            emptied = emptied or not row_count[k]
        self.units = units
        return not emptied and all(col_count[c] for c in span)


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

    __slots__ = ("context", "low", "rows", "den", "_flat_rows")

    def __init__(self, context: FieldContext, coeffs, low: int = 0):
        cs = [context.from_rational(c) for c in coeffs]
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
        p.context, p.low, p.rows, p.den, p._flat_rows = context, low, rows, den, None
        return p

    def _set(self, context: FieldContext, low: int, rows, den: int):
        start, end = 0, len(rows)
        while start < end and not any(rows[start]):
            start += 1
        while end > start and not any(rows[end - 1]):
            end -= 1
        self.context = context
        self._flat_rows = None
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

    def _flat_form(self) -> list[tuple[int, int]]:
        """_flat(rows, 2*phi(n) - 1), the operand form of the kernel, formed
        on first use and kept: the polynomial is immutable, and the kernel
        never writes to it."""
        flat = self._flat_rows
        if flat is None:
            flat = self._flat_rows = _flat(self.rows, 2 * self.context.degree - 1)
        return flat

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
        a, b = (o, self) if len(self.rows) == 1 and not any(self.rows[0][1:]) else (self, o)
        if len(b.rows) == 1 and not any(b.rows[0][1:]):
            # b = c * t^k, c rational (a sign, a constant, a normalizer).
            if b.den == 1 and b.rows[0][0] == 1:
                # b = t^k: a's canonical rows, shifted.
                return LaurentPoly._raw(self.context, a.low + b.low, a.rows, a.den)
            rows = [[x * b.rows[0][0] for x in row] for row in a.rows]
            return LaurentPoly._make(self.context, a.low + b.low, rows, a.den * b.den)
        flat = [0] * ((len(self.rows) + len(o.rows) - 1) * (2 * self.context.degree - 1))
        rows = _product_rows(self.context, flat, ((0, self._flat_form(), o._flat_form()),))
        return LaurentPoly._make(self.context, self.low + o.low, rows, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        # floor(log2 e) squares, none above the top bit, and popcount(e) - 1 products.
        result, base, e = None, self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return LaurentPoly.one(self.context) if result is None else result

    def __divmod__(self, other):
        """Division with remainder; the remainder has strictly smaller degree
        span than the divisor (t-powers are units, so spans drive Euclid).

        The division is one pass over flat rows, one call of the kernel,
        against a divisor whose top coefficient is rational.  A divisor with
        any other top coefficient is replaced by its monic associate, and the
        quotient is scaled back by that coefficient's inverse once; a monic
        divisor needs no inverse."""
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
        deg = ctx.degree
        width = 2 * deg - 1
        flat = list(chain.from_iterable(row + (0,) * (deg - 1) for row in self.rows))
        # The divisor's flat form without its top row, of one nonzero.
        lead, tail, den, steps = o.rows[-1][0], o._flat_form()[:-1], self.den, []

        def eliminate():
            # Invariant: the remainder is flat / den, den > 0, flat ending at
            # the row being cleared, folded now that it is the top.  Clearing
            # its top row g*s, g = +-gcd(lead, g*s) of the sign of lead, cuts
            # it off (lead * s - s * lead = 0), scales the rows below to den'
            # = den * lead / g and subtracts s * (the divisor's lower rows).
            nonlocal den
            for i in range(len(self.rows) - 1, nb - 2, -1):
                base = i * width
                top = _fold(ctx, flat, base)
                del flat[base:]
                if any(top):
                    g = math.gcd(lead, *top) if lead > 0 else -math.gcd(lead, *top)
                    m = lead // g
                    s = top if g == 1 else [x // g for x in top]
                    if m != 1:
                        flat[:] = [x * m for x in flat]
                        den *= m
                    steps.append((i - nb + 1, s, den))
                    yield (i - nb + 1) * width, [(p, -x) for p, x in enumerate(s) if x], tail

        rem = _product_rows(ctx, flat, eliminate())
        # quotient = (sum_off s / den_off * t^off) * o.den over the last den,
        # a multiple of every earlier one.
        quot = [(0,) * deg] * (len(self.rows) - nb + 1)
        for off, s, step_den in steps:
            f = den // step_den * o.den
            quot[off] = [x * f for x in s]
        q = LaurentPoly._make(ctx, self.low - o.low, quot, den)
        if inv is not None:
            q = q * inv
        return q, LaurentPoly._make(ctx, self.low, rem, den)

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
        a = self.context.from_rational(value)
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

    def _residue_at(self, alpha: int) -> int:
        """The residue of den * self(a) mod the split prime p of the context,
        for a point a of nonzero residue alpha (FieldContext._point_residue).
        den * self(a) lies in the valuation ring of the prime over p, so a
        nonzero residue proves self(a) nonzero."""
        ctx = self.context
        p, residue = ctx._split[0], ctx._residue
        acc = 0
        for row in reversed(self.rows):
            acc = (acc * alpha + residue(row)) % p
        return acc * pow(alpha, self.low, p) % p

    def embed(self, target: FieldContext) -> LaurentPoly:
        if target is self.context:
            return self
        return LaurentPoly(target, [embed_scalar(c, target) for c in self.coeffs], self.low)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        # Each distinct coefficient row is formatted once.
        texts = {}
        for e, row in enumerate(self.rows, self.low):
            if not any(row):
                continue
            text = texts.get(row)
            if text is None:
                negated, cs, composite = _scalar_text(row, self.den)
                text = texts[row] = negated, f"({cs})" if composite else cs
            negated, cs = text
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
    """GCD of a nonempty collection, in canonical unit form: 1 at once when
    an input is a unit, else a fold from the shortest input up, so every
    Euclid starts on the least span there is.  Each input is first reduced
    by the monic gcd so far, which needs no field inverse, and an input
    that it divides costs that one division."""
    polys = list(polys)
    if not polys:
        raise ValueError("gcd of an empty collection")
    nonzero = sorted((p for p in polys if p.rows), key=lambda p: len(p.rows))
    if not nonzero:
        return polys[0]
    if nonzero[0].is_unit():
        return LaurentPoly.one(nonzero[0].context)
    acc = nonzero[0].normalize()
    for p in nonzero[1:]:
        if acc.is_one():
            break
        r = p % acc
        if r:
            acc = laurent_gcd(acc, r)
    return acc


def _strip_root(p: LaurentPoly, a: CycloNumber) -> tuple[int, LaurentPoly]:
    """(k, p / (t - a)^k), k the multiplicity of the root t = a of p, for a
    nonzero scalar a of p's context; p = 0 raises ValueError."""
    if p.is_zero():
        raise ValueError("every (t - a) power divides the zero polynomial")
    linear = LaurentPoly(p.context, (-a, p.context.one))
    alpha = p.context._point_residue(a)
    count = 0
    while _vanishes(p, a, alpha):
        p = p.exact_div(linear)
        count += 1
    return count, p


def _vanishes(p: LaurentPoly, a: CycloNumber, alpha: int) -> bool:
    """Whether p(a) = 0, alpha the residue of a (FieldContext._point_residue).
    A nonzero residue of p at alpha proves p(a) nonzero; a zero one decides
    nothing, so p(a) is then evaluated."""
    return not (alpha and p._residue_at(alpha)) and p.evaluate(a).is_zero()


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

    @classmethod
    def unit_multiple(cls, numerator: LaurentPoly, denominator: LaurentPoly, known: RationalFunction):
        """The reduced form of a/b = numerator / denominator when that ratio
        is a unit u = s * t^k times known = c/d, else None (also when a
        numerator is zero).

        In the domain F[t, t^-1], a/b = u * c/d iff a*d = (u*c)*b, so the
        verdict is this one cross-multiplication.  The leading coefficient
        and low exponent of a product are the product and the sum of its
        factors', so u comes from those alone: s = lc(a) lc(d) / (lc(c)
        lc(b)) and k = low(a) + low(d) - low(c) - low(b).  Lengths add less
        one in a product, so unequal length sums refuse before any product;
        otherwise the test forms a*d, u*c and (u*c)*b, and never c*b.  known
        is coprime with a canonical denominator and the reduced form is
        unique, so (u*c, d) is the form __init__ would reach, here without a
        gcd or a division."""
        a, b, c, d = numerator, denominator, known.numerator, known.denominator
        if not (a and b and c) or len(a.rows) + len(d.rows) != len(c.rows) + len(b.rows):
            return None
        scalar = (a.leading_coefficient() * d.leading_coefficient()) / (
            c.leading_coefficient() * b.leading_coefficient()
        )
        scaled = LaurentPoly.t_power(a.context, a.low + d.low - c.low - b.low, scalar) * c
        if a * d != scaled * b:
            return None
        reduced = object.__new__(cls)
        reduced.numerator = scaled
        reduced.denominator = d
        return reduced

    def is_polynomial(self) -> bool:
        return self.denominator.is_one()

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
        # A polynomial equals its Laurent polynomial, so it hashes like it.
        if self.denominator.is_one():
            return hash(self.numerator)
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

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


class ModuleShape:
    """A finitely generated module over F[t, t^-1]: a free rank plus the
    nonunit elementary divisors in divisibility order."""

    __slots__ = ("context", "free_rank", "divisors", "_order")

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
        self._order = None

    def torsion_order(self) -> LaurentPoly:
        """Product of the elementary divisors, in canonical unit form; 1 for a
        torsion-free module.  Formed once, by pairwise products in a balanced
        tree, so no product has one long factor and one short one."""
        if self._order is None:
            level = list(self.divisors) or [LaurentPoly.one(self.context)]
            while len(level) > 1:
                pairs = [a * b for a, b in zip(level[::2], level[1::2])]
                level = pairs + level[2 * len(pairs) :]
            self._order = level[0].normalize()
        return self._order

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
    """The normalized divisors d_1 | d_2 | ... of a matrix M and its rank:
    M is equivalent to diag(divisors) over F[t, t^-1]."""

    __slots__ = ("divisors", "rank")

    def __init__(self, divisors, rank):
        self.divisors = divisors
        self.rank = rank


class LaurentMatrix(Matrix):
    """A matrix over F[t, t^-1]: determinants by unit pivots and the Bareiss
    loop of Matrix, minor gcds and Smith normal form."""

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
        return cls._from_row_terms(m.context, [(t_exponent, 1, m._rows())])

    @classmethod
    def _from_row_terms(cls, context: FieldContext, terms: list) -> LaurentMatrix:
        """The sum of sign * t^e * rows over a nonempty list of terms
        (e, sign, rows), rows equally shaped matrices in (entries, den) row
        form.  Each entry sums the terms of each exponent once, over the lcm
        of the denominators; a lone term that needs no factor is laid out as
        it is, and absent exponents share one zero row.  The rows are read,
        never written."""
        den = lcm(rows[1] for _, _, rows in terms)
        groups: dict = {}
        for e, sign, (m, d) in terms:
            groups.setdefault(e, []).append((sign * (den // d), m))
        low = min(groups)
        width = max(groups) - low + 1
        zero = context.zero.nums
        out = []
        for i, row in enumerate(terms[0][2][0]):
            new = []
            for j in range(len(row)):
                rows = [zero] * width
                for e, group in groups.items():
                    if len(group) == 1:
                        f, m = group[0]
                        rows[e - low] = m[i][j] if f == 1 else [f * x for x in m[i][j]]
                    else:
                        rows[e - low] = [sum(c) for c in zip(*([f * x for x in m[i][j]] for f, m in group))]
                new.append(LaurentPoly._make(context, low, rows, den))
            out.append(new)
        return cls._make(context, out)

    @staticmethod
    def _dot(pairs):
        # One buffer and one fold for the whole entry.
        if len(pairs) == 1:
            a, b = pairs[0]
            return a * b
        return _sums_of_products(pairs[0][0].context, ([(1, a, b) for a, b in pairs],))[0]

    # The hooks of Matrix._bareiss; the size of an entry is its span + 1.

    @staticmethod
    def _size(e: LaurentPoly) -> int:
        return len(e.rows)

    @staticmethod
    def _cross(a, p, f, b):
        # a p - f b in one buffer.
        return _sums_of_products(p.context, (((1, a, p), (-1, f, b)),))[0] if f and b else a * p

    @staticmethod
    def _divider(prev: LaurentPoly):
        # prev = m / u with u the unit of prev.normalize(): a division by the
        # monic m, which needs no field inverse, then a product with u.
        unit = prev._normalizer()
        monic = unit * prev
        return lambda v: v.exact_div(monic) * unit if v else v

    def determinant(self) -> LaurentPoly:
        """The signed product of the peeled singletons, the unit pivots of
        the core and the determinant of the rest.  While more than two rows
        are left and one holds a unit u, the unit of least Markowitz count
        (r - 1)(c - 1), then the first in row order, leaves by a Schur step
        of _UnitSchur: each row with an entry e in u's column becomes
        row - (e u^-1) pivot row, and det = (-1)^(i+j) u det(rest).  Two
        rows left are a d - b c; more go to the Bareiss loop of Matrix.  A
        permuted triangular matrix has an empty core and makes no
        division."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows < 2:
            return self.entries[0][0] if self.rows else LaurentPoly.one(self.context)
        zero = LaurentPoly.zero(self.context)
        peeled, rows, cols, sign = self._peel_singletons()
        if not sign:
            return zero
        factors = [self.entries[i][j] for i, j in peeled]
        work = [[self.entries[i][j] for j in cols] for i in rows]
        n = live = len(work)
        units = _UnitSchur(self.context, work)
        row_count, col_count = units.row_count, units.col_count
        while live > 2 and (pivot := units.pivot()) is not None:
            i, j = pivot
            live -= 1
            factors.append(work[i][j])
            sign *= -1 if (sum(1 for c in row_count[:i] if c) + sum(1 for c in col_count[:j] if c)) % 2 else 1
            # A live line at 0 makes det 0.
            if not units.eliminate(i, j):
                return zero
        rest = [[work[i][j] for j in range(n) if col_count[j]] for i in range(n) if row_count[i]]
        if len(rest) == 2:
            factors.append(self._cross(rest[0][0], rest[1][1], rest[1][0], rest[0][1]))
        elif rest:
            rank, core, swaps = self._bareiss(rest, len(rest))
            if rank < len(rest):
                return zero
            sign *= swaps
            factors.append(core)
        det = math.prod(factors[1:], start=factors[0])
        return -det if sign < 0 else det

    def minors_gcd(self, k: int) -> LaurentPoly:
        """GCD of all k x k minors, canonical form; zero if all minors vanish."""
        if k == 0:
            # The one 0 x 0 minor, the empty determinant, is 1.
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
        a = self.context.from_rational(value)
        return self._map(lambda e: e.evaluate(a), cls=ScalarMatrix)

    def _rank_at(self, value) -> int:
        """The rank of specialize(value).  The residues mod the split prime
        p of the context come straight from the rows (each matrix row scaled
        by the lcm of its denominators, which keeps the rank), and a rank of
        min(rows, cols) mod p proves full rank.  A lower rank mod p, or a
        point whose residue is 0 or undefined, leaves the answer to the exact
        rank of specialize(value)."""
        ctx = self.context
        a = ctx.from_rational(value)
        alpha = ctx._point_residue(a)
        if alpha:
            p = ctx._split[0]
            rows = []
            for row in self.entries:
                den = lcm(e.den for e in row)
                rows.append([e._residue_at(alpha) * (den // e.den) % p for e in row])
            if _Residues._make(ctx, rows).is_full_rank():
                return min(self.rows, self.cols)
        return self.specialize(a).rank()

    def smith_normal_form(self) -> SmithNormalForm:
        """The divisors and rank of M, by elementary row/column operations
        over F[t, t^-1], then the diagonal put in divisibility order.

        Each pivot is a nonzero entry of minimal degree span in the active
        block; ties go to the least Markowitz count (r - 1)(c - 1), r and c
        the nonzeros of its row and column in the block (Markowitz,
        Management Sci. 1957), then to the first in row order.  A unit whose
        row or column holds nothing else thus leaves without fill.  An entry
        entering the corner has its column scaled by the unit that puts it
        in canonical form (monic, lowest exponent 0), so a unit corner
        becomes 1 and every division by the corner is by a monic divisor,
        with no field inverse.  One rule clears every corner: each entry of
        its column leaves by row_i -= q row_corner, then each entry of its
        row is cut to its remainder (a column operation changes nothing else
        once the column is clear).  Remainders swap into the corner, so
        spans strictly decrease and the clearing terminates; under a corner
        of 1 the quotient is the entry itself and the row clears at once.  A
        block of one row or one column has the gcd of its entries as its one
        divisor (gcd_many).

        The diagonal d_0, ..., d_(k-1) that the clearing leaves need not be
        a divisibility chain.  Over a PID diag(a, b) is equivalent to
        diag(gcd(a, b), lcm(a, b)) (Newman, Integral Matrices, 1972), so one
        pass over the pairs i < j of the diagonal mends it with no row
        operation: where d_i does not divide d_j, the gcd goes to i and the
        monic lcm to j.  After the pairs of i, d_i divides every later
        entry, and the gcds and lcms keep the earlier ones dividing; so the
        pass ends on the normalized divisors d_1 | d_2 | ....

        No transforms are kept: the divisors and the rank are all a
        homology computation reads.  The tests certify them against an
        independent Smith form with U, V and V^-1 (tests/oracles.py).
        """
        ctx = self.context
        m, n = self.rows, self.cols
        A = [list(row) for row in self.entries]
        zero = LaurentPoly.zero(ctx)

        def enter_corner(corner, i, j):
            # Move entry (i, j) into the corner and scale its column, from
            # the corner row down, by the unit that makes it canonical; the
            # rows above are zero there.
            A[corner], A[i] = A[i], A[corner]
            if j != corner:
                for row in A:
                    row[corner], row[j] = row[j], row[corner]
            d = A[corner][corner]
            if not d._is_normal():
                unit = d._normalizer()
                for row in A[corner:]:
                    if row[corner]:
                        row[corner] = unit * row[corner]

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
                        # row_i += -q row_corner, r its new corner entry.
                        A[i] = _add_multiple(ctx, A[i], -q, A[corner], corner, r)
                    if r:
                        enter_corner(corner, i, corner)
                        dirty = True
                        break
                if dirty:
                    continue
                for j in cols:
                    e = A[corner][j]
                    if not e:
                        continue
                    A[corner][j] = e % A[corner][corner]
                    if A[corner][j]:
                        enter_corner(corner, corner, j)
                        dirty = True
                        break
                if not dirty:
                    return

        corner = 0
        limit = min(m, n)
        while corner < limit:
            if m - corner == 1 or n - corner == 1:
                # A block of one row or one column has the gcd of its
                # entries as its one divisor.
                line = [(i, j) for i in range(corner, m) for j in range(corner, n) if A[i][j]]
                if line:
                    g = gcd_many([A[i][j] for i, j in line])
                    for i, j in line:
                        A[i][j] = zero
                    A[corner][corner] = g
                    corner += 1
                break
            # A pivot of minimal span in the active block, the least
            # Markowitz count among those, then the first.
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
            if len(tied) > 1:
                block = A[corner:]
                row_nnz = {i: sum(1 for e in A[i][corner:n] if e.rows) for i in {i for i, _ in tied}}
                col_nnz = {j: sum(1 for row in block if row[j].rows) for j in {j for _, j in tied}}
                pivot = min(tied, key=lambda ij: (row_nnz[ij[0]] - 1) * (col_nnz[ij[1]] - 1))
            enter_corner(corner, *pivot)
            settle(corner, range(corner + 1, m), range(corner + 1, n))
            corner += 1

        # The divisibility pass: diag(d, e) is equivalent to diag(gcd, lcm),
        # and 1 divides everything.
        diagonal = [A[i][i] for i in range(corner)]
        for i in range(corner):
            for j in range(i + 1, corner):
                d, e = diagonal[i], diagonal[j]
                if d.is_one():
                    break
                if d != e and not d.divides(e):
                    g = laurent_gcd(d, e)
                    diagonal[i], diagonal[j] = g, (d.exact_div(g) * e).normalize()

        return SmithNormalForm(tuple(diagonal), corner)
