"""Exact Laurent polynomials over the context field, and matrices over them.

F[t, t^-1] over a field F is a principal ideal domain whose units are the
monomials c*t^k.  Everything an order computation needs lives here: canonical
unit normalization, Euclidean division by degree span, GCDs, determinants,
minor GCDs, and Smith normal form with unimodular transform certificates.

LaurentMatrix shares its storage and ring-independent operations with
ScalarMatrix through scalars.Matrix.  It adds only the promotion of scalar
entries to constant polynomials, the maps into and out of the field
(from_scalar_matrix, from_scalar_terms, specialize, substitute_power) and
the elimination over F[t, t^-1]: Bareiss determinants, minor gcds and Smith
normal form.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ContextMismatchError, CycloNumber, FieldContext, Matrix, ScalarMatrix, embed as embed_scalar

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


class LaurentPoly:
    """A Laurent polynomial: lowest exponent plus a dense coefficient tuple.

    The representation is trimmed at both ends, and the zero polynomial is the
    unique instance with an empty coefficient tuple (low exponent 0).
    """

    __slots__ = ("context", "low", "coeffs")

    def __init__(self, context: FieldContext, coeffs, low: int = 0):
        self._set(context, [_coerce_scalar(context, c) for c in coeffs], low)

    @classmethod
    def _make(cls, context: FieldContext, coeffs, low: int = 0) -> LaurentPoly:
        """A polynomial from coefficients already in the context: results of
        ring operations skip the coercion of the public constructor and are
        only trimmed."""
        p = object.__new__(cls)
        p._set(context, coeffs, low)
        return p

    def _set(self, context: FieldContext, coeffs, low: int):
        start = 0
        while start < len(coeffs) and coeffs[start].is_zero():
            start += 1
        end = len(coeffs)
        while end > start and coeffs[end - 1].is_zero():
            end -= 1
        if start == end:
            self.low = 0
            self.coeffs = ()
        else:
            self.low = low + start
            self.coeffs = tuple(coeffs[start:end])
        self.context = context

    @classmethod
    def zero(cls, context: FieldContext) -> LaurentPoly:
        return cls._make(context, ())

    @classmethod
    def one(cls, context: FieldContext) -> LaurentPoly:
        return cls._make(context, (context.one,))

    @classmethod
    def t_power(cls, context: FieldContext, k: int, scalar=1) -> LaurentPoly:
        return cls(context, (_coerce_scalar(context, scalar),), k)

    @classmethod
    def from_scalar(cls, context: FieldContext, value) -> LaurentPoly:
        return cls(context, (_coerce_scalar(context, value),))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def high(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.low + len(self.coeffs) - 1

    @property
    def span(self) -> int:
        """Degree span (top minus bottom exponent); the Euclidean size."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no span")
        return len(self.coeffs) - 1

    def coefficient(self, exponent: int) -> CycloNumber:
        if not self.coeffs or exponent < self.low or exponent > self.high:
            return self.context.zero
        return self.coeffs[exponent - self.low]

    def leading_coefficient(self) -> CycloNumber:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.low == 0 and self.coeffs[0] == self.context.one

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            other = LaurentPoly.from_scalar(self.context, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (
            self.context is other.context
            and self.low == other.low
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.context.conductor, self.low, self.coeffs))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._make(self.context, tuple(-c for c in self.coeffs), self.low)

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.context is not self.context:
                raise ContextMismatchError("Laurent polynomials from different contexts")
            return other
        if isinstance(other, (int, Fraction, CycloNumber)):
            return LaurentPoly.from_scalar(self.context, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        low = min(self.low, o.low)
        high = max(self.high, o.high)
        zero = self.context.zero
        out = [zero] * (high - low + 1)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] = c
        for i, c in enumerate(o.coeffs):
            j = o.low - low + i
            out[j] = out[j] + c
        return LaurentPoly._make(self.context, out, low)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return LaurentPoly.zero(self.context)
        a, b = self.coeffs, o.coeffs
        if len(a) == 1:
            c = a[0]
            return LaurentPoly._make(self.context, tuple(c * x for x in b), self.low + o.low)
        if len(b) == 1:
            c = b[0]
            return LaurentPoly._make(self.context, tuple(x * c for x in a), self.low + o.low)
        zero = self.context.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
        return LaurentPoly._make(self.context, out, self.low + o.low)

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
        span than the divisor (t-powers are units, so spans drive Euclid)."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if self.is_zero():
            return LaurentPoly.zero(self.context), LaurentPoly.zero(self.context)
        rem = list(self.coeffs)
        den = o.coeffs
        zero = self.context.zero
        lead_inv = o.coeffs[-1].inverse()
        qlen = len(rem) - len(den) + 1
        if qlen <= 0:
            return LaurentPoly.zero(self.context), self
        quot = [zero] * qlen
        for i in range(len(rem) - 1, len(den) - 2, -1):
            c = rem[i]
            if c.is_zero():
                continue
            q = c * lead_inv
            quot[i - (len(den) - 1)] = q
            off = i - (len(den) - 1)
            for j, d in enumerate(den):
                if not d.is_zero():
                    rem[off + j] = rem[off + j] - q * d
        q_poly = LaurentPoly._make(self.context, quot, self.low - o.low)
        r_poly = LaurentPoly._make(self.context, rem, self.low)
        return q_poly, r_poly

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

    def normalize(self) -> LaurentPoly:
        """Canonical unit form: lowest exponent 0 and monic top coefficient.
        Zero normalizes to zero."""
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if self.low == 0 and lead == self.context.one:
            return self
        inv = lead.inverse()
        return LaurentPoly._make(self.context, tuple(c * inv for c in self.coeffs), 0)

    def unit_equal(self, other: LaurentPoly) -> bool:
        return self.normalize() == other.normalize()

    def substitute_power(self, n: int) -> LaurentPoly:
        """t -> t^n for a positive integer n."""
        if n < 1:
            raise ValueError("substitution exponent must be a positive integer")
        if self.is_zero() or n == 1:
            return self
        zero = self.context.zero
        out = [zero] * ((len(self.coeffs) - 1) * n + 1)
        for i, c in enumerate(self.coeffs):
            out[i * n] = c
        return LaurentPoly._make(self.context, out, self.low * n)

    def bar(self) -> LaurentPoly:
        """The involution: conjugate coefficients and t -> t^-1."""
        if self.is_zero():
            return self
        return LaurentPoly._make(
            self.context,
            tuple(c.conj() for c in reversed(self.coeffs)),
            -(self.low + len(self.coeffs) - 1),
        )

    def evaluate(self, value) -> CycloNumber:
        """Specialize t to a nonzero scalar of the same context."""
        a = _coerce_scalar(self.context, value)
        if a.is_zero():
            raise ZeroDivisionError("cannot specialize t to 0 in a Laurent ring")
        if self.is_zero():
            return self.context.zero
        acc = self.context.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        if self.low:
            acc = acc * a ** self.low
        return acc

    def embed(self, target: FieldContext) -> LaurentPoly:
        if target is self.context:
            return self
        return LaurentPoly._make(target, tuple(embed_scalar(c, target) for c in self.coeffs), self.low)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            e = self.low + i
            cs = str(c)
            negated = False
            if cs.startswith("-") and "+" not in cs and " - " not in cs:
                cs = cs[1:]
                negated = True
            composite = ("+" in cs) or (" - " in cs)
            if e == 0:
                body = f"({cs})" if composite else cs
            else:
                tpart = "t" if e == 1 else f"t^{e}"
                if cs == "1" and not composite:
                    body = tpart
                else:
                    body = (f"({cs})" if composite else cs) + "*" + tpart
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
    """Multiplicity of the root t = a (a nonzero scalar) in p; 0 for p = 0 by
    convention is refused since every power divides 0."""
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
    so kernels can be read off without solving."""

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
        return cls.from_scalar_terms({t_exponent: m})

    @classmethod
    def from_scalar_terms(cls, terms: dict[int, ScalarMatrix]) -> LaurentMatrix:
        """sum_e t^e * terms[e] for a nonempty dict of equally shaped scalar
        matrices keyed by exponent."""
        first = next(iter(terms.values()))
        ctx = first.context
        low = min(terms)
        width = max(terms) - low + 1
        rows = []
        for i in range(first.rows):
            row = []
            for j in range(first.cols):
                coeffs = [ctx.zero] * width
                for e, m in terms.items():
                    coeffs[e - low] = m.entries[i][j]
                row.append(LaurentPoly._make(ctx, coeffs, low))
            rows.append(row)
        return cls._make(ctx, rows)

    def determinant(self) -> LaurentPoly:
        """Bareiss fraction-free elimination; every division is exact over the
        integral domain."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return LaurentPoly.one(self.context)
        work = [list(row) for row in self.entries]
        sign = 1
        prev = LaurentPoly.one(self.context)
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
                return LaurentPoly.zero(self.context)
            if pivot_row != k:
                work[k], work[pivot_row] = work[pivot_row], work[k]
                sign = -sign
            pk = work[k][k]
            for i in range(k + 1, n):
                rik = work[i][k]
                for j in range(k + 1, n):
                    num = work[i][j] * pk - rik * work[k][j]
                    work[i][j] = num.exact_div(prev)
                work[i][k] = LaurentPoly.zero(self.context)
            prev = pk
        det = work[n - 1][n - 1]
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

    def smith_normal_form(self) -> SmithNormalForm:
        """Diagonalize by elementary row/column operations over F[t, t^-1].

        The pivot is always a nonzero entry of minimal degree span (ties by
        position); remainders swap into the pivot, so spans strictly decrease
        and the loop terminates.  Returns normalized divisors d_1 | d_2 | ...
        plus unimodular U, V with U*M*V diagonal and Vinv = V^-1.
        """
        ctx = self.context
        m, n = self.rows, self.cols
        A = [list(row) for row in self.entries]
        U, V, Vinv = ([list(row) for row in LaurentMatrix.identity(ctx, k).entries] for k in (m, n, n))

        def swap_rows(i, j):
            if i != j:
                A[i], A[j] = A[j], A[i]
                U[i], U[j] = U[j], U[i]

        def swap_cols(i, j):
            if i != j:
                for row in A:
                    row[i], row[j] = row[j], row[i]
                for row in V:
                    row[i], row[j] = row[j], row[i]
                Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

        def add_row(dst, src, factor):
            # row_dst += factor * row_src; U tracks the same operation.
            if factor.is_zero():
                return
            A[dst] = [a + factor * b for a, b in zip(A[dst], A[src])]
            U[dst] = [a + factor * b for a, b in zip(U[dst], U[src])]

        def add_col(dst, src, factor):
            # col_dst += factor * col_src; V tracks it, Vinv tracks the inverse
            # operation on rows (row_src -= factor * row_dst).
            if factor.is_zero():
                return
            for row in A:
                row[dst] = row[dst] + factor * row[src]
            for row in V:
                row[dst] = row[dst] + factor * row[src]
            Vinv[src] = [a - factor * b for a, b in zip(Vinv[src], Vinv[dst])]

        def scale_row(i, unit):
            # unit is c * t^k with c invertible.
            A[i] = [unit * a for a in A[i]]
            U[i] = [unit * a for a in U[i]]

        corner = 0
        limit = min(m, n)
        while corner < limit:
            # Locate a pivot of minimal span at or beyond the corner.
            pivot = None
            best = None
            for i in range(corner, m):
                for j in range(corner, n):
                    e = A[i][j]
                    if not e.is_zero():
                        s = e.span
                        if best is None or s < best:
                            best = s
                            pivot = (i, j)
                            if s == 0:
                                break
                if pivot is not None and best == 0:
                    break
            if pivot is None:
                break
            swap_rows(corner, pivot[0])
            swap_cols(corner, pivot[1])
            while True:
                # Clear the pivot column.
                dirty = False
                for i in range(corner + 1, m):
                    e = A[i][corner]
                    if e.is_zero():
                        continue
                    q, r = divmod(e, A[corner][corner])
                    add_row(i, corner, -q)
                    if not r.is_zero():
                        swap_rows(corner, i)
                        dirty = True
                        break
                if dirty:
                    continue
                # Clear the pivot row.
                for j in range(corner + 1, n):
                    e = A[corner][j]
                    if e.is_zero():
                        continue
                    q, r = divmod(e, A[corner][corner])
                    add_col(j, corner, -q)
                    if not r.is_zero():
                        swap_cols(corner, j)
                        dirty = True
                        break
                if dirty:
                    continue
                # Row and column are clear; enforce divisibility of the rest.
                offender = None
                for i in range(corner + 1, m):
                    for j in range(corner + 1, n):
                        e = A[i][j]
                        if not e.is_zero() and not divmod(e, A[corner][corner])[1].is_zero():
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                add_row(corner, offender, LaurentPoly.one(ctx))
            corner += 1

        # Normalize each diagonal entry to canonical unit form by scaling rows.
        divisors = []
        for i in range(limit):
            d = A[i][i]
            if d.is_zero():
                break
            norm = d.normalize()
            if d != norm:
                unit = LaurentPoly.t_power(ctx, -d.low, d.leading_coefficient().inverse())
                scale_row(i, unit)
            divisors.append(A[i][i])
        rank = len(divisors)
        return SmithNormalForm(
            self,
            tuple(divisors),
            rank,
            LaurentMatrix._make(ctx, U),
            LaurentMatrix._make(ctx, V),
            LaurentMatrix._make(ctx, Vinv),
        )
