"""Exact scalar arithmetic: rationals and cyclotomic numbers in power-basis form.

A field context fixes the coefficient field once per computation: either Q
(conductor 1) or Q(zeta_n) with elements written in the power basis
1, z, ..., z^(phi(n)-1) modulo the n-th cyclotomic polynomial.  All arithmetic
is exact; there are no floats anywhere in this package.

The Galois maps z -> z^k (k a unit mod n), complex conjugation (k = -1) and
the embedding Q(zeta_m) -> Q(zeta_N) (z -> w^(N/m)) are one substitution of
powers through the integer power table.  Inversion uses them through the
norm: with c the product of sigma_k(a) over the units k != 1 mod n, a * c =
N(a) is rational, so a^-1 = c / N(a).  The context computes products,
substitutions and that cofactor c on integer rows of Z[z]
(FieldContext._product, _substitute, _cofactor); CycloNumber wraps them.
Square matrices get the same treatment where a loop multiplies one per
letter of a word: rows over one shared denominator, multiplied and summed
without field elements (FieldContext._matrix_product, _matrix_sum).

Matrix is the one dense matrix type of the package: storage, construction,
sums, products, transposes, embeddings and comparisons for any ring of the
context, and the singleton peeling in front of every elimination of rank
and determinant.  ScalarMatrix is its field case; it adds the coercion of
entries into the field and elimination.  rank and det peel singleton rows
and columns, then run one Bareiss (fraction-free) elimination on the
integral rows of the core that is left, where the exact division by the
previous pivot p is a product with the cofactor of p and an integer
division by N(p); neither inverts a field element.  inverse is
Gauss-Jordan on [M | Id].  LaurentMatrix (in laurent.py) is the
F[t, t^-1] case.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

__all__ = [
    "ContextMismatchError",
    "totient",
    "lcm",
    "cyclotomic_polynomial",
    "FieldContext",
    "CycloNumber",
    "embed",
    "parse_scalar",
    "Matrix",
    "ScalarMatrix",
]


class ContextMismatchError(ValueError):
    """Raised when scalars from distinct field contexts are combined."""


def totient(n: int) -> int:
    """Euler's phi via trial-division factorization."""
    if n < 1:
        raise ValueError("totient is defined for positive integers")
    result = n
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            while remaining % p == 0:
                remaining //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if remaining > 1:
        result -= result // remaining
    return result


def lcm(values) -> int:
    """Least common multiple of an iterable of positive integers."""
    out = 1
    for v in values:
        out = math.lcm(out, v)
    return out


def _int_poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # Exact division of integer polynomials (ascending coefficients) by a
    # monic divisor; used only to build cyclotomic polynomials.
    num = list(num)
    dden = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * max(len(num) - dden, 0)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dden] = c
        for j, d in enumerate(den):
            num[i - dden + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return quot, num


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending, computed by dividing t^n - 1
    by the product of Phi_d over proper divisors d of n."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    cached = _CYCLOTOMIC_CACHE.get(n)
    if cached is not None:
        return cached
    num = [0] * (n + 1)
    num[0] = -1
    num[-1] = 1
    rem = num
    for d in range(1, n):
        if n % d == 0:
            rem, r = _int_poly_divmod(rem, list(cyclotomic_polynomial(d)))
            if r:
                raise AssertionError("cyclotomic division left a remainder")
    result = tuple(rem)
    _CYCLOTOMIC_CACHE[n] = result
    return result


_CONTEXT_CACHE: dict[int, "FieldContext"] = {}


class FieldContext:
    """The coefficient field of a computation: Q or Q(zeta_n).

    Instances are immutable and cached per conductor; all scalars carry a
    reference to their context and refuse arithmetic across distinct ones.
    """

    __slots__ = ("conductor", "degree", "modulus", "_powers", "_fold", "zero", "one")

    def __new__(cls, conductor: int = 1):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        cached = _CONTEXT_CACHE.get(conductor)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.conductor = conductor
        self.modulus = cyclotomic_polynomial(conductor)
        self.degree = len(self.modulus) - 1
        # Power table: integer power-basis coordinates of z^e for e in
        # 0..conductor-1, built by shifting and reducing once each step.
        deg = self.degree
        powers: list[tuple[int, ...]] = []
        cur = [0] * deg
        cur[0] = 1
        powers.append(tuple(cur))
        for _ in range(1, conductor):
            nxt = [0] * deg
            for j in range(deg - 1):
                nxt[j + 1] = cur[j]
            top = cur[deg - 1]
            if top:
                for j in range(deg):
                    nxt[j] -= top * self.modulus[j]
            powers.append(tuple(nxt))
            cur = nxt
        self._powers = tuple(powers)
        # The nonzero (coordinate, value) pairs of z^e for the exponents
        # deg..2*deg-2 that a product of two power-basis rows reaches; z^n = 1
        # folds the exponent mod the conductor first.
        self._fold = tuple(
            tuple((j, r) for j, r in enumerate(powers[e % conductor]) if r) for e in range(deg, 2 * deg - 1)
        )
        self.zero = CycloNumber(self, (0,) * deg, 1, _normalized=True)
        self.one = CycloNumber(self, (1,) + (0,) * (deg - 1), 1, _normalized=True)
        _CONTEXT_CACHE[conductor] = self
        return self

    def from_rational(self, value) -> CycloNumber:
        """Embed an int or Fraction."""
        if isinstance(value, CycloNumber):
            if value.context is not self:
                raise ContextMismatchError(
                    f"scalar from Q(zeta_{value.context.conductor}) used in "
                    f"Q(zeta_{self.conductor}) context"
                )
            return value
        frac = Fraction(value)
        nums = (frac.numerator,) + (0,) * (self.degree - 1)
        return CycloNumber(self, nums, frac.denominator, _normalized=False)

    def zeta(self, power: int = 1) -> CycloNumber:
        """The root of unity z^power (power taken mod the conductor)."""
        nums = self._powers[power % self.conductor]
        return CycloNumber(self, nums, 1, _normalized=True)

    # Elements of Z[z] as integer power-basis rows: the arithmetic that
    # CycloNumber and the fraction-free elimination of ScalarMatrix share.

    def _product(self, a, b) -> list[int]:
        """The row of a * b: a convolution followed by the reduction of the
        exponents >= phi(n) through the integer power table."""
        deg = self.degree
        if deg == 1:
            return [a[0] * b[0]]
        conv = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
        out = conv[:deg]
        for c, table in zip(conv[deg:], self._fold):
            if c:
                for j, r in table:
                    out[j] += c * r
        return out

    def _substitute(self, nums, k: int) -> list[int]:
        """The row of sum_j c_j w^(j k), w the root of unity of this context,
        for the coefficients c_j of nums (w^conductor = 1)."""
        out = [0] * self.degree
        powers = self._powers
        n = self.conductor
        for j, c in enumerate(nums):
            if c:
                for i, r in enumerate(powers[j * k % n]):
                    if r:
                        out[i] += c * r
        return out

    def _cofactor(self, a) -> tuple[list[int], int]:
        """(c, N) for a nonzero row a of Z[z]: c in Z[z] with a * c = N, a
        nonzero integer.  For non-rational a, c is the product of the
        conjugates sigma_k(a) over the units k != 1 mod n and N is the norm of
        a (Cohen, A Course in Computational Algebraic Number Theory, 4.3); a
        rational a is its own N, with c = 1."""
        if not any(a[1:]):
            return [1] + [0] * (self.degree - 1), a[0]
        n = self.conductor
        c = None
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                s = self._substitute(a, k)
                c = s if c is None else self._product(c, s)
        norm = self._product(a, c)
        if any(norm[1:]):
            raise AssertionError("a times its other conjugates must be rational")
        return c, norm[0]

    # Square matrices over the field as integer rows: a pair (entries, den)
    # with entries[i][j] the power-basis row of den times the (i, j) entry,
    # den > 0 and, unless it is 1, prime to the content of the entries.  The
    # Fox pass and Representation.of_word run one product per letter on
    # this form (ScalarMatrix._rows and _from_rows convert).

    def _matrix_product(self, a, b):
        """The (entries, den) of a * b: each entry is one convolution summed
        over the inner index and folded through the power table once."""
        (ea, da), (eb, db) = a, b
        if len(ea) == 1:
            out = [[self._product(ea[0][0], eb[0][0])]]
        else:
            deg, fold = self.degree, self._fold
            width = 2 * deg - 1
            cols = tuple(zip(*eb))
            out = []
            for row in ea:
                new = []
                for col in cols:
                    conv = [0] * width
                    for x, y in zip(row, col):
                        for p, xp in enumerate(x):
                            if xp:
                                for q, yq in enumerate(y, p):
                                    conv[q] += xp * yq
                    entry = conv[:deg]
                    for c, table in zip(conv[deg:], fold):
                        if c:
                            for k, v in table:
                                entry[k] += c * v
                    new.append(entry)
                out.append(new)
        return _reduced_rows(out, da * db)

    def _matrix_sum(self, a, b, sign: int):
        """The (entries, den) of a + sign * b; a is None for the zero
        matrix."""
        eb, db = b
        if a is None:
            return ([[[-x for x in e] for e in row] for row in eb], db) if sign < 0 else b
        ea, da = a
        if da == db:
            den, fa, fb = da, 1, sign
        else:
            den = math.lcm(da, db)
            fa, fb = den // da, sign * (den // db)
        out = [[[x * fa + y * fb for x, y in zip(u, v)] for u, v in zip(ra, rb)] for ra, rb in zip(ea, eb)]
        return _reduced_rows(out, den)

    def __repr__(self) -> str:
        if self.conductor == 1:
            return "FieldContext(rational)"
        return f"FieldContext(cyclotomic {self.conductor})"


def _reduced_rows(entries, den: int):
    # The content reduction of the matrix row form, skipped when den is 1.
    if den != 1:
        g = math.gcd(den, *(x for row in entries for e in row for x in e))
        if g != 1:
            den //= g
            entries = [[[x // g for x in e] for e in row] for row in entries]
    return entries, den


def _scalar_text(nums, den: int) -> tuple[bool, str, bool]:
    """The text of the nonzero element nums / den (den > 0) as (negated,
    body, composite), one term per nonzero power-basis coordinate, each
    coefficient in lowest terms.  A single term is split into its sign and
    its magnitude, e.g. ``3/2*z^4``; a sum of terms is the whole signed text,
    e.g. ``-1 + z - 1/2*z^3``, with composite set.  The row need not be
    reduced against den."""
    terms = []
    for k, a in enumerate(nums):
        if a:
            g = math.gcd(a, den)
            mag = str(abs(a) // g) if g == den else f"{abs(a) // g}/{den // g}"
            if k:
                z = "z" if k == 1 else f"z^{k}"
                mag = z if mag == "1" else f"{mag}*{z}"
            terms.append((a < 0, mag))
    if len(terms) == 1:
        return terms[0] + (False,)
    negated, out = terms[0]
    if negated:
        out = "-" + out
    for negated, mag in terms[1:]:
        out += (" - " if negated else " + ") + mag
    return False, out, True


def _normalize_coords(nums, den: int):
    if den < 0:
        den = -den
        nums = tuple(-a for a in nums)
    g = den
    for a in nums:
        g = math.gcd(g, a)
        if g == 1:
            break
    if g > 1:
        nums = tuple(a // g for a in nums)
        den //= g
    return tuple(nums), den


class CycloNumber:
    """An element of the context field, stored as an integer numerator vector
    over a single positive denominator (products stay integral until one final
    gcd because Phi_n is monic with integer coefficients)."""

    __slots__ = ("context", "nums", "den")

    def __init__(self, context: FieldContext, nums, den: int = 1, *, _normalized=False):
        self.context = context
        if _normalized:
            self.nums = tuple(nums)
            self.den = den
        else:
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            self.nums, self.den = _normalize_coords(tuple(nums), den)
        if len(self.nums) != context.degree:
            raise ValueError("coordinate vector has wrong length for context")

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    @property
    def conductor(self) -> int:
        return self.context.conductor

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.context is not self.context:
                raise ContextMismatchError(
                    f"cannot combine scalars of conductor {self.conductor} "
                    f"and {other.conductor}; embed explicitly first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        if a.den == b.den:
            return CycloNumber(a.context, tuple(x + y for x, y in zip(a.nums, b.nums)), a.den)
        l = math.lcm(a.den, b.den)
        fa, fb = l // a.den, l // b.den
        return CycloNumber(a.context, tuple(x * fa + y * fb for x, y in zip(a.nums, b.nums)), l)

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.context, tuple(-a for a in self.nums), self.den, _normalized=True)

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
        return CycloNumber(self.context, self.context._product(self.nums, o.nums), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> CycloNumber:
        """Multiplicative inverse by the norm: with (c, N) the cofactor and
        norm of the integral element den * a (FieldContext._cofactor),
        a^-1 = den * c / N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        c, norm = self.context._cofactor(self.nums)
        return CycloNumber(self.context, [x * self.den for x in c], norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = self.context.one
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conj(self) -> CycloNumber:
        """Complex conjugation: z maps to z^(n-1) = z^-1."""
        return CycloNumber(self.context, self.context._substitute(self.nums, -1), self.den)

    def multiplicative_order(self):
        """Order of self as a root of unity, or None if it is none.  The roots
        of unity of Q(zeta_n) are the +-z^k, whose orders divide N = lcm(2, n),
        so the order is the least divisor k of N with self^k = 1."""
        big = math.lcm(2, self.conductor)
        if self**big != self.context.one:
            return None
        return next(k for k in range(1, big + 1) if big % k == 0 and self**k == self.context.one)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.from_rational(other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return (
            self.context is other.context
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        # A rational element equals its int or Fraction, so it hashes like it.
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.context.conductor, self.nums, self.den))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        negated, body, _ = _scalar_text(self.nums, self.den)
        return "-" + body if negated else body

    def embed(self, target: FieldContext) -> "CycloNumber":
        return embed(self, target)

    def __repr__(self) -> str:
        return f"CycloNumber({self})"


def embed(value: CycloNumber, target: FieldContext) -> CycloNumber:
    """The field embedding Q(zeta_m) -> Q(zeta_N) for m dividing N, sending
    zeta_m to zeta_N^(N/m).  Commutes with all arithmetic."""
    src = value.context
    if src is target:
        return value
    if target.conductor % src.conductor != 0:
        raise ContextMismatchError(
            f"no canonical embedding of conductor {src.conductor} into {target.conductor}"
        )
    return CycloNumber(target, target._substitute(value.nums, target.conductor // src.conductor), value.den)


def parse_scalar(text: str, context: FieldContext) -> CycloNumber:
    """Parse the scalar grammar: a sum of terms, each a rational or
    rational*z^k, e.g. ``1/2 + 3*z^2 - z^5``."""
    s = text.strip()
    if not s:
        raise ValueError("empty scalar")
    # Split into signed terms at top level (no parentheses in the grammar).
    terms: list[tuple[int, str]] = []
    sign, buf = 1, []
    i = 0
    first = True
    while i < len(s):
        ch = s[i]
        if ch in "+-" and (first or buf):
            if buf:
                terms.append((sign, "".join(buf).strip()))
                buf = []
            sign = 1 if ch == "+" else -1
            if first and not terms:
                pass
            i += 1
            first = False
            continue
        buf.append(ch)
        i += 1
        first = False
    if buf:
        terms.append((sign, "".join(buf).strip()))
    if not terms:
        raise ValueError(f"cannot parse scalar {text!r}")
    total = context.zero
    for sgn, term in terms:
        if not term:
            raise ValueError(f"cannot parse scalar {text!r}")
        coeff = Fraction(1)
        zpow = None
        for factor in term.split("*"):
            f = factor.strip()
            if not f:
                raise ValueError(f"cannot parse scalar term {term!r}")
            if f.startswith("z"):
                if zpow is not None:
                    raise ValueError(f"repeated z factor in {term!r}")
                if f == "z":
                    zpow = 1
                elif f.startswith("z^"):
                    try:
                        zpow = int(f[2:])
                    except ValueError:
                        raise ValueError(f"cannot parse scalar factor {f!r}")
                else:
                    raise ValueError(f"cannot parse scalar factor {f!r}")
            else:
                try:
                    coeff *= Fraction(f)
                except (ValueError, ZeroDivisionError):
                    raise ValueError(f"cannot parse scalar factor {f!r}")
        value = context.from_rational(sgn * coeff)
        if zpow is not None:
            if context.conductor == 1:
                raise ValueError("z is not available in the rational context")
            value = value * context.zeta(zpow)
        total = total + value
    return total


def _permutation_sign(order) -> int:
    """The sign of a permutation of range(len(order)), from its cycles."""
    seen = [False] * len(order)
    sign = 1
    for start in range(len(order)):
        k = start
        length = 0
        while not seen[k]:
            seen[k] = True
            k = order[k]
            length += 1
        if length and not length % 2:
            sign = -sign
    return sign


class Matrix:
    """A dense exact matrix over a ring of the field context.

    Storage and every operation that reads the same in any ring live here.
    A subclass fixes the ring by supplying ``_entry`` (coerce one value into
    the ring, raising for anything else), ``_ring_zero`` and ``_ring_one``,
    and adds the elimination that its ring supports.  Results of ring
    operations are built with ``_make``, which skips the per-entry coercion
    of the public constructor.  Matrices of different subclasses never mix.
    """

    __slots__ = ("context", "rows", "cols", "entries")

    def __init__(self, context: FieldContext, entries):
        entry = self._entry
        self._set(context, tuple(tuple([entry(context, e) for e in row]) for row in entries))
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    def _set(self, context, entries):
        self.context = context
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0

    @classmethod
    def _make(cls, context: FieldContext, rows):
        """A matrix from rows of entries already in the ring and context."""
        m = object.__new__(cls)
        m._set(context, tuple(map(tuple, rows)))
        return m

    @classmethod
    def identity(cls, context: FieldContext, n: int):
        one, zero = cls._ring_one(context), cls._ring_zero(context)
        return cls._make(context, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, context: FieldContext, rows: int, cols: int):
        z = cls._ring_zero(context)
        return cls._make(context, [(z,) * cols] * rows)

    @classmethod
    def from_blocks(cls, blocks):
        """Assemble from a 2D grid of blocks of this matrix type."""
        ctx = blocks[0][0].context
        rows = []
        for block_row in blocks:
            height = block_row[0].rows
            for b in block_row:
                if b.rows != height:
                    raise ValueError("block heights differ within a row")
            for i in range(height):
                row = []
                for b in block_row:
                    row.extend(b.entries[i])
                rows.append(row)
        return cls(ctx, rows)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def _map(self, fn, cls=None, context=None):
        # fn applied to every entry; the result is a cls matrix over context.
        return (cls or type(self))._make(
            context or self.context, [[fn(e) for e in row] for row in self.entries]
        )

    def _entrywise(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        if other.context is not self.context:
            raise ContextMismatchError("matrix contexts differ")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return self._make(
            self.context, [[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.context is other.context and self.entries == other.entries

    def __hash__(self):
        return hash((self.context.conductor, self.entries))

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return self._map(operator.neg)

    def __mul__(self, other):
        if type(other) is not type(self):
            if isinstance(other, Matrix):
                return NotImplemented
            c = self._entry(self.context, other)
            return self._make(self.context, [[a * c for a in row] for row in self.entries])
        if other.context is not self.context:
            raise ContextMismatchError("matrix contexts differ")
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        zero = None  # built on first use: most products never need it
        bt = other.entries
        out = []
        for row in self.entries:
            new_row = []
            for j in range(other.cols):
                acc = None
                for k, a in enumerate(row):
                    if a:
                        b = bt[k][j]
                        if b:
                            p = a * b
                            acc = p if acc is None else acc + p
                if acc is None:
                    if zero is None:
                        zero = self._ring_zero(self.context)
                    acc = zero
                new_row.append(acc)
            out.append(new_row)
        return self._make(self.context, out)

    __rmul__ = __mul__

    def transpose(self):
        return self._make(self.context, zip(*self.entries))

    def submatrix(self, row_indices, col_indices):
        return self._make(self.context, [[self.entries[i][j] for j in col_indices] for i in row_indices])

    def delete_columns(self, cols):
        dropped = set(cols)
        keep = [j for j in range(self.cols) if j not in dropped]
        return self.submatrix(range(self.rows), keep)

    def _peel_singletons(self):
        """Singleton peeling, the first stage of every elimination of rank
        and determinant: what is left for Bareiss is the core.

        A row or column with exactly one nonzero entry a_ij leaves with the
        column or row of that entry: by the Laplace expansion along that
        line, det = (-1)^(i+j) a_ij det(minor), and over a field rank = 1 +
        rank(minor).  A line with no nonzero entry leaves alone: it adds
        nothing to the rank, and it makes the determinant 0.  Each departure
        lowers the nonzero counts of the lines that crossed it, which can
        make new singletons; the peeling runs until none is left and reads
        every nonzero a bounded number of times.  On a matrix that is
        triangular or diagonal up to permutations of its rows and columns,
        the core is empty.

        Returns (peeled, rows, cols, sign): the (i, j) of the peeled
        entries in peel order, the ascending rows and columns of the core,
        and the sign of the expansion, which is the product of the signs of
        the row order (peeled rows, then core rows) and the column order;
        sign is 0 when a zero line left.  The determinant is then sign times
        the peeled entries times the determinant of the core."""
        m, n = self.rows, self.cols
        row_nz = [[j for j, e in enumerate(row) if e] for row in self.entries]
        col_nz = [[] for _ in range(n)]
        for i, js in enumerate(row_nz):
            for j in js:
                col_nz[j].append(i)
        # Per axis (rows, then columns): live flags, nonzero counts among the
        # live lines of the other axis, and the nonzero positions.
        axes = (([True] * m, list(map(len, row_nz)), row_nz), ([True] * n, list(map(len, col_nz)), col_nz))
        todo = [(a, k) for a, (_, count, _) in enumerate(axes) for k, c in enumerate(count) if c < 2]
        peeled = []
        sign = 1
        while todo:
            a, k = todo.pop()
            live, count, nz = axes[a]
            if not live[k] or count[k] > 1:
                continue
            live[k] = False
            if not count[k]:
                sign = 0
                continue
            other_live, _, other_nz = axes[1 - a]
            partner = next(x for x in nz[k] if other_live[x])
            other_live[partner] = False
            for x in other_nz[partner]:
                if live[x]:
                    count[x] -= 1
                    if count[x] < 2:
                        todo.append((a, x))
            peeled.append((partner, k) if a else (k, partner))
        rows = [i for i, alive in enumerate(axes[0][0]) if alive]
        cols = [j for j, alive in enumerate(axes[1][0]) if alive]
        if sign and peeled:
            sign = _permutation_sign([i for i, _ in peeled] + rows) * _permutation_sign([j for _, j in peeled] + cols)
        return peeled, rows, cols, sign

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == self.identity(self.context, self.rows)

    def commutes_with(self, other) -> bool:
        return self * other == other * self

    def embed(self, target: FieldContext):
        """The entrywise field embedding into Q(zeta_N), N a multiple of the
        conductor."""
        if target is self.context:
            return self
        return self._map(lambda e: e.embed(target), context=target)

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class ScalarMatrix(Matrix):
    """A matrix over the context field: fraction-free rank and det, and a
    Gauss-Jordan inverse."""

    __slots__ = ()

    @staticmethod
    def _entry(context: FieldContext, value) -> CycloNumber:
        return context.from_rational(value)

    @staticmethod
    def _ring_zero(context: FieldContext) -> CycloNumber:
        return context.zero

    @staticmethod
    def _ring_one(context: FieldContext) -> CycloNumber:
        return context.one

    @classmethod
    def from_rows(cls, context: FieldContext, rows) -> ScalarMatrix:
        return cls(context, rows)

    def _rows(self):
        """The (entries, den) row form of this matrix (FieldContext
        ._matrix_product), den the lcm of the entry denominators."""
        den = lcm(e.den for row in self.entries for e in row)
        entries = [[e.nums if e.den == den else [x * (den // e.den) for x in e.nums] for e in row] for row in self.entries]
        return entries, den

    @classmethod
    def _from_rows(cls, context: FieldContext, entries, den: int) -> ScalarMatrix:
        return cls._make(context, [[CycloNumber(context, e, den) for e in row] for row in entries])

    def _fraction_free(self, rows, cols) -> tuple[int, list[int] | None, int]:
        """Bareiss elimination of the submatrix on rows and cols, on
        integral power-basis rows.

        Each row is scaled once by the lcm of its denominators, so the
        entries lie in Z[z].  The entries left after each step are minors of
        the scaled matrix, so the division by the previous pivot p is exact
        in Z[z]: v / p = v * c // N with (c, N) = FieldContext._cofactor(p),
        computed once per step.  Columns without a pivot are skipped, so any
        shape works.  Returns the rank, the last pivot (None at rank 0) and
        the product of the row scales signed by the row swaps; for a square
        submatrix of full rank, the last pivot over that product is its
        determinant."""
        ctx = self.context
        zero = [0] * ctx.degree
        product = ctx._product
        work = []
        scale = 1
        for i in rows:
            row = [self.entries[i][j] for j in cols]
            den = lcm(e.den for e in row)
            scale *= den
            work.append([e.nums if e.den == den else [x * (den // e.den) for x in e.nums] for e in row])
        height = len(work)
        rank = 0
        pivot = None
        for col in range(len(cols)):
            found = next((i for i in range(rank, height) if any(work[i][col])), None)
            if found is None:
                continue
            if found != rank:
                work[rank], work[found] = work[found], work[rank]
                scale = -scale
            top = work[rank]
            prev, pivot = pivot, top[col]
            rank += 1
            if rank == height:
                break
            # The division by the previous pivot: a product with its cofactor
            # (none when it is rational), then an integer division by N.
            cofactor, norm = None, 1
            if prev is not None:
                cofactor, norm = ctx._cofactor(prev)
                if not any(prev[1:]):
                    cofactor = None
            for row in work[rank:]:
                f = row[col]
                out = []
                for a, b in zip(row[col + 1 :], top[col + 1 :]):
                    v = product(a, pivot) if any(a) else zero
                    if any(f) and any(b):
                        v = [x - y for x, y in zip(v, product(f, b))]
                    if cofactor is not None and any(v):
                        v = product(v, cofactor)
                    out.append([x // norm for x in v] if norm != 1 else v)
                row[col:] = [zero] + out
        return rank, pivot, scale

    def rank(self) -> int:
        """One per peeled singleton (Matrix._peel_singletons) plus the
        Bareiss rank of the core."""
        peeled, rows, cols, _ = self._peel_singletons()
        return len(peeled) + self._fraction_free(rows, cols)[0]

    def det(self) -> CycloNumber:
        """The signed product of the peeled singletons and the determinant
        of the core, the last Bareiss pivot over the product of the row
        scales; zero below full rank.  The product runs on integer rows, so
        the result is the one field element built."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return self.context.one
        peeled, rows, cols, sign = self._peel_singletons()
        if not sign:
            return self.context.zero
        rank, pivot, scale = self._fraction_free(rows, cols)
        if rank < len(rows):
            return self.context.zero
        ctx = self.context
        nums = pivot if rows else ctx.one.nums
        for i, j in peeled:
            e = self.entries[i][j]
            nums = ctx._product(nums, e.nums)
            scale *= e.den
        return CycloNumber(ctx, nums, sign * scale)

    def inverse(self) -> ScalarMatrix:
        """Gauss-Jordan on [self | Id]: the right half ends as the inverse."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        work = [list(row) for row in self.entries]
        aug = [list(row) for row in ScalarMatrix.identity(self.context, n).entries]
        for col in range(n):
            pivot = next((i for i in range(col, n) if work[i][col]), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = work[col][col].inverse()
            # The pivot row is zero left of col, so row operations start at
            # col; zero entries are skipped since they leave values unchanged.
            work[col][col:] = tail = [e * inv if e else e for e in work[col][col:]]
            aug[col] = top = [e * inv if e else e for e in aug[col]]
            for i in range(n):
                if i != col and work[i][col]:
                    f = work[i][col]
                    work[i][col:] = [a - f * b if b else a for a, b in zip(work[i][col:], tail)]
                    aug[i] = [a - f * b if b else a for a, b in zip(aug[i], top)]
        return ScalarMatrix._make(self.context, aug)
