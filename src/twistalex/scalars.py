"""Exact scalar arithmetic: rationals and cyclotomic numbers in power-basis form.

A field context fixes the coefficient field once per computation: either Q
(conductor 1) or Q(zeta_n) with elements written in the power basis
1, z, ..., z^(phi(n)-1) modulo the n-th cyclotomic polynomial.  All arithmetic
is exact; there are no floats anywhere in this package.

The Galois maps z -> z^k (k a unit mod n), complex conjugation (k = -1) and
the embedding Q(zeta_m) -> Q(zeta_N) (z -> w^(N/m)) are one substitution of
powers through the integer power table.  Inversion uses them through the
norm: with c the product of sigma_k(a) over the units k != 1 mod n, a * c =
N(a) is rational, so a^-1 = c / N(a); for a root of unity +-z^k, c is
+-z^(-k), read off a table of the context.  The context computes products,
substitutions and that cofactor c on integer rows of Z[z]
(FieldContext._product, _substitute, _cofactor); CycloNumber wraps them.
Each context also keeps a split prime p = 1 mod n and a root w of Phi_n
mod p; z -> w maps Z[z] onto F_p, and a full rank or a nonzero value mod p
proves the same of the exact matrix or element (_split_prime, _Residues).
Square matrices get the same treatment where a loop multiplies one per
letter of a word: rows over one shared denominator, multiplied without
field elements (FieldContext._matrix_product), and inverted straight into
that form (ScalarMatrix._inverse_rows); the Fox pass keeps its terms
unsummed and LaurentMatrix._from_row_terms sums them once.

Matrix is the one dense matrix type of the package: storage, construction,
sums, products, submatrices, embeddings and comparisons for any ring of the
context, and the one elimination of rank, determinant and inverse:
singleton peeling, then a Bareiss (fraction-free) loop whose pivot size,
cross product and exact division each ring supplies.  ScalarMatrix is its
field case.  Its rank, det and inverse run the loop on integral rows of
Z[z], where the division by the previous pivot p is a product with the
cofactor of p and an integer division by N(p).  The inverse of an n x n
matrix with n <= 3 runs no loop: it is the adjugate of the integral rows
over their determinant, from the 2 x 2 minors and one cofactor of det;
above n = 3 the loop runs in Gauss-Jordan form on [M | Id] and divides by
the last pivot once.  None of them inverts a field element.  LaurentMatrix
(in laurent.py) is the F[t, t^-1] case.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from itertools import compress

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
    return math.lcm(*values)


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

    __slots__ = ("conductor", "degree", "modulus", "_powers", "_fold", "_roots", "_split", "zero", "one")

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
        # The row of each root of unity +-z^k -> (k, +-1), for _cofactor:
        # n rows for even n, where -z^k = z^(k + n/2) is kept as a power.
        self._roots = {tuple(s * x for x in row): (k, s) for s in (-1, 1) for k, row in enumerate(powers)}
        # The nonzero (coordinate, value) pairs of z^e for the exponents
        # deg..2*deg-2 that a product of two power-basis rows reaches; z^n = 1
        # folds the exponent mod the conductor first.
        self._fold = tuple(
            tuple((j, r) for j, r in enumerate(powers[e % conductor]) if r) for e in range(deg, 2 * deg - 1)
        )
        self._split = _split_prime(conductor, self.modulus)
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
        rational a is its own N, with c = 1.

        The product runs through the real subfield: with b = a * conj(a),
        c = conj(a) * prod sigma_k(b) over the units 1 < k < n/2, one
        representative of each class of units mod +-1.  That is phi(n)/2
        products where the conjugates one by one take phi(n) - 2, and none
        for phi(n) = 2, where c = conj(a).

        A root of unity a = +-z^k, found in the table of the context, has
        norm 1 (n >= 3) and c = a^-1 = +-z^(-k), read off the power table
        with no product; the rational +-1 take the rational branch."""
        if not any(a[1:]):
            return [1] + [0] * (self.degree - 1), a[0]
        n = self.conductor
        root = self._roots.get(tuple(a))
        if root is not None:
            k, sign = root
            return [sign * x for x in self._powers[-k % n]], 1
        c = self._substitute(a, -1)
        units = [k for k in range(2, (n + 1) // 2) if math.gcd(k, n) == 1]
        if units:
            real = self._product(a, c)
            for k in units:
                c = self._product(c, self._substitute(real, k))
        norm = self._product(a, c)
        if any(norm[1:]):
            raise AssertionError("a times its other conjugates must be rational")
        return c, norm[0]

    # The split prime: a ring map from Z[z] onto F_p, for certificates that
    # an exact answer is nonzero or of full rank.

    def _residue(self, nums) -> int:
        """The image of a row of Z[z] in F_p under z -> w (_split_prime)."""
        p, powers = self._split
        return sum(map(operator.mul, nums, powers)) % p

    def _point_residue(self, a: CycloNumber) -> int:
        """The image of a in F_p, or 0 when p divides its denominator: a
        point with residue 0 gets no certificate."""
        p = self._split[0]
        if a.den % p == 0:
            return 0
        return self._residue(a.nums) * pow(a.den, -1, p) % p

    # Square matrices over the field as integer rows: a pair (entries, den)
    # with entries[i][j] the power-basis row of den times the (i, j) entry,
    # den > 0 and, unless it is 1, prime to the content of the entries.  The
    # Fox pass runs its products on this form and compares prefixes in it,
    # which is canonical (ScalarMatrix._rows and _from_rows convert).

    def _matrix_product(self, a, b):
        """The (entries, den) of a * b: each entry is one convolution summed
        over the inner index and folded through the power table once, and
        den is reduced against the content of the entries."""
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
        return _lowest_terms(out, da * db)

    def _adjugate(self, rows):
        """(adj(E), det E) for E given by n = 1, 2 or 3 rows of Z[z].  The
        cofactors are the 2 x 2 minors: for n = 3 row i of the cofactor
        matrix is the cross product of the other two rows in cyclic order,
        and det E is the first row times its cofactors."""

        def times(a, b):
            return self._product(a, b) if any(a) and any(b) else [0] * self.degree

        def minor(a, d, b, c):
            # a d - b c
            return [x - y for x, y in zip(times(a, d), times(b, c))]

        if len(rows) == 1:
            [[a]] = rows
            return [[[1] + [0] * (self.degree - 1)]], a
        if len(rows) == 2:
            (a, b), (c, d) = rows
            return [[d, [-x for x in b]], [[-x for x in c], a]], minor(a, d, b, c)
        cof = [
            [minor(u[1], v[2], u[2], v[1]), minor(u[2], v[0], u[0], v[2]), minor(u[0], v[1], u[1], v[0])]
            for u, v in ((rows[1], rows[2]), (rows[2], rows[0]), (rows[0], rows[1]))
        ]
        det = [sum(t) for t in zip(*(times(a, c) for a, c in zip(rows[0], cof[0])))]
        return [list(col) for col in zip(*cof)], det

    def __repr__(self) -> str:
        if self.conductor == 1:
            return "FieldContext(rational)"
        return f"FieldContext(cyclotomic {self.conductor})"


def _lowest_terms(entries, den: int):
    """(entries, den), den > 0, reduced to den 1 or prime to the content of
    the entries: the one row form of the matrix."""
    if den != 1:
        g = math.gcd(den, *(x for row in entries for e in row for x in e))
        if g != 1:
            den //= g
            entries = [[[x // g for x in e] for e in row] for row in entries]
    return entries, den


# The largest n whose inverse is the adjugate over the determinant
# (ScalarMatrix._inverse_rows).  Cofactor expansion grows as n!: at n = 4
# fraction-free Gauss-Jordan was faster over Q and on unit determinants,
# while at n = 3 the adjugate took at most the time of Gauss-Jordan
# (timings in ROADMAP.md, aim 2).
_ADJUGATE_MAX = 3


def _is_prime(p: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, which is exact below
    3215031751 (Pomerance, Selfridge and Wagstaff, Math. Comp. 1980)."""
    bases = (2, 3, 5, 7)
    if p < 2 or any(p % q == 0 for q in bases):
        return p in bases
    d, s = p - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for q in bases:
        x = pow(q, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _split_prime(n: int, modulus) -> tuple[int, tuple[int, ...]]:
    """(p, (1, w, ..., w^(phi(n)-1)) mod p) for the largest prime p < 2^30
    with p = 1 mod n and w of multiplicative order n mod p.

    Then Phi_n(w) = 0 mod p, so z -> w is a ring map from Z[z] onto F_p.  It
    extends to the valuation ring of the prime (p, z - w), which holds every
    field element whose denominator is prime to p, and it can only lower a
    rank: a minor that is nonzero mod p is nonzero.  So a rank mod p of
    min(rows, cols) proves full rank, and a nonzero residue proves an
    element nonzero; a deficiency or a zero mod p proves nothing (reduction
    modulo a split prime, Cohen, A Course in Computational Algebraic Number
    Theory)."""
    for p in range(((1 << 30) - 2) // n * n + 1, n, -n):
        if _is_prime(p):
            break
    else:
        raise ValueError(f"no prime below 2^30 splits in Q(zeta_{n})")
    factors = [q for q in range(2, n + 1) if not n % q and _is_prime(q)]
    w = next(
        w
        for w in (pow(g, (p - 1) // n, p) for g in range(2, p))
        if all(pow(w, n // q, p) != 1 for q in factors)
    )
    powers = [pow(w, j, p) for j in range(len(modulus))]
    if sum(map(operator.mul, modulus, powers)) % p:
        raise AssertionError("the root mod p must be a root of the cyclotomic polynomial")
    return p, tuple(powers[:-1])


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
            mag = _digits(abs(a) // g) if g == den else f"{_digits(abs(a) // g)}/{_digits(den // g)}"
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


def _digits(n: int) -> str:
    """The decimal text of n >= 0 in chunks of _MAX_DIGITS digits, since
    str() refuses an int past _DIGITS_BOUND."""
    if n < _DIGITS_BOUND:
        return str(n)
    chunks = []
    while n >= _DIGITS_BOUND:
        n, low = divmod(n, _DIGITS_BOUND)
        chunks.append(str(low).zfill(_MAX_DIGITS))
    return str(n) + "".join(reversed(chunks))


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
    def conductor(self) -> int:
        return self.context.conductor

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.nums[1:])

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
        # floor(log2 e) squares, none above the top bit, and popcount(e) - 1 products.
        result = None
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return self.context.one if result is None else result

    def conj(self) -> CycloNumber:
        """Complex conjugation: z maps to z^(n-1) = z^-1."""
        return CycloNumber(self.context, self.context._substitute(self.nums, -1), self.den)

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


# A sign right after ^, e or E belongs to its factor (z^-1, 1e-5).
_SIGN = re.compile(r"(?<![\^eE])[+-]")
# The exponent of a factor in exponent notation, which Fraction expands.
_EXPONENT = re.compile(r"[eE]([-+]?[0-9]+)\Z")
# Python's default limit on the digits of an int printed as text.  A parsed
# scalar must print, so no numerator or denominator may pass it, and no
# factor's exponent either: 1e9999999999 would cost 10^(10^10).
_MAX_DIGITS = 4300
_DIGITS_BOUND = 10**_MAX_DIGITS


def _numeral(text: str, kind=int):
    """kind(text), kind int or Fraction, for ASCII text without '_': int()
    and Fraction() alone also take digit groups (1_0) and non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return kind(text)


def _too_many_digits(text: str) -> ValueError:
    return ValueError(f"scalar {text!r} has a coefficient of more than {_MAX_DIGITS} digits")


def parse_scalar(text: str, context: FieldContext) -> CycloNumber:
    """Parse the scalar grammar: a sum of terms, each a rational or
    rational*z^k, e.g. ``1/2 + 3*z^2 - z^5``.  A factor whose exponent is
    past _MAX_DIGITS, and an element whose numerator or denominator, or that
    of a product or sum on the way to it, has more than _MAX_DIGITS digits,
    are refused (ValueError): every parsed scalar prints, and a long text
    costs no more than its length."""
    s = text.strip()
    if not s:
        raise ValueError("empty scalar")
    # Split into signed terms at top level (no parentheses in the grammar).
    # A sign ends a term and gives the next one its sign, except a sign right
    # after such a separator, which belongs to the next term's text.
    terms: list[tuple[int, str]] = []
    sign, pos = 1, 0
    if s[0] in "+-":
        sign, pos = (1 if s[0] == "+" else -1), 1
    while pos < len(s):
        m = _SIGN.search(s, pos + 1)
        end = m.start() if m else len(s)
        terms.append((sign, s[pos:end].strip()))
        sign, pos = (1 if m and m.group() == "+" else -1), end + 1
    if not terms:
        raise ValueError(f"cannot parse scalar {text!r}")
    # Each term is (numerator, denominator, exponent of z); the sum is one
    # integer row over the lcm of the denominators, normalized once.
    parsed = []
    for sgn, term in terms:
        if not term:
            raise ValueError(f"cannot parse scalar {text!r}")
        num, den = sgn, 1
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
                        zpow = _numeral(f[2:])
                    except ValueError:
                        raise ValueError(f"cannot parse scalar factor {f!r}")
                else:
                    raise ValueError(f"cannot parse scalar factor {f!r}")
            else:
                exponent = ("e" in f or "E" in f) and _EXPONENT.search(f)
                if exponent and (len(exponent[1]) > _MAX_DIGITS or abs(int(exponent[1])) > _MAX_DIGITS):
                    raise ValueError(f"scalar factor {f!r} has an exponent past {_MAX_DIGITS}")
                try:
                    value = _numeral(f, int if f.isdigit() else Fraction)
                except (ValueError, ZeroDivisionError):
                    raise ValueError(f"cannot parse scalar factor {f!r}")
                num, den = num * value.numerator, den * value.denominator
                if not -_DIGITS_BOUND < num < _DIGITS_BOUND or den >= _DIGITS_BOUND:
                    raise _too_many_digits(text)
        if zpow is not None and context.conductor == 1:
            raise ValueError("z is not available in the rational context")
        parsed.append((num, den, zpow or 0))
    den = 1
    for _, d, _ in parsed:
        den = math.lcm(den, d)
        if den >= _DIGITS_BOUND:
            raise _too_many_digits(text)
    nums = [0] * context.degree
    for num, d, zpow in parsed:
        c = num * (den // d)
        for i, r in enumerate(context._powers[zpow % context.conductor]):
            if r:
                nums[i] += c * r
    value = CycloNumber(context, nums, den)
    if value.den >= _DIGITS_BOUND or not -_DIGITS_BOUND < min(value.nums) <= max(value.nums) < _DIGITS_BOUND:
        raise _too_many_digits(text)
    return value


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
    the ring, raising for anything else), ``_ring_zero``, ``_ring_one``,
    ``_dot`` (the sum of a * b over a list of pairs of nonzero entries, one
    entry of a product) and the hooks of ``_bareiss``: ``_size``, ``_cross``
    and ``_divider``.
    Results of ring operations are built with ``_make``, which skips the
    per-entry coercion of the public constructor.  Matrices of different
    subclasses never mix.
    """

    __slots__ = ("context", "rows", "cols", "entries")

    def __init__(self, context: FieldContext, entries):
        entry = self._entry
        self._set(context, tuple(tuple([entry(context, e) for e in row]) for row in entries))
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    def _set(self, context, entries, cols=0):
        self.context = context
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else cols

    @classmethod
    def _make(cls, context: FieldContext, rows, cols: int = 0):
        """A matrix from rows of entries already in the ring and context;
        with no rows it is 0 x cols."""
        m = object.__new__(cls)
        m._set(context, tuple(map(tuple, rows)), cols)
        return m

    @classmethod
    def identity(cls, context: FieldContext, n: int):
        one, zero = cls._ring_one(context), cls._ring_zero(context)
        return cls._make(context, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, context: FieldContext, rows: int, cols: int):
        z = cls._ring_zero(context)
        return cls._make(context, [(z,) * cols] * rows, cols)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def _map(self, fn, cls=None, context=None):
        # fn applied to every entry; the result is a cls matrix over context.
        return (cls or type(self))._make(
            context or self.context, [[fn(e) for e in row] for row in self.entries], self.cols
        )

    def _entrywise(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        if other.context is not self.context:
            raise ContextMismatchError("matrix contexts differ")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        rows = [[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        return self._make(self.context, rows, self.cols)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.context is other.context and self.cols == other.cols and self.entries == other.entries

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
            return self._make(self.context, [[a * c for a in row] for row in self.entries], self.cols)
        if other.context is not self.context:
            raise ContextMismatchError("matrix contexts differ")
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        # Only nonzero pairs are read: the nonzeros of each row of other are
        # listed once, and a nonzero a = self[i][k] sends (a, b) to entry
        # (i, j) for each nonzero b = other[k][j].
        dot, zero = self._dot, self._ring_zero(self.context)
        nonzeros = [list(compress(enumerate(row), row)) for row in other.entries]
        out = []
        for row in self.entries:
            pairs = [[] for _ in range(other.cols)]
            for a, nz in compress(zip(row, nonzeros), row):
                for j, b in nz:
                    pairs[j].append((a, b))
            out.append([dot(p) if p else zero for p in pairs])
        return self._make(self.context, out, other.cols)

    __rmul__ = __mul__

    def submatrix(self, row_indices, col_indices):
        rows = [[self.entries[i][j] for j in col_indices] for i in row_indices]
        return self._make(self.context, rows, len(col_indices))

    def _peel_singletons(self):
        """Singleton peeling in front of Bareiss for rank and determinant.

        A row or column with one nonzero entry a_ij leaves with the column
        or row of that entry: det = (-1)^(i+j) a_ij det(minor) by the
        Laplace expansion, and over a field rank = 1 + rank(minor).  A zero
        line leaves alone and makes the determinant 0.  Each departure can
        make new singletons; the peeling runs until none is left, reading
        every nonzero a bounded number of times, and leaves an empty core
        on a permuted triangular matrix.

        Returns (peeled, rows, cols, sign): the (i, j) of the peeled
        entries in peel order, the ascending rows and columns of the core,
        and the sign of the expansion (that of the row order, peeled rows
        then core rows, times that of the column order), 0 when a zero line
        left.  The determinant is sign times the peeled entries times the
        determinant of the core."""
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

    def _bareiss(self, work, width: int, jordan: bool = False):
        """Bareiss (fraction-free) elimination in place on work, rows of
        entries in the hooks' form, pivoting in the first width columns
        (Bareiss, Math. Comp. 1968).  Each pivot is the first nonzero entry
        of least ``_size`` in its column; a column without one is skipped.

        A step sets each entry v right of the pivot column, in the rows
        below the pivot and with jordan also above it, to ``_cross(v, p, f,
        b)`` = v p - f b over the previous pivot (``_divider``, None for 1):
        p the pivot, f the row's pivot-column entry, b the pivot row's entry
        in v's column.  The entries are minors, so the division is exact.
        With jordan, [A | Id] for A square of full rank ends with p A^-1 in
        its right block (Nakos, Turner and Williams, SIGSAM Bull. 1997).

        Returns the rank, the last pivot p (None at rank 0) and the sign of
        the row swaps; a full-rank square matrix has determinant sign * p."""
        size, cross = self._size, self._cross
        height = len(work)
        rank, pivot, sign = 0, None, 1
        for col in range(width):
            found = least = None
            for i in range(rank, height):
                s = size(work[i][col])
                if s and (least is None or s < least):
                    found, least = i, s
                    if s == 1:
                        break
            if found is None:
                continue
            if found != rank:
                work[rank], work[found] = work[found], work[rank]
                sign = -sign
            top = work[rank]
            targets = work[:rank] + work[rank + 1 :] if jordan else work[rank + 1 :]
            rank += 1
            prev, pivot = pivot, top[col]
            if not targets:
                break
            divide = None if prev is None else self._divider(prev)
            tail = top[col + 1 :]
            for row in targets:
                f = row[col]
                out = [cross(a, pivot, f, b) for a, b in zip(row[col + 1 :], tail)]
                row[col + 1 :] = out if divide is None else map(divide, out)
        return rank, pivot, sign

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
    """A matrix over the context field: rank, det and inverse by the
    fraction-free elimination of Matrix on integral rows, the inverse up to
    3 x 3 by the adjugate over the determinant instead."""

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

    def _rows(self):
        """The (entries, den) row form of this matrix (FieldContext
        ._matrix_product), den the lcm of the entry denominators."""
        den = lcm(e.den for row in self.entries for e in row)
        entries = [[list(e.nums) if e.den == den else [x * (den // e.den) for x in e.nums] for e in row] for row in self.entries]
        return entries, den

    @classmethod
    def _from_rows(cls, context: FieldContext, entries, den: int) -> ScalarMatrix:
        return cls._make(context, [[CycloNumber(context, e, den) for e in row] for row in entries])

    @staticmethod
    def _dot(pairs):
        acc = None
        for a, b in pairs:
            p = a * b
            acc = p if acc is None else acc + p
        return acc

    # The hooks of Matrix._bareiss, on the rows of Z[z] of _integral_rows.

    _size = staticmethod(any)

    def _cross(self, a, p, f, b):
        product = self.context._product
        v = product(a, p) if any(a) else a
        return [x - y for x, y in zip(v, product(f, b))] if any(f) and any(b) else v

    def _divider(self, prev):
        # v / prev = v c // N in Z[z], (c, N) = FieldContext._cofactor(prev).
        c, norm = self.context._cofactor(prev)
        if not any(prev[1:]):
            return None if norm == 1 else lambda v: [x // norm for x in v]
        product = self.context._product
        return lambda v: [x // norm for x in product(v, c)] if any(v) else v

    def _integral_rows(self, rows, cols):
        """The submatrix on rows and cols as rows of Z[z], each row scaled
        by the lcm of its denominators, and the list of those scales."""
        work = [[self.entries[i][j] for j in cols] for i in rows]
        scales = [lcm(e.den for e in row) for row in work]
        for row, d in zip(work, scales):
            row[:] = [e.nums if e.den == d else [x * (d // e.den) for x in e.nums] for e in row]
        return work, scales

    def rank(self) -> int:
        """One per peeled singleton (Matrix._peel_singletons) plus the
        Bareiss rank of the core."""
        peeled, rows, cols, _ = self._peel_singletons()
        return len(peeled) + self._bareiss(self._integral_rows(rows, cols)[0], len(cols))[0]

    def det(self) -> CycloNumber:
        """The signed product of the peeled singletons and the determinant
        of the core, the last Bareiss pivot over the product of the row
        scales; zero below full rank.  The product runs on integer rows, so
        the result is the one field element built."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        peeled, rows, cols, sign = self._peel_singletons()
        if not sign:
            return self.context.zero
        work, scales = self._integral_rows(rows, cols)
        rank, pivot, swaps = self._bareiss(work, len(cols))
        if rank < len(rows):
            return self.context.zero
        ctx = self.context
        nums = pivot if rows else ctx.one.nums
        scale = sign * swaps * math.prod(scales)
        for i, j in peeled:
            e = self.entries[i][j]
            nums = ctx._product(nums, e.nums)
            scale *= e.den
        return CycloNumber(ctx, nums, scale)

    def inverse(self) -> ScalarMatrix:
        """self^-1 from its row form (_inverse_rows): the adjugate over the
        determinant up to n = 3, fraction-free Gauss-Jordan above."""
        return self._from_rows(self.context, *self._inverse_rows())

    def _inverse_rows(self):
        """The canonical (entries, den) row form of self^-1 (FieldContext
        ._matrix_product), as B c s / N for a block B, a cofactor (c, N) and
        a scale s.  For n <= _ADJUGATE_MAX, with E the integral rows of self
        over den, B = adj(E) (FieldContext._adjugate), (c, N) is the
        cofactor of det E and s = den.  Above, fraction-free Gauss-Jordan
        (Matrix._bareiss) on the integral rows of [self | Id], each row
        scaled by the lcm of its denominators, leaves B = p self^-1 for the
        last pivot p, whose cofactor is (c, N), and s = 1.  A singular
        matrix raises ZeroDivisionError."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n, ctx = self.rows, self.context
        if not n:
            return [], 1
        if n <= _ADJUGATE_MAX:
            entries, scale = self._rows()
            block, det = ctx._adjugate(entries)
            if not any(det):
                raise ZeroDivisionError("matrix is singular")
            c, norm = ctx._cofactor(det)
        else:
            work, scales = self._integral_rows(range(n), range(n))
            zero = [0] * ctx.degree
            for i, (row, s) in enumerate(zip(work, scales)):
                row += [zero] * n
                row[n + i] = [s] + zero[1:]
            rank, pivot, _ = self._bareiss(work, n, jordan=True)
            if rank < n:
                raise ZeroDivisionError("matrix is singular")
            c, norm = ctx._cofactor(pivot)
            block, scale = [row[n:] for row in work], 1
        if norm < 0:
            scale, norm = -scale, -norm
        if scale != 1:
            c = [x * scale for x in c]
        return _lowest_terms([[ctx._product(v, c) if any(v) else list(v) for v in row] for row in block], norm)


class _Residues(Matrix):
    """A matrix of residues mod the split prime p of the context
    (_split_prime), entries in range(p), with the hooks of Matrix._bareiss
    over F_p; it serves the full-rank certificates alone."""

    __slots__ = ()

    _size = staticmethod(bool)

    def _cross(self, a, p, f, b):
        return (a * p - f * b) % self.context._split[0]

    @staticmethod
    def _divider(prev):
        # Over a field the division by the previous pivot can be left out:
        # without it a step scales each target row by the nonzero pivot,
        # which keeps the rank, and the entries stay in range(p).
        return None

    def is_full_rank(self) -> bool:
        return self._bareiss([list(row) for row in self.entries], self.cols)[0] == min(self.rows, self.cols)
