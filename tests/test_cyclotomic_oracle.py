"""Cyclotomic arithmetic against sympy, coefficient for coefficient in the
power basis: inverse, complex conjugation and the embedding into a larger
cyclotomic field; and Laurent polynomials over Q(zeta_n): products,
differences, division with remainder, exact division, normalization, gcds,
Bareiss determinants and evaluation at a point; and the rank, determinant
and inverse of scalar matrices against sympy's matrices over the algebraic
field Q(zeta_n).  Sparse matrices under row and column permutations check the
singleton peeling in front of both eliminations, and unit-rich ones the unit
pivots of the Laurent determinant."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest

sympy = pytest.importorskip("sympy")

from twistalex.laurent import LaurentMatrix, LaurentPoly, laurent_gcd  # noqa: E402
from twistalex.scalars import CycloNumber, FieldContext, ScalarMatrix, embed  # noqa: E402

Z = sympy.Symbol("z")
T = sympy.Symbol("t")
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


def _scalar_coords(a: CycloNumber) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, a.den) for x in a.nums)


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
        assert _scalar_coords(a.inverse()) == expected, a


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", CONDUCTORS)
def test_conj_matches_sympy(n, kind):
    for a in _elements(n, kind):
        expected = _coords(_expr(a, n - 1, n), n)
        assert _scalar_coords(a.conj()) == expected, a


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", CONDUCTORS)
def test_embed_matches_sympy(n, kind):
    for k in (1, 2, 3):
        target = FieldContext(k * n)
        for a in _elements(n, kind, count=2):
            expected = _coords(_expr(a, k), k * n)
            assert _scalar_coords(embed(a, target)) == expected, (a, k)
            assert a.embed(target) == embed(a, target)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_inverse_of_zero_raises(n):
    with pytest.raises(ZeroDivisionError):
        FieldContext(n).zero.inverse()


# Laurent polynomials over Q(zeta_n).  Each engine result is compared with
# the same expression built in sympy from the engine's inputs, every
# coefficient of t reduced modulo Phi_n.

LAURENT_CONDUCTORS = (1, 2, 3, 4, 5, 12, 60)
# Leading coefficients of divisors: -1 (so a quotient needs the sign of
# lead^-1), and a non-rational number (a rational 2/3 over Q and Q(zeta_2)).
LEADS = ("minus_one", "irrational")


def _scalar(ctx: FieldContext, rng: random.Random) -> CycloNumber:
    return CycloNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)], rng.choice((1, 2, 3, 6)))


def _lead(ctx: FieldContext, kind: str, rng: random.Random) -> CycloNumber:
    if kind == "minus_one":
        return -ctx.one
    if ctx.degree == 1:
        return ctx.from_rational(Fraction(2, 3))
    while True:
        c = _scalar(ctx, rng)
        if not c.is_rational():
            return c


def _laurent(ctx: FieldContext, rng: random.Random, span: int, lead: CycloNumber | None = None) -> LaurentPoly:
    coeffs = [_scalar(ctx, rng) for _ in range(span + 1)]
    while not coeffs[-1]:
        coeffs[-1] = _scalar(ctx, rng)
    if lead is not None:
        coeffs[-1] = lead
    return LaurentPoly(ctx, coeffs, rng.randint(-2, 2))


def _laurent_expr(p: LaurentPoly):
    if p.is_zero():
        return sympy.Integer(0)
    return sum(_expr(p.coefficient(e)) * T**e for e in range(p.low, p.high + 1))


def _laurent_coords(expr, n: int) -> dict[int, tuple[Fraction, ...]]:
    """{exponent of t: power-basis coordinates} of a Laurent expression in t
    and z, zero coefficients left out."""
    shift = 64
    # Division by the monic Phi_n in the main variable z, coefficients in Q[t].
    modulus = sympy.Poly(sympy.cyclotomic_poly(n, Z), Z, T, domain="QQ")
    rem = sympy.Poly(sympy.expand(expr * T**shift), Z, T, domain="QQ").rem(modulus)
    out: dict[int, list[Fraction]] = {}
    for (j, d), c in rem.terms():
        out.setdefault(d - shift, [Fraction(0)] * (modulus.degree(Z)))[j] = Fraction(str(c))
    return {d: tuple(c) for d, c in out.items()}


def _engine_coords(p: LaurentPoly) -> dict[int, tuple[Fraction, ...]]:
    if p.is_zero():
        return {}
    return {e: _scalar_coords(p.coefficient(e)) for e in range(p.low, p.high + 1) if p.coefficient(e)}


def _from_expr(ctx: FieldContext, expr) -> LaurentPoly:
    """An engine polynomial with the coefficients sympy computed."""
    coords = _laurent_coords(expr, ctx.conductor)
    if not coords:
        return LaurentPoly.zero(ctx)
    low = min(coords)
    coeffs = []
    for e in range(low, max(coords) + 1):
        c = coords.get(e, (Fraction(0),) * ctx.degree)
        den = math.lcm(*(x.denominator for x in c))
        coeffs.append(CycloNumber(ctx, [int(x * den) for x in c], den))
    return LaurentPoly(ctx, coeffs, low)


@pytest.mark.parametrize("n", LAURENT_CONDUCTORS)
def test_laurent_product_and_difference_match_sympy(n):
    ctx = FieldContext(n)
    rng = random.Random(f"laurent-mul-{n}")
    for _ in range(4):
        a = _laurent(ctx, rng, rng.randint(0, 4))
        b = _laurent(ctx, rng, rng.randint(0, 4))
        assert _engine_coords(a * b) == _laurent_coords(_laurent_expr(a) * _laurent_expr(b), n), (a, b)
        assert _engine_coords(a - b) == _laurent_coords(_laurent_expr(a) - _laurent_expr(b), n), (a, b)
        assert (a - a).is_zero()


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("n", LAURENT_CONDUCTORS)
def test_laurent_divmod_matches_sympy(n, lead):
    ctx = FieldContext(n)
    rng = random.Random(f"laurent-divmod-{n}-{lead}")
    for _ in range(4):
        a = _laurent(ctx, rng, rng.randint(0, 6))
        b = _laurent(ctx, rng, rng.randint(0, 3), _lead(ctx, lead, rng))
        q, r = divmod(a, b)
        assert r.is_zero() or r.span < b.span, (a, b, r)
        expected = _laurent_coords(_laurent_expr(a), n)
        assert _laurent_coords(_laurent_expr(q) * _laurent_expr(b) + _laurent_expr(r), n) == expected, (a, b)


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("n", LAURENT_CONDUCTORS)
def test_laurent_exact_div_matches_sympy(n, lead):
    ctx = FieldContext(n)
    rng = random.Random(f"laurent-exact-{n}-{lead}")
    for _ in range(4):
        b = _laurent(ctx, rng, rng.randint(0, 3), _lead(ctx, lead, rng))
        c = _laurent(ctx, rng, rng.randint(0, 4))
        a = _from_expr(ctx, _laurent_expr(b) * _laurent_expr(c))
        assert _engine_coords(a.exact_div(b)) == _laurent_coords(_laurent_expr(c), n), (b, c)
        assert _engine_coords(a.exact_div(c)) == _laurent_coords(_laurent_expr(b), n), (b, c)


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("n", LAURENT_CONDUCTORS)
def test_laurent_normalize_matches_sympy(n, lead):
    ctx = FieldContext(n)
    rng = random.Random(f"laurent-normalize-{n}-{lead}")
    for _ in range(4):
        lc = _lead(ctx, lead, rng)
        p = _laurent(ctx, rng, rng.randint(0, 4), lc)
        m = p.normalize()
        assert m.low == 0 and m.leading_coefficient() == ctx.one, p
        # p = lead * t^low * normalize(p)
        unit = _expr(lc) * T**p.low
        assert _laurent_coords(_laurent_expr(m) * unit, n) == _laurent_coords(_laurent_expr(p), n), p


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("n", LAURENT_CONDUCTORS)
def test_laurent_gcd_matches_sympy(n, lead):
    # a = g * u, b = g * v with u, v products of t - c over disjoint sets of
    # roots c, so gcd(a, b) is g up to a unit.
    ctx = FieldContext(n)
    rng = random.Random(f"laurent-gcd-{n}-{lead}")
    roots = [ctx.from_rational(k) for k in (1, -1, 2, Fraction(1, 2), 3)] + [ctx.zeta(k) for k in range(1, 4)]
    roots = list(dict.fromkeys(roots))
    for _ in range(3):
        rng.shuffle(roots)
        g = _laurent(ctx, rng, rng.randint(0, 3), _lead(ctx, lead, rng))
        u = sympy.Mul(*(T - _expr(c) for c in roots[:2])) * T ** rng.randint(-2, 2)
        v = sympy.Mul(*(T - _expr(c) for c in roots[2:4])) * _expr(_lead(ctx, lead, rng))
        a = _from_expr(ctx, _laurent_expr(g) * u)
        b = _from_expr(ctx, _laurent_expr(g) * v)
        d = laurent_gcd(a, b)
        assert d.low == 0 and d.leading_coefficient() == ctx.one, (a, b)
        unit = _expr(g.leading_coefficient()) * T**g.low
        assert _laurent_coords(_laurent_expr(d) * unit, n) == _laurent_coords(_laurent_expr(g), n), (a, b)


@pytest.mark.parametrize("n", LAURENT_CONDUCTORS)
def test_laurent_determinant_matches_sympy(n):
    # Bareiss divides exactly by the previous pivot at every step.
    ctx = FieldContext(n)
    rng = random.Random(f"laurent-det-{n}")
    size = 3
    m = LaurentMatrix(ctx, [[_laurent(ctx, rng, rng.randint(0, 2)) for _ in range(size)] for _ in range(size)])
    expr = 0
    for perm in permutations(range(size)):
        sign = (-1) ** sum(1 for i in range(size) for j in range(i) if perm[j] > perm[i])
        expr += sign * sympy.Mul(*(_laurent_expr(m[i, perm[i]]) for i in range(size)))
    assert _engine_coords(m.determinant()) == _laurent_coords(expr, n)


def _evaluate_expr(p: LaurentPoly, value: CycloNumber, k: int = 1):
    """p(value) in sympy, the coefficients of p read through z -> z^k (the
    embedding into a field k times larger) and t^-1 as the inverse of value
    modulo Phi_N."""
    n = value.context.conductor
    a = _expr(value)
    inverse = sympy.invert(a, sympy.cyclotomic_poly(n, Z), Z)
    total = 0
    for e in range(p.low, p.high + 1):
        total += _expr(p.coefficient(e), k, n) * (a**e if e >= 0 else inverse**-e)
    return total


@pytest.mark.parametrize("n", LAURENT_CONDUCTORS)
def test_evaluate_matches_sympy(n):
    # Values with denominators and non-rational values, polynomials with
    # negative, zero and positive lowest exponents.
    ctx = FieldContext(n)
    rng = random.Random(f"laurent-evaluate-{n}")
    values = [ctx.zeta(1), ctx.from_rational(Fraction(-2, 3))] + [_scalar(ctx, rng) for _ in range(3)]
    for a in values:
        if not a:
            continue
        for low in (-3, 0, 2):
            p = LaurentPoly(ctx, _laurent(ctx, rng, rng.randint(0, 4)).coeffs, low)
            assert _scalar_coords(p.evaluate(a)) == _coords(_evaluate_expr(p, a), n), (p, a)


@pytest.mark.parametrize("n,big", [(1, 5), (3, 12), (4, 12), (5, 15), (12, 60)])
def test_evaluate_at_a_point_of_a_larger_field_matches_sympy(n, big):
    # The polynomial is embedded into Q(zeta_big) first, as
    # specialize_homology lifts a complex to the field of its point.
    ctx, target = FieldContext(n), FieldContext(big)
    rng = random.Random(f"laurent-evaluate-{n}-{big}")
    for a in (target.zeta(1), _scalar(target, rng) + target.zeta(2)):
        p = LaurentPoly(ctx, _laurent(ctx, rng, 3).coeffs, -2)
        assert _scalar_coords(p.embed(target).evaluate(a)) == _coords(_evaluate_expr(p, a, big // n), big), (p, a)


# Scalar matrices over Q(zeta_n): rank and determinant against sympy's
# DomainMatrix over the algebraic field generated by exp(2 pi i / n), whose
# minimal polynomial is Phi_n, so its elements are power-basis rows too.

SCALAR_SHAPES = ((1, 1), (3, 3), (4, 4), (2, 5), (5, 3))


@lru_cache(maxsize=None)
def _sympy_field(n: int):
    if n <= 2:
        return sympy.QQ
    field = sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / n))
    assert [int(c) for c in reversed(field.mod.to_list())] == list(FieldContext(n).modulus)
    return field


def _sympy_scalar(field, a: CycloNumber):
    coords = [sympy.QQ(c.numerator, c.denominator) for c in _scalar_coords(a)]
    return coords[0] if field is sympy.QQ else field(list(reversed(coords)))


def _sympy_matrix(m: ScalarMatrix):
    from sympy.polys.matrices import DomainMatrix

    field = _sympy_field(m.context.conductor)
    rows = [[_sympy_scalar(field, e) for e in row] for row in m.entries]
    return field, DomainMatrix(rows, (m.rows, m.cols), field)


def _sympy_coords(field, value, degree: int) -> tuple[Fraction, ...]:
    coords = [value] if field is sympy.QQ else list(reversed(value.to_list()))
    coords += [0] * (degree - len(coords))
    return tuple(Fraction(int(c.numerator), int(c.denominator)) if c else Fraction(0) for c in coords)


def _scalar_matrices(n: int) -> list[tuple[str, ScalarMatrix]]:
    """Seeded matrices of every shape: dense, of rank 1 and 2 (a product of
    two thin factors), and with a zero row and a zero column; entries have
    denominators 1, 2 and 3."""
    ctx = FieldContext(n)
    rng = random.Random(f"scalar-matrix-{n}")

    def entry():
        return CycloNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)], rng.choice((1, 2, 3)))

    def dense(rows, cols):
        return ScalarMatrix(ctx, [[entry() for _ in range(cols)] for _ in range(rows)])

    out = []
    for rows, cols in SCALAR_SHAPES:
        out.append((f"dense {rows}x{cols}", dense(rows, cols)))
        for k in (1, 2):
            if k < min(rows, cols):
                out.append((f"rank<={k} {rows}x{cols}", dense(rows, k) * dense(k, cols)))
        if min(rows, cols) > 1:
            m = [list(row) for row in dense(rows, cols).entries]
            m[rng.randrange(rows)] = [ctx.zero] * cols
            j = rng.randrange(cols)
            for row in m:
                row[j] = ctx.zero
            out.append((f"zero row and column {rows}x{cols}", ScalarMatrix(ctx, m)))
    return out


@pytest.mark.parametrize("n", LAURENT_CONDUCTORS)
def test_scalar_rank_and_det_match_sympy(n):
    ctx = FieldContext(n)
    for label, m in _scalar_matrices(n):
        field, expected = _sympy_matrix(m)
        assert m.rank() == expected.rank(), label
        if m.rows == m.cols:
            assert _scalar_coords(m.det()) == _sympy_coords(field, expected.det(), ctx.degree), label
        else:
            with pytest.raises(ValueError):
                m.det()


def test_dense_20x20_over_q_zeta_5():
    # Too large for a quick sympy oracle: det(M) det(M^-1) = 1, and a row
    # replaced by the sum of two others drops the rank to 19.
    ctx = FieldContext(5)
    rng = random.Random("dense-20")
    size = 20
    rows = [
        [CycloNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)], rng.choice((1, 2, 3))) for _ in range(size)]
        for _ in range(size)
    ]
    m = ScalarMatrix(ctx, rows)
    assert m.rank() == size
    assert m.det() * m.inverse().det() == ctx.one
    rows[7] = [a + b for a, b in zip(rows[3], rows[11])]
    singular = ScalarMatrix(ctx, rows)
    assert singular.rank() == size - 1
    assert singular.det().is_zero()


# Sparse matrices under random row and column permutations: singleton
# peeling hands Bareiss only the core that is left, and the sign of the
# expansion comes from the two orders.  Each kind is seeded; "odd" forces
# an odd permutation of rows times columns, and the zero line and the
# dependent rows make the determinant 0.

SPARSE_KINDS = ("sparse", "odd", "zero row", "zero column", "dependent rows")


def _sparse(rng: random.Random, kind: str, shape: tuple[int, int], entry, zero) -> list[list]:
    rows, cols = shape
    m = [[entry() if i == j or rng.random() < 0.25 else zero for j in range(cols)] for i in range(rows)]
    if kind == "zero row":
        m[rng.randrange(rows)] = [zero] * cols
    elif kind == "zero column":
        j = rng.randrange(cols)
        for row in m:
            row[j] = zero
    elif kind == "dependent rows":
        a, b, k = rng.sample(range(rows), 3)
        m[k] = [x + y for x, y in zip(m[a], m[b])]
    row_order, col_order = list(range(rows)), list(range(cols))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    if kind == "odd" and _parity(row_order) == _parity(col_order):
        row_order[0], row_order[1] = row_order[1], row_order[0]
    return [[m[i][j] for j in col_order] for i in row_order]


def _parity(order) -> int:
    return sum(1 for i in range(len(order)) for j in range(i) if order[j] > order[i]) % 2


@pytest.mark.parametrize("kind", SPARSE_KINDS)
@pytest.mark.parametrize("n", (1, 5, 12))
def test_sparse_laurent_determinant_matches_sympy(n, kind):
    ctx = FieldContext(n)
    rng = random.Random(f"sparse-laurent-det-{n}-{kind}")
    size = 6
    entries = _sparse(rng, kind, (size, size), lambda: _laurent(ctx, rng, rng.randint(0, 2)), LaurentPoly.zero(ctx))
    m = LaurentMatrix(ctx, entries)
    expr = 0
    for perm in permutations(range(size)):
        if all(m[i, perm[i]] for i in range(size)):
            sign = (-1) ** _parity(perm)
            expr += sign * sympy.Mul(*(_laurent_expr(m[i, perm[i]]) for i in range(size)))
    # A zero sum reads as one zero coefficient.
    expected = {e: c for e, c in _laurent_coords(expr, n).items() if any(c)}
    assert _engine_coords(m.determinant()) == expected
    if kind in ("zero row", "zero column", "dependent rows"):
        assert m.determinant().is_zero()


# Unit-rich matrices: the determinant clears each unit entry c t^k of the
# core by a Schur step before Bareiss.  "all units" fills the core at the
# first step; in "units exhaust", 2 x 2 blocks [[a, b], [c, 2 c b / a]] of
# units, every Schur complement keeps a unit pivot; "odd" permutes a
# unit-rich matrix by an odd permutation of rows times columns; in
# "dependent units" one row is the sum of two rows of units, so a Schur step
# leaves a zero row and the determinant is 0; "mixed" sets units beside
# nonunits, so Bareiss still gets a core.  The oracle shares no pivot and no
# division with the engine.

UNIT_KINDS = ("all units", "units exhaust", "odd", "dependent units", "mixed")


def _unit(ctx: FieldContext, rng: random.Random, low: int | None = None) -> LaurentPoly:
    c = _scalar(ctx, rng)
    while not c:
        c = _scalar(ctx, rng)
    return LaurentPoly(ctx, [c], rng.randint(-2, 2) if low is None else low)


def _unit_rich(ctx: FieldContext, rng: random.Random, kind: str, size: int) -> list[list]:
    zero = LaurentPoly.zero(ctx)
    if kind == "units exhaust":
        m = [[zero] * size for _ in range(size)]
        for k in range(0, size, 2):
            a, b, c = (_unit(ctx, rng) for _ in range(3))
            m[k][k], m[k][k + 1], m[k + 1][k] = a, b, c
            m[k + 1][k + 1] = (c * b * 2).exact_div(a)
    elif kind == "mixed":
        m = [
            [_laurent(ctx, rng, rng.randint(1, 2)) if rng.random() < 0.3 else _unit(ctx, rng) for _ in range(size)]
            for _ in range(size)
        ]
    elif kind == "dependent units":
        # Rows a and b of units with equal exponents, k = a + b, and the
        # other rows nonunits: the first Schur step leaves rows b and k
        # equal, and the second leaves a zero row.
        m = [[_laurent(ctx, rng, rng.randint(1, 2)) for _ in range(size)] for _ in range(size)]
        a, b, k = rng.sample(range(size), 3)
        m[a] = [_unit(ctx, rng) for _ in range(size)]
        m[b] = [_unit(ctx, rng, x.low) for x in m[a]]
        m[k] = [x + y for x, y in zip(m[a], m[b])]
    else:
        m = [[_unit(ctx, rng) for _ in range(size)] for _ in range(size)]
        if kind == "odd":
            for i, j in rng.sample([(i, j) for i in range(size) for j in range(size) if i != j], size * 2):
                m[i][j] = zero
    row_order, col_order = list(range(size)), list(range(size))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    if kind == "odd" and _parity(row_order) == _parity(col_order):
        row_order[0], row_order[1] = row_order[1], row_order[0]
    return [[m[i][j] for j in col_order] for i in row_order]


def _leibniz(m: LaurentMatrix, n: int):
    """The Leibniz sum of m as an expression in z and t, over sympy's
    polynomial ring QQ[z, t] with each entry shifted to nonnegative
    exponents of t.  Its terms are grouped by the columns of their first k
    rows: minors[S], S those columns, expands along row k - 1, and every
    product is reduced modulo Phi_n."""
    size = m.rows
    shift = -min(m[i, j].low for i in range(size) for j in range(size))
    ring, _, _ = sympy.ring([Z, T], sympy.QQ)
    modulus = ring.from_expr(sympy.cyclotomic_poly(n, Z))
    entries = [[ring.from_expr(sympy.expand(_laurent_expr(e) * T**shift)) for e in row] for row in m.entries]
    minors = {(): ring.one}
    for k in range(1, size + 1):
        for cols in combinations(range(size), k):
            total = ring.zero
            for place, j in enumerate(cols):
                if m[k - 1, j]:
                    term = (entries[k - 1][j] * minors[cols[:place] + cols[place + 1 :]]).rem(modulus)
                    total = total - term if (k - 1 + place) % 2 else total + term
            minors[cols] = total
    return minors[tuple(range(size))].as_expr() / T ** (shift * size)


@pytest.mark.parametrize("kind", UNIT_KINDS)
@pytest.mark.parametrize("n", (1, 5, 12))
def test_unit_rich_laurent_determinant_matches_sympy(n, kind):
    ctx = FieldContext(n)
    rng = random.Random(f"unit-laurent-det-{n}-{kind}")
    m = LaurentMatrix(ctx, _unit_rich(ctx, rng, kind, 6))
    expected = {e: c for e, c in _laurent_coords(_leibniz(m, n), n).items() if any(c)}
    det = m.determinant()
    assert _engine_coords(det) == expected
    assert det.is_zero() == (kind == "dependent units")


@pytest.mark.parametrize("kind", SPARSE_KINDS)
@pytest.mark.parametrize("n", (1, 3, 12, 60))
def test_sparse_scalar_rank_and_det_match_sympy(n, kind):
    ctx = FieldContext(n)
    rng = random.Random(f"sparse-scalar-{n}-{kind}")

    def entry():
        while True:
            a = CycloNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)], rng.choice((1, 2, 3)))
            if a:
                return a

    for shape in ((6, 6), (5, 7), (7, 5)):
        m = ScalarMatrix(ctx, _sparse(rng, kind, shape, entry, ctx.zero))
        field, expected = _sympy_matrix(m)
        assert m.rank() == expected.rank(), shape
        if m.rows == m.cols:
            assert _scalar_coords(m.det()) == _sympy_coords(field, expected.det(), ctx.degree), shape


# The inverse of scalar matrices against DomainMatrix.inv over the same
# algebraic field.  Entries have denominators 1, 2, 3 and 6.  A singular
# matrix raises ZeroDivisionError, also when only the identity block of the
# elimination holds a nonzero entry in a pivot column.

INVERSE_CONDUCTORS = (1, 3, 5, 12, 60)


def _assert_inverse_matches(m: ScalarMatrix, label: str):
    field, expected = _sympy_matrix(m)
    got = m.inverse()
    assert (got.rows, got.cols) == (m.rows, m.cols), label
    for got_row, row in zip(got.entries, expected.inv().to_list()):
        for a, b in zip(got_row, row):
            assert _scalar_coords(a) == _sympy_coords(field, b, m.context.degree), label


@pytest.mark.parametrize("n", INVERSE_CONDUCTORS)
def test_scalar_inverse_matches_sympy(n):
    ctx = FieldContext(n)
    rng = random.Random(f"scalar-inverse-{n}")

    def entry():
        while True:
            a = CycloNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)], rng.choice((1, 2, 3, 6)))
            if a:
                return a

    for size in range(1, 6):
        m = ScalarMatrix(ctx, [[entry() for _ in range(size)] for _ in range(size)])
        assert _sympy_matrix(m)[1].det() != 0
        _assert_inverse_matches(m, f"dense {size}x{size}")
    for kind in ("sparse", "odd"):
        m = ScalarMatrix(ctx, _sparse(rng, kind, (5, 5), entry, ctx.zero))
        if _sympy_matrix(m)[1].det() == 0:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
        else:
            _assert_inverse_matches(m, kind)


@pytest.mark.parametrize("n", INVERSE_CONDUCTORS)
def test_scalar_inverse_edge_cases(n):
    ctx = FieldContext(n)
    rng = random.Random(f"scalar-inverse-edges-{n}")

    def entry():
        return CycloNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)], rng.choice((1, 2, 3, 6)))

    empty = ScalarMatrix(ctx, []).inverse()
    assert (empty.rows, empty.cols) == (0, 0)
    for kind in ("zero row", "dependent rows"):
        m = ScalarMatrix(ctx, _sparse(rng, kind, (5, 5), entry, ctx.zero))
        with pytest.raises(ZeroDivisionError):
            m.inverse()
    # Every row below the first pivot is a multiple of the first: column 1
    # holds no pivot left of the identity block, whose entries are nonzero.
    a, b, c = entry() or ctx.one, entry(), entry()
    rows = [[a, b, c], [2 * a, 2 * b, 2 * c + 1], [3 * a, 3 * b, ctx.zeta(1)]]
    with pytest.raises(ZeroDivisionError):
        ScalarMatrix(ctx, rows).inverse()
    for shape in ((2, 3), (3, 2), (1, 0)):
        with pytest.raises(ValueError):
            ScalarMatrix.zero(ctx, *shape).inverse()


# Division with remainder against Poly.div over the algebraic field of
# exp(2 pi i / n).  With a = t^la A and b = t^lb B, A and B polynomials of
# nonzero constant term, divmod(a, b) is (t^(la - lb) Q, t^la R) for
# Poly.div(A, B) = (Q, R).  Seeded pairs cover every path of the division:
# a non-monic rational top coefficient (the rows below rescale), a
# non-rational one (the monic associate and the inverse of its unit),
# negative lows, a dividend shorter than the divisor, a unit divisor and a
# zero dividend.

DIVISION_CONDUCTORS = (1, 6, 12)


def _sympy_poly(field, p: LaurentPoly):
    """p / t^low as a sympy Poly in t over field."""
    return sympy.Poly.from_list([_sympy_scalar(field, c) for c in reversed(p.coeffs)], T, domain=field)


def _shifted_coords(field, poly, shift: int, degree: int) -> dict[int, tuple[Fraction, ...]]:
    """{exponent: coordinates} of t^shift * poly, zero coefficients left out."""
    coeffs = list(reversed(poly.rep.to_list()))
    coords = {e + shift: _sympy_coords(field, c, degree) for e, c in enumerate(coeffs)}
    return {e: c for e, c in coords.items() if any(c)}


def _division_pairs(n: int) -> list[tuple[str, LaurentPoly, LaurentPoly]]:
    ctx = FieldContext(n)
    rng = random.Random(f"division-pairs-{n}")
    leads = {"rational top 3/2": ctx.from_rational(Fraction(3, 2)), "rational top -5": ctx.from_rational(-5)}
    if ctx.degree > 1:
        leads["non-rational top"] = _lead(ctx, "irrational", rng)
    pairs = []
    for label, lead in leads.items():
        for span_a, span_b in ((7, 3), (5, 5), (9, 1)):
            a = _laurent(ctx, rng, span_a)
            b = _laurent(ctx, rng, span_b, lead)
            pairs.append((f"{label} {span_a}/{span_b}", a, b))
        b = _laurent(ctx, rng, 4, lead)
        a = LaurentPoly(ctx, _laurent(ctx, rng, 6).coeffs, -5)
        pairs.append((f"{label} negative lows", a, LaurentPoly(ctx, b.coeffs, -3)))
        pairs.append((f"{label} shorter dividend", _laurent(ctx, rng, 2), _laurent(ctx, rng, 4, lead)))
        pairs.append((f"{label} unit divisor", _laurent(ctx, rng, 5), LaurentPoly.t_power(ctx, -2, lead)))
        pairs.append((f"{label} zero dividend", LaurentPoly.zero(ctx), _laurent(ctx, rng, 3, lead)))
    return pairs


@pytest.mark.parametrize("n", DIVISION_CONDUCTORS)
def test_divmod_matches_sympy_poly_div(n):
    field = _sympy_field(n)
    degree = FieldContext(n).degree
    for label, a, b in _division_pairs(n):
        q, r = divmod(a, b)
        assert q * b + r == a, label
        assert r.is_zero() or r.span < b.span, label
        Q, R = _sympy_poly(field, a).div(_sympy_poly(field, b))
        assert _engine_coords(q) == _shifted_coords(field, Q, a.low - b.low, degree), label
        assert _engine_coords(r) == _shifted_coords(field, R, a.low, degree), label
