"""Twisted chain complexes and their invariants.

A twisted chain complex is a tuple of boundaries over R = F[t, t^-1],

    C_k --d_k--> ... --d_2--> C_1 --d_1--> C_0,

and every invariant below is one loop over its degrees.  A complex carries
the triple (presentation, eps, rho) when d_1 and d_2 are its presentation
complex, and None when no presentation describes its cells.  build_complex
makes the k = 2 complex of a presentation 2-complex: given a validated
triple with r-dimensional rho over a field F,

    C2 = R^(r R) --d2--> C1 = R^(r g) --d1--> C0 = R^r

with d1 assembled from the blocks Phi(x_i) - Id and d2 from the Fox
derivative blocks Phi(d r_j / d x_i).  The blocks of one relator come from
a single left-to-right pass over its letters (PhiMap.fox_row), which
carries Phi(prefix) as a t-exponent and a scalar matrix, so a relator of
length L costs at most L scalar r x r products, and a run x^k of one letter
at most the order of rho(x) of them.  The symbolic Fox derivative that
checks this pass is a test oracle (tests/oracles.py), outside the package.
The pass ends on rho(r), the relator's verdict, so validate runs it and
keeps its blocks, and build_complex writes d2 from the report: the letters
are walked once, not once for validation and once for d2; parse_job
validates a job by this build alone.  Columns are chains: the block
orientation is fixed by exactness, which forces the transpose of each block
as it is usually displayed (rows of the Wada matrix are relators).  Every
composite d_i d_(i+1) vanishes identically; a TwistedChainComplex checks
each one as it is made, whoever built its boundaries, and treats a failure
as an internal error, not bad input.

Twisted Alexander polynomials are the torsion orders Delta_i of H_i, each
defined up to a unit c * t^m.  Over the PID R every image im d_i is free, so
C_i / im d_(i+1) = H_i + im d_i splits, and in every degree

    H_i = R^(c_i - rank d_i - rank d_(i+1)) + torsion of coker d_(i+1)

with rank d_0 = rank d_(k+1) = 0 (Munkres, Elements of Algebraic Topology,
11); the top degree has no torsion.  homology therefore needs only the
ranks and divisors of the boundaries, and forms no kernel basis.  Before
any Smith form the complex cancels its unit pairs once
(TwistedChainComplex.reduced): many entries t^e rho(x)_ab of Phi(x) - Id
and of the Fox blocks are units, and each cancelled pair takes a row and a
column off one boundary with no change to homology over R or at any
t = a != 0.  homology then runs one Smith form per reduced boundary,
its divisors and rank alone, and specialize_homology reads the ranks of the
reduced boundaries at t = a.  The ranks record, the Euler characteristic,
the d_i d_(i+1) = 0 check and wada_agreement read the complex as built.
For a deficiency-1 presentation Delta_1 / Delta_0 is Wada's invariant
(Wada, Topology 1994), Reidemeister torsion (Kitano, Pacific J. Math.
1996): one determinant of d2 over one of d1, which wada_agreement forms
free of homology.  Its verdict against homology(complex_).ratio() is one
cross-multiplication, which also gives the reduced form; the minor
formula's ratio is reduced on its own only when it disagrees.
"""

from __future__ import annotations

from .scalars import CycloNumber, FieldContext, lcm
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    ModuleShape,
    RationalFunction,
    _UnitSchur,
)
from .presentations import (
    Augmentation,
    InvalidTripleError,
    PhiMap,
    Presentation,
    Representation,
    validate,
)

__all__ = [
    "TwistedChainComplex",
    "AlexanderResult",
    "build_complex",
    "homology",
    "wada_agreement",
    "euler_rank_check",
    "specialize_homology",
]


class InternalInvariantError(RuntimeError):
    """An identity the construction guarantees failed to hold."""


class TwistedChainComplex:
    """A twisted chain complex: boundaries = (d_1, ..., d_k), d_i : C_i -> C_(i-1).

    Columns are chains, so d_i is c_(i-1) x c_i and the chain ranks
    (c_0, ..., c_k) are read off the boundary shapes.  triple is
    (presentation, eps, rho) exactly when d_1 and d_2 are the presentation
    complex of that triple (build_complex), else None.  The constructor
    checks every composite d_i d_(i+1), whoever built the boundaries, and
    raises InternalInvariantError on the first that is nonzero.  reduced()
    is the complex with its unit pairs cancelled, formed on first use;
    homology and specialize_homology read it, everything else here reads
    the complex as built.
    """

    __slots__ = ("triple", "context", "boundaries", "ranks", "_reduced")

    def __init__(self, boundaries, triple=None):
        self.triple = triple
        self.boundaries = tuple(boundaries)
        self.context = self.boundaries[0].context
        for i, (d, e) in enumerate(zip(self.boundaries, self.boundaries[1:]), 1):
            if not (d * e).is_zero():
                raise InternalInvariantError(f"boundary composite d{i} d{i + 1} is nonzero")
        self.ranks = (self.boundaries[0].rows, *(d.cols for d in self.boundaries))
        self._reduced = None

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.ranks))

    def reduced(self) -> tuple[tuple[LaurentMatrix, ...], tuple[int, ...]]:
        """(boundaries, chain ranks) of the complex with its unit pairs
        cancelled (Gaussian elimination of a chain complex; Skoldberg,
        Trans. AMS 2006).  From the top boundary down, each d_i loses its
        units one by one, the least Markowitz count first, by the Schur step
        of the determinant (laurent._UnitSchur): a unit u = d_i[a][b] takes
        every other row with an entry e in column b to row - (e u^-1) row_a,
        and row a and column b leave d_i, column a leaves d_(i-1) and row b
        leaves d_(i+1), restricted with no arithmetic.  Each pair leaves c_i
        and c_(i-1) one lower.  The reduced complex is chain homotopy
        equivalent to this one over F[t, t^-1], and so is its value at any
        t = a != 0, where a unit stays a unit: homology, divisors and the
        ranks at a point are the same.  Lower boundaries only lose lines, so
        one pass leaves no unit anywhere."""
        if self._reduced is None:
            work = [list(d.entries) for d in self.boundaries]
            ranks = list(self.ranks)
            # work[i] is d_(i+1), from C_(i+1) to C_i.
            for i in reversed(range(len(work))):
                units = _UnitSchur(self.context, work[i])
                pivots = []
                while (pivot := units.pivot()) is not None:
                    units.eliminate(*pivot)
                    pivots.append(pivot)
                if not pivots:
                    continue
                rows, cols = {a for a, _ in pivots}, {b for _, b in pivots}
                work[i] = [
                    [e for b, e in enumerate(row) if b not in cols] for a, row in enumerate(work[i]) if a not in rows
                ]
                if i > 0:
                    work[i - 1] = [[e for a, e in enumerate(row) if a not in rows] for row in work[i - 1]]
                if i + 1 < len(work):
                    work[i + 1] = [row for b, row in enumerate(work[i + 1]) if b not in cols]
                ranks[i] -= len(pivots)
                ranks[i + 1] -= len(pivots)
            boundaries = self.boundaries
            if ranks != list(self.ranks):
                boundaries = tuple(LaurentMatrix._make(self.context, d, ranks[i + 1]) for i, d in enumerate(work))
            self._reduced = (boundaries, tuple(ranks))
        return self._reduced


def build_complex(
    presentation: Presentation, eps: Augmentation, rho: Representation
) -> TwistedChainComplex:
    """Validate the triple and assemble both boundaries into a complex.

    validate walks each relator once: its Fox pass gives the relator's
    verdict and its d2 blocks, which the report keeps as fox_rows.  Invalid
    triples raise InvalidTripleError (bad input).  The complex checks
    d1 d2 = 0 as it is made and raises InternalInvariantError otherwise,
    since the fundamental identity of Fox calculus makes a nonzero composite
    impossible for validated input.
    """
    report = validate(presentation, eps, rho)
    if not report.ok:
        raise InvalidTripleError(report)
    phi = PhiMap(eps, rho)
    g = presentation.generator_count
    ctx = rho.context
    r = rho.dimension
    eye = LaurentMatrix.identity(ctx, r)
    # Row a of d1, and row (i, a) of d2, read column a of every block in
    # their block row: the blocks are placed transposed, as
    # report.fox_rows[j][i] = Phi(d r_j / d x_i) goes to block (i, j).
    d1_blocks = [(phi.generator_image(i) - eye).entries for i in range(g)]
    boundary1 = LaurentMatrix._make(ctx, [[block[b][a] for block in d1_blocks for b in range(r)] for a in range(r)])
    boundary2 = LaurentMatrix._make(
        ctx, [[row[i].entries[b][a] for row in report.fox_rows for b in range(r)] for i in range(g) for a in range(r)]
    )
    return TwistedChainComplex((boundary1, boundary2), (presentation, eps, rho))


class AlexanderResult:
    """Homology of the twisted complex: shapes[i] is the ModuleShape of H_i.

    delta(i) is the torsion order of H_i normalized to lowest exponent zero
    and monic; ratio() is Delta_1 / Delta_0 as a reduced rational function.
    """

    __slots__ = ("shapes",)

    def __init__(self, shapes):
        self.shapes = tuple(shapes)

    def delta(self, i: int) -> LaurentPoly:
        """Zero when H_i has positive free rank (order of a non-torsion
        module), else the product of the torsion divisors."""
        shape = self.shapes[i]
        if shape.free_rank > 0:
            return LaurentPoly.zero(shape.context)
        return shape.torsion_order()

    def ratio(self) -> RationalFunction:
        d1 = self.delta(1)
        d0 = self.delta(0)
        if d0.is_zero():
            raise ZeroDivisionError("Delta_0 vanishes; the ratio is undefined")
        return RationalFunction(d1, d0)

    def __repr__(self):
        return f"AlexanderResult(shapes={self.shapes!r})"


def _free_ranks(chain_ranks, boundary_ranks) -> tuple[int, ...]:
    """c_i - rank d_i - rank d_(i+1) in every degree i, with rank d_0 =
    rank d_(k+1) = 0."""
    padded = (0, *boundary_ranks, 0)
    return tuple(c - padded[i] - padded[i + 1] for i, c in enumerate(chain_ranks))


def homology(complex_: TwistedChainComplex) -> AlexanderResult:
    """Homology shapes in every degree, exactly, from one Smith form per
    boundary of the reduced complex, its divisors and rank; no kernel
    basis is formed.

    H_i is free of rank c_i - rank d_i - rank d_(i+1) plus the torsion of
    coker d_(i+1), its nonunit divisors (module docstring), all read on
    complex_.reduced(): a cancelled unit pair only took a divisor 1 and one
    from each of c_i and c_(i-1).  The top degree H_k = ker d_k is a
    submodule of a free module over a PID, so it has no torsion.
    """
    boundaries, ranks = complex_.reduced()
    snfs = [d.smith_normal_form() for d in boundaries]
    free = _free_ranks(ranks, [snf.rank for snf in snfs])
    torsion = [[d for d in snf.divisors if not d.is_one()] for snf in snfs] + [()]
    return AlexanderResult(ModuleShape(complex_.context, rank, divs) for rank, divs in zip(free, torsion))


def wada_agreement(
    complex_: TwistedChainComplex, homology_ratio: RationalFunction | None
) -> tuple[RationalFunction, bool]:
    """(ratio, agrees): Delta_1 / Delta_0 by the minor formula, bypassing
    homology, and whether it is homology_ratio (None when Delta_0 = 0) up to
    a unit.

    Pick a generator x_g with det(Phi(x_g) - Id) nonzero, delete its block
    column from the Fox matrix, and divide the determinant of the remainder
    by that one.  Both are read off the complex as built: block g of d_1 is
    (Phi(x_g) - Id)^T, and d_2 without block row g is the transpose of the
    remainder, square, (r R) x (r R) with r = c_0, as the presentation has
    deficiency 1.  Raises ValueError without a deficiency-1 triple or
    admissible generator.

    The long minor is not normalized: its unit lc * t^low joins the short
    determinant.  One cross-multiplication (RationalFunction.unit_multiple)
    gives the verdict and, on agreement, the reduced form; a disagreement
    reduces the ratio on its own, by a gcd, so it reports the minor
    formula's value.  A zero minor agrees exactly when the homology
    numerator is zero.
    """
    if complex_.triple is None or complex_.triple[0].deficiency != 1:
        raise ValueError("the minor formula needs a deficiency-1 presentation")
    pres = complex_.triple[0]
    r = complex_.ranks[0]
    d1, d2 = complex_.boundaries[:2]
    for g in range(pres.generator_count):
        block = range(g * r, (g + 1) * r)
        denom = d1.submatrix(range(r), block).determinant()
        if not denom.is_zero():
            minor = d2.submatrix([i for i in range(d2.rows) if i not in block], range(d2.cols)).determinant()
            if minor.is_zero():
                agrees = homology_ratio is not None and homology_ratio.numerator.is_zero()
                return RationalFunction(minor, denom), agrees
            denom = denom * LaurentPoly.t_power(complex_.context, minor.low, minor.leading_coefficient())
            if homology_ratio is not None:
                agreed = RationalFunction.unit_multiple(minor, denom, homology_ratio)
                if agreed is not None:
                    return agreed, True
            return RationalFunction(minor, denom), False
    raise ValueError("no generator with det(Phi(x) - Id) nonzero")


def euler_rank_check(complex_: TwistedChainComplex, result: AlexanderResult) -> None:
    """Alternating sum of homology free ranks must equal the chain-level
    Euler characteristic; a mismatch is an internal error.  The free ranks
    are read on the reduced complex and the Euler characteristic on the
    complex as built, so the check fails when reduced() books a wrong chain
    rank."""
    lhs = sum((-1) ** i * shape.free_rank for i, shape in enumerate(result.shapes))
    if lhs != complex_.euler_characteristic:
        raise InternalInvariantError(
            f"homology Euler characteristic {lhs} differs from chain value "
            f"{complex_.euler_characteristic}"
        )


def specialize_homology(complex_: TwistedChainComplex, value) -> tuple[int, ...]:
    """Dimensions of the homology of the scalar complex at t = a (a nonzero).

    Ranks of the specialized boundaries give every h_i = dim ker - dim im
    directly: h_i = c_i - rank d_i(a) - rank d_(i+1)(a), read on the
    reduced complex, whose units stay units at a != 0.  A full rank
    modulo the split prime of the context proves a rank without the exact
    specialization (LaurentMatrix._rank_at); a deficiency is always decided
    exactly.  A value from a larger cyclotomic context lifts the whole
    complex into the join context first.
    """
    boundaries, ranks = complex_.reduced()
    if isinstance(value, CycloNumber) and value.context.conductor != complex_.context.conductor:
        big = FieldContext(lcm([complex_.context.conductor, value.context.conductor]))
        boundaries = [d.embed(big) for d in boundaries]
        value = value.embed(big)
    dims = _free_ranks(ranks, [d._rank_at(value) for d in boundaries])
    if min(dims) < 0:
        raise InternalInvariantError("specialized composite fails to vanish")
    return dims
