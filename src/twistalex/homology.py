"""Twisted chain complexes of presentation 2-complexes and their invariants.

Given a validated triple (presentation, eps, rho) with r-dimensional rho over
a field F, the presentation 2-complex gives a free chain complex over
F[t, t^-1]:

    C2 = R^(r R) --d2--> C1 = R^(r g) --d1--> C0 = R^r

with d1 assembled from the blocks Phi(x_i) - Id and d2 from the Fox
derivative blocks Phi(d r_j / d x_i).  The blocks of one relator come from a
single left-to-right pass over its letters (PhiMap.fox_row), which carries
Phi(prefix) as a t-exponent and a scalar matrix, so a relator of length L
costs L scalar r x r products; the symbolic fox_derivative is left to the
oracles that check the engine.  The pass ends on Phi(r) = t^eps(r) rho(r),
which is the validity verdict of the relator: build_complex hands those ends
to validate, so the letters are walked once here, not once for validation
and once for d2; parse_job validates a job by this build alone.  Columns
are chains: the block orientation is fixed by exactness, which forces the
transpose of each block as it is usually displayed (rows of the Wada matrix
are relators).  The composite d1 * d2 vanishes identically; build_complex
checks that and treats a failure as an internal error, not bad input.

Twisted Alexander polynomials are the torsion orders Delta_i of H_i, each
defined up to a unit c * t^k.  Over the PID R = F[t, t^-1] every image
im d_i is free, so C_i / im d_(i+1) = H_i + im d_i splits: H_i is free of
rank c_i - rank d_i - rank d_(i+1) plus the torsion of coker d_(i+1)
(Munkres, Elements of Algebraic Topology, 11).  homology therefore needs
only the ranks and divisors of the boundaries, from Smith forms without
certificates, and forms no kernel basis.  The Wada ratio Delta_1 / Delta_0
has a direct determinant-free-of-homology formula via maximal minors,
computed by wada_ratio and cross-checked against the homology route,
homology(complex_).ratio().
"""

from __future__ import annotations

from .scalars import CycloNumber, FieldContext
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    ModuleShape,
    RationalFunction,
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
    "wada_ratio",
    "euler_rank_check",
    "specialize_homology",
]


class InternalInvariantError(RuntimeError):
    """An identity the construction guarantees failed to hold."""


class TwistedChainComplex:
    """The twisted chain complex of a presentation 2-complex.

    boundary1 is r x (r g) with block columns (Phi(x_i) - Id)^T; boundary2 is
    (r g) x (r R) with blocks Phi(d r_j / d x_i)^T at block position (i, j).
    fox_matrix and d1_column expose the familiar display orientation (rows
    indexed by relators / a single block column).
    """

    __slots__ = (
        "presentation",
        "eps",
        "rho",
        "context",
        "dimension",
        "boundary1",
        "boundary2",
    )

    def __init__(self, presentation, eps, rho, boundary1, boundary2):
        self.presentation = presentation
        self.eps = eps
        self.rho = rho
        self.context = rho.context
        self.dimension = rho.dimension
        self.boundary1 = boundary1
        self.boundary2 = boundary2

    @property
    def rank0(self) -> int:
        return self.dimension

    @property
    def rank1(self) -> int:
        return self.dimension * self.presentation.generator_count

    @property
    def rank2(self) -> int:
        return self.dimension * self.presentation.relator_count

    @property
    def euler_characteristic(self) -> int:
        return self.rank0 - self.rank1 + self.rank2

    def fox_matrix(self) -> LaurentMatrix:
        """The Fox Jacobian as displayed: relator-indexed block rows, entry
        (j, i) the block Phi(d r_j / d x_i)."""
        return self.boundary2.transpose()

    def d1_column(self) -> LaurentMatrix:
        """The degree-1 boundary as displayed: generator-indexed block rows,
        one block column of Phi(x_i) - Id."""
        return self.boundary1.transpose()


def build_complex(
    presentation: Presentation, eps: Augmentation, rho: Representation
) -> TwistedChainComplex:
    """Validate the triple, assemble both boundaries, and verify d1 d2 = 0.

    The relators are walked once: the Fox pass of each relator gives its d2
    blocks and ends on (eps(r), rho(r)), and validate reads the relator
    verdicts from those ends instead of walking the letters again.  The pass
    runs only when the counts agree and no rho(x) is singular; otherwise
    validate judges the triple on its own, with the same failure texts.
    Invalid triples raise InvalidTripleError (bad input); a nonzero composite
    raises InternalInvariantError since the fundamental identity of Fox
    calculus makes it impossible for validated input.
    """
    phi = PhiMap(eps, rho)
    g = presentation.generator_count
    # fox_rows[j][i] = Phi(d r_j / d x_i), placed transposed at (i, j).
    fox_rows, images = [], None
    if len(eps.values) == g == len(rho.matrices) and not rho.singular_generators():
        images = []
        fox_rows = [phi.fox_row(rel, images=images) for rel in presentation.relators]
    report = validate(presentation, eps, rho, relator_images=images)
    if not report.ok:
        raise InvalidTripleError(report)
    ctx = rho.context
    r = rho.dimension
    eye = LaurentMatrix.identity(ctx, r)
    # Row a of d1, and row (i, a) of d2, read column a of every block in
    # their block row: the blocks are placed transposed.
    d1_blocks = [(phi.generator_image(i) - eye).entries for i in range(g)]
    boundary1 = LaurentMatrix._make(ctx, [[block[b][a] for block in d1_blocks for b in range(r)] for a in range(r)])
    boundary2 = LaurentMatrix._make(
        ctx, [[row[i].entries[b][a] for row in fox_rows for b in range(r)] for i in range(g) for a in range(r)]
    )

    if not (boundary1 * boundary2).is_zero():
        raise InternalInvariantError("boundary composite d1 d2 is nonzero")
    return TwistedChainComplex(presentation, eps, rho, boundary1, boundary2)


class AlexanderResult:
    """Homology of the twisted complex: a ModuleShape per degree.

    delta(i) is the torsion order of H_i normalized to lowest exponent zero
    and monic; ratio() is Delta_1 / Delta_0 as a reduced rational function.
    """

    __slots__ = ("h0", "h1", "h2")

    def __init__(self, h0: ModuleShape, h1: ModuleShape, h2: ModuleShape):
        self.h0 = h0
        self.h1 = h1
        self.h2 = h2

    def shape(self, i: int) -> ModuleShape:
        return (self.h0, self.h1, self.h2)[i]

    def delta(self, i: int) -> LaurentPoly:
        """Zero when H_i has positive free rank (order of a non-torsion
        module), else the product of the torsion divisors."""
        shape = self.shape(i)
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
        return f"AlexanderResult(h0={self.h0!r}, h1={self.h1!r}, h2={self.h2!r})"


def homology(complex_: TwistedChainComplex) -> AlexanderResult:
    """Homology shapes in all three degrees, exactly, from the ranks and
    divisors of the two boundaries; no kernel basis is formed.

    Over the PID R = F[t, t^-1] the image of d1 is a free submodule, so
    C1 / im d2 = H1 + im d1 splits (Munkres, Elements of Algebraic Topology,
    11): H1 is the torsion of coker d2 plus a free part of rank
    rank1 - rank d1 - rank d2.  H0 is coker d1, and H2 = ker d2 is free of
    rank rank2 - rank d2 (a submodule of a free module over a PID has zero
    torsion).  Both Smith forms run without certificates.
    """
    ctx = complex_.context
    snf1 = complex_.boundary1.smith_normal_form(certificates=False)
    snf2 = complex_.boundary2.smith_normal_form(certificates=False)
    coker2 = snf2.cokernel_shape()
    h1 = ModuleShape(ctx, coker2.free_rank - snf1.rank, coker2.divisors)
    h2 = ModuleShape(ctx, complex_.rank2 - snf2.rank, ())
    return AlexanderResult(snf1.cokernel_shape(), h1, h2)


def wada_ratio(complex_: TwistedChainComplex) -> RationalFunction:
    """Delta_1 / Delta_0 by the minor formula, bypassing homology.

    Pick a generator x_g with det(Phi(x_g) - Id) nonzero, delete its block
    column from the Fox matrix, and divide the gcd of the maximal minors of
    the remainder by that determinant.  Needs deficiency-1 presentations
    (relators = generators - 1) so the remainder is square-able: the gcd runs
    over the (r R) x (r R) minors.  Raises ValueError when no admissible
    generator exists.
    """
    pres = complex_.presentation
    if pres.relator_count != pres.generator_count - 1:
        raise ValueError("the minor formula needs a deficiency-1 presentation")
    phi = PhiMap(complex_.eps, complex_.rho)
    ctx = complex_.context
    r = complex_.dimension
    eye = LaurentMatrix.identity(ctx, r)

    chosen = None
    denom = None
    for g in range(pres.generator_count):
        det = (phi.generator_image(g) - eye).determinant()
        if not det.is_zero():
            chosen = g
            denom = det
            break
    if chosen is None:
        raise ValueError("no generator with det(Phi(x) - Id) nonzero")

    fox = complex_.fox_matrix()
    cols = list(range(chosen * r, (chosen + 1) * r))
    reduced = fox.delete_columns(cols)
    k = r * pres.relator_count
    numer = reduced.minors_gcd(k)
    return RationalFunction(numer, denom)


def euler_rank_check(complex_: TwistedChainComplex, result: AlexanderResult) -> None:
    """Alternating sum of homology free ranks must equal the chain-level
    Euler characteristic r (1 - g + R); a mismatch is an internal error."""
    lhs = result.h0.free_rank - result.h1.free_rank + result.h2.free_rank
    if lhs != complex_.euler_characteristic:
        raise InternalInvariantError(
            f"homology Euler characteristic {lhs} differs from chain value "
            f"{complex_.euler_characteristic}"
        )


def specialize_homology(complex_: TwistedChainComplex, value) -> tuple[int, int, int]:
    """Dimensions of the homology of the scalar complex at t = a (a nonzero).

    Ranks of the specialized boundaries give h_i = dim ker - dim im directly:
    h0 = r - rank d1(a), h1 = (r g - rank d1(a)) - rank d2(a),
    h2 = r R - rank d2(a).  A value from a larger cyclotomic context lifts
    the whole complex into the join context first.
    """
    from .scalars import lcm as _lcm

    boundary1 = complex_.boundary1
    boundary2 = complex_.boundary2
    if isinstance(value, CycloNumber) and value.context.conductor != complex_.context.conductor:
        big = FieldContext(_lcm([complex_.context.conductor, value.context.conductor]))
        boundary1 = boundary1.embed(big)
        boundary2 = boundary2.embed(big)
        value = value.embed(big)
    b1 = boundary1.specialize(value)
    b2 = boundary2.specialize(value)
    r1 = b1.rank()
    r2 = b2.rank()
    h0 = complex_.rank0 - r1
    h1 = (complex_.rank1 - r1) - r2
    h2 = complex_.rank2 - r2
    if h1 < 0:
        raise InternalInvariantError("specialized composite fails to vanish")
    return (h0, h1, h2)
