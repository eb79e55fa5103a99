"""Theorem-level consequences: divisibility at infinity, root fields, local
polynomials, the alpha term, and specialization dimension bounds.

For a curve transversal to the line at infinity the link at infinity is the
generalized Hopf link, so Delta_1 of the curve complement divides an explicit
product built from the representation at infinity.  The roots of Delta_1 for
unitary representations land in a computable cyclotomic extension.  Local
polynomials at singular points come from the local link groups with the
component weights applied directly as eps.  The alpha term is the
per-component correction factor in the global torsion equation, and the
dimension bound relates (t - a)-multiplicities of the Delta's to homology
dimensions of the rank-1 specialization at t = a.
"""

from __future__ import annotations

import math

from .scalars import CycloNumber, FieldContext, ScalarMatrix, lcm, totient
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    RationalFunction,
    _strip_root,
    _vanishes,
    gcd_many,
    laurent_gcd,
)
from .presentations import _FAMILIES, rank_one_representation
from .homology import (
    AlexanderResult,
    InternalInvariantError,
    TwistedChainComplex,
    build_complex,
    homology,
    specialize_homology,
)

ORDER_BOUND = 4096  # the largest multiplicative order root_field looks for

__all__ = [
    "CurveComponent",
    "Singularity",
    "CurveData",
    "infinity_bound",
    "DivisibilityReport",
    "check_divides",
    "RootFieldReport",
    "root_field",
    "extension_degree_formula",
    "LocalPolynomial",
    "local_polynomial",
    "cusp_printed_formula",
    "alpha_term",
    "DimensionBoundReport",
    "dimension_bound_check",
    "cyclotomic_factors",
]


def _ordinary_values(context: FieldContext, params, weights, values):
    (k,) = params
    if len(weights) != k:
        raise ValueError(f"ordinary {k}-point needs {k} branch weights")
    branch = values if values is not None else [context.one] * k
    if len(branch) != k:
        raise ValueError(f"ordinary {k}-point needs {k} branch scalars")
    x0 = context.one
    for s in branch:
        x0 = x0 * s
    return [x0] + branch[: k - 1]


def _a_odd_values(context: FieldContext, params, weights, values):
    (n,) = params
    if len(weights) != 2:
        raise ValueError("an A_{2n-1} point lies on two branches")
    branch = values if values is not None else [context.one] * 2
    if len(branch) != 2:
        raise ValueError(f"an A_{{2n-1}} point needs 2 branch scalars, got {len(branch)}")
    even, odd = branch
    return [even if i % 2 == 0 else odd for i in range(2 * n)] + [odd * even]


def _torus_values(context: FieldContext, params, weights, values):
    if len(weights) != 1:
        raise ValueError("a torus germ has a single branch")
    return values if values is not None else [context.one] * 2


def _cusp_values(context: FieldContext, params, weights, values):
    if len(weights) != 1:
        raise ValueError("a cusp has a single branch")
    # Both generators are meridians of the one branch, hence conjugate: a
    # rank-1 representation must give them the same value.
    scalars = values if values is not None else [context.one]
    return scalars * 2 if len(scalars) == 1 else scalars


# Each local kind: the presentation family of its germ (a _FAMILIES key),
# the family parameters the kind fixes, or None when the local line gives
# them, and its rank-1 values (context, params, weights, values) -> one
# scalar per generator, with values the given scalars as field elements, or
# None for the default of all ones.  The weights are the eps of the germ's
# branches; the family's letter count is what the job parser bounds.
_LOCAL_KINDS = {
    "node": ("hopf", (2,), _ordinary_values),
    "ordinary": ("hopf", None, _ordinary_values),
    "a_odd": ("a_odd_reduced", None, _a_odd_values),
    "torus": ("torus", None, _torus_values),
    "cusp": ("cusp", None, _cusp_values),
}


def _germ_family(kind: str, count: int, what: str):
    """(family entry, keys a line gives, parameters it fixes) of a local
    kind: the family's keys and None, or no keys and the fixed parameters.
    An unknown kind, or a count of parameters other than the keys', raises
    ValueError naming the kind after what (a local or a singularity line)."""
    if kind not in _LOCAL_KINDS:
        raise ValueError(f"unknown {what} kind {kind!r}; available: {', '.join(sorted(_LOCAL_KINDS))}")
    family, fixed, _ = _LOCAL_KINDS[kind]
    keys = _FAMILIES[family][0] if fixed is None else ()
    if count != len(keys):
        raise ValueError(f"{what} {kind} takes {len(keys)} integer parameter(s)")
    return _FAMILIES[family], keys, fixed


def _local_germ(context: FieldContext, kind: str, params, weights, scalars=None):
    """The germ triple of a local kind, built by its family at the branch
    weights; a kind, parameter count or germ the tables do not accept raises
    ValueError."""
    (_, _, build, _), _, fixed = _germ_family(kind, len(params), "local")
    params = fixed or tuple(params)
    values = None if scalars is None else [context.from_rational(s) for s in scalars]
    rank_one = _LOCAL_KINDS[kind][2](context, params, weights, values)
    pres, eps = build(*params, weights=weights)
    return pres, eps, rank_one_representation(context, pres, rank_one)


class CurveComponent:
    """One irreducible component: its degree, meridian weight, and (when an
    analysis needs them) the meridian's representation matrix and the
    component's Euler characteristic."""

    __slots__ = ("degree", "weight", "meridian", "euler")

    def __init__(self, degree: int, weight: int, meridian: ScalarMatrix | None = None, euler: int | None = None):
        if degree < 1:
            raise ValueError("component degree must be positive")
        if weight < 1:
            raise ValueError("meridian weights must be positive")
        self.degree = degree
        self.weight = weight
        self.meridian = meridian
        self.euler = euler


class Singularity:
    """A singular point: its type tag, the indices of the components through
    it, and type parameters (n for A_{2n-1}, (p, q) for torus, k for an
    ordinary k-fold point)."""

    __slots__ = ("kind", "components", "params")

    def __init__(self, kind: str, components, params=()):
        if kind not in _LOCAL_KINDS:
            raise ValueError(f"unknown singularity kind {kind!r}")
        self.kind = kind
        self.components = tuple(int(c) for c in components)
        self.params = tuple(int(p) for p in params)


class CurveData:
    """A reduced plane curve of degree d = sum of component degrees."""

    __slots__ = ("components", "singularities")

    def __init__(self, components, singularities=()):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("a curve needs at least one component")
        self.singularities = tuple(singularities)
        for s in self.singularities:
            for q in s.components:
                if not 0 <= q < len(self.components):
                    raise ValueError("singularity references a missing component")

    @property
    def degree(self) -> int:
        return sum(c.degree for c in self.components)

    @property
    def total_weight(self) -> int:
        """eps(x_0) = sum over components of degree * weight."""
        return sum(c.degree * c.weight for c in self.components)

    def line_weights(self) -> list[int]:
        """Weights of the d lines of the arrangement at infinity, expanded in
        component order: component l contributes degree(l) lines of weight
        n_l."""
        out: list[int] = []
        for c in self.components:
            out.extend([c.weight] * c.degree)
        return out

    def singular_count(self, q: int) -> int:
        return sum(1 for s in self.singularities if q in s.components)


def infinity_bound(curve: CurveData, rho_at_infinity) -> LaurentPoly:
    """The divisor bound at infinity:

        gcd(det(rho(x0) t^E - Id), det(rho(x1) t^(w1) - Id), ...,
            det(rho(x_{d-1}) t^(w_{d-1}) - Id)) * det(rho(x0) t^E - Id)^(d-2)

    with E = sum of degree * weight and w_i the line weights in component
    order (the d-th line's meridian is eliminated in the presentation, so
    only x_1 .. x_{d-1} appear alongside the central x_0).  The matrices must
    form a valid Hopf representation: x_0's image commutes with every other.
    """
    mats = list(rho_at_infinity)
    d = curve.degree
    if d < 2:
        raise ValueError(f"the bound at infinity needs a curve of degree at least 2, not {d}")
    if len(mats) != d:
        raise ValueError(f"need matrices for x0..x{d-1} ({d} of them)")
    ctx = mats[0].context
    for m in mats:
        if m.rows != m.cols or m.rows != mats[0].rows:
            raise ValueError("representation matrices must be square of equal size")
        if m.det().is_zero():
            raise ValueError("representation matrices must be invertible")
        if not mats[0].commutes_with(m):
            raise ValueError("rho(x0) must commute with every rho(x_i)")
    r = mats[0].rows
    eye = LaurentMatrix.identity(ctx, r)
    e0 = curve.total_weight
    weights = curve.line_weights()

    dets = [(LaurentMatrix.from_scalar_matrix(m, e) - eye).determinant() for m, e in zip(mats, [e0] + weights)]
    bound = gcd_many(dets) * dets[0] ** (d - 2)
    return bound.normalize()


class DivisibilityReport:
    """Verdict of an exact divisibility test, with the quotient on success or
    the residual factor of the candidate on failure."""

    __slots__ = ("candidate", "bound", "divides", "quotient", "witness")

    def __init__(self, candidate, bound, divides, quotient, witness):
        self.candidate = candidate
        self.bound = bound
        self.divides = divides
        self.quotient = quotient
        self.witness = witness

    def __repr__(self):
        if self.divides:
            return f"DivisibilityReport(divides, quotient={self.quotient})"
        return f"DivisibilityReport(fails, witness={self.witness})"


def check_divides(delta: LaurentPoly, bound: LaurentPoly) -> DivisibilityReport:
    """Does delta divide bound in F[t, t^-1]?

    On failure the witness is the factor of delta (with multiplicity) that
    remains after peeling every common factor off both sides, i.e. the part
    of delta whose multiplicity exceeds the bound's.
    """
    if bound.is_zero():
        raise ValueError("zero bound")
    if delta.is_zero():
        return DivisibilityReport(delta, bound, False, None, delta)
    quotient, remainder = divmod(bound, delta)
    if remainder.is_zero():
        return DivisibilityReport(delta, bound, True, quotient.normalize(), None)
    w = delta.normalize()
    b = bound
    while True:
        g = laurent_gcd(w, b)
        if g.is_unit():
            break
        w = w.exact_div(g).normalize()
        b = b.exact_div(g)
    return DivisibilityReport(delta, bound, False, None, w)


class RootFieldReport:
    """Where the roots of Delta_1 live for a curve of degree d transversal at
    infinity: the splitting field S of prod(t^d - lambda_i) over Q, with the
    lambda_i the eigenvalues of rho(x0)^-1.

    exact is True when every eigenvalue is a root of unity (finite-order
    matrix); then eigenvalues, their multiplicative orders, the conductor of
    S (lcm of the exact orders of all d-th roots of the lambda_i together
    with the orders themselves), the conductor of K = Q(lambda_1..lambda_r),
    and the true degree [S:K] = phi(S) / phi(K) are filled in.
    formula_degree is the displayed totient formula
    phi(lcm(d, k_1..k_r)) / phi(lcm(k_1..k_r)) evaluated on the eigenvalue
    orders; it equals the true degree when gcd(d, k_i) constraints permit and
    understates it otherwise, so both are reported.
    """

    __slots__ = (
        "exact",
        "d",
        "eigenvalues",
        "eigenvalue_orders",
        "conductor",
        "base_conductor",
        "degree",
        "formula_degree",
    )

    def __init__(self, exact, d, eigenvalues, eigenvalue_orders, conductor, base_conductor, degree, formula_degree):
        self.exact = exact
        self.d = d
        self.eigenvalues = tuple(eigenvalues)
        self.eigenvalue_orders = tuple(eigenvalue_orders)
        self.conductor = conductor
        self.base_conductor = base_conductor
        self.degree = degree
        self.formula_degree = formula_degree

    def __repr__(self):
        if not self.exact:
            return f"RootFieldReport(symbolic, d={self.d}, formula_degree={self.formula_degree})"
        return (
            f"RootFieldReport(d={self.d}, orders={self.eigenvalue_orders}, "
            f"conductor={self.conductor}, degree={self.degree}, formula_degree={self.formula_degree})"
        )


def _matrix_multiplicative_order(m: ScalarMatrix) -> int | None:
    acc = m
    eye = ScalarMatrix.identity(m.context, m.rows)
    for k in range(1, ORDER_BOUND + 1):
        if acc == eye:
            return k
        acc = acc * m
    return None


def extension_degree_formula(d: int, algebraic_orders) -> int:
    """The displayed degree formula for [S:K]:

        phi(lcm(d, k_1, ..., k_r)) / phi(lcm(k_1, ..., k_r))

    with k_i the orders of the root-of-unity eigenvalues; with none, the
    empty lcm is 1 and the value is phi(d).  The quotient is an integer:
    lcm(k_i) divides lcm(d, k_i), so its totient divides theirs.
    """
    base = lcm(int(k) for k in algebraic_orders)
    return totient(lcm([d, base])) // totient(base)


def root_field(rho_x0: ScalarMatrix, d: int) -> RootFieldReport:
    """Splitting-field data for the roots of Delta_1 (curve of degree d
    transversal at infinity, unitary-type representation).

    Exact path: rho(x0) must have multiplicative order at most ORDER_BOUND; the
    eigenvalues lambda_i of rho(x0)^-1 are then roots of unity, the inverses
    of those stripped off the characteristic polynomial of rho(x0) by
    cyclotomic_factors (no inverse matrix is formed), every d-th root of
    each lambda_i is a root of unity of computable exact order, and S is the
    cyclotomic field generated by all of them together with K.  Without such
    an order the report is symbolic only (degree formula unavailable without
    the orders).
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    order = _matrix_multiplicative_order(rho_x0)
    if order is None:
        return RootFieldReport(False, d, (), (), None, None, None, None)
    # rho(x0) and its inverse have one order, and the eigenvalues of the
    # inverse are the inverses: the roots of det(t Id - rho(x0)), all of
    # orders dividing order, with their exponents negated.  Each primitive
    # m-th root zeta_m^j is zeta_n^(j n/m) in Q(zeta_n).
    ctx = rho_x0.context
    char = (
        LaurentMatrix.identity(ctx, rho_x0.rows) * LaurentPoly.t_power(ctx, 1)
        - LaurentMatrix.from_scalar_matrix(rho_x0, 0)
    ).determinant()
    found, _ = cyclotomic_factors(char, [m for m in range(1, order + 1) if order % m == 0])
    n = lcm([ctx.conductor, order])
    exponents = sorted(-j * (n // m) % n for m, j, count in found for _ in range(count))
    if len(exponents) != rho_x0.rows:
        raise ValueError("eigenvalues not expressible as roots of unity in the ambient field")
    big = FieldContext(n)
    eigenvalues = [big.zeta(j) for j in exponents]
    # zeta_n^j has order o = n / gcd(n, j) and is zeta_o^b, b = j / gcd(n, j).
    # Its d-th roots are zeta_(d o)^(b + k o), of orders d o / gcd(d o, b + k o).
    orders: list[int] = []
    root_orders: list[int] = []
    for j in exponents:
        o, b = n // math.gcd(n, j), j // math.gcd(n, j)
        orders.append(o)
        root_orders += [d * o // math.gcd(d * o, b + k * o) for k in range(d)]
    conductor = lcm(root_orders + orders) if root_orders else 1
    base_conductor = lcm(orders) if orders else 1
    degree = totient(conductor) // totient(base_conductor)
    formula = extension_degree_formula(d, orders)
    return RootFieldReport(True, d, eigenvalues, orders, conductor, base_conductor, degree, formula)


class LocalPolynomial:
    """Twisted Alexander data of the link of one singularity type."""

    __slots__ = ("kind", "params", "weights", "delta0", "delta1", "ratio", "printed_formula", "printed_matches")

    def __init__(self, kind, params, weights, delta0, delta1, ratio, printed_formula=None, printed_matches=None):
        self.kind = kind
        self.params = params
        self.weights = weights
        self.delta0 = delta0
        self.delta1 = delta1
        self.ratio = ratio
        self.printed_formula = printed_formula
        self.printed_matches = printed_matches

    def __repr__(self):
        return f"LocalPolynomial({self.kind}{self.params}, weights={self.weights}, delta1={self.delta1})"


def cusp_printed_formula(sx: CycloNumber, sy: CycloNumber, nx: int, ny: int) -> RationalFunction:
    """The displayed cusp ratio det(rho(x)t^nx - rho(y)rho(x)t^(nx+ny) - I) /
    det(I - rho(x)t^nx) for rank-1 rho; recorded for comparison against the
    engine, never substituted for it."""
    ctx = sx.context
    num = LaurentPoly(ctx, [sx], nx) - LaurentPoly(ctx, [sy * sx], nx + ny) - LaurentPoly.one(ctx)
    den = LaurentPoly.one(ctx) - LaurentPoly(ctx, [sx], nx)
    return RationalFunction(num, den)


def local_polynomial(context: FieldContext, kind: str, weights, scalars=None, params=()) -> LocalPolynomial:
    """Delta data of the local link group of a singularity, for rank-1
    representations, with component weights applied directly as eps.

    Supported kinds (weights are per branch through the point), one entry
    each of _LOCAL_KINDS:
      node          two transversal smooth branches: Hopf(2), reported as
                    ordinary (2,)
      ordinary k    k pairwise-transversal branches: Hopf(k), params=(k,)
      a_odd n       two branches with n-th order contact, params=(n,); the
                    reduced presentation carries the computation (same H0 and
                    H1 as the full one)
      torus (p, q)  one branch, germ generators, params=(p, q); eps scales by
                    the abelianization exponents (q n, p n)
      cusp          torus (2, 3) in braid meridian generators; the printed
                    closed-form ratio is evaluated alongside and compared

    scalars: rank-1 representation values, one per presentation generator
    except where the builder determines them (Hopf x0 = product of all branch
    meridian values; a_odd b = product).  Omitted scalars default to 1.
    It builds the germ's complex and homology itself; run_job instead reads
    the complex its spec holds, the job's own when the triples are equal.
    """
    params = tuple(int(p) for p in params)
    weights = tuple(int(w) for w in weights)
    germ = build_complex(*_local_germ(context, kind, params, weights, scalars))
    return _germ_polynomial(kind, params, weights, germ, homology(germ))


def _germ_polynomial(kind: str, params, weights, germ: TwistedChainComplex, res: AlexanderResult) -> LocalPolynomial:
    """The LocalPolynomial of a local kind read off the chain complex of its
    germ, as built from _local_germ, and res, the homology of that complex.
    The caller supplies res: a job whose germ has the job's own triple
    passes the homology it already has, and local_polynomial computes it."""
    if kind == "node":
        kind, params = "ordinary", (2,)
    delta0 = res.delta(0)
    delta1 = res.delta(1)
    ratio = res.ratio() if not delta0.is_zero() else None
    printed = None
    matches = None
    if kind == "cusp":
        _, eps, rho = germ.triple
        printed = cusp_printed_formula(rho.matrices[0][0, 0], rho.matrices[1][0, 0], *eps.values)
        matches = ratio is not None and printed.unit_equal(ratio)
    return LocalPolynomial(kind, params, weights, delta0, delta1, ratio, printed, matches)


def alpha_term(curve: CurveData) -> RationalFunction:
    """The correction factor

        alpha = prod over components q of det(Id - rho(nu_q) t^eps(nu_q))
                raised to (s_q - chi(C_q))

    with s_q the number of singular points on C_q and chi its Euler
    characteristic; negative exponents stay in the denominator.  Every
    component must carry its meridian matrix and Euler characteristic.
    """
    ctx = None
    for q, comp in enumerate(curve.components):
        if comp.meridian is None or comp.euler is None:
            raise ValueError(f"component {q} is missing meridian matrix or Euler characteristic")
        ctx = comp.meridian.context if ctx is None else ctx
    num = LaurentPoly.one(ctx)
    den = LaurentPoly.one(ctx)
    for q, comp in enumerate(curve.components):
        r = comp.meridian.rows
        eye = LaurentMatrix.identity(ctx, r)
        det = (eye - LaurentMatrix.from_scalar_matrix(comp.meridian, comp.weight)).determinant()
        e = curve.singular_count(q) - comp.euler
        if e > 0:
            num = num * det**e
        elif e < 0:
            den = den * det**(-e)
    return RationalFunction(num, den)


class DimensionBoundReport:
    """Specialization dimensions at t = a against the divisors of the H_q
    that vanish at a: dim H_i(a) = free rank of H_i + n(a, i) + n(a, i-1),
    and bounds[i] = n(a, i) + n(a, i-1).  multiplicities[q] is n(a, q)."""

    __slots__ = ("value", "dims", "multiplicities", "bounds", "ok")

    def __init__(self, value, dims, multiplicities, bounds, ok):
        self.value = value
        self.dims = dims
        self.multiplicities = multiplicities
        self.bounds = bounds
        self.ok = ok

    def __repr__(self):
        return f"DimensionBoundReport(dims={self.dims}, bounds={self.bounds}, ok={self.ok})"


def dimension_bound_check(result: AlexanderResult, complex_: TwistedChainComplex, value) -> DimensionBoundReport:
    """Check dim H_i(t=a) = free rank of H_i + n(a,i) + n(a,i-1) in every
    degree i, where n(a,q) is the number of elementary divisors of H_q that
    vanish at a.  This is the universal coefficient theorem for the free
    complex over the PID R: H_i(a) = H_i / (t - a) + Tor(H_(i-1), R/(t - a)),
    and each divisor d with d(a) = 0 gives one dimension to either side,
    whatever the multiplicity of the root (R/(t - 1)^2 gives one, not two).
    So dim H_i(a) >= n(a,i) + n(a,i-1), the reported bound.  The equality
    holds for every complex, torsion or not; a violation is fatal.
    """
    if not isinstance(value, CycloNumber):
        value = complex_.context.from_rational(value)
    if value.is_zero():
        raise ValueError("specialization value must be nonzero")

    big = FieldContext(lcm([complex_.context.conductor, value.context.conductor]))
    at = value.embed(big)
    alpha = big._point_residue(at)
    counts = tuple(sum(_vanishes(d.embed(big), at, alpha) for d in shape.divisors) for shape in result.shapes)
    dims = specialize_homology(complex_, value)
    bounds = tuple(n + below for n, below in zip(counts, (0, *counts)))
    ok = all(dim == shape.free_rank + bound for dim, shape, bound in zip(dims, result.shapes, bounds))
    report = DimensionBoundReport(value, dims, counts, bounds, ok)
    if not ok:
        raise InternalInvariantError(f"dimension bound violated: {report!r}")
    return report


def cyclotomic_factors(poly: LaurentPoly, candidate_orders):
    """Strip every root-of-unity linear factor (t - zeta) with the order of
    zeta among the candidates; returns ([(order, power, multiplicity)...],
    quotient).  The factorization is complete exactly when the quotient is a
    unit.  All arithmetic happens in Q(zeta_N) for N = lcm(candidates,
    ambient conductor)."""
    orders = sorted(set(int(m) for m in candidate_orders))
    if not orders or poly.is_zero():
        return [], poly
    n = lcm(orders + [poly.context.conductor])
    big = FieldContext(n)
    work = poly.embed(big)
    found = []
    for m in orders:
        step = n // m
        for j in range(m):
            if m > 1 and math.gcd(j, m) != 1:
                continue
            count, work = _strip_root(work, big.zeta(j * step))
            if count:
                found.append((m, j, count))
    return found, work.normalize()
