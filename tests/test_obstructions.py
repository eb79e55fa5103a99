"""Divisibility bounds, root fields, local polynomials, dimension bounds."""

from __future__ import annotations

import pytest

from oracles import associates, multiplicative_order, substitute_power
from twistalex.homology import build_complex, homology
from twistalex.laurent import LaurentPoly, RationalFunction
from twistalex.obstructions import (
    CurveComponent,
    CurveData,
    Singularity,
    alpha_term,
    check_divides,
    cyclotomic_factors,
    dimension_bound_check,
    extension_degree_formula,
    infinity_bound,
    local_polynomial,
    root_field,
)
from twistalex.presentations import (
    Augmentation,
    Presentation,
    Representation,
    hopf_augmentation,
    hopf_presentation,
)
from twistalex.scalars import FieldContext, ScalarMatrix


def _line_curve(d, weights=None):
    weights = weights or [1] * d
    return CurveData([CurveComponent(degree=1, weight=w) for w in weights])


def test_infinity_bound_untwisted_lines():
    # d lines, trivial rank-1 rho: gcd(t^d - 1, t - 1, ...) * (t^d - 1)^(d-2)
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    eye = ScalarMatrix.identity(ctx, 1)
    for d in (2, 3, 4):
        bound = infinity_bound(_line_curve(d), [eye] * d)
        assert associates(bound, (t - one) * (t**d - one) ** (d - 2))


def test_infinity_bound_matches_hopf_homology():
    # the bound is attained by the generalized Hopf complement itself
    ctx = FieldContext(1)
    eye = ScalarMatrix.identity(ctx, 1)
    for d in (2, 3, 4):
        cx = build_complex(
            hopf_presentation(d),
            hopf_augmentation([1] * d),
            Representation.trivial(ctx, d, 1),
        )
        delta1 = homology(cx).delta(1)
        report = check_divides(delta1, infinity_bound(_line_curve(d), [eye] * d))
        assert report.divides
        assert report.quotient.is_one()


def test_infinity_bound_twisted_two_lines_frozen():
    # rho(x0) = -1 with E = 2, rho(x1) = i with w = 1 over Q(zeta_4):
    # gcd(det(-t^2 - 1), det(i t - 1)) = t + i, the only shared root t = -i
    ctx = FieldContext(4)
    z = ctx.zeta(1)
    m0 = ScalarMatrix(ctx, [[-1]])
    m1 = ScalarMatrix(ctx, [[z]])
    bound = infinity_bound(_line_curve(2), [m0, m1])
    t = LaurentPoly.t_power(ctx, 1)
    assert associates(bound, t + LaurentPoly.from_scalar(ctx, z))


def test_infinity_bound_refuses_a_curve_of_degree_one():
    # the bound carries det0^(d - 2), a negative power for a single line
    eye = ScalarMatrix.identity(FieldContext(1), 1)
    with pytest.raises(ValueError, match="degree at least 2, not 1"):
        infinity_bound(_line_curve(1), [eye])


def test_infinity_bound_rejects_noncommuting():
    ctx = FieldContext(1)
    a = ScalarMatrix(ctx, [[1, 1], [0, 1]])
    b = ScalarMatrix(ctx, [[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        infinity_bound(_line_curve(2), [a, b])


def test_check_divides_success_and_failure():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    good = check_divides(t - one, (t - one) * (t + one))
    assert good.divides and good.witness is None
    assert associates(good.quotient, t + one)
    bad = check_divides((t - one) ** 2, (t - one) * (t + one))
    assert not bad.divides and bad.quotient is None
    # witness: the surviving factor of the candidate after peeling the gcd
    assert associates(bad.witness, t - one)
    with pytest.raises(ValueError):
        check_divides(t - one, LaurentPoly.zero(ctx))


def test_root_field_identity_representation():
    # rho(x0) = Id, d = 5: roots are the 5th roots of unity, S = Q(zeta_5)
    ctx = FieldContext(1)
    report = root_field(ScalarMatrix.identity(ctx, 1), 5)
    assert report.exact
    assert report.eigenvalue_orders == (1,)
    assert report.conductor == 5
    assert report.base_conductor == 1
    assert report.degree == 4
    assert report.formula_degree == 4


def test_root_field_where_totient_formula_understates():
    # rho(x0) = -Id, d = 4: the 4th roots of -1 are primitive 8th roots, so
    # the true degree is phi(8)/phi(2) = 4 while the displayed totient
    # formula phi(lcm(4,2))/phi(2) gives only 2
    ctx = FieldContext(2)
    report = root_field(ScalarMatrix(ctx, [[-1]]), 4)
    assert report.exact
    assert report.eigenvalue_orders == (2,)
    assert report.conductor == 8
    assert report.degree == 4
    assert report.formula_degree == 2
    # and the k = d = 3 case: cube roots of zeta_3 are primitive 9th roots
    ctx3 = FieldContext(3)
    report3 = root_field(ScalarMatrix(ctx3, [[ctx3.zeta(1)]]), 3)
    assert report3.conductor == 9
    assert report3.degree == 3
    assert report3.formula_degree == 1


def test_root_field_symbolic_without_finite_order():
    ctx = FieldContext(1)
    report = root_field(ScalarMatrix(ctx, [[2]]), 3)
    assert not report.exact
    assert report.conductor is None


def test_extension_degree_formula_values():
    assert extension_degree_formula(5, []) == 4
    assert extension_degree_formula(4, [2]) == 2
    assert extension_degree_formula(4, [8]) == 1
    assert extension_degree_formula(3, [3]) == 1
    assert isinstance(extension_degree_formula(2, [1]), int)


def test_local_node_untwisted_ratio_one():
    ctx = FieldContext(1)
    lp = local_polynomial(ctx, "node", [1, 1])
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    assert associates(lp.delta0, t - one)
    assert associates(lp.delta1, t - one)
    assert lp.ratio.unit_equal(RationalFunction(one, one))
    assert lp.kind == "ordinary" and lp.params == (2,)


def test_local_node_acyclic_scalars():
    # branch values (-1, 1) make rho(x0) = -1 * 1 = -1 and rho(x1) = -1:
    # gcd(t^2 + 1, t + 1) = 1, so the local homology vanishes entirely
    ctx = FieldContext(1)
    lp = local_polynomial(ctx, "node", [1, 1], scalars=[-1, 1])
    assert lp.delta0.is_one()
    assert lp.delta1.is_one()
    # equal branch values (-1, -1) give rho(x0) = +1 and torsion t + 1
    lp2 = local_polynomial(ctx, "node", [1, 1], scalars=[-1, -1])
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    assert associates(lp2.delta0, t + one)
    assert lp2.ratio.unit_equal(RationalFunction(one, one))


def test_local_ordinary_triple_point():
    ctx = FieldContext(1)
    lp = local_polynomial(ctx, "ordinary", [1, 1, 1], params=(3,))
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    assert lp.ratio.unit_equal(RationalFunction(t**3 - one, one))


def test_local_torus_and_cusp_agree():
    # the cusp is the (2,3) germ in braid coordinates; same local data
    ctx = FieldContext(1)
    torus = local_polynomial(ctx, "torus", [1], params=(2, 3))
    cusp = local_polynomial(ctx, "cusp", [1])
    assert torus.delta1 == cusp.delta1
    assert torus.ratio.unit_equal(cusp.ratio)
    assert cusp.printed_matches is True
    assert torus.printed_matches is None


def test_local_cusp_twisted_printed_formula():
    ctx = FieldContext(6)
    z = ctx.zeta(1)
    lp = local_polynomial(ctx, "cusp", [1], scalars=[z])
    assert lp.printed_matches is True


def test_local_weight_is_power_substitution():
    ctx = FieldContext(1)
    for kind, base_weights, params in (
        ("node", [1, 1], ()),
        ("torus", [1], (2, 3)),
        ("a_odd", [1, 1], (2,)),
        ("cusp", [1], ()),
    ):
        base = local_polynomial(ctx, kind, base_weights, params=params)
        for n in (2, 3):
            scaled = local_polynomial(ctx, kind, [n * w for w in base_weights], params=params)
            assert associates(scaled.delta1, substitute_power(base.delta1, n))
            assert associates(scaled.delta0, substitute_power(base.delta0, n))


def test_local_rejects_bad_input():
    ctx = FieldContext(1)
    with pytest.raises(ValueError):
        local_polynomial(ctx, "node", [1])
    with pytest.raises(ValueError):
        local_polynomial(ctx, "torus", [1], params=(2, 4))
    with pytest.raises(ValueError):
        local_polynomial(ctx, "pinch", [1])


def test_local_a_odd_takes_exactly_two_branch_scalars():
    ctx = FieldContext(1)
    for scalars in ([2], [2, 3, 5]):
        with pytest.raises(ValueError, match="2 branch scalars"):
            local_polynomial(ctx, "a_odd", [1, 1], scalars=scalars, params=(1,))
    assert local_polynomial(ctx, "a_odd", [1, 1], scalars=[2, 3], params=(1,)).kind == "a_odd"


def test_alpha_term_smooth_conic():
    # one smooth conic, no singular points: exponent 0 - chi = -2, so
    # alpha = (1 - t)^(-2) for the trivial rank-1 meridian
    ctx = FieldContext(1)
    comp = CurveComponent(degree=2, weight=1, meridian=ScalarMatrix.identity(ctx, 1), euler=2)
    alpha = alpha_term(CurveData([comp]))
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    assert alpha.unit_equal(RationalFunction(one, (one - t) ** 2))
    assert not alpha.is_polynomial()


def test_alpha_term_zero_exponent():
    # two lines through one node: each has s_q = chi = 1, so alpha = 1
    ctx = FieldContext(1)
    eye = ScalarMatrix.identity(ctx, 1)
    comps = [
        CurveComponent(degree=1, weight=1, meridian=eye, euler=1),
        CurveComponent(degree=1, weight=1, meridian=eye, euler=1),
    ]
    curve = CurveData(comps, [Singularity("node", (0, 1))])
    assert curve.singular_count(0) == 1
    alpha = alpha_term(curve)
    assert alpha.is_polynomial() and alpha.numerator.is_one()


def test_alpha_term_requires_meridian_data():
    curve = CurveData([CurveComponent(degree=2, weight=1)])
    with pytest.raises(ValueError):
        alpha_term(curve)


def test_dimension_bound_hopf_at_one():
    ctx = FieldContext(1)
    cx = build_complex(
        hopf_presentation(3),
        hopf_augmentation([1, 1, 1]),
        Representation.trivial(ctx, 3, 1),
    )
    res = homology(cx)
    report = dimension_bound_check(res, cx, 1)
    assert report.ok
    # Delta_0 = t - 1 and Delta_1 = (t-1)(t^3-1) both vanish at 1
    assert report.multiplicities == (1, 2, 0)
    assert report.bounds == (1, 3, 2)
    assert report.dims == (1, 3, 2)
    generic = dimension_bound_check(res, cx, 2)
    assert generic.ok and generic.dims == (0, 0, 0)


def test_dimension_bound_holds_with_a_free_h1():
    # The free group on x, y: H0 = R/(t - 1) and H1 = R, so the universal
    # coefficient equality adds the free rank 1 of H1 to its bound.
    ctx = FieldContext(1)
    pres = Presentation(["x", "y"], [])
    cx = build_complex(pres, Augmentation([1, 1]), Representation.trivial(ctx, 2, 1))
    res = homology(cx)
    assert tuple(shape.free_rank for shape in res.shapes) == (0, 1, 0)
    report = dimension_bound_check(res, cx, 1)
    assert report.ok
    assert (report.dims, report.bounds) == ((1, 2, 0), (1, 1, 0))
    for a in (-1, 2):
        report = dimension_bound_check(res, cx, a)
        assert report.ok and report.dims == (0, 1, 0)


def test_cyclotomic_factors_complete():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    poly = (t - one) ** 2 * (t + one) * (t**2 - t + one)
    factors, quotient = cyclotomic_factors(poly, [1, 2, 6])
    assert quotient.is_unit()
    table = {(order, power): mult for order, power, mult in factors}
    assert table[(1, 0)] == 2
    assert table[(2, 1)] == 1
    assert table[(6, 1)] == 1 and table[(6, 5)] == 1


def test_cyclotomic_factors_incomplete_quotient():
    ctx = FieldContext(1)
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    factors, quotient = cyclotomic_factors((t - one) * (t + one), [2])
    assert [(o, m) for o, _, m in factors] == [(2, 1)]
    # the quotient lives in the lifted field Q(zeta_lcm(candidates))
    expect = LaurentPoly(quotient.context, [-1, 1])
    assert associates(quotient, expect)


def _root_field_cases():
    """(rho(x0), d) of every sample root-field job, then of seeded Hopf
    representations over several cyclotomic fields."""
    import random
    from pathlib import Path

    from oracles import random_hopf_representation
    from twistalex.jobs import parse_job

    for path in sorted((Path(__file__).resolve().parent.parent / "sample_jobs").glob("*.job")):
        spec = parse_job(path.read_text(encoding="utf-8"))
        if "root-field" in spec.analyses:
            yield spec.chain_complex().triple[2].matrices[0], len(spec.generator_names)
    rng = random.Random(14)
    for conductor in (1, 3, 4, 5, 6, 8, 12, 15):
        ctx = FieldContext(conductor)
        for d in (2, 3, 5):
            for family in ("scalar", "diagonal"):
                yield random_hopf_representation(ctx, d, rng.randint(1, 2), rng, family).matrices[0], d


def test_root_field_orders_are_the_eigenvalue_orders():
    exact = 0
    for m, d in _root_field_cases():
        report = root_field(m, d)
        assert len(report.eigenvalue_orders) == len(report.eigenvalues)
        for ev, order in zip(report.eigenvalues, report.eigenvalue_orders):
            assert order == multiplicative_order(ev)
        exact += report.exact
    assert exact >= 20


def test_a_root_field_job_inverts_each_generator_once(monkeypatch):
    # rho's letter table inverts every rho(x) once; root_field reads the
    # eigenvalues of rho(x0)^-1 off rho(x0) and forms no inverse of its own.
    from pathlib import Path

    from twistalex.jobs import EXIT_OK, parse_job, run_job

    calls = []
    inverse = ScalarMatrix._inverse_rows
    monkeypatch.setattr(ScalarMatrix, "_inverse_rows", lambda self: calls.append(self) or inverse(self))
    job = Path(__file__).resolve().parent.parent / "sample_jobs" / "hopf4_twisted_z12.job"
    spec = parse_job(job.read_text())
    report, code = run_job(spec, mode="check")
    assert code == EXIT_OK and "root-field" in report
    assert len(calls) == 4
