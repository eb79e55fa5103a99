"""End-to-end acceptance battery: one test per numbered criterion.

Each test prints a single verdict line; run with -s (or -v for the per-test
verdicts) to see them. All comparisons are exact up to declared
unit-normalization; nothing here is tolerance-based.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import product

from oracles import (
    associates,
    certified_smith_form,
    fox_derivative,
    hopf_extra_meridian_word,
    random_a_odd_representation,
    random_hopf_representation,
    substitute_power,
)
from twistalex.homology import build_complex, homology, wada_agreement
from twistalex.laurent import LaurentMatrix, LaurentPoly, RationalFunction
from twistalex.obstructions import (
    CurveComponent,
    CurveData,
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
    PhiMap,
    Presentation,
    Representation,
    a_odd_augmentation,
    a_odd_presentation,
    a_odd_reduced_presentation,
    braid_cusp_presentation,
    hopf_augmentation,
    hopf_presentation,
    random_word,
    rank_one_representation,
    torus_germ_augmentation,
    torus_germ_presentation,
    transversal_union,
)
from twistalex.scalars import FieldContext, ScalarMatrix


Z12 = FieldContext(12)


def _t(ctx):
    return LaurentPoly.t_power(ctx, 1)


def _one(ctx):
    return LaurentPoly.one(ctx)


# ---------------------------------------------------------------------------
# Shared instance pools.  Criteria 7, 8, and 10 quantify over "the instances
# of criteria 1-4", so those instances are built once and reused.


@lru_cache(maxsize=None)
def _criterion1_instances():
    """Hopf(d), trivial rank-1 rho, eps = lk#, for d = 2..6."""
    out = []
    ctx = FieldContext(1)
    for d in (2, 3, 4, 5, 6):
        pres = hopf_presentation(d)
        eps = hopf_augmentation([1] * d)
        rho = Representation.trivial(ctx, d, 1)
        out.append((f"hopf d={d} trivial", d, build_complex(pres, eps, rho)))
    return tuple(out)


@lru_cache(maxsize=None)
def _criterion2_instances():
    """(d, r) grid with 100 scalar-family draws round-robin plus one fully
    diagonal draw per cell, all over Q(zeta_12)."""
    rng = random.Random(20260819)
    cells = list(product((2, 3, 4, 5), (1, 2, 3)))
    out = []
    for i in range(100):
        d, r = cells[i % len(cells)]
        rho = random_hopf_representation(Z12, d, r, rng, family="scalar")
        out.append((d, r, rho))
    for d, r in cells:
        rho = random_hopf_representation(Z12, d, r, rng, family="diagonal")
        out.append((d, r, rho))
    return tuple(out)


@lru_cache(maxsize=None)
def _criterion2_complexes():
    out = []
    for d, r, rho in _criterion2_instances():
        cx = build_complex(hopf_presentation(d), hopf_augmentation([1] * d), rho)
        out.append((d, r, cx, homology(cx)))
    return tuple(out)


@lru_cache(maxsize=None)
def _criterion3_triples():
    """20 random valid twisted triples on the reduced A_3 presentation."""
    rng = random.Random(311)
    pres = a_odd_reduced_presentation(2)
    eps = a_odd_augmentation(2)
    out = []
    for i in range(20):
        family = "conjugate" if i % 2 == 0 else "diagonal"
        dim = 1 + (i % 3 == 0)
        rho = random_a_odd_representation(Z12, 2, dim, rng, family=family)
        out.append((pres, eps, rho))
    return tuple(out)


@lru_cache(maxsize=None)
def _criterion4_union():
    """Union of the germs x^2 = y^3 and x^2 = y^5, transversal, twisted by a
    nontrivial square root on x and a nontrivial cube root on y."""
    ctx = FieldContext(6)
    factors = (("torus", 2, 3), ("torus", 2, 5))
    pres, eps = transversal_union(factors)
    rho = rank_one_representation(
        ctx, pres, [ctx.from_rational(-1), ctx.zeta(2), ctx.one, ctx.one]
    )
    return build_complex(pres, eps, rho)


@lru_cache(maxsize=None)
def _criterion4_smooth_pairs():
    """x^2 - y^2: two smooth transversal branches, i.e. Hopf(2), under a few
    twisted representations (both families)."""
    rng = random.Random(1212)
    out = []
    pres = hopf_presentation(2)
    eps = hopf_augmentation([1, 1])
    for family in ("scalar", "diagonal"):
        for r in (1, 2):
            rho = random_hopf_representation(Z12, 2, r, rng, family=family)
            out.append(build_complex(pres, eps, rho))
    return tuple(out)


def test_criterion_01_hopf_infinity_formula():
    # Delta_1 of Hopf(d), trivial rank-1, eps = lk#, equals
    # (t - 1)(t^d - 1)^(d-2) up to units, in under a second per case.
    for name, d, cx in _criterion1_instances():
        start = time.perf_counter()
        res = homology(cx)
        ctx = cx.context
        t, one = _t(ctx), _one(ctx)
        assert associates(res.delta(1), (t - one) * (t**d - one) ** (d - 2)), name
        assert associates(res.delta(0), t - one), name
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{name}: {elapsed:.3f}s"
    print("criterion 1: PASS - Hopf d=2..6 match (t-1)(t^d-1)^(d-2), each under 1s")


def test_criterion_02_twisted_hopf_suite():
    # 112 randomized valid representations over Q(zeta_12): the ratio equals
    # det(Phi(x0) - Id)^(d-2) and Delta_0 is the gcd of the r x r minors of
    # d1.
    checked = 0
    for d, r, cx, res in _criterion2_complexes():
        ctx = cx.context
        phi = PhiMap(*cx.triple[1:])
        eye = LaurentMatrix.identity(ctx, r)
        det0 = (phi.generator_image(0) - eye).determinant()
        expect = RationalFunction(det0 ** (d - 2), _one(ctx))
        assert res.ratio().unit_equal(expect), (d, r)
        assert associates(res.delta(0), cx.boundaries[0].minors_gcd(r)), (d, r)
        checked += 1
    assert checked == 112
    print(
        "criterion 2: PASS - 112 twisted Hopf triples: ratio = det(Phi(x0)-Id)^(d-2), "
        "Delta_0 = gcd of r x r minors"
    )


def test_criterion_03_a3_matrix_fidelity():
    # The untwisted Fox matrix of the full A_3 presentation reproduces the
    # printed 5 x 5 matrix entry-for-entry.  Generator order a0 a1 a2 a3 b;
    # the printed rows list the conjugation relators for a0, a2, a1, a3
    # first and the product relator a1 a0 = b last, which is relator order
    # (1, 3, 2, 4, 0) here.
    ctx = FieldContext(1)
    pres = a_odd_presentation(2)
    eps = a_odd_augmentation(2)
    cx = build_complex(pres, eps, Representation.trivial(ctx, 5, 1))
    fox = LaurentMatrix(ctx, list(zip(*cx.boundaries[1].entries)))

    def p(*coeffs_low):
        coeffs, low = coeffs_low
        return LaurentPoly(ctx, coeffs, low)

    zero, one_, t, t2 = (
        LaurentPoly.zero(ctx),
        _one(ctx),
        _t(ctx),
        LaurentPoly.t_power(ctx, 2),
    )
    one_minus_t = one_ - t
    printed = [
        [-one_, zero, t2, zero, one_minus_t],
        [t2, zero, -one_, zero, one_minus_t],
        [zero, -one_, zero, t2, one_minus_t],
        [zero, t2, zero, -one_, one_minus_t],
        [t, one_, zero, zero, -one_],
    ]
    row_order = (1, 3, 2, 4, 0)
    for k, row in enumerate(printed):
        for j, entry in enumerate(row):
            assert fox[row_order[k], j] == entry, (k, j)

    # 20 randomized valid twisted triples on the reduced presentation: the
    # boundary d2 has trivial kernel, hence H2 = 0.
    for pres_r, eps_r, rho in _criterion3_triples():
        cx_r = build_complex(pres_r, eps_r, rho)
        snf = cx_r.boundaries[1].smith_normal_form()
        assert snf.rank == cx_r.ranks[2]
        res = homology(cx_r)
        assert res.shapes[2].free_rank == 0 and not res.shapes[2].divisors
    print(
        "criterion 3: PASS - printed 5x5 A_3 matrix reproduced entry-for-entry; "
        "20 twisted d2 kernels trivial"
    )


def test_criterion_04_union_and_smooth_pair_regressions():
    # Torus-germ union (2,3) + (2,5) with rho = (-1, zeta_3, 1, 1):
    # Delta_1/Delta_0 = t - 1 with Delta_0 = 1.
    cx = _criterion4_union()
    res = homology(cx)
    ctx = cx.context
    t, one = _t(ctx), _one(ctx)
    assert res.delta(0).is_one()
    assert associates(res.delta(1), t - one)
    assert res.ratio().unit_equal(RationalFunction(t - one, one))
    # x^2 - y^2 (two smooth branches): ratio = 1 for every representation,
    # and Delta_0 = gcd of the two component-meridian determinants.
    for cx2 in _criterion4_smooth_pairs():
        res2 = homology(cx2)
        ctx2 = cx2.context
        assert res2.ratio().unit_equal(RationalFunction(_one(ctx2), _one(ctx2)))
        phi = PhiMap(*cx2.triple[1:])
        eye = LaurentMatrix.identity(ctx2, cx2.ranks[0])
        det1 = (phi.generator_image(1) - eye).determinant()
        det2 = (phi.word_image(hopf_extra_meridian_word(2)) - eye).determinant()
        from twistalex.laurent import laurent_gcd

        assert associates(res2.delta(0), laurent_gcd(det1, det2))
    print(
        "criterion 4: PASS - germ union gives Delta = t-1 with Delta_0 = 1; "
        "smooth pair gives Delta = 1"
    )


def test_criterion_05_fox_identity_and_exactness():
    # Phi(w) - Id = sum_g Phi(dw/dg)(Phi(g) - Id) for 200 random words over
    # 50 random valid triples; d1 d2 = 0 on every builder x representation
    # combination.
    rng = random.Random(505)
    triples = []
    for i in range(50):
        kind = i % 4
        if kind in (0, 1):
            d = rng.choice((2, 3, 4))
            r = rng.choice((1, 2))
            family = "scalar" if kind == 0 else "diagonal"
            rho = random_hopf_representation(Z12, d, r, rng, family=family)
            triples.append((hopf_presentation(d), hopf_augmentation([1] * d), rho))
        else:
            n = rng.choice((1, 2))
            family = "conjugate" if kind == 2 else "diagonal"
            rho = random_a_odd_representation(Z12, n, rng.choice((1, 2)), rng, family=family)
            triples.append((a_odd_presentation(n), a_odd_augmentation(n), rho))
    words = 0
    for pres, eps, rho in triples:
        phi = PhiMap(eps, rho)
        eye = LaurentMatrix.identity(rho.context, rho.dimension)
        for _ in range(4):
            w = random_word(pres.generator_count, 12, rng)
            lhs = phi.word_image(w) - eye
            rhs = LaurentMatrix.zero(rho.context, rho.dimension, rho.dimension)
            for g in range(pres.generator_count):
                rhs = rhs + phi.element_image(fox_derivative(w, g)) * (
                    phi.generator_image(g) - eye
                )
            assert lhs == rhs
            words += 1
    assert words == 200

    ctx6 = FieldContext(6)
    combos = []
    for d in (2, 3, 4):
        pres = hopf_presentation(d)
        eps = hopf_augmentation([1] * d)
        combos.append((pres, eps, Representation.trivial(FieldContext(1), d, 1)))
        combos.append((pres, eps, random_hopf_representation(Z12, d, 2, rng, "scalar")))
    for n in (1, 2):
        for builder in (a_odd_presentation, a_odd_reduced_presentation):
            pres = builder(n)
            eps = a_odd_augmentation(n)
            combos.append((pres, eps, Representation.trivial(FieldContext(1), 2 * n + 1, 1)))
            combos.append((pres, eps, random_a_odd_representation(Z12, n, 2, rng, "conjugate")))
    pres = torus_germ_presentation(2, 3)
    eps = torus_germ_augmentation(2, 3)
    combos.append((pres, eps, Representation.trivial(FieldContext(1), 2, 1)))
    combos.append(
        (pres, eps, rank_one_representation(ctx6, pres, [ctx6.zeta(3), ctx6.zeta(2)]))
    )
    pres = braid_cusp_presentation()
    combos.append((pres, Augmentation([1, 1]), Representation.trivial(FieldContext(1), 2, 1)))
    combos.append(
        (pres, Augmentation([1, 1]),
         rank_one_representation(ctx6, pres, [ctx6.zeta(1), ctx6.zeta(1)]))
    )
    combos.append(
        (Presentation(["x"], []), Augmentation([1]), Representation.trivial(FieldContext(1), 1, 2))
    )
    union = _criterion4_union()
    combos.append(union.triple)
    for pres, eps, rho in combos:
        cx = build_complex(pres, eps, rho)
        assert (cx.boundaries[0] * cx.boundaries[1]).is_zero()
    print(
        f"criterion 5: PASS - Fox identity on 200 words over 50 triples; "
        f"d1 d2 = 0 on {len(combos)} builder x representation combinations"
    )


def test_criterion_06_smith_form_oracle():
    # 200 random Laurent matrices (<= 4x4, entry degree <= 3): the product
    # of the first k elementary divisors matches minors_gcd(k) up to units,
    # and the divisors are those of the certified Smith form of
    # tests/oracles.py, whose U M V = D with unit-determinant U and V.
    rng = random.Random(606)
    ctx = FieldContext(1)
    for trial in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        entries = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                if rng.random() < 0.15:
                    row.append(LaurentPoly.zero(ctx))
                else:
                    span = rng.randint(1, 4)
                    coeffs = [rng.randint(-3, 3) for _ in range(span)]
                    if all(c == 0 for c in coeffs):
                        coeffs[-1] = 1
                    row.append(LaurentPoly(ctx, coeffs, rng.randint(-1, 1)))
            entries.append(row)
        m = LaurentMatrix(ctx, entries)
        snf = m.smith_normal_form()
        divisors, rank, U, V, _ = certified_smith_form(m)
        assert (snf.divisors, snf.rank) == (divisors, rank), trial
        assert U.determinant().is_unit(), trial
        assert V.determinant().is_unit(), trial
        zero = LaurentPoly.zero(ctx)
        diagonal = [[divisors[i] if i == j < rank else zero for j in range(cols)] for i in range(rows)]
        assert U * m * V == LaurentMatrix(ctx, diagonal), trial
        prod = _one(ctx)
        for k, dvs in enumerate(snf.divisors, start=1):
            prod = prod * dvs
            assert associates(prod, m.minors_gcd(k)), (trial, k)
    print("criterion 6: PASS - 200 random matrices: divisor products = minor gcds, U M V = D")


def test_criterion_07_wada_cross_check():
    # The minor formula's ratio agrees with the homology ratio on every deficiency-1
    # instance appearing in criteria 1-4.
    count = 0
    for name, _, cx in _criterion1_instances():
        assert wada_agreement(cx, None)[0].unit_equal(homology(cx).ratio()), name
        count += 1
    for d, r, cx, res in _criterion2_complexes():
        assert wada_agreement(cx, None)[0].unit_equal(res.ratio()), (d, r)
        count += 1
    for pres, eps, rho in _criterion3_triples():
        cx = build_complex(pres, eps, rho)
        assert wada_agreement(cx, None)[0].unit_equal(homology(cx).ratio())
        count += 1
    for cx in _criterion4_smooth_pairs():
        assert wada_agreement(cx, None)[0].unit_equal(homology(cx).ratio())
        count += 1
    # the union presentation has deficiency -2, so it is rightly excluded
    assert _criterion4_union().triple[0].deficiency != 1
    print(f"criterion 7: PASS - minor formula = homology ratio on {count} deficiency-1 instances")


def test_criterion_08_euler_rank():
    # wherever H0 and H1 are torsion, the free rank of H2 equals the
    # chain-level Euler characteristic chi * r.
    checked = 0
    for name, _, cx in _criterion1_instances():
        res = homology(cx)
        assert res.shapes[2].free_rank == cx.euler_characteristic == 0, name
        checked += 1
    for d, r, cx, res in _criterion2_complexes():
        if res.shapes[0].free_rank == 0 and res.shapes[1].free_rank == 0:
            assert res.shapes[2].free_rank == cx.euler_characteristic == 0, (d, r)
            checked += 1
    # full A_{2n-1} lists carry chi = r redundancy
    for n in (1, 2):
        for dim in (1, 2):
            rng = random.Random(800 + 10 * n + dim)
            pres = a_odd_presentation(n)
            eps = a_odd_augmentation(n)
            if dim == 1:
                rho = Representation.trivial(FieldContext(1), 2 * n + 1, 1)
            else:
                rho = random_a_odd_representation(Z12, n, dim, rng, "conjugate")
            cx = build_complex(pres, eps, rho)
            res = homology(cx)
            assert res.shapes[0].free_rank == 0 and res.shapes[1].free_rank == 0
            assert cx.euler_characteristic == dim
            assert res.shapes[2].free_rank == dim
            checked += 1
    # the transversal union has chi = 3 per representation dimension
    cx = _criterion4_union()
    res = homology(cx)
    assert cx.euler_characteristic == 3
    assert res.shapes[2].free_rank == 3
    checked += 1
    print(f"criterion 8: PASS - free rank H2 = chi * r on {checked} torsion instances")


def test_criterion_09_divisibility_and_root_field():
    # 50 random finite-order rank-1 Hopf triples: Delta_1 divides the bound
    # at infinity and factors completely into cyclotomics whose conductors
    # divide the root-field conductor.
    rng = random.Random(909)
    for trial in range(50):
        d = rng.choice((2, 3, 4, 5))
        pres = hopf_presentation(d)
        eps = hopf_augmentation([1] * d)
        scalars = [Z12.zeta(rng.randrange(12)) for _ in range(d)]
        rho = rank_one_representation(Z12, pres, scalars)
        cx = build_complex(pres, eps, rho)
        res = homology(cx)
        curve = CurveData([CurveComponent(degree=1, weight=1) for _ in range(d)])
        bound = infinity_bound(curve, list(rho.matrices))
        verdict = check_divides(res.delta(1), bound)
        assert verdict.divides, trial

        rf = root_field(rho.matrices[0], d)
        assert rf.exact
        candidates = [m for m in range(1, rf.conductor + 1) if rf.conductor % m == 0]
        factors, quotient = cyclotomic_factors(res.delta(1), candidates)
        assert quotient.is_unit(), trial
        for order, _power, _mult in factors:
            assert rf.conductor % order == 0, (trial, order)

    # the displayed totient degree formula on 20 parameter sets
    params = [(d, k) for d in (2, 3, 4, 5, 6) for k in (1, 2, 3, 4)]
    assert len(params) == 20
    import math

    for d, k in params:
        ctxk = FieldContext(k)
        rf = root_field(ScalarMatrix(ctxk, [[ctxk.zeta(1)]]), d)
        assert rf.formula_degree == extension_degree_formula(d, [k]), (d, k)
        if math.gcd(d, k) == 1:
            assert rf.degree == rf.formula_degree, (d, k)
        assert rf.degree >= rf.formula_degree, (d, k)
    print(
        "criterion 9: PASS - 50 finite-order triples divide the infinity bound with "
        "cyclotomic factors inside the root field; 20 degree-formula parameter sets agree"
    )


def test_criterion_10_specialization_dimension_bound():
    # dim H_i(t=a) >= N(a,i) + N(a,i-1) for every criteria 1-4 instance at
    # a = 1 and all d-th roots of unity.
    checked = 0

    def run(cx, res, d):
        nonlocal checked
        values = [cx.context.from_rational(1)]
        zd = FieldContext(d)
        values.extend(zd.zeta(j) for j in range(1, d))
        for a in values:
            report = dimension_bound_check(res, cx, a)
            assert report.ok
            checked += 1

    for name, d, cx in _criterion1_instances():
        run(cx, homology(cx), d)
    for d, r, cx, res in _criterion2_complexes():
        run(cx, res, d)
    for pres, eps, rho in _criterion3_triples():
        cx = build_complex(pres, eps, rho)
        # the A_3 deltas live in t^(weights): 4th roots cover the torsion
        run(cx, homology(cx), 4)
    cx = _criterion4_union()
    run(cx, homology(cx), 6)
    for cx in _criterion4_smooth_pairs():
        run(cx, homology(cx), 2)
    print(f"criterion 10: PASS - dimension bound holds at {checked} specialization points")


def test_criterion_11_local_weight_substitution():
    # local_polynomial at weight n equals the weight-1 polynomial under
    # t -> t^n for every supported singularity type and n in {1, 2, 3}.
    ctx = FieldContext(6)
    cases = [
        ("node", [1, 1], (), None),
        ("ordinary", [1, 1, 1], (3,), None),
        ("a_odd", [1, 1], (2,), None),
        ("torus", [1], (2, 3), None),
        ("cusp", [1], (), None),
        ("cusp", [1], (), [ctx.zeta(1)]),
        ("node", [1, 1], (), [ctx.from_rational(-1), ctx.zeta(2)]),
    ]
    checked = 0
    for kind, weights, params, scalars in cases:
        base = local_polynomial(ctx, kind, weights, scalars=scalars, params=params)
        for n in (1, 2, 3):
            scaled = local_polynomial(
                ctx, kind, [n * w for w in weights], scalars=scalars, params=params
            )
            assert associates(scaled.delta0, substitute_power(base.delta0, n)), (kind, n)
            assert associates(scaled.delta1, substitute_power(base.delta1, n)), (kind, n)
            if base.ratio is not None:
                assert scaled.ratio.unit_equal(substitute_power(base.ratio, n)), (kind, n)
            checked += 1
    print(f"criterion 11: PASS - weight n = t^n substitution on {checked} local cases")
