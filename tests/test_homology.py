"""Twisted chain complexes: boundaries, homology shapes, the minor formula."""

from __future__ import annotations

import random

import pytest

from oracles import associates, random_a_odd_representation, random_hopf_representation, rho_of_word
from twistalex.homology import (
    InternalInvariantError,
    TwistedChainComplex,
    build_complex,
    euler_rank_check,
    homology,
    specialize_homology,
    wada_agreement,
)
from twistalex.laurent import LaurentMatrix, LaurentPoly
from twistalex.obstructions import dimension_bound_check
from twistalex.presentations import (
    Augmentation,
    InvalidTripleError,
    Presentation,
    Representation,
    Word,
    a_odd_augmentation,
    a_odd_presentation,
    a_odd_reduced_presentation,
    braid_cusp_presentation,
    hopf_augmentation,
    hopf_presentation,
    rank_one_representation,
    torus_germ_presentation,
    transversal_union_augmentation,
    transversal_union_presentation,
    validate,
)
from twistalex.scalars import FieldContext


def _untwisted(pres, eps_values):
    ctx = FieldContext(1)
    eps = Augmentation(eps_values)
    rho = Representation.trivial(ctx, pres.generator_count, 1)
    return build_complex(pres, eps, rho)


def _t_poly(ctx, coeffs, low=0):
    return LaurentPoly(ctx, coeffs, low)


def test_hopf_untwisted_closed_form():
    # Delta_1 = (t - 1) * (t^d - 1)^(d-2), Delta_0 = t - 1
    for d in (2, 3, 4):
        cx = _untwisted(hopf_presentation(d), hopf_augmentation([1] * d).values)
        res = homology(cx)
        ctx = cx.context
        t = LaurentPoly.t_power(ctx, 1)
        one = LaurentPoly.one(ctx)
        expect = (t - one) * (t**d - one) ** (d - 2)
        assert associates(res.delta(1), expect)
        assert associates(res.delta(0), t - one)
        assert res.shapes[1].free_rank == 0 and res.shapes[2].free_rank == 0


def test_torus_germ_23_untwisted():
    # germ grading: eps = (3, 2); Delta_1 = t^2 - t + 1, Delta_0 = t - 1
    cx = _untwisted(torus_germ_presentation(2, 3), (3, 2))
    res = homology(cx)
    ctx = cx.context
    assert res.delta(1) == _t_poly(ctx, [1, -1, 1])
    assert res.delta(0) == _t_poly(ctx, [-1, 1])
    assert str(res.delta(1)) == "1 - t + t^2"
    assert res.shapes[2].free_rank == 0 and not res.shapes[2].divisors


def test_braid_cusp_untwisted():
    # <x, y | xyx = yxy> with both meridians weight 1 is the same germ in
    # braid coordinates: Delta_1 = t^2 - t + 1 again
    cx = _untwisted(braid_cusp_presentation(), (1, 1))
    res = homology(cx)
    ctx = cx.context
    assert res.delta(1) == _t_poly(ctx, [1, -1, 1])
    assert res.delta(0) == _t_poly(ctx, [-1, 1])


def test_wada_ratio_agrees_with_homology():
    cases = [
        _untwisted(hopf_presentation(3), (3, 1, 1)),
        _untwisted(torus_germ_presentation(2, 3), (3, 2)),
        _untwisted(torus_germ_presentation(3, 5), (5, 3)),
        _untwisted(braid_cusp_presentation(), (1, 1)),
        _untwisted(a_odd_reduced_presentation(2), a_odd_augmentation(2).values),
    ]
    for cx in cases:
        assert wada_agreement(cx, None)[0].unit_equal(homology(cx).ratio())


def test_wada_ratio_needs_deficiency_one():
    cx = _untwisted(a_odd_presentation(2), a_odd_augmentation(2).values)
    with pytest.raises(ValueError):
        wada_agreement(cx, None)


def test_circle_complement():
    # one free generator: H0 = coker(t - 1), H1 = ker = 0, no 2-cells
    pres = Presentation(["x"], [])
    cx = _untwisted(pres, (1,))
    res = homology(cx)
    ctx = cx.context
    assert res.delta(0) == _t_poly(ctx, [-1, 1])
    assert res.shapes[1].free_rank == 0 and not res.shapes[1].divisors
    assert res.delta(1).is_one()
    assert cx.ranks[2] == 0


def test_free_group_rank_two():
    # two free generators: ker d1 is free of rank 1, so Delta_1 = 0
    pres = Presentation(["x", "y"], [])
    cx = _untwisted(pres, (1, 1))
    res = homology(cx)
    assert res.shapes[1].free_rank == 1
    assert res.delta(1).is_zero()
    assert associates(res.delta(0), _t_poly(cx.context, [-1, 1]))


def test_twisted_hopf_pair_is_acyclic():
    # rank-1 rho = (-1, -1) on the two-component Hopf group: Delta_0 =
    # gcd(t^2 + 1, t + 1) = 1 since t = -1 is not a root of t^2 + 1, and the
    # remaining homology vanishes with it
    ctx = FieldContext(1)
    pres = hopf_presentation(2)
    eps = hopf_augmentation([1, 1])
    rho = rank_one_representation(ctx, pres, [-1, -1])
    res = homology(build_complex(pres, eps, rho))
    assert res.delta(0).is_one()
    assert res.delta(1).is_one()
    for i in range(3):
        assert res.shapes[i].free_rank == 0
        assert not res.shapes[i].divisors


def test_boundary_composite_vanishes_across_builders():
    rng = random.Random(55)
    ctx = FieldContext(12)
    complexes = []
    for d in (2, 3):
        rho = random_hopf_representation(ctx, d, 2, rng, family="diagonal")
        complexes.append(build_complex(hopf_presentation(d), hopf_augmentation([1] * d), rho))
    rho = random_a_odd_representation(ctx, 2, 2, rng, family="conjugate")
    complexes.append(build_complex(a_odd_presentation(2), a_odd_augmentation(2), rho))
    for cx in complexes:
        assert (cx.boundaries[0] * cx.boundaries[1]).is_zero()
        euler_rank_check(cx, homology(cx))


def test_full_a_odd_has_free_h2():
    # the full relator list carries one redundancy: chain-level Euler
    # characteristic 1, torsion H0 and H1, so H2 is free of rank 1
    cx = _untwisted(a_odd_presentation(2), a_odd_augmentation(2).values)
    assert cx.euler_characteristic == 1
    res = homology(cx)
    assert res.shapes[0].free_rank == 0 and res.shapes[1].free_rank == 0
    assert res.shapes[2].free_rank == 1
    # dropping the redundant relator kills H2 entirely
    reduced = _untwisted(a_odd_reduced_presentation(2), a_odd_augmentation(2).values)
    assert reduced.euler_characteristic == 0
    res2 = homology(reduced)
    assert res2.shapes[2].free_rank == 0 and not res2.shapes[2].divisors
    # both presentations compute the same Delta_1
    assert associates(res.delta(1), res2.delta(1))


def _three_torus():
    """The commutator presentation of Z^3 gives d_1 and d_2 of the torus T^3;
    its 3-cell adds d_3 = (t - 1) (1, -1, 1)^T.  Returns the 2-complex and
    (d_1, d_2, d_3), under trivial rho and eps = 1."""
    names = ["x", "y", "z"]
    relators = [Word.parse(text, names) for text in ("x y x^-1 y^-1", "x z x^-1 z^-1", "y z y^-1 z^-1")]
    cx2 = _untwisted(Presentation(names, relators), (1, 1, 1))
    step = _t_poly(cx2.context, [-1, 1])
    return cx2, (*cx2.boundaries, LaurentMatrix(cx2.context, [[step], [-step], [step]]))


def test_the_koszul_complex_of_the_three_torus_has_length_three():
    # With trivial rho and eps = 1 the complex of T^3 is the Koszul complex
    # of (t - 1, 0, 0), so every H_i is torsion, (F[t^+-1] / (t - 1))^C(2, i)
    # with C(2, 3) = 0.
    cx2, boundaries = _three_torus()
    ctx = cx2.context
    step = _t_poly(ctx, [-1, 1])
    cx = TwistedChainComplex(boundaries, cx2.triple)
    assert cx.ranks == (1, 3, 3, 1)
    assert cx.euler_characteristic == 0

    res = homology(cx)
    assert [shape.free_rank for shape in res.shapes] == [0, 0, 0, 0]
    assert [list(shape.divisors) for shape in res.shapes] == [[step], [step, step], [step], []]
    euler_rank_check(cx, res)

    assert specialize_homology(cx, ctx.from_rational(1)) == (1, 3, 3, 1)
    assert specialize_homology(cx, ctx.from_rational(2)) == (0, 0, 0, 0)
    report = dimension_bound_check(res, cx, 1)
    assert report.ok
    assert report.multiplicities == (1, 2, 1, 0)
    assert report.bounds == (1, 3, 3, 1)
    assert report.dims == (1, 3, 3, 1)


@pytest.mark.parametrize("k", [2, 3])
def test_a_complex_checks_every_boundary_composite(k):
    # Negating one (1 x 1) block of d_k leaves d_(k-1) d_k nonzero: the
    # complex refuses itself, whoever built it, and names the first
    # composite that fails, d2 d3 for k = 3 with d1 d2 = 0 intact.
    cx2, boundaries = _three_torus()
    entries = [list(row) for row in boundaries[k - 1].entries]
    entries[0][0] = -entries[0][0]
    broken = list(boundaries)
    broken[k - 1] = LaurentMatrix(cx2.context, entries)
    with pytest.raises(InternalInvariantError) as raised:
        TwistedChainComplex(broken, cx2.triple)
    assert str(raised.value) == f"boundary composite d{k - 1} d{k} is nonzero"


def test_specialize_homology_dimensions():
    cx = _untwisted(hopf_presentation(3), (3, 1, 1))
    ctx = cx.context
    # at t = 1 every boundary entry vanishes: dims are the chain ranks
    assert specialize_homology(cx, ctx.from_rational(1)) == (1, 3, 2)
    # at a generic value the complex is exact
    assert specialize_homology(cx, ctx.from_rational(2)) == (0, 0, 0)


def test_specialize_homology_lifts_context():
    # a cyclotomic sample point lifts a rational complex into its field
    cx = _untwisted(hopf_presentation(2), (2, 1))
    zeta3 = FieldContext(3).zeta(1)
    assert specialize_homology(cx, zeta3) == (0, 0, 0)
    assert specialize_homology(cx, cx.context.from_rational(1)) == (1, 2, 1)


def test_union_of_equal_germs_picks_up_extra_factor():
    # Two copies of the (2, 3) germ joined transversally, with the same
    # square/cube root twist that makes the distinct-germ union give t - 1.
    # Equal exponents make the second factor's determinant share a root with
    # the first, so Delta_1 gains the factor t - zeta_6^5 on top of t - 1.
    ctx = FieldContext(6)
    factors = (("torus", 2, 3), ("torus", 2, 3))
    pres = transversal_union_presentation(factors)
    eps = transversal_union_augmentation(factors, [1, 1])
    rho = rank_one_representation(
        ctx, pres, [ctx.from_rational(-1), ctx.zeta(2), ctx.one, ctx.one]
    )
    res = homology(build_complex(pres, eps, rho))
    assert res.delta(0).is_one()
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    z5 = LaurentPoly(ctx, [ctx.zeta(5)])
    assert associates(res.delta(1), (t - one) * (t - z5))


def test_specialize_rejects_zero():
    cx = _untwisted(hopf_presentation(2), (2, 1))
    with pytest.raises(ZeroDivisionError):
        specialize_homology(cx, 0)


def test_build_complex_rejects_invalid_triple():
    pres = torus_germ_presentation(2, 3)
    ctx = FieldContext(1)
    rho = Representation.trivial(ctx, 2, 1)
    with pytest.raises(InvalidTripleError):
        build_complex(pres, Augmentation([1, 1]), rho)


def _verdict_cases():
    ctx = FieldContext(6)
    z = ctx.zeta(1)
    eye, a, b = [[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [z, 1]]
    pres = Presentation(["x", "y"], [])
    power = Word.parse("x^2 y^-3", pres.generator_names)
    commutator = Word.parse("x y x^-1 y^-1", pres.generator_names)
    return {
        "eps fails": ([power], [1, 1], [eye, eye]),
        "rho fails": ([commutator], [1, 1], [a, b]),
        "rho fails, rank 1": ([power], [3, 2], [[[z**2]], [[z**3]]]),
        "both fail on two relators": ([power, commutator], [1, 1], [a, b]),
        "singular rho(x)": ([power, commutator], [1, 1], [[[1, 0], [0, 0]], eye]),
        "eps count": ([commutator], [1, 1, 1], [eye, eye]),
        "rho count": ([commutator], [1, 1], [eye, eye, eye]),
        "both counts": ([commutator], [1], [eye, eye, eye]),
        "trivial eps": ([commutator], [0, 0], [eye, eye]),
    }


def _walked_verdict(pres, eps, rho):
    # The (subject, text) of each failure, from a plain walk of each relator
    # by eps.of_word and rho_of_word: an oracle that shares no code with the
    # Fox pass that validate reads.
    g = pres.generator_count
    out = []
    if len(eps.values) != g:
        out.append((("counts", None), "eps value count differs from generator count"))
    if len(rho.matrices) != g:
        out.append((("counts", None), "representation matrix count differs from generator count"))
    if not out:
        singular = [x for x, m in enumerate(rho.matrices) if m.det().is_zero()]
        out += [(("singular", x), f"rho({pres.generator_names[x]}) is singular") for x in singular]
        for i, rel in enumerate(pres.relators):
            if eps.of_word(rel) != 0:
                out.append((("eps", i), f"eps does not kill relator {i} (value {eps.of_word(rel)})"))
            if not singular and not rho_of_word(rho, rel).is_identity():
                out.append((("rho", i), f"rho does not kill relator {i}"))
    if not eps.is_nontrivial():
        out.append((("eps", None), "eps is trivial"))
    return out


@pytest.mark.parametrize("case", sorted(_verdict_cases()))
def test_build_complex_gives_the_verdict_of_validate(case):
    # validate judges each relator on the end of its Fox pass, and
    # build_complex raises its report; both give the failures of a plain
    # walk of the relators.
    relators, eps_values, matrices = _verdict_cases()[case]
    pres = Presentation(["x", "y"], relators)
    eps = Augmentation(eps_values)
    expected = _walked_verdict(pres, eps, Representation(FieldContext(6), matrices))
    assert expected
    report = validate(pres, eps, Representation(FieldContext(6), matrices))
    with pytest.raises(InvalidTripleError) as raised:
        build_complex(pres, eps, Representation(FieldContext(6), matrices))
    for got in (report, raised.value.report):
        assert list(zip(got.subjects, got.failures)) == expected
        assert got.eps_image_index == eps.image_index()
        assert not got.ok


def test_fox_matrix_shape_and_d1_column():
    cx = _untwisted(torus_germ_presentation(2, 3), (3, 2))
    fox = LaurentMatrix(cx.context, list(zip(*cx.boundaries[1].entries)))
    assert (fox.rows, fox.cols) == (1, 2)
    ctx = cx.context
    # d(x^2 y^-3)/dx = 1 + t^3 and d/dy = -(1 + t^2 + t^4)
    assert fox[0, 0] == _t_poly(ctx, [1, 0, 0, 1])
    assert fox[0, 1] == _t_poly(ctx, [-1, 0, -1, 0, -1])
    col = LaurentMatrix(ctx, list(zip(*cx.boundaries[0].entries)))
    assert (col.rows, col.cols) == (2, 1)
    assert col[0, 0] == _t_poly(ctx, [-1, 0, 0, 1])
    assert col[1, 0] == _t_poly(ctx, [-1, 0, 1])
