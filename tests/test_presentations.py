"""Words, Fox calculus, triple validation, and the curve-family builders."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import (
    fox_derivative,
    free_reduce,
    hopf_extra_meridian_word,
    random_a_odd_representation,
    random_hopf_representation,
    rho_of_word,
)
from twistalex.laurent import LaurentMatrix
from twistalex.presentations import (
    Augmentation,
    InvalidTripleError,
    PhiMap,
    Representation,
    Word,
    a_odd_augmentation,
    a_odd_presentation,
    a_odd_reduced_presentation,
    hopf_augmentation,
    hopf_presentation,
    random_word,
    rank_one_representation,
    torus_germ_augmentation,
    torus_germ_presentation,
    transversal_union,
    validate,
)
from twistalex.scalars import FieldContext, ScalarMatrix


NAMES = ["x", "y"]


def test_word_parse_and_to_text():
    w = Word.parse("x y^-1 x^2", NAMES)
    assert w.letters == ((0, 1), (1, -1), (0, 1), (0, 1))
    # powers are stored expanded, so the round trip spells them out
    assert w.to_text(NAMES) == "x y^-1 x x"
    assert Word().to_text(NAMES) == "1"
    assert Word.parse("1", NAMES) == Word() and Word.parse("x 1 y", NAMES).letters == ((0, 1), (1, 1))
    assert Word.parse("y^-3", NAMES).letters == ((1, -1),) * 3


def test_word_parse_rejects_bad_tokens():
    with pytest.raises(ValueError):
        Word.parse("q", NAMES)
    with pytest.raises(ValueError):
        Word.parse("x^0", NAMES)
    with pytest.raises(ValueError, match=r"^bad exponent in 'x\^a'$"):
        Word.parse("x^a", NAMES)


def test_word_group_operations():
    x = Word([(0, 1)])
    y = Word([(1, 1)])
    comm = x * y * x.inverse() * y.inverse()
    assert len(comm) == 4
    assert free_reduce(comm).letters
    assert not free_reduce(x * x.inverse()).letters
    assert free_reduce(comm * comm.inverse()) == Word()
    assert x**3 == Word([(0, 1)] * 3)
    assert x**-2 == Word([(0, -1)] * 2)
    assert (x**0) == Word()


def test_free_reduce_cancels_adjacent_inverses():
    w = Word([(0, 1), (1, 1), (1, -1), (0, -1), (0, 1)])
    assert free_reduce(w) == Word([(0, 1)])


def test_fox_derivative_base_cases():
    x = Word([(0, 1)])
    y = Word([(1, 1)])
    assert fox_derivative(x, 0) == {(): 1}
    assert fox_derivative(x, 1) == {}
    # d(x^-1)/dx = -x^-1
    assert fox_derivative(x.inverse(), 0) == {((0, -1),): -1}
    # d(xy)/dy = x
    assert fox_derivative(x * y, 1) == {((0, 1),): 1}


def test_fox_derivative_commutator_and_power():
    x = Word([(0, 1)])
    y = Word([(1, 1)])
    comm = x * y * x.inverse() * y.inverse()
    # d[x, y]/dx = 1 - x y x^-1
    assert fox_derivative(comm, 0) == {(): 1, ((0, 1), (1, 1), (0, -1)): -1}
    # d(x^3)/dx = 1 + x + x^2
    assert fox_derivative(x**3, 0) == {(): 1, ((0, 1),): 1, ((0, 1), (0, 1)): 1}


def test_fox_fundamental_identity_randomized():
    # Phi(w) - Id = sum_g Phi(dw/dg) * (Phi(g) - Id) for every word w
    rng = random.Random(424242)
    ctx = FieldContext(12)
    pres = hopf_presentation(3)
    eps = hopf_augmentation([1, 1, 1])
    for _ in range(10):
        rho = random_hopf_representation(ctx, 3, 2, rng, family="scalar")
        phi = PhiMap(eps, rho)
        eye = LaurentMatrix.identity(ctx, 2)
        for _ in range(8):
            w = random_word(3, 10, rng)
            lhs = phi.word_image(w) - eye
            rhs = LaurentMatrix.zero(ctx, 2, 2)
            for g in range(3):
                d = fox_derivative(w, g)
                rhs = rhs + phi.element_image(d) * (phi.generator_image(g) - eye)
            assert lhs == rhs


def test_presentation_counts_and_euler_characteristic():
    pres = hopf_presentation(4)
    assert pres.generator_count == 4
    assert pres.relator_count == 3
    assert pres.deficiency == 1
    full = a_odd_presentation(2)
    assert (full.generator_count, full.relator_count) == (5, 5)
    reduced = a_odd_reduced_presentation(2)
    assert reduced.relator_count == 4


def test_a_odd_relator_words():
    pres = a_odd_presentation(2)
    names = pres.generator_names
    spelled = [r.to_text(names) for r in pres.relators]
    assert spelled == [
        "a1 a0 b^-1",
        "b a2 b^-1 a0^-1",
        "b a3 b^-1 a1^-1",
        "b a0 b^-1 a2^-1",
        "b a1 b^-1 a3^-1",
    ]
    assert a_odd_reduced_presentation(2).relators == pres.relators[:-1]


def test_torus_germ_builder():
    pres = torus_germ_presentation(2, 3)
    assert pres.relators[0].to_text(pres.generator_names) == "x x y^-1 y^-1 y^-1"
    eps = torus_germ_augmentation(2, 3)
    assert eps.values == (3, 2)
    assert eps.of_word(pres.relators[0]) == 0
    with pytest.raises(ValueError):
        torus_germ_presentation(2, 4)


def test_hopf_extra_meridian():
    # the eliminated meridian abelianizes to the remaining weight
    for d in (2, 3, 5):
        weights = list(range(1, d + 1))
        eps = hopf_augmentation(weights)
        extra = hopf_extra_meridian_word(d)
        assert eps.of_word(extra) == weights[-1]


def test_union_builder_shape():
    factors = [("torus", 2, 3), ("line",)]
    pres, eps = transversal_union(factors)
    assert pres.generator_count == 3
    # one germ relator plus one commutator per cross-factor generator pair
    assert pres.relator_count == 3
    assert eps.values == (3, 2, 1)
    for rel in pres.relators:
        assert eps.of_word(rel) == 0
    with pytest.raises(ValueError):
        transversal_union([("torus", 2, 3)])


def test_augmentation_image_index():
    assert Augmentation([2, 4]).image_index() == 2
    assert Augmentation([2, 3]).image_index() == 1
    assert Augmentation([0, 0]).is_nontrivial() is False
    assert Augmentation([0, -1]).is_nontrivial() is True


def test_representation_of_word_and_inverses():
    # The oracle rho_of_word against values by hand, and the rho(word) that
    # ends the Fox pass against the oracle.
    ctx = FieldContext(4)
    z = ctx.zeta(1)
    rho = Representation(ctx, [[[z]], [[2]]])
    phi = PhiMap(Augmentation([0, 0]), rho)
    x = Word([(0, 1)])
    y = Word([(1, 1)])
    comm = x * y * x.inverse() * y.inverse()
    for word, value in ((x * y * x.inverse(), ctx.from_rational(2)), (x.inverse(), z.inverse()), (comm, ctx.one)):
        assert rho_of_word(rho, word)[0, 0] == value
        assert phi.fox_row(word)[1] == rho_of_word(rho, word)
    assert rho_of_word(rho, comm).is_identity()


def test_phi_map_images():
    ctx = FieldContext(4)
    pres = hopf_presentation(2)
    eps = hopf_augmentation([1, 1])
    rho = rank_one_representation(ctx, pres, [ctx.zeta(1), ctx.from_rational(2)])
    phi = PhiMap(eps, rho)
    # Phi(x0) = zeta * t^2, Phi(x1^-1) = (1/2) * t^-1
    g0 = phi.generator_image(0)
    assert g0[0, 0].coefficient(2) == ctx.zeta(1)
    g1inv = phi.word_image(Word([(1, -1)]))
    assert g1inv[0, 0].coefficient(-1) == Fraction(1, 2)
    # relators map to the identity for a valid triple
    assert phi.word_image(pres.relators[0]) == LaurentMatrix.identity(ctx, 1)


def test_validate_accepts_valid_triples():
    ctx = FieldContext(12)
    pres = hopf_presentation(3)
    eps = hopf_augmentation([1, 2, 3])
    rho = random_hopf_representation(ctx, 3, 2, random.Random(1), family="diagonal")
    report = validate(pres, eps, rho)
    assert report.ok
    assert report.eps_image_index == 1


def test_validate_rejects_bad_rho():
    ctx = FieldContext(1)
    pres = hopf_presentation(2)
    eps = hopf_augmentation([1, 1])
    # 2 and 3 commute so the relator holds; break it with non-commuting images
    bad = Representation(
        ctx,
        [
            ScalarMatrix(ctx, [[1, 1], [0, 1]]),
            ScalarMatrix(ctx, [[1, 0], [1, 1]]),
        ],
    )
    report = validate(pres, eps, bad)
    assert not report.ok
    assert any("rho does not kill relator" in f for f in report.failures)


def test_validate_flags_singular_matrix_without_crashing():
    ctx = FieldContext(1)
    pres = hopf_presentation(2)
    eps = hopf_augmentation([1, 1])
    singular = Representation(
        ctx,
        [
            ScalarMatrix(ctx, [[0]]),
            ScalarMatrix(ctx, [[1]]),
        ],
    )
    report = validate(pres, eps, singular)
    assert not report.ok
    assert any("singular" in f for f in report.failures)


def test_validate_rejects_nonvanishing_eps():
    pres = torus_germ_presentation(2, 3)
    eps = Augmentation([1, 1])  # eps(relator) = 2 - 3 = -1
    ctx = FieldContext(1)
    rho = Representation.trivial(ctx, 2, 1)
    report = validate(pres, eps, rho)
    assert not report.ok
    assert any("eps does not kill relator" in f for f in report.failures)


def test_validate_rejects_trivial_eps():
    pres = hopf_presentation(2)
    ctx = FieldContext(1)
    rho = Representation.trivial(ctx, 2, 1)
    report = validate(pres, Augmentation([0, 0]), rho)
    assert not report.ok


def test_validate_names_the_subject_of_each_failure():
    # One subject per failure, in order: what the failure blames, with the
    # generator or relator index it names.  parse_job reads a line off it.
    ctx = FieldContext(1)
    hopf, torus = hopf_presentation(3), torus_germ_presentation(2, 3)
    one, zero = ScalarMatrix(ctx, [[1]]), ScalarMatrix(ctx, [[0]])
    shear_x = ScalarMatrix(ctx, [[1, 1], [0, 1]])
    shear_y = ScalarMatrix(ctx, [[1, 0], [1, 1]])
    eye = ScalarMatrix(ctx, [[1, 0], [0, 1]])
    cases = [
        (hopf, [1, 1, 1], [one, zero, zero], [("singular", 1), ("singular", 2)]),
        (hopf, [1, 1, 1], [eye, shear_x, shear_y], []),
        (hopf, [1, 1, 1], [shear_x, shear_y, eye], [("rho", 0)]),
        (hopf, [1, 1, 1], [shear_x, eye, shear_y], [("rho", 1)]),
        (torus, [1, 1], [one, one], [("eps", 0)]),
        (torus, [1, 1], [shear_x, shear_y], [("eps", 0), ("rho", 0)]),
        (torus, [0, 0], [one, one, one], [("counts", None), ("eps", None)]),
        (torus, [1], [one, one], [("counts", None)]),
    ]
    for pres, eps_values, matrices, subjects in cases:
        report = validate(pres, Augmentation(eps_values), Representation(ctx, matrices))
        assert list(report.subjects) == subjects, report
        assert len(report.failures) == len(report.subjects)


def test_random_samplers_produce_valid_triples():
    rng = random.Random(31)
    ctx = FieldContext(12)
    for d in (2, 3, 4):
        eps = hopf_augmentation([1] * d)
        for family in ("scalar", "diagonal"):
            for _ in range(5):
                rho = random_hopf_representation(ctx, d, rng.randint(1, 3), rng, family)
                assert validate(hopf_presentation(d), eps, rho).ok
    for n in (1, 2):
        pres = a_odd_presentation(n)
        eps = a_odd_augmentation(n)
        for family in ("diagonal", "conjugate"):
            for _ in range(5):
                rho = random_a_odd_representation(ctx, n, 2, rng, family)
                assert validate(pres, eps, rho).ok


def test_invalid_triple_error_carries_report():
    pres = hopf_presentation(2)
    ctx = FieldContext(1)
    rho = Representation.trivial(ctx, 2, 1)
    report = validate(pres, Augmentation([0, 0]), rho)
    err = InvalidTripleError(report)
    assert err.report is report
    assert "eps is trivial" in str(err)


def test_random_word_respects_bounds():
    rng = random.Random(8)
    for _ in range(50):
        w = random_word(3, 6, rng)
        assert len(w) <= 6
        assert w.max_generator() < 3
