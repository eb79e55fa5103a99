"""The one-pass Fox Jacobian row PhiMap.fox_row against the symbolic oracle
phi.element_image(fox_derivative(w, g)), and Representation.of_word against
a fold of ScalarMatrix products."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from twistalex.laurent import LaurentMatrix
from twistalex.presentations import (
    Augmentation,
    PhiMap,
    Representation,
    Word,
    fox_derivative,
    random_invertible_matrix,
    random_word,
)
from twistalex.scalars import FieldContext, ScalarMatrix

GENERATORS = 3


def _phi(conductor: int, dimension: int, rng: random.Random) -> PhiMap:
    # Fox calculus lives in the free group: rho and eps need not kill any
    # relator here.
    ctx = FieldContext(conductor)
    rho = Representation(ctx, [random_invertible_matrix(ctx, dimension, rng) for _ in range(GENERATORS)])
    eps = Augmentation([rng.randint(-3, 3) for _ in range(GENERATORS)])
    return PhiMap(eps, rho)


def _assert_matches_oracle(phi: PhiMap, word: Word):
    row = phi.fox_row(word)
    assert len(row) == GENERATORS
    for g, block in enumerate(row):
        assert block == phi.element_image(fox_derivative(word, g)), (word, g)


SPECIAL_WORDS = {
    "empty": Word(),
    "cancelling pairs": Word([(0, 1), (0, -1), (1, -1), (1, 1), (0, 1), (2, 1), (2, -1), (0, -1)]),
    "absent generators": Word([(0, 1), (0, 1), (0, -1), (0, 1)]),
    "repeated inverse letters": Word([(1, -1)] * 5 + [(0, 1)] + [(1, -1)] * 3),
    "power relator": Word([(0, 1)] * 7 + [(2, -1)] * 5),
}

FIELDS = [(1, 1), (1, 2), (1, 3), (6, 1), (6, 2), (6, 3), (12, 1), (12, 2), (12, 3)]


@pytest.mark.parametrize("conductor,dimension", FIELDS)
@pytest.mark.parametrize("name", sorted(SPECIAL_WORDS))
def test_fox_row_matches_the_oracle_on_special_words(conductor, dimension, name):
    rng = random.Random(f"{conductor}-{dimension}-{name}")
    _assert_matches_oracle(_phi(conductor, dimension, rng), SPECIAL_WORDS[name])


@pytest.mark.parametrize("conductor,dimension", FIELDS)
def test_fox_row_matches_the_oracle_on_random_words(conductor, dimension):
    rng = random.Random(1000 * conductor + dimension)
    for _ in range(3):
        phi = _phi(conductor, dimension, rng)
        for _ in range(4):
            _assert_matches_oracle(phi, random_word(GENERATORS, 14, rng))


def test_absent_generators_get_the_zero_block():
    phi = _phi(12, 2, random.Random(7))
    row = phi.fox_row(SPECIAL_WORDS["absent generators"])
    zero = LaurentMatrix.zero(phi.context, 2, 2)
    assert row[1] == zero and row[2] == zero
    assert row[0] != zero


def test_fox_row_of_a_cancelling_word_is_zero():
    # x y y^-1 x^-1 is trivial in the free group, so every derivative is 0.
    phi = _phi(6, 3, random.Random(11))
    row = phi.fox_row(Word([(0, 1), (1, 1), (1, -1), (0, -1)]))
    assert all(block.is_zero() for block in row)


@pytest.mark.parametrize("conductor,dimension", [(1, 2), (6, 3), (12, 1), (12, 2)])
def test_fundamental_identity_through_the_pass(conductor, dimension):
    # Phi(w) - Id = sum_g Phi(dw/dg) (Phi(g) - Id), with the derivatives from
    # the one-pass row and Phi(w) from the word image.
    rng = random.Random(31 * conductor + dimension)
    phi = _phi(conductor, dimension, rng)
    eye = LaurentMatrix.identity(phi.context, dimension)
    words = [random_word(GENERATORS, 16, rng) for _ in range(6)] + list(SPECIAL_WORDS.values())
    for w in words:
        rhs = LaurentMatrix.zero(phi.context, dimension, dimension)
        for g, block in enumerate(phi.fox_row(w)):
            rhs = rhs + block * (phi.generator_image(g) - eye)
        assert phi.word_image(w) - eye == rhs, w


# Long words and representations with denominators: the pass keeps rho(prefix)
# and the derivative sums as integer rows over one denominator, and these
# cases make the denominators differ, meet in sums and cancel.

LONG = 600


def _bounded_walk(length: int, radius: int, rng: random.Random) -> Word:
    """A word of the given length whose prefixes freely reduce to at most
    radius letters, so that the symbolic oracle stays cheap: each letter
    cancels the last letter of the reduced prefix or extends it."""
    letters, reduced = [], []
    while len(letters) < length:
        if reduced and (len(reduced) == radius or rng.random() < 0.5):
            g, s = reduced.pop()
            letters.append((g, -s))
            continue
        letter = (rng.randrange(GENERATORS), rng.choice((1, -1)))
        if reduced and reduced[-1] == (letter[0], -letter[1]):
            continue
        reduced.append(letter)
        letters.append(letter)
    return Word(letters)


RATIONAL_RHO = {
    1: [[[2]], [[Fraction(-1, 3)]], [[Fraction(3, 2)]]],
    2: [
        [[Fraction(1, 2), 1], [0, 3]],
        [[2, 0], [Fraction(1, 3), 1]],
        [[1, Fraction(-1, 2)], [1, Fraction(1, 2)]],
    ],
}


def _rho(conductor: int, dimension: int, rng: random.Random) -> Representation:
    """Over Q the fixed non-unimodular matrices above; over Q(zeta_n) random
    integral matrices, whose inverses carry the norms of their determinants
    as denominators, one of them halved."""
    ctx = FieldContext(conductor)
    if conductor == 1:
        return Representation(ctx, RATIONAL_RHO[dimension])
    mats = [random_invertible_matrix(ctx, dimension, rng) for _ in range(GENERATORS)]
    mats[0] = mats[0] * Fraction(1, 2)
    return Representation(ctx, mats)


DENOMINATOR_FIELDS = [(1, 1), (1, 2), (5, 1), (5, 2), (5, 3), (12, 1), (12, 2), (12, 3)]


@pytest.mark.parametrize("conductor,dimension", DENOMINATOR_FIELDS)
def test_fox_row_matches_the_oracle_on_long_words_with_denominators(conductor, dimension):
    rng = random.Random(7 * conductor + dimension)
    rho = _rho(conductor, dimension, rng)
    phi = PhiMap(Augmentation([2, -1, 1]), rho)
    _assert_matches_oracle(phi, _bounded_walk(LONG, 5, rng))


@pytest.mark.parametrize("conductor", [1, 5])
def test_fox_row_matches_the_oracle_on_a_long_unreduced_power_word(conductor):
    # x^250 y^-251 x z^-100: every prefix is a distinct reduced word, so
    # rho(prefix) grows to 2^250-sized numerators and denominators.
    rng = random.Random(conductor)
    phi = PhiMap(Augmentation([1, 2, -1]), _rho(conductor, 1, rng))
    _assert_matches_oracle(phi, Word([(0, 1)] * 250 + [(1, -1)] * 251 + [(0, 1)] + [(2, -1)] * 100))


def _folded_image(rho: Representation, word: Word) -> ScalarMatrix:
    # rho(word) as a left fold of ScalarMatrix products.
    acc = ScalarMatrix.identity(rho.context, rho.dimension)
    for g, s in word.letters:
        m = rho.matrices[g]
        acc = acc * (m if s == 1 else m.inverse())
    return acc


@pytest.mark.parametrize("conductor,dimension", DENOMINATOR_FIELDS)
def test_of_word_matches_a_fold_of_scalar_products(conductor, dimension):
    rng = random.Random(11 * conductor + dimension)
    rho = _rho(conductor, dimension, rng)
    words = [random_word(GENERATORS, 0, rng), _bounded_walk(LONG, 5, rng)]
    words.append(Word([(rng.randrange(GENERATORS), rng.choice((1, -1))) for _ in range(LONG)]))
    for w in words:
        assert rho.of_word(w) == _folded_image(rho, w), w
    # A word and its inverse: the product is the identity again.
    w = words[-1]
    assert rho.of_word(w * w.inverse()).is_identity()
