"""The one-pass Fox Jacobian row PhiMap.fox_row against the symbolic oracle
phi.element_image(fox_derivative(w, g)), and the rho(w) that ends the pass
against rho_of_word, a fold of ScalarMatrix products; the oracle's own
one-pass derivative and word images against their plain definitions, and
the check battery's row-form route through the pass against Laurent-matrix
products."""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from oracles import fox_derivative, free_reduce, random_invertible_matrix, rho_of_word
from twistalex.laurent import LaurentMatrix
from twistalex.presentations import (
    Augmentation,
    PhiMap,
    Representation,
    Word,
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
    row, image = phi.fox_row(word)
    assert image == rho_of_word(phi.rho, word), word
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
    row, _ = phi.fox_row(SPECIAL_WORDS["absent generators"])
    zero = LaurentMatrix.zero(phi.context, 2, 2)
    assert row[1] == zero and row[2] == zero
    assert row[0] != zero


def test_fox_row_of_a_cancelling_word_is_zero():
    # x y y^-1 x^-1 is trivial in the free group, so every derivative is 0.
    phi = _phi(6, 3, random.Random(11))
    row, image = phi.fox_row(Word([(0, 1), (1, 1), (1, -1), (0, -1)]))
    assert all(block.is_zero() for block in row)
    assert image.is_identity()


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
        for g, block in enumerate(phi.fox_row(w)[0]):
            rhs = rhs + block * (phi.generator_image(g) - eye)
        assert phi.word_image(w) - eye == rhs, w
        assert phi.fox_identity(w), w


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


@pytest.mark.parametrize("conductor,dimension", DENOMINATOR_FIELDS)
def test_of_word_matches_a_fold_of_scalar_products(conductor, dimension):
    rng = random.Random(11 * conductor + dimension)
    rho = _rho(conductor, dimension, rng)
    words = [random_word(GENERATORS, 0, rng), _bounded_walk(LONG, 5, rng)]
    words.append(Word([(rng.randrange(GENERATORS), rng.choice((1, -1))) for _ in range(LONG)]))
    # rho(w) as the Fox pass ends on it, under the trivial eps.
    phi = PhiMap(Augmentation([0] * GENERATORS), rho)
    for w in words:
        assert phi.fox_row(w)[1] == rho_of_word(rho, w), w
    # A word and its inverse: the product is the identity again.
    w = words[-1]
    assert phi.fox_row(w * w.inverse())[1].is_identity()


# Runs of one letter of finite order: the pass keeps a run's prefixes P A^k
# and, once P A^m = P, reads the rest of the run back.  Each case is a letter
# rho(x0) = A of order m, in a context with a random invertible rho(x1) and
# rho(x2) = A^-1, so that runs start at the identity and mid-word, next to
# runs of another letter of the same order.


def _scalar(conductor: int, k: int):
    return FieldContext(conductor).zeta(k)


FINITE_ORDER = {  # name: (conductor, rho(x0), its order)
    "one over Q": (1, [[1]], 1),
    "minus one over Q": (1, [[-1]], 2),
    "z over Q(zeta_6)": (6, [[_scalar(6, 1)]], 6),
    "z^2 over Q(zeta_6)": (6, [[_scalar(6, 2)]], 3),
    "z^3 over Q(zeta_6)": (6, [[_scalar(6, 3)]], 2),
    "z over Q(zeta_12)": (12, [[_scalar(12, 1)]], 12),
    "z^4 over Q(zeta_12)": (12, [[_scalar(12, 4)]], 3),
    "z^9 over Q(zeta_12)": (12, [[_scalar(12, 9)]], 4),
    "signed 2-cycle": (1, [[0, -1], [1, 0]], 4),
    "signed 3-cycle": (1, [[0, 0, 1], [-1, 0, 0], [0, 1, 0]], 6),
    "signed transposition in rank 3": (1, [[0, 1, 0], [1, 0, 0], [0, 0, -1]], 2),
    "z^3-twisted 2-cycle over Q(zeta_12)": (12, [[0, _scalar(12, 3)], [1, 0]], 8),
    "companion of Phi_5": (1, [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]], 5),
    "identity of rank 2": (1, [[1, 0], [0, 1]], 1),
}
UNIPOTENT = (1, [[1, 1], [0, 1]], None)  # the control: its powers never repeat


def _order(a: ScalarMatrix) -> int:
    power, m = a, 1
    while not power.is_identity():
        power, m = power * a, m + 1
    return m


def test_the_finite_order_letters_have_their_stated_orders():
    for name, (conductor, rows, order) in FINITE_ORDER.items():
        assert _order(ScalarMatrix(FieldContext(conductor), rows)) == order, name


def _run_phi(case, eps_x: int) -> PhiMap:
    conductor, rows, _ = case
    ctx = FieldContext(conductor)
    a = ScalarMatrix(ctx, rows)
    other = random_invertible_matrix(ctx, a.rows, random.Random(f"{conductor}-{rows}"))
    return PhiMap(Augmentation([eps_x, 1, -1]), Representation(ctx, [a, other, a.inverse()]))


def _run_lengths(m: int) -> list[int]:
    return sorted({n for n in (m - 1, m, m + 1, 3 * m + 2) if n > 0})


def _run_words(m: int) -> list[Word]:
    words = []
    for n in _run_lengths(m):
        for s in (1, -1):
            run = [(0, s)] * n
            words += [
                Word(run + [(1, 1), (0, s)]),  # from the identity
                Word([(1, 1), (0, -s)] + run + [(1, -1)]),  # mid-word, after the other sign
                Word([(2, s)] * n + run + [(1, s)] + run),  # after a run of another letter
            ]
    return words


@pytest.mark.parametrize("eps_x", [0, 2])
@pytest.mark.parametrize("name", sorted(FINITE_ORDER))
def test_fox_row_matches_the_oracle_on_runs_of_a_finite_order_letter(name, eps_x):
    phi = _run_phi(FINITE_ORDER[name], eps_x)
    for w in _run_words(FINITE_ORDER[name][2]):
        _assert_matches_oracle(phi, w)
        assert phi.fox_identity(w), w


@pytest.mark.parametrize("eps_x", [0, 2])
def test_fox_row_matches_the_oracle_on_runs_of_a_unipotent_letter(eps_x):
    phi = _run_phi(UNIPOTENT, eps_x)
    for w in _run_words(4):
        _assert_matches_oracle(phi, w)


def _products(monkeypatch, phi: PhiMap, word: Word) -> int:
    calls = []
    original = FieldContext._matrix_product

    def counted(self, a, b):
        calls.append(None)
        return original(self, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(FieldContext, "_matrix_product", counted)
        phi._fox_pass(word)
    return len(calls)


@pytest.mark.parametrize("name", sorted(FINITE_ORDER))
def test_a_run_makes_one_product_per_letter_up_to_the_order_of_its_letter(monkeypatch, name):
    m = FINITE_ORDER[name][2]
    phi = _run_phi(FINITE_ORDER[name], 2)
    for n in _run_lengths(m) + [10 * m + 3]:
        for s in (1, -1):
            assert _products(monkeypatch, phi, Word([(0, s)] * n)) == min(n, m), (n, s)
            # A letter of another generator between two runs restarts the count.
            assert _products(monkeypatch, phi, Word([(0, s)] * n + [(1, 1)] + [(0, s)] * n)) == 2 * min(n, m) + 1


def test_a_run_of_a_unipotent_letter_makes_one_product_per_letter(monkeypatch):
    phi = _run_phi(UNIPOTENT, 2)
    for n in (1, 2, 7, 40):
        for s in (1, -1):
            assert _products(monkeypatch, phi, Word([(0, s)] * n)) == n


# The oracle itself: fox_derivative keeps the reduced prefix as a stack, and
# PhiMap.word_image is t^eps(w) rho(w).


def _prefix_fox_derivative(word: Word, generator: int) -> dict:
    # The plain definition: each term is its prefix, reduced on its own.
    out: dict = {}
    prefix: list = []
    for g, s in word.letters:
        if g == generator:
            key = free_reduce(Word(prefix + ([] if s == 1 else [(g, -1)]))).letters
            out[key] = out.get(key, 0) + s
        prefix.append((g, s))
    return {w: c for w, c in out.items() if c}


def test_one_pass_fox_derivative_matches_the_prefix_definition():
    rng = random.Random(12)
    words = list(SPECIAL_WORDS.values()) + [
        Word([(0, 1), (0, -1)] * 4),
        Word([(0, -1), (0, 1), (0, 1), (0, -1), (0, -1)]),
        Word([(1, 1)] * 6 + [(1, -1)] * 9 + [(0, 1)] * 3),
    ]
    # Two letters in play: a random word cancels often.
    words += [Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 30))]) for _ in range(60)]
    for w in words:
        for g in range(GENERATORS):
            assert fox_derivative(w, g) == _prefix_fox_derivative(w, g), (w.letters, g)


def _uncached_image(phi: PhiMap, word: Word) -> LaurentMatrix:
    acc = LaurentMatrix.identity(phi.context, phi.dimension)
    for g, s in word.letters:
        acc = acc * (phi.generator_image(g) if s == 1 else phi.word_image(Word([(g, -1)])))
    return acc


@pytest.mark.parametrize("conductor", [1, 6, 12])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_kept_prefix_images_match_the_uncached_product(conductor, dimension):
    rng = random.Random(100 * conductor + dimension)
    phi = _phi(conductor, dimension, rng)
    base = random_word(GENERATORS, 12, rng)
    words = [Word(), base, base.inverse(), base * base.inverse()]
    for _ in range(12):
        cut = rng.randint(0, len(base.letters))
        tail = random_word(GENERATORS, 4, rng)
        words += [Word(base.letters[:cut]), Word(base.letters[:cut]) * tail, tail.inverse() * Word(base.letters[:cut])]
    rng.shuffle(words)
    for w in words + words[::-1]:
        assert phi.word_image(w) == _uncached_image(phi, w), w.letters


@pytest.mark.parametrize("conductor", [1, 6, 12])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_the_row_form_term_map_matches_the_laurent_product_route(conductor, dimension):
    # The pass ends on Phi(w) as the row-form term (eps(w), 1, rows of rho(w));
    # its derivatives are pinned against the oracle by the fox_row tests.
    rng = random.Random(1000 * conductor + dimension)
    phi = _phi(conductor, dimension, rng)
    for _ in range(40):
        w = random_word(GENERATORS, 12, rng)
        _, e, rows = phi._fox_pass(w)
        assert LaurentMatrix._from_row_terms(phi.context, [(e, 1, rows)]) == _uncached_image(phi, w), w.letters


# No shared row is written.  The pass's terms point at the rows of its
# prefixes, rho's identity among them, a run reads its kept prefixes back,
# and _from_row_terms lays a lone term out as it is, so a sum made in place
# would corrupt rho's letter table or its identity.  eps(x0) = eps(x2) = 0
# puts every term of a word in x0 and x2 on one exponent.

SHARED_ROW_CASES = {  # name: (conductor, rho(x0) of finite order, its order, rho(x1))
    "fractional signed 2-cycle over Q": (1, [[0, -2], [Fraction(1, 2), 0]], 4, [[Fraction(1, 2), 1], [0, 3]]),
    "fractional z^3-twisted 2-cycle over Q(zeta_12)": (
        12,
        [[0, _scalar(12, 3) * Fraction(1, 3)], [3, 0]],
        8,
        [[_scalar(12, 1), Fraction(1, 2)], [0, 2]],
    ),
    "z over Q(zeta_6)": (6, [[_scalar(6, 1)]], 6, [[Fraction(-1, 3)]]),
}


def _shared_row_words(m: int) -> list[Word]:
    return [
        Word([(0, 1)] * (2 * m + 1) + [(0, -1)] * (3 * m + 2)),
        Word([(0, -1)] * (m + 1) + [(2, 1)] * (2 * m) + [(0, 1)] * m),
        Word([(0, 1), (0, -1)] * 3 + [(1, 1)] + [(0, -1)] * (m + 2) + [(2, -1)] * (m + 1) + [(1, -1)]),
    ]


@pytest.mark.parametrize("name", sorted(SHARED_ROW_CASES))
def test_the_pass_writes_no_shared_row(name):
    conductor, rows, order, other = SHARED_ROW_CASES[name]
    ctx = FieldContext(conductor)
    a = ScalarMatrix(ctx, rows)
    assert _order(a) == order
    rho = Representation(ctx, [a, ScalarMatrix(ctx, other), a.inverse()])
    phi = PhiMap(Augmentation([0, 1, 0]), rho)
    table, identity = copy.deepcopy(rho._letter_rows()), copy.deepcopy(rho._identity)
    words = _shared_row_words(order)
    first = [phi.fox_row(w) for w in words]
    for w in words:
        # Some derivative has two terms on one exponent, which are summed.
        assert any(len({e for e, _, _ in terms}) < len(terms) for terms in phi._fox_pass(w)[0]), w
        assert phi.fox_identity(w), w
    for g in range(GENERATORS):
        assert phi.generator_image(g) == phi.word_image(Word([(g, 1)])), g
    assert rho._letter_rows() == table
    assert rho._identity == identity
    for w, (blocks, image) in zip(words, first):
        assert image == rho_of_word(rho, w), w
        assert phi.fox_row(w) == (blocks, image), w
        for g, block in enumerate(blocks):
            assert block == phi.element_image(fox_derivative(w, g)), (w, g)
