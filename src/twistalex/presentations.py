"""Finitely presented groups, Fox calculus, and the evaluation map Phi.

A presentation triple consists of a finite presentation, an integer
augmentation eps (defined on generators, required to kill every relator), and
a linear representation rho (invertible matrices over the field context,
required to send every relator to the identity).  The ring map

    Phi(x) = t^eps(x) * rho(x)

turns group-ring elements into Laurent matrices; Fox derivatives of relators
assembled through Phi are the boundary data of the twisted chain complex.

Builders for the plane-curve families live here too: the generalized Hopf
link group (central generator commuting with all meridians), the A_{2n-1}
singularity link group, torus germ groups, and transversal unions of germ
factors with all cross-component commutators.  One table, _FAMILIES, says
what each family is, union included; job builders, union factors and local
germs all build from it, and each family counts its relator letters from
its parameters, before anything is built.
"""

from __future__ import annotations

import math
import random
from itertools import cycle

from .scalars import FieldContext, ScalarMatrix, _numeral
from .laurent import LaurentMatrix

__all__ = [
    "Word",
    "Presentation",
    "Augmentation",
    "Representation",
    "ValidationReport",
    "InvalidTripleError",
    "PhiMap",
    "validate",
    "hopf_presentation",
    "hopf_augmentation",
    "a_odd_presentation",
    "a_odd_reduced_presentation",
    "a_odd_augmentation",
    "torus_germ_presentation",
    "torus_germ_augmentation",
    "braid_cusp_presentation",
    "transversal_union",
    "rank_one_representation",
    "random_word",
]


class Word:
    """A word in a free group: a tuple of (generator index, sign) letters.

    Words are stored as written (unreduced) and never reduced, since Fox
    derivatives are computed on the letters as given.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple((int(g), int(s)) for g, s in letters)
        for g, s in letters:
            if g < 0 or s not in (1, -1):
                raise ValueError(f"bad letter ({g}, {s})")
        self.letters = letters

    @classmethod
    def parse(cls, text: str, generator_names) -> Word:
        """Parse the word grammar: whitespace-separated letters ``name`` or
        ``name^-1`` (any nonzero integer exponent is accepted).  The token
        ``1``, as to_text writes the empty word, adds no letter."""
        index = {name: i for i, name in enumerate(generator_names)}
        letters: list[tuple[int, int]] = []
        for token in text.split():
            if token == "1":
                continue
            if "^" in token:
                name, _, exp_s = token.partition("^")
                try:
                    exp = _numeral(exp_s)
                except ValueError:
                    raise ValueError(f"bad exponent in {token!r}") from None
            else:
                name, exp = token, 1
            if name not in index:
                raise ValueError(f"unknown generator {name!r}")
            if exp == 0:
                raise ValueError(f"zero exponent in {token!r}")
            sign = 1 if exp > 0 else -1
            letters.extend([(index[name], sign)] * abs(exp))
        return cls(letters)

    def to_text(self, generator_names) -> str:
        if not self.letters:
            return "1"
        return " ".join(
            generator_names[g] + ("" if s == 1 else "^-1") for g, s in self.letters
        )

    def __mul__(self, other: Word) -> Word:
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def inverse(self) -> Word:
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, n: int) -> Word:
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        return Word(base.letters * abs(n))

    def max_generator(self) -> int:
        return max((g for g, _ in self.letters), default=-1)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({self.letters})"


class Presentation:
    """A finite presentation: named generators and a list of relator words."""

    __slots__ = ("generator_names", "relators")

    def __init__(self, generator_names, relators):
        self.generator_names = tuple(str(n) for n in generator_names)
        if len(set(self.generator_names)) != len(self.generator_names):
            raise ValueError("duplicate generator names")
        self.relators = tuple(relators)
        for r in self.relators:
            if not isinstance(r, Word):
                raise ValueError("relators must be Words")
            if r.max_generator() >= len(self.generator_names):
                raise ValueError("relator uses an undeclared generator")

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)

    @property
    def relator_count(self) -> int:
        return len(self.relators)

    @property
    def deficiency(self) -> int:
        return self.generator_count - self.relator_count

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self.generator_names == other.generator_names
            and self.relators == other.relators
        )

    def __repr__(self):
        rels = ", ".join(r.to_text(self.generator_names) for r in self.relators)
        return f"<{' '.join(self.generator_names)} | {rels}>"


class Augmentation:
    """An integer value per generator, i.e. a homomorphism to Z from the free
    group; validity against the relators is checked by validate()."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(int(v) for v in values)

    def of_word(self, word: Word) -> int:
        return sum(s * self.values[g] for g, s in word.letters)

    def is_nontrivial(self) -> bool:
        return any(v != 0 for v in self.values)

    def image_index(self) -> int:
        """Index of the image subgroup in Z: gcd of the values (0 if trivial).
        Surjective iff 1; the cokernel is cyclic of this order."""
        return math.gcd(*self.values)

    def __eq__(self, other):
        if not isinstance(other, Augmentation):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        return f"Augmentation{self.values}"


class Representation:
    """An invertible matrix over the field context per generator."""

    __slots__ = ("context", "dimension", "matrices", "_letters", "_identity")

    def __init__(self, context: FieldContext, matrices):
        self.context = context
        mats = []
        for m in matrices:
            if not isinstance(m, ScalarMatrix):
                m = ScalarMatrix(context, m)
            if m.rows != m.cols:
                raise ValueError("representation matrices must be square")
            mats.append(m)
        if not mats:
            raise ValueError("a representation needs at least one generator")
        self.dimension = mats[0].rows
        for m in mats:
            if m.rows != self.dimension:
                raise ValueError("representation matrices must share one dimension")
        self.matrices = tuple(mats)
        self._letters = None
        self._identity = ScalarMatrix.identity(context, self.dimension)._rows()

    @classmethod
    def trivial(cls, context: FieldContext, generator_count: int, dimension: int = 1):
        eye = ScalarMatrix.identity(context, dimension)
        return cls(context, [eye] * generator_count)

    def singular_generators(self) -> tuple[int, ...]:
        """The generators whose matrix is singular: those without an
        inverse in the letter table (_letter_rows)."""
        table = self._letter_rows()
        return tuple(g for g in range(len(self.matrices)) if (g, -1) not in table)

    def _letter_rows(self) -> dict:
        """The dict from each letter (g, sign) to rho(x_g)^sign in the
        (entries, den) row form of FieldContext._matrix_product, formed
        once, on first use.  The inverse is formed in that form
        (ScalarMatrix._inverse_rows): up to rank 3 the adjugate over the
        determinant, one cofactor of det per generator, and fraction-free
        Gauss-Jordan above.  A singular rho(x_g) has no inverse, so its
        (g, -1) is left out."""
        table = self._letters
        if table is None:
            table = self._letters = {}
            for g, m in enumerate(self.matrices):
                table[g, 1] = m._rows()
                try:
                    table[g, -1] = m._inverse_rows()
                except ZeroDivisionError:
                    pass
        return table

    def __repr__(self):
        return f"Representation(dim={self.dimension}, generators={len(self.matrices)})"


class PhiMap:
    """The ring map Phi(x) = t^eps(x) * rho(x) from the group ring into
    r x r Laurent matrices.  Generator images come from the letter table of
    rho (Representation._letter_rows).  _fox_pass is the one evaluator of
    Fox derivatives under Phi: validate reads the rows of d2 and the
    relator verdicts off it through fox_row, and the check battery's
    fox-identity check through fox_identity.  word_image and element_image
    form each rho(word) as a product of the public ScalarMatrix rho(x) and
    their inverses, apart from the row form of _fox_pass; no job calls
    them.  They put the tests' symbolic Fox derivative (tests/oracles.py)
    under Phi, the oracle of _fox_pass.

    Inside, Phi of a word is carried as the pair (e, rows), rows the integer
    row form of FieldContext._matrix_product, and a group-ring element as
    the list of its signed terms (e, +-1, rows), unsummed; a LaurentMatrix
    is built only for what the public methods return.  A run of one letter of finite
    order reads its repeated prefixes back (_fox_pass)."""

    __slots__ = ("context", "dimension", "eps", "rho")

    def __init__(self, eps: Augmentation, rho: Representation):
        self.context = rho.context
        self.dimension = rho.dimension
        self.eps = eps
        self.rho = rho

    def generator_image(self, g: int) -> LaurentMatrix:
        rows = self.rho._letter_rows()[g, 1]
        return LaurentMatrix._from_row_terms(self.context, [(self.eps.values[g], 1, rows)])

    def word_image(self, word: Word) -> LaurentMatrix:
        """Phi(word) = t^eps(word) * rho(word), rho(word) the ScalarMatrix
        product of rho(x) or its inverse over the letters."""
        image = ScalarMatrix.identity(self.context, self.dimension)
        for g, s in word.letters:
            m = self.rho.matrices[g]
            image = image * (m if s == 1 else m.inverse())
        return LaurentMatrix.from_scalar_matrix(image, self.eps.of_word(word))

    def element_image(self, element: dict[tuple, int]) -> LaurentMatrix:
        """Phi of a group-ring element given as {letters: coefficient}: the
        sum of its word images."""
        total = LaurentMatrix.zero(self.context, self.dimension, self.dimension)
        for letters, coeff in element.items():
            total = total + self.word_image(Word(letters)) * coeff
        return total

    def _fox_pass(self, word: Word):
        """(sums, e, rows): sums[g] the list of signed terms (e, +-1, rows)
        of Phi(d word / d x_g) for every generator g, one per letter of x_g
        in letter order, and (e, rows) Phi(word), in one left-to-right pass.

        Phi(prefix) = t^e * rho(prefix) is carried as the integer e and
        rho(prefix) in the integer row form of FieldContext._matrix_product.
        By the product rule of Fox calculus, a letter x_g after the prefix u
        adds u to the derivative by x_g, and a letter x_g^-1 adds -u x_g^-1.
        So a letter x_g appends (e, 1, rows of the prefix), and a letter
        x_g^-1 first advances the prefix and then appends (e, -1, rows of
        prefix x_g^-1).  The terms share the prefix rows, which nothing
        writes; the pass makes no sum and builds no field element, and
        LaurentMatrix._from_row_terms sums each exponent once.  A run of one
        letter keeps its prefixes P A^k, A = rho(x_g)^+-1, from its second
        letter on; the row form is canonical, so once P A^m is P the run
        reads P A^j back: at most ord(A) products."""
        product, table = self.context._matrix_product, self.rho._letter_rows()
        values = self.eps.values
        e = 0
        prefix = self.rho._identity
        sums: list[list] = [[] for _ in values]
        last = None
        for letter in word.letters:
            g, s = letter
            before = prefix
            if letter != last:
                last, first, run, kept = letter, prefix, None, None
                prefix = product(prefix, table[letter])
            elif kept:
                prefix = next(kept)
            else:
                run = run or []
                run.append(prefix)
                kept = cycle(run) if prefix == first else None
                prefix = next(kept) if kept else product(prefix, table[letter])
            if s == 1:
                sums[g].append((e, 1, before))
                e += values[g]
            else:
                e -= values[g]
                sums[g].append((e, -1, prefix))
        return sums, e, prefix

    def fox_row(self, word: Word) -> tuple[list[LaurentMatrix], ScalarMatrix]:
        """(blocks, image) from one pass (_fox_pass): blocks[g] is
        Phi(d word / d x_g) for every generator g, assembled from the rows
        once at the end (the zero block for a generator that does not
        occur), and image is rho(word), where the pass ends."""
        ctx = self.context
        sums, _, rows = self._fox_pass(word)
        zero = LaurentMatrix.zero(ctx, self.dimension, self.dimension)
        blocks = [LaurentMatrix._from_row_terms(ctx, terms) if terms else zero for terms in sums]
        return blocks, ScalarMatrix._from_rows(ctx, *rows)

    def fox_identity(self, word: Word) -> bool:
        """Whether Phi(w) - Id = sum_g Phi(dw/dg) (Phi(g) - Id), Fox's
        fundamental identity, holds on the pass of word (_fox_pass); for a
        relator it is d1 d2 = 0.  The difference of the two sides is summed
        into one integer list per t-exponent, every matrix entry's
        coordinates in a row, over one common denominator: each signed term
        of the pass once as it is and once times -rho(x_g), shifted by
        eps(x_g).  It is zero exactly when every list is."""
        ctx, values = self.context, self.eps.values
        product = ctx._matrix_product
        steps = self.rho._letter_rows()
        sums, e, rows = self._fox_pass(word)
        # The denominator of a product divides the product of its factors'.
        den = math.lcm(rows[1], *(r[1] * steps[g, 1][1] for g, terms in enumerate(sums) for _, _, r in terms))
        diff: dict = {}

        def add(e, rows, sign):
            entries, d = rows
            factor = sign * (den // d)
            acc = diff.get(e)
            if acc is None:
                diff[e] = [factor * x for row in entries for entry in row for x in entry]
                return
            k = 0
            for row in entries:
                for entry in row:
                    for x in entry:
                        acc[k] += factor * x
                        k += 1

        add(e, rows, 1)
        add(0, self.rho._identity, -1)
        for g, terms in enumerate(sums):
            shift, step = values[g], steps[g, 1]
            for e, sign, rows in terms:
                add(e, rows, sign)
                add(e + shift, product(rows, step), -sign)
        return not any(any(acc) for acc in diff.values())


class ValidationReport:
    """Outcome of checking a (presentation, eps, rho) triple.

    subjects[k] names what failures[k] blames: ("counts", None) for a count
    that differs from the generator count, ("singular", g) for a singular
    rho(x_g), ("eps", i) or ("rho", i) for a relator i that eps or rho does
    not kill, and ("eps", None) for a trivial eps.  fox_rows[j] is the
    fox_row blocks of relator j, the rows of d2, or None when the pass could
    not run (a count differs or some rho(x) is singular)."""

    __slots__ = ("ok", "failures", "subjects", "eps_image_index", "fox_rows")

    def __init__(self, ok, failures, eps_image_index, subjects, fox_rows):
        self.ok = ok
        self.failures = tuple(failures)
        self.subjects = tuple(subjects)
        self.eps_image_index = eps_image_index
        self.fox_rows = fox_rows

    def __repr__(self):
        status = "ok" if self.ok else "invalid: " + "; ".join(self.failures)
        return f"ValidationReport({status})"


class InvalidTripleError(ValueError):
    """A triple failed validation; the report is attached."""

    def __init__(self, report: ValidationReport):
        super().__init__("; ".join(report.failures) or "invalid triple")
        self.report = report


def validate(pres: Presentation, eps: Augmentation, rho: Representation) -> ValidationReport:
    """Check eps(relator) = 0 and rho(relator) = Id exactly for every relator,
    plus shape agreement and a nontrivial eps; reports the cokernel order of
    eps, its image index (a non-surjective eps is legal).

    The counts and the singular rho(x) are checked first, and eps(r) is the
    letter sum of each relator.  When no rho(x) is singular (a singular one
    has no inverse), one Fox pass per relator (PhiMap.fox_row) gives rho(r),
    judged here, and the relator's d2 blocks, kept as the report's fox_rows."""
    failures = []  # (subject, text)
    fox_rows = None
    if len(eps.values) != pres.generator_count:
        failures.append((("counts", None), "eps value count differs from generator count"))
    if len(rho.matrices) != pres.generator_count:
        failures.append((("counts", None), "representation matrix count differs from generator count"))
    if not failures:
        singular = rho.singular_generators()
        failures += [(("singular", g), f"rho({pres.generator_names[g]}) is singular") for g in singular]
        if not singular:
            phi, fox_rows = PhiMap(eps, rho), []
        for i, rel in enumerate(pres.relators):
            v = eps.of_word(rel)
            if v != 0:
                failures.append((("eps", i), f"eps does not kill relator {i} (value {v})"))
            if fox_rows is not None:
                blocks, image = phi.fox_row(rel)
                fox_rows.append(blocks)
                if not image.is_identity():
                    failures.append((("rho", i), f"rho does not kill relator {i}"))
    if not eps.is_nontrivial():
        failures.append((("eps", None), "eps is trivial"))
    subjects, texts = zip(*failures) if failures else ((), ())
    return ValidationReport(not failures, texts, eps.image_index(), subjects, fox_rows)


# ---------------------------------------------------------------------------
# Builders for the plane-curve families.


def hopf_presentation(d: int) -> Presentation:
    """The generalized Hopf link group on generators x0, ..., x(d-1) with
    relators [x0, xi]: x0 is central, the other generators are free."""
    if d < 2:
        raise ValueError("the Hopf family needs d >= 2")
    names = [f"x{i}" for i in range(d)]
    relators = []
    for i in range(1, d):
        relators.append(Word([(0, 1), (i, 1), (0, -1), (i, -1)]))
    return Presentation(names, relators)


def hopf_augmentation(weights) -> Augmentation:
    """eps from one meridian weight per link component (d of them): the
    generators x1..x(d-1) carry the first d-1 weights and the central x0 is
    the full meridian product, so eps(x0) is the sum of all d weights."""
    weights = [int(w) for w in weights]
    if len(weights) < 2:
        raise ValueError("need at least two meridian weights")
    return Augmentation([sum(weights)] + weights[:-1])


def a_odd_presentation(n: int) -> Presentation:
    """The link group of the A_{2n-1} singularity germ (two smooth branches
    with contact of order n): generators a0..a(2n-1) and b, relators
    a1*a0*b^-1 and b*a(i+2 mod 2n)*b^-1*a(i)^-1 for each i."""
    if n < 1:
        raise ValueError("the A family needs n >= 1")
    m = 2 * n
    names = [f"a{i}" for i in range(m)] + ["b"]
    beta = m
    relators = [Word([(1, 1), (0, 1), (beta, -1)])]
    for i in range(m):
        relators.append(Word([(beta, 1), ((i + 2) % m, 1), (beta, -1), (i, -1)]))
    return Presentation(names, relators)


def a_odd_reduced_presentation(n: int) -> Presentation:
    """The A_{2n-1} presentation with its one redundant relator dropped.

    In the full list the final wrap-around conjugation relator is a
    consequence of the others: eliminating b, a2..a(2n-1) by the first 2n
    relators turns both wrap-around relators into conjugates of the single
    relation (a1 a0)^n = (a0 a1)^n, so either one may go.  The reduced
    presentation has deficiency 1 and Euler characteristic 0, matching the
    curve complement; it is the complex on which the boundary d2 is
    injective.
    """
    full = a_odd_presentation(n)
    return Presentation(full.generator_names, full.relators[:-1])


def a_odd_augmentation(n: int, even_weight: int = 1, odd_weight: int = 1) -> Augmentation:
    """Meridian weights per branch: even-index generators lie on one branch,
    odd-index on the other; b = a1*a0 carries the sum."""
    m = 2 * n
    values = [even_weight if i % 2 == 0 else odd_weight for i in range(m)]
    values.append(even_weight + odd_weight)
    return Augmentation(values)


def torus_germ_presentation(p: int, q: int) -> Presentation:
    """The germ group <x, y | x^p = y^q> of the irreducible singularity
    x^p - y^q (gcd(p, q) = 1)."""
    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise ValueError("torus germ parameters need p, q >= 2 coprime")
    relator = Word([(0, 1)] * p + [(1, -1)] * q)
    return Presentation(["x", "y"], [relator])


def torus_germ_augmentation(p: int, q: int, weight: int = 1) -> Augmentation:
    """With meridian weight n on the single branch: x abelianizes to q
    meridians and y to p, so eps = (q*n, p*n)."""
    return Augmentation([q * weight, p * weight])


def braid_cusp_presentation() -> Presentation:
    """The cusp germ group in meridian generators: <x, y | xyx = yxy>."""
    relator = Word([(0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1)])
    return Presentation(["x", "y"], [relator])


def _integer_parameter(text: str, name: str) -> int:
    """An integer parameter from its job text, read for name (line and key)."""
    try:
        return _numeral(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


# A parameter type: the placeholder of a value in "needs key=...", the
# parser (job text, name) -> value, which raises ValueError in the job's
# words, a value's canonical text, and its size, which the letter budget sums.
_INTEGER = ("<int>", _integer_parameter, str, abs)

# Each union factor kind: the family it is built from, at unit weight, and
# the generators it adds.
_UNION_FACTORS = {"torus": ("torus", 2), "cusp": ("cusp", 2), "line": ("circle", 1)}

_UNION_NAME_POOL = "xyzwuvabcdefgh"


def _union_factors(factors):
    """Normalize union factors, given as tuples ('torus', p, q) | ('cusp',) |
    ('line',) or as their job text ``torus:p:q,cusp,line``; a union has at
    least two factors and at most 14 generators."""
    if isinstance(factors, str):
        factors = [part.strip().split(":") for part in factors.split(",")]
    parsed = []
    for f in factors:
        kind, *params = f
        try:
            if kind not in _UNION_FACTORS or len(params) != len(_FAMILIES[_UNION_FACTORS[kind][0]][0]):
                raise ValueError
            parsed.append((kind, *(_numeral(str(x)) for x in params)))
        except ValueError:
            raise ValueError(f"bad union factor {':'.join(map(str, f))!r} (torus:p:q, cusp, or line)") from None
    if len(parsed) < 2:
        raise ValueError("a transversal union needs at least two factors")
    count = sum(_UNION_FACTORS[kind][1] for kind, *_ in parsed)
    if count > len(_UNION_NAME_POOL):
        raise ValueError(f"a transversal union has {count} generators; the limit is {len(_UNION_NAME_POOL)}")
    return parsed


_FACTORS = (  # the factor-list type of union's factors
    "f1,f2",
    lambda text, _: _union_factors(text),  # whose messages name the factor
    lambda factors: ",".join(":".join(map(str, f)) for f in factors),
    lambda factors: sum(abs(x) for f in factors for x in f[1:]),
)


def transversal_union(factors) -> tuple[Presentation, Augmentation]:
    """Join germ factors transversally, each built once at unit weight: the
    factor presentations side by side, plus every cross-factor commutator,
    and the factors' eps values in turn.  Factor kinds: ('torus', p, q) with
    germ generators, ('cusp',) with braid meridian generators, ('line',)
    with a single free meridian."""
    relators: list[Word] = []
    blocks: list[range] = []
    values: list[int] = []
    for kind, *params in _union_factors(factors):
        germ, eps = _FAMILIES[_UNION_FACTORS[kind][0]][2](*params)
        base = len(values)
        relators += [Word((base + g, s) for g, s in r.letters) for r in germ.relators]
        blocks.append(range(base, base + germ.generator_count))
        values += eps.values
    for i, block in enumerate(blocks):
        for other in blocks[i + 1 :]:
            relators += [Word([(g, 1), (h, 1), (g, -1), (h, -1)]) for g in block for h in other]
    return Presentation(_UNION_NAME_POOL[: len(values)], relators), Augmentation(values)


def _union_letters(factors) -> int:
    """The relator letters of a union: its factors' own, and 4 for each pair
    of generators in different factors."""
    sizes = [_UNION_FACTORS[kind][1] for kind, *_ in factors]
    own = sum(_FAMILIES[_UNION_FACTORS[kind][0]][3](*params) for kind, *params in factors)
    return own + 2 * (sum(sizes) ** 2 - sum(n * n for n in sizes))


# Each presentation family: its parameter keys, each with its type, its
# line in ``twistalex builders``, the function from its parameters, in key
# order, and its meridian weights (one per branch; unit weights when
# omitted; union, which no local kind builds, takes none) to the
# presentation and its eps, and the number of relator
# letters as a function of the same parameters, which a job bounds before
# anything is built.  Job builders, union factors and local germs are all
# built from this table.
_FAMILIES = {
    "hopf": (
        (("d", _INTEGER),),
        "d=<int>         generalized Hopf link group on x0..x(d-1), x0 central",
        lambda d, weights=None: (hopf_presentation(d), hopf_augmentation([1] * d if weights is None else weights)),
        lambda d: 4 * (d - 1),
    ),
    "a_odd": (
        (("n", _INTEGER),),
        "n=<int>         A_(2n-1) germ group, full 2n+1 relator presentation",
        lambda n, weights=(1, 1): (a_odd_presentation(n), a_odd_augmentation(n, *weights)),
        lambda n: 8 * n + 3,
    ),
    "a_odd_reduced": (
        (("n", _INTEGER),),
        "n=<int>         A_(2n-1) germ group without its redundant relator",
        lambda n, weights=(1, 1): (a_odd_reduced_presentation(n), a_odd_augmentation(n, *weights)),
        lambda n: 8 * n - 1,
    ),
    "torus": (
        (("p", _INTEGER), ("q", _INTEGER)),
        "p=<int> q=<int>  irreducible germ <x, y | x^p = y^q>",
        lambda p, q, weights=(1,): (torus_germ_presentation(p, q), torus_germ_augmentation(p, q, *weights)),
        lambda p, q: p + q,
    ),
    "cusp": (
        (),
        "(no parameters) cusp germ in braid form <x, y | xyx = yxy>",
        lambda weights=(1,): (braid_cusp_presentation(), Augmentation(weights * 2)),
        lambda: 6,
    ),
    "circle": (
        (),
        "(no parameters) one generator, no relators",
        lambda weights=(1,): (Presentation(["x0"], []), Augmentation(weights)),
        lambda: 0,
    ),
    "union": (
        (("factors", _FACTORS),),
        "factors=f1,f2   transversal union; factor = torus:p:q | cusp | line",
        transversal_union,
        _union_letters,
    ),
}


def rank_one_representation(context: FieldContext, pres: Presentation, scalars) -> Representation:
    """A rank-1 representation from one nonzero scalar per generator."""
    mats = []
    for s in scalars:
        s = context.from_rational(s)
        if s.is_zero():
            raise ValueError("rank-1 representation values must be nonzero")
        mats.append(ScalarMatrix(context, [[s]]))
    if len(mats) != pres.generator_count:
        raise ValueError("one scalar per generator required")
    return Representation(context, mats)


# ---------------------------------------------------------------------------
# Random words for the check battery's fox-identity trials (jobs); the draws
# go through a caller-supplied random.Random.  The tests' valid-triple
# samplers live beside them, in tests/oracles.py.


def random_word(generator_count: int, max_length: int, rng: random.Random) -> Word:
    length = rng.randint(0, max_length)
    letters = [
        (rng.randrange(generator_count), rng.choice((1, -1))) for _ in range(length)
    ]
    return Word(letters)
