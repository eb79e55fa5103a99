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
factors with all cross-component commutators.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import CycloNumber, FieldContext, ScalarMatrix
from .laurent import LaurentMatrix

__all__ = [
    "Word",
    "Presentation",
    "Augmentation",
    "Representation",
    "GroupRingElement",
    "ValidationReport",
    "InvalidTripleError",
    "fox_derivative",
    "PhiMap",
    "validate",
    "hopf_presentation",
    "hopf_augmentation",
    "hopf_extra_meridian_word",
    "a_odd_presentation",
    "a_odd_reduced_presentation",
    "a_odd_augmentation",
    "torus_germ_presentation",
    "torus_germ_augmentation",
    "braid_cusp_presentation",
    "transversal_union_presentation",
    "transversal_union_augmentation",
    "rank_one_representation",
    "random_invertible_matrix",
    "random_hopf_representation",
    "random_a_odd_representation",
    "random_word",
]


class Word:
    """A word in a free group: a tuple of (generator index, sign) letters.

    Words are stored as written (unreduced); free reduction is available but
    never applied implicitly, since Fox derivatives are computed on the
    letters as given.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple((int(g), int(s)) for g, s in letters)
        for g, s in letters:
            if g < 0 or s not in (1, -1):
                raise ValueError(f"bad letter ({g}, {s})")
        self.letters = letters

    @classmethod
    def generator(cls, g: int, sign: int = 1) -> Word:
        return cls(((g, sign),))

    @classmethod
    def parse(cls, text: str, generator_names) -> Word:
        """Parse the word grammar: whitespace-separated letters ``name`` or
        ``name^-1`` (any nonzero integer exponent is accepted)."""
        index = {name: i for i, name in enumerate(generator_names)}
        letters: list[tuple[int, int]] = []
        for token in text.split():
            if "^" in token:
                name, _, exp_s = token.partition("^")
                exp = int(exp_s)
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

    def free_reduce(self) -> Word:
        stack: list[tuple[int, int]] = []
        for letter in self.letters:
            if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
                stack.pop()
            else:
                stack.append(letter)
        return Word(stack)

    def is_trivial(self) -> bool:
        return not self.free_reduce().letters

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
    def euler_characteristic(self) -> int:
        """Of the presentation 2-complex: one 0-cell, a 1-cell per generator,
        a 2-cell per relator."""
        return 1 - self.generator_count + self.relator_count

    @property
    def deficiency(self) -> int:
        return self.generator_count - self.relator_count

    def word(self, text: str) -> Word:
        return Word.parse(text, self.generator_names)

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

    def of_generator(self, g: int) -> int:
        return self.values[g]

    def of_word(self, word: Word) -> int:
        return sum(s * self.values[g] for g, s in word.letters)

    def is_nontrivial(self) -> bool:
        return any(v != 0 for v in self.values)

    def image_index(self) -> int:
        """Index of the image subgroup in Z: gcd of the values (0 if trivial).
        Surjective iff 1; the cokernel is cyclic of this order."""
        import math

        g = 0
        for v in self.values:
            g = math.gcd(g, v)
        return g

    def __eq__(self, other):
        if not isinstance(other, Augmentation):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        return f"Augmentation{self.values}"


class Representation:
    """An invertible matrix over the field context per generator."""

    __slots__ = ("context", "dimension", "matrices", "_inverses", "_singular", "_letters", "_identity")

    def __init__(self, context: FieldContext, matrices):
        self.context = context
        mats = []
        for m in matrices:
            if not isinstance(m, ScalarMatrix):
                m = ScalarMatrix.from_rows(context, m)
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
        self._inverses = [None] * len(mats)
        self._singular = None
        self._letters = {}
        self._identity = ScalarMatrix.identity(context, self.dimension)._rows()

    @classmethod
    def trivial(cls, context: FieldContext, generator_count: int, dimension: int = 1):
        eye = ScalarMatrix.identity(context, dimension)
        return cls(context, [eye] * generator_count)

    @classmethod
    def diagonal(cls, context: FieldContext, diagonals):
        """One matrix per generator from per-generator diagonal scalar tuples."""
        mats = []
        for diag in diagonals:
            diag = tuple(diag)
            n = len(diag)
            mats.append(ScalarMatrix(context, [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]))
        return cls(context, mats)

    def of_generator(self, g: int) -> ScalarMatrix:
        return self.matrices[g]

    def singular_generators(self) -> tuple[int, ...]:
        """The generators whose matrix is singular, found once per
        representation."""
        if self._singular is None:
            self._singular = tuple(g for g, m in enumerate(self.matrices) if m.det().is_zero())
        return self._singular

    def inverse_of_generator(self, g: int) -> ScalarMatrix:
        inv = self._inverses[g]
        if inv is None:
            inv = self.matrices[g].inverse()
            self._inverses[g] = inv
        return inv

    def _letter_rows(self, letters) -> dict:
        """The dict from each letter (g, sign) of letters, and the letters
        seen before, to rho(x_g)^sign in the (entries, den) row form of
        FieldContext._matrix_product; each is converted once."""
        table = self._letters
        for g, sign in set(letters) - table.keys():
            table[g, sign] = (self.matrices[g] if sign == 1 else self.inverse_of_generator(g))._rows()
        return table

    def of_word(self, word: Word) -> ScalarMatrix:
        """rho(word): one row-form product per letter, and a ScalarMatrix
        only for the result."""
        product, table = self.context._matrix_product, self._letter_rows(word.letters)
        acc = self._identity
        for letter in word.letters:
            acc = product(acc, table[letter])
        return ScalarMatrix._from_rows(self.context, *acc)

    def __repr__(self):
        return f"Representation(dim={self.dimension}, generators={len(self.matrices)})"


class GroupRingElement:
    """A finite integer combination of free-group words, keyed by the freely
    reduced word.  Fox derivatives live here before evaluation."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple, int] = {}
        if terms:
            for word, coeff in terms.items():
                if isinstance(word, Word):
                    word = word.free_reduce().letters
                if coeff:
                    self.terms[word] = self.terms.get(word, 0) + coeff
            self.terms = {w: c for w, c in self.terms.items() if c}

    @classmethod
    def from_word(cls, word: Word, coeff: int = 1) -> GroupRingElement:
        e = cls()
        if coeff:
            e.terms[word.free_reduce().letters] = coeff
        return e

    @classmethod
    def zero(cls) -> GroupRingElement:
        return cls()

    @classmethod
    def one(cls) -> GroupRingElement:
        return cls.from_word(Word())

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        e = GroupRingElement()
        e.terms = {w: c for w, c in out.items() if c}
        return e

    def __neg__(self):
        e = GroupRingElement()
        e.terms = {w: -c for w, c in self.terms.items()}
        return e

    def __sub__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            e = GroupRingElement()
            if other:
                e.terms = {w: c * other for w, c in self.terms.items()}
            return e
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        out: dict[tuple, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = (Word(w1) * Word(w2)).free_reduce().letters
                out[w] = out.get(w, 0) + c1 * c2
        e = GroupRingElement()
        e.terms = {w: c for w, c in out.items() if c}
        return e

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "GroupRingElement(0)"
        parts = [f"{c}*{Word(w)!r}" for w, c in self.terms.items()]
        return "GroupRingElement(" + " + ".join(parts) + ")"


def fox_derivative(word: Word, generator: int) -> GroupRingElement:
    """The Fox free derivative d(word)/d(x_generator).

    Satisfies d(x)/d(x) = 1, d(y)/d(x) = 0, d(x^-1)/d(x) = -x^-1, and the
    product rule d(uv)/d(x) = d(u)/d(x) + u * d(v)/d(x).  Closed form used
    here: a letter x^+1 at position i contributes +prefix(i), a letter x^-1
    contributes -prefix(i) * x^-1 (the prefix through the letter inclusive).

    This symbolic form is the oracle: the check battery's fox-identity check
    and the tests use it.  The engine does not call it; build_complex
    evaluates the same formula under Phi in one pass (PhiMap.fox_row).
    """
    out: dict[tuple, int] = {}
    prefix: list[tuple[int, int]] = []
    for g, s in word.letters:
        if g == generator:
            if s == 1:
                key = Word(prefix).free_reduce().letters
                out[key] = out.get(key, 0) + 1
            else:
                key = Word(prefix + [(g, -1)]).free_reduce().letters
                out[key] = out.get(key, 0) - 1
        prefix.append((g, s))
    e = GroupRingElement()
    e.terms = {w: c for w, c in out.items() if c}
    return e


class PhiMap:
    """The ring map Phi(x) = t^eps(x) * rho(x) from the group ring into
    r x r Laurent matrices, with generator images precomputed."""

    __slots__ = ("context", "dimension", "eps", "rho", "_images", "_inv_images")

    def __init__(self, eps: Augmentation, rho: Representation):
        self.context = rho.context
        self.dimension = rho.dimension
        self.eps = eps
        self.rho = rho
        self._images = {}
        self._inv_images = {}

    def generator_image(self, g: int, sign: int = 1) -> LaurentMatrix:
        cache = self._images if sign == 1 else self._inv_images
        img = cache.get(g)
        if img is None:
            e = self.eps.of_generator(g) * sign
            m = self.rho.of_generator(g) if sign == 1 else self.rho.inverse_of_generator(g)
            img = LaurentMatrix.from_scalar_matrix(m, e)
            cache[g] = img
        return img

    def word_image(self, word: Word) -> LaurentMatrix:
        acc = LaurentMatrix.identity(self.context, self.dimension)
        for g, s in word.letters:
            acc = acc * self.generator_image(g, s)
        return acc

    def element_image(self, element: GroupRingElement) -> LaurentMatrix:
        acc = LaurentMatrix.zero(self.context, self.dimension, self.dimension)
        for letters, coeff in element.terms.items():
            acc = acc + self.word_image(Word(letters)) * coeff
        return acc

    def fox_row(self, word: Word, *, images: list | None = None) -> list[LaurentMatrix]:
        """Phi(d word / d x_g) for every generator g, in one left-to-right pass.

        Phi(prefix) = t^e * rho(prefix) is carried as the integer e and
        rho(prefix) in the integer row form of FieldContext._matrix_product.
        By the prefix formula (see fox_derivative) a letter x_g adds
        +Phi(prefix) to the derivative by x_g, and a letter x_g^-1 first
        advances the prefix and then adds -Phi(prefix x_g^-1).  Each
        derivative collects its scalar matrices by exponent, so a letter
        costs one r x r row-form product and one signed sum, and builds no
        field element; the Laurent blocks are assembled from the rows once at
        the end, and a generator that does not occur gets the zero block.

        The pass ends on Phi(word): when images is a list, the pair
        (eps(word), rho(word)) is appended to it, rho(word) a ScalarMatrix,
        for validate to judge the word without a walk of its own.
        """
        ctx = self.context
        product, add, table = ctx._matrix_product, ctx._matrix_sum, self.rho._letter_rows(word.letters)
        values = self.eps.values
        e = 0
        prefix = self.rho._identity
        sums: list[dict] = [{} for _ in values]
        for letter in word.letters:
            g, s = letter
            terms = sums[g]
            if s == 1:
                prev = terms.get(e)
                terms[e] = prefix if prev is None else add(prev, prefix, 1)
                prefix = product(prefix, table[letter])
                e += values[g]
            else:
                prefix = product(prefix, table[letter])
                e -= values[g]
                terms[e] = add(terms.get(e), prefix, -1)
        if images is not None:
            images.append((e, ScalarMatrix._from_rows(ctx, *prefix)))
        zero = LaurentMatrix.zero(ctx, self.dimension, self.dimension)
        return [LaurentMatrix._from_row_terms(ctx, terms) if terms else zero for terms in sums]


class ValidationReport:
    """Outcome of checking a (presentation, eps, rho) triple."""

    __slots__ = (
        "ok",
        "failures",
        "eps_nontrivial",
        "eps_surjective",
        "eps_image_index",
        "eps_values",
    )

    def __init__(self, ok, failures, eps_nontrivial, eps_surjective, eps_image_index, eps_values):
        self.ok = ok
        self.failures = tuple(failures)
        self.eps_nontrivial = eps_nontrivial
        self.eps_surjective = eps_surjective
        self.eps_image_index = eps_image_index
        self.eps_values = eps_values

    def __repr__(self):
        status = "ok" if self.ok else "invalid: " + "; ".join(self.failures)
        return f"ValidationReport({status})"


class InvalidTripleError(ValueError):
    """A triple failed validation; the report is attached."""

    def __init__(self, report: ValidationReport):
        super().__init__("; ".join(report.failures) or "invalid triple")
        self.report = report


def validate(
    pres: Presentation, eps: Augmentation, rho: Representation, *, relator_images=None
) -> ValidationReport:
    """Check eps(relator) = 0 and rho(relator) = Id exactly for every relator,
    plus shape agreement; reports eps nontriviality, surjectivity, and the
    cokernel order (non-surjective eps is legal but flagged).

    The counts and the singular rho(x) are checked first.  Each relator is
    then walked letter by letter, unless relator_images gives its
    (eps(r), rho(r)) already, in relator order: build_complex passes the
    values its Fox pass ends on (PhiMap.fox_row).  They are read only when
    the counts agree and no rho(x) is singular, the condition under which
    that pass can run."""
    failures = []
    if len(eps.values) != pres.generator_count:
        failures.append("eps value count differs from generator count")
    if len(rho.matrices) != pres.generator_count:
        failures.append("representation matrix count differs from generator count")
    if not failures:
        singular = rho.singular_generators()
        failures += [f"rho({pres.generator_names[g]}) is singular" for g in singular]
        for i, rel in enumerate(pres.relators):
            if relator_images is not None and not singular:
                v, image = relator_images[i]
            else:
                v = eps.of_word(rel)
                # rho(relator) needs inverses, which a singular matrix lacks.
                image = None if singular else rho.of_word(rel)
            if v != 0:
                failures.append(f"eps does not kill relator {i} (value {v})")
            if image is not None and not image.is_identity():
                failures.append(f"rho does not kill relator {i}")
    nontrivial = eps.is_nontrivial()
    index = eps.image_index()
    if not nontrivial:
        failures.append("eps is trivial")
    return ValidationReport(
        ok=not failures,
        failures=failures,
        eps_nontrivial=nontrivial,
        eps_surjective=index == 1,
        eps_image_index=index,
        eps_values=eps.values,
    )


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


def hopf_extra_meridian_word(d: int) -> Word:
    """The eliminated d-th meridian expressed in the d-generator presentation:
    x0 = xd * x(d-1) * ... * x1 gives xd = x0 * x1^-1 * ... * x(d-1)^-1."""
    letters = [(0, 1)] + [(i, -1) for i in range(1, d)]
    return Word(letters)


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
    import math

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


_UNION_NAME_POOL = "xyzwuvabcdefgh"


def _union_factors(factors):
    """Normalize factor descriptors: ('torus', p, q) | ('cusp',) | ('line',)."""
    parsed = []
    for f in factors:
        kind = f[0]
        if kind == "torus":
            parsed.append(("torus", int(f[1]), int(f[2])))
        elif kind in ("cusp", "line"):
            parsed.append((kind,))
        else:
            raise ValueError(f"unknown union factor kind {kind!r}")
    if len(parsed) < 2:
        raise ValueError("a transversal union needs at least two factors")
    return parsed


def transversal_union_presentation(factors) -> Presentation:
    """Join germ factors transversally: concatenate the factor presentations
    and add every cross-factor commutator.  Factor kinds: ('torus', p, q)
    with germ generators, ('cusp',) with braid meridian generators, ('line',)
    with a single free meridian."""
    parsed = _union_factors(factors)
    names: list[str] = []
    factor_gens: list[list[int]] = []
    relators: list[Word] = []
    pool = iter(_UNION_NAME_POOL)
    for f in parsed:
        if f[0] == "line":
            base = len(names)
            names.append(next(pool))
            factor_gens.append([base])
            continue
        base = len(names)
        names.extend([next(pool), next(pool)])
        factor_gens.append([base, base + 1])
        if f[0] == "torus":
            _, p, q = f
            relators.append(Word([(base, 1)] * p + [(base + 1, -1)] * q))
        else:
            relators.append(
                Word(
                    [
                        (base, 1),
                        (base + 1, 1),
                        (base, 1),
                        (base + 1, -1),
                        (base, -1),
                        (base + 1, -1),
                    ]
                )
            )
    for i in range(len(factor_gens)):
        for j in range(i + 1, len(factor_gens)):
            for g in factor_gens[i]:
                for h in factor_gens[j]:
                    relators.append(Word([(g, 1), (h, 1), (g, -1), (h, -1)]))
    return Presentation(names, relators)


def transversal_union_augmentation(factors, weights) -> Augmentation:
    """Component meridian weights, one per factor, pushed to the factor
    generators (torus germs scale by the abelianization exponents)."""
    parsed = _union_factors(factors)
    weights = [int(w) for w in weights]
    if len(weights) != len(parsed):
        raise ValueError("one weight per factor required")
    values: list[int] = []
    for f, w in zip(parsed, weights):
        if f[0] == "torus":
            _, p, q = f
            values.extend([q * w, p * w])
        elif f[0] == "cusp":
            values.extend([w, w])
        else:
            values.append(w)
    return Augmentation(values)


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
# Randomized valid-triple samplers used by the property suites and the CLI
# fuzz analysis.  All draws go through a caller-supplied random.Random.


def _random_scalar(context: FieldContext, rng: random.Random, *, nonzero=False) -> CycloNumber:
    while True:
        if context.conductor == 1 or rng.random() < 0.4:
            v = context.from_rational(Fraction(rng.randint(-3, 3)))
        else:
            v = context.zeta(rng.randrange(context.conductor)) * rng.randint(-2, 2)
        if not nonzero or not v.is_zero():
            return v


def random_invertible_matrix(context: FieldContext, size: int, rng: random.Random) -> ScalarMatrix:
    while True:
        m = ScalarMatrix(
            context,
            [[_random_scalar(context, rng) for _ in range(size)] for _ in range(size)],
        )
        if not m.det().is_zero():
            return m


def random_root_of_unity(context: FieldContext, rng: random.Random) -> CycloNumber:
    if context.conductor == 1:
        return context.from_rational(rng.choice([1, -1]))
    return context.zeta(rng.randrange(context.conductor))


def random_hopf_representation(
    context: FieldContext, d: int, dimension: int, rng: random.Random, family: str = "scalar"
) -> Representation:
    """A valid representation of the Hopf group: the central generator must
    commute with every other image.

    family 'scalar': rho(x0) = lambda * Id (lambda a random root of unity
    times a nonzero rational), the rest random invertible.
    family 'diagonal': every image diagonal.
    """
    if family == "scalar":
        lam = random_root_of_unity(context, rng) * rng.choice([1, 1, 2, -1])
        eye = ScalarMatrix.identity(context, dimension)
        mats = [eye * lam]
        for _ in range(1, d):
            mats.append(random_invertible_matrix(context, dimension, rng))
        return Representation(context, mats)
    if family == "diagonal":
        diags = []
        for _ in range(d):
            diags.append(tuple(_random_scalar(context, rng, nonzero=True) for _ in range(dimension)))
        return Representation.diagonal(context, diags)
    raise ValueError(f"unknown family {family!r}")


def random_a_odd_representation(
    context: FieldContext, n: int, dimension: int, rng: random.Random, family: str = "conjugate"
) -> Representation:
    """A valid representation of the A_{2n-1} group.

    family 'diagonal': all images diagonal with equal even-index and equal
    odd-index values (so conjugation by b acts trivially).
    family 'conjugate': rho(b) = Q with Q^n scalar, rho(a0) = A arbitrary
    invertible, rho(a1) = Q * A^-1, and a(i+2) = b^-1 * a(i) * b derived; the
    wrap-around closes because Q^n is central.
    """
    m = 2 * n
    if family == "diagonal":
        even = tuple(_random_scalar(context, rng, nonzero=True) for _ in range(dimension))
        odd = tuple(_random_scalar(context, rng, nonzero=True) for _ in range(dimension))
        diags = [even if i % 2 == 0 else odd for i in range(m)]
        prod = tuple(o * e for o, e in zip(odd, even))
        diags.append(prod)
        return Representation.diagonal(context, diags)
    if family == "conjugate":
        # Q = S * diag(mu_j) * S^-1 with each mu_j^n equal to one shared
        # value, so Q^n is scalar.
        while True:
            S = random_invertible_matrix(context, dimension, rng)
            base = random_root_of_unity(context, rng)
            if base.is_zero():
                continue
            # mu_j = base * eta_j with eta_j^n = 1; eta drawn from the n-th
            # roots of unity available in the context.
            etas = []
            for _ in range(dimension):
                if context.conductor % n == 0 and context.conductor > 1:
                    k = rng.randrange(n)
                    etas.append(context.zeta(k * (context.conductor // n)))
                else:
                    etas.append(context.one)
            diag = ScalarMatrix(
                context,
                [
                    [base * etas[i] if i == j else context.zero for j in range(dimension)]
                    for i in range(dimension)
                ],
            )
            Q = S * diag * S.inverse()
            if not Q.det().is_zero():
                break
        A = random_invertible_matrix(context, dimension, rng)
        Qinv = Q.inverse()
        images = [None] * m
        images[0] = A
        images[1] = Q * A.inverse()
        for i in range(2, m):
            images[i] = Qinv * images[i - 2] * Q
        images.append(Q)
        return Representation(context, images)
    raise ValueError(f"unknown family {family!r}")


def random_word(generator_count: int, max_length: int, rng: random.Random) -> Word:
    length = rng.randint(0, max_length)
    letters = [
        (rng.randrange(generator_count), rng.choice([1, -1])) for _ in range(length)
    ]
    return Word(letters)
