"""Line-oriented job descriptions and the deterministic batch runner.

A job file fixes one twisted triple and a list of analyses, one keyword-led
line each.  Blank lines and lines starting with ``#`` are ignored.

    field rational | field cyclotomic <n>
    builder <name> [key=value ...]
    generators <name> ...                 (inline alternative to builder; names are identifiers)
    relator <word>                        (inline only; repeatable; 1 is the empty word)
    eps <gen>=<int> ...                   (defaults to the builder's weights)
    rho <gen> = [[<scalar>, ...], ...]    (one line per generator)
    rho trivial <dim>                     (identity matrices everywhere)
    analyze <keyword> ...                 (delta wada divisibility root-field alpha)
    specialize <scalar>[, <scalar> ...]
    local <kind> [<int> ...] weights <int> ... [scalars <scalar>[, ...]]
    component degree=<d> weight=<n> [euler=<int>] [meridian=<scalar or matrix>]
    singularity <kind> components=<i,j,...> [params=<p,q,...>]

Scalars use the field grammar (``1/2 + 3*z^2 - z^5`` with z the declared
root of unity); words use the generator grammar (``x0 x1^-1``).
``parse_job``/``serialize_job`` round-trip, and ``run_job`` output is
byte-identical across runs of the same job.

A report is a list of records, one dict per output line with its type under
``"record"``.  The records format prints each as sorted-key JSON; the text
format renders each through ``TEXT_FORMATTERS``, one formatter per type, so
the two formats cannot drift apart.
"""

from __future__ import annotations

import json
import random

from .scalars import FieldContext, ScalarMatrix, parse_scalar
from .presentations import (
    Augmentation,
    InvalidTripleError,
    PhiMap,
    Presentation,
    Representation,
    Word,
    _FAMILIES,
    _union_factors,
    random_word,
    transversal_union_augmentation,
    transversal_union_presentation,
)
from .homology import (
    InternalInvariantError,
    TwistedChainComplex,
    build_complex,
    euler_rank_check,
    homology,
    wada_ratio,
)
from .obstructions import (
    CurveComponent,
    CurveData,
    Singularity,
    _LOCAL_KINDS,
    _germ_family,
    _germ_polynomial,
    _local_germ,
    alpha_term,
    check_divides,
    dimension_bound_check,
    infinity_bound,
    root_field,
)

ANALYSES = ("delta", "wada", "divisibility", "root-field", "alpha")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INVARIANT = 3

# Input budgets.  A job over one of them is refused with JobParseError at the
# line that asks for it, before anything of that size is built, so a short
# text cannot ask for an unbounded allocation.  Every sample, benchmark and
# test job is far below them.
MAX_CONDUCTOR = 1000  # field cyclotomic <n>: an n x phi(n) power table
MAX_EPS = 10_000  # |eps(x)| per generator
MAX_LETTERS = 20_000  # relator letters of a job, powers expanded
MAX_DEGREE_SPAN = 20_000  # sum of |eps| over the letters of one relator,
#                           which bounds the t-span of its Fox blocks
MAX_DIMENSION = 64  # rho trivial <dim>; a written matrix is as large as its text


class JobParseError(ValueError):
    """A diagnostic with the line (and column when known) it points at."""

    def __init__(self, line: int, message: str, column: int | None = None):
        self.line = line
        self.column = column
        self.message = message
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


def _scalar_matrix(context: FieldContext, rows) -> ScalarMatrix:
    """A matrix from rows of canonical scalar text."""
    return ScalarMatrix(context, [[parse_scalar(e, context) for e in row] for row in rows])


class JobSpec:
    """A parsed job in canonical form.

    Everything is resolved and normalized at parse time (builder expanded to
    generators and relators, eps in generator order, matrices as canonical
    scalar text), so equality is plain field equality and serialization is a
    straight dump.
    """

    __slots__ = (
        "conductor",
        "source",
        "generator_names",
        "relator_texts",
        "eps_values",
        "rho_rows",
        "analyses",
        "specialize_values",
        "local_requests",
        "components",
        "singularities",
        "_complexes",
    )

    def __init__(
        self,
        conductor,
        source,
        generator_names,
        relator_texts,
        eps_values,
        rho_rows,
        analyses=(),
        specialize_values=(),
        local_requests=(),
        components=(),
        singularities=(),
    ):
        self.conductor = int(conductor)
        self.source = source
        self.generator_names = tuple(generator_names)
        self.relator_texts = tuple(relator_texts)
        self.eps_values = tuple(int(v) for v in eps_values)
        self.rho_rows = tuple(rho_rows)
        self.analyses = tuple(analyses)
        self.specialize_values = tuple(specialize_values)
        self.local_requests = tuple(local_requests)
        self.components = tuple(components)
        self.singularities = tuple(singularities)
        # (_complex_key(), {None or germ index: complex}): see chain_complex.
        self._complexes = None

    def context(self) -> FieldContext:
        return FieldContext(self.conductor)

    def presentation(self) -> Presentation:
        relators = [Word.parse(t, self.generator_names) for t in self.relator_texts]
        return Presentation(self.generator_names, relators)

    def augmentation(self) -> Augmentation:
        return Augmentation(self.eps_values)

    def representation(self, context: FieldContext) -> Representation:
        return Representation(context, [_scalar_matrix(context, rows) for rows in self.rho_rows])

    def _complex_key(self):
        # The fields of the triple, source (the builder step) and local requests.
        triple = (self.conductor, self.generator_names, self.relator_texts, self.eps_values, self.rho_rows)
        return (*triple, self.source, self.local_requests)

    def chain_complex(self, germ: int | None = None) -> TwistedChainComplex:
        """The job's complex (_job_complex), or the complex of the germ of
        local request germ; each build validates its triple.  parse_job stores
        the ones it built, and others are built on first use, in one table
        keyed on _complex_key by ==."""
        key = self._complex_key()
        if self._complexes is None or self._complexes[0] != key:
            self._complexes = (key, {})
        table = self._complexes[1]
        if germ not in table:
            context = self.context()
            if germ is None:
                triple = self.presentation(), self.augmentation(), self.representation(context)
                table[None] = _job_complex(self.source, *triple)
            else:
                kind, params, weights, scalar_texts = self.local_requests[germ]
                scalars = None if scalar_texts is None else [parse_scalar(s, context) for s in scalar_texts]
                table[germ] = build_complex(*_local_germ(context, kind, params, weights, scalars))
        return table[germ]

    def curve(self, context: FieldContext) -> CurveData | None:
        if not self.components:
            return None
        comps = []
        for degree, weight, euler, meridian in self.components:
            mat = _scalar_matrix(context, meridian) if meridian is not None else None
            comps.append(CurveComponent(degree, weight, meridian=mat, euler=euler))
        sings = [Singularity(kind, comps_idx, params) for kind, comps_idx, params in self.singularities]
        return CurveData(comps, sings)

    def _key(self):
        # Every field but the cached complexes, in slot order.
        return tuple(getattr(self, name) for name in self.__slots__ if name != "_complexes")

    def __eq__(self, other):
        if not isinstance(other, JobSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        src = " ".join(str(p) for p in self.source)
        return f"JobSpec({src}, {len(self.generator_names)} generators)"


# ---------------------------------------------------------------------------
# builders


def _letter_count(text: str) -> int:
    """The letters of a word text with its powers expanded, counted without
    expanding them; a malformed token counts one (Word.parse names it)."""
    count = 0
    for token in text.split():
        _, _, exp = token.partition("^")
        try:
            count += abs(int(exp)) if exp else 1
        except ValueError:
            count += 1
    return count


def _integer(text: str, lineno: int, what: str) -> int:
    """int(text), or a JobParseError at lineno: '<what>, got <text>'."""
    try:
        return int(text)
    except ValueError:
        raise JobParseError(lineno, f"{what}, got {text!r}")


def _check_letters(count: int, lineno: int):
    if count > MAX_LETTERS:
        raise JobParseError(lineno, f"the relators have {count} letters; the limit is {MAX_LETTERS}")


def _check_span(relator: Word, eps_values, what: str, lineno: int):
    """The t-span of a relator's Fox blocks is at most the sum of |eps| over
    its letters."""
    span = sum(abs(eps_values[g]) for g, _ in relator.letters)
    if span > MAX_DEGREE_SPAN:
        raise JobParseError(lineno, f"{what} spans {span} powers of t under eps; the limit is {MAX_DEGREE_SPAN}")


def _bounded_build(what: str, integers, letters, build, lineno: int, prefix: str = ""):
    """build() of a builder or local germ, once its integer parameters sum to
    at most MAX_LETTERS (no family has fewer letters than that sum) and its
    relator letters, if known before the build, are within the limit.  A
    ValueError of the build is refused at lineno, after prefix."""
    total = sum(abs(v) for v in integers)
    if total > MAX_LETTERS:
        raise JobParseError(lineno, f"{what}: the parameters sum to {total}; the limit is {MAX_LETTERS}")
    if letters is not None:
        _check_letters(letters, lineno)
    try:
        return build()
    except ValueError as exc:
        raise JobParseError(lineno, prefix + str(exc))


# The builders: the presentation families (presentations._FAMILIES), built
# at unit weights, plus union, whose factors are not integers (see
# presentations._union_factors).  A union has at most 14 generators, and its
# letters are counted after its build (None).  The last field, the step, is
# None (as in every shipped builder) or a function from the validated
# 2-complex to the job's complex, with or without its triple (_job_complex).
_BUILDERS = {
    **{name: (*entry, None) for name, entry in _FAMILIES.items()},
    "union": (
        ("factors",),
        "factors=f1,f2   transversal union; factor = torus:p:q | cusp | line",
        lambda factors: (
            transversal_union_presentation(factors),
            transversal_union_augmentation(factors, [1] * len(factors)),
        ),
        None,
        None,
    ),
}


def _job_complex(source, pres, eps, rho) -> TwistedChainComplex:
    """build_complex, which validates the triple, then the builder's step."""
    complex_ = build_complex(pres, eps, rho)
    step = _BUILDERS[source[1]][4] if source[0] == "builder" else None
    return complex_ if step is None else step(complex_)


def _builder_value(name: str, key: str, params: dict, lineno: int):
    """One builder parameter as (value, canonical text, its integers): an
    integer, or union's list of factors."""
    if key not in params:
        raise JobParseError(lineno, f"builder {name} needs {key}={'f1,f2' if key == 'factors' else '<int>'}")
    text = params[key]
    if key == "factors":
        try:
            factors = _union_factors(text)
        except ValueError as exc:
            raise JobParseError(lineno, str(exc))
        return factors, ",".join(":".join(map(str, f)) for f in factors), [x for f in factors for x in f[1:]]
    value = _integer(text, lineno, f"builder {name}: {key} must be an integer")
    return value, str(value), [value]


def _resolve_builder(name: str, params: dict, lineno: int):
    """Return (presentation, default augmentation, canonical params).  The
    parameters and the relator letters they ask for are bounded before the
    build."""
    if name not in _BUILDERS:
        raise JobParseError(lineno, f"unknown builder {name!r}; available: {', '.join(sorted(_BUILDERS))}")
    keys, _, build, letters, _ = _BUILDERS[name]
    extra = set(params) - set(keys)
    if extra:
        raise JobParseError(lineno, f"builder {name}: unexpected parameters {', '.join(sorted(extra))}")
    parsed = [_builder_value(name, key, params, lineno) for key in keys]
    values = [value for value, _, _ in parsed]
    integers = [x for _, _, xs in parsed for x in xs]
    count = None if letters is None else letters(*values)
    pres, eps = _bounded_build(f"builder {name}", integers, count, lambda: build(*values), lineno)
    if letters is None:
        _check_letters(sum(len(r) for r in pres.relators), lineno)
    return pres, eps, tuple((key, text) for key, (_, text, _) in zip(keys, parsed))


# ---------------------------------------------------------------------------
# parsing


def _split_top_level(text: str, sep: str | None = ",") -> list[str]:
    """Split on sep at bracket depth zero.  With sep None, as in str.split,
    split on whitespace and drop the empty parts: bracketed groups (and their
    inner spaces) stay attached to the token they start in."""
    if "[" not in text and "]" not in text:
        return text.split(sep)
    parts, depth, buf = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if depth == 0 and (ch.isspace() if sep is None else ch == sep):
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return [part for part in parts if part] if sep is None else parts


def _matrix_text(values) -> tuple:
    """Rows of field elements as rows of canonical scalar text."""
    return tuple(tuple(str(e) for e in row) for row in values)


def _bracketed(rows) -> str:
    """Rows of scalar text as the matrix text [[s, s], [s, s]]."""
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def _parse_matrix_text(text: str, context: FieldContext, lineno: int, what: str):
    """Parse [[s, s], [s, s]] into a tuple of tuples of field elements; a
    bare scalar is promoted to a 1x1 matrix."""
    s = text.strip()
    if not s.startswith("["):
        try:
            value = parse_scalar(s, context)
        except ValueError as exc:
            raise JobParseError(lineno, f"{what}: {exc}")
        return ((value,),)
    if not (s.startswith("[[") and s.endswith("]]")):
        raise JobParseError(lineno, f"{what}: matrix must look like [[a, b], [c, d]]")
    body = s[1:-1]
    rows = []
    for row_text in _split_top_level(body):
        row_text = row_text.strip()
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise JobParseError(lineno, f"{what}: matrix row {row_text!r} is not bracketed")
        entries = []
        for entry in _split_top_level(row_text[1:-1]):
            try:
                entries.append(parse_scalar(entry, context))
            except ValueError as exc:
                raise JobParseError(lineno, f"{what}: {exc}")
        rows.append(tuple(entries))
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise JobParseError(lineno, f"{what}: ragged matrix rows")
    return tuple(rows)


def _parse_kv(tokens, lineno, allowed, what):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise JobParseError(lineno, f"{what}: expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if key not in allowed:
            raise JobParseError(lineno, f"{what}: unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")
        if key in out:
            raise JobParseError(lineno, f"{what}: repeated key {key!r}")
        out[key] = val
    return out


def parse_job(text: str) -> JobSpec:
    """Parse a job document; the first problem raises JobParseError with its
    line number."""
    field_line = None
    conductor = 1
    builder_line = None
    builder_name = None
    builder_params: dict = {}
    inline_generators = None
    inline_line = None
    relator_lines: list[tuple[int, str]] = []
    eps_line = None
    eps_tokens = None
    rho_lines: list[tuple[int, str, str]] = []
    rho_trivial: tuple[int, int] | None = None
    analyses: list[str] = []
    specialize_line = None
    specialize_texts: list[str] = []
    local_lines: list[tuple[int, list[str]]] = []
    component_lines: list[tuple[int, dict]] = []
    singularity_lines: list[tuple[int, list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = _split_top_level(line, None)
        keyword = tokens[0]
        rest = tokens[1:]
        if keyword == "field":
            if field_line is not None:
                raise JobParseError(lineno, "repeated field line")
            field_line = lineno
            if rest == ["rational"]:
                conductor = 1
            elif len(rest) == 2 and rest[0] == "cyclotomic":
                conductor = _integer(rest[1], lineno, "conductor must be an integer")
                if conductor < 1:
                    raise JobParseError(lineno, "conductor must be positive")
                if conductor > MAX_CONDUCTOR:
                    raise JobParseError(lineno, f"conductor {conductor} is over the limit of {MAX_CONDUCTOR}")
            else:
                raise JobParseError(lineno, "field line must be 'field rational' or 'field cyclotomic <n>'")
        elif keyword == "builder":
            if builder_line is not None or inline_line is not None:
                raise JobParseError(lineno, "only one builder/generators line per job")
            if not rest:
                raise JobParseError(lineno, f"builder line needs a name; available: {', '.join(sorted(_BUILDERS))}")
            builder_line = lineno
            builder_name = rest[0]
            allowed = {key for keys, *_ in _BUILDERS.values() for key in keys}
            builder_params = _parse_kv(rest[1:], lineno, allowed, f"builder {builder_name}")
        elif keyword == "generators":
            if builder_line is not None or inline_line is not None:
                raise JobParseError(lineno, "only one builder/generators line per job")
            if not rest:
                raise JobParseError(lineno, "generators line needs at least one name")
            bad = next((name for name in rest if not name.isidentifier()), None)
            if bad is not None:
                raise JobParseError(lineno, f"generator name {bad!r} is not an identifier")
            if len(set(rest)) != len(rest):
                raise JobParseError(lineno, "duplicate generator names")
            inline_line = lineno
            inline_generators = rest
        elif keyword == "relator":
            relator_lines.append((lineno, " ".join(rest)))
        elif keyword == "eps":
            if eps_line is not None:
                raise JobParseError(lineno, "repeated eps line")
            eps_line = lineno
            eps_tokens = rest
        elif keyword == "rho":
            # rho trivial <dim>, unless trivial is a generator given a matrix
            if rest and rest[0] == "trivial" and "=" not in line:
                if rho_trivial is not None or rho_lines:
                    raise JobParseError(lineno, "rho trivial cannot be combined with other rho lines")
                if len(rest) != 2:
                    raise JobParseError(lineno, "rho trivial needs a dimension: rho trivial <dim>")
                dim = _integer(rest[1], lineno, "rho trivial dimension must be an integer")
                if dim < 1:
                    raise JobParseError(lineno, "rho trivial dimension must be >= 1")
                if dim > MAX_DIMENSION:
                    raise JobParseError(lineno, f"rho dimension {dim} is over the limit of {MAX_DIMENSION}")
                rho_trivial = (lineno, dim)
                continue
            if rho_trivial is not None:
                raise JobParseError(lineno, "rho trivial cannot be combined with other rho lines")
            # grammar: rho <gen> = <matrix>
            body = line[len("rho") :].strip()
            name, eq, matrix_text = body.partition("=")
            if not eq:
                raise JobParseError(lineno, "rho line must look like 'rho <gen> = [[...]]'")
            rho_lines.append((lineno, name.strip(), matrix_text.strip()))
        elif keyword == "analyze":
            if not rest:
                raise JobParseError(lineno, f"analyze line needs keywords; available: {', '.join(ANALYSES)}")
            for a in rest:
                if a not in ANALYSES:
                    raise JobParseError(lineno, f"unknown analysis {a!r}; available: {', '.join(ANALYSES)}")
                if a not in analyses:
                    analyses.append(a)
        elif keyword == "specialize":
            if specialize_line is not None:
                raise JobParseError(lineno, "repeated specialize line")
            specialize_line = lineno
            body = line[len("specialize") :].strip()
            if not body:
                raise JobParseError(lineno, "specialize line needs at least one value")
            specialize_texts = [p.strip() for p in _split_top_level(body)]
        elif keyword == "local":
            local_lines.append((lineno, rest))
        elif keyword == "component":
            kv = _parse_kv(rest, lineno, {"degree", "weight", "euler", "meridian"}, "component")
            component_lines.append((lineno, kv))
        elif keyword == "singularity":
            singularity_lines.append((lineno, rest))
        else:
            raise JobParseError(
                lineno,
                f"unknown keyword {keyword!r} (field, builder, generators, relator, eps, "
                "rho, analyze, specialize, local, component, singularity)",
            )

    context = FieldContext(conductor)

    # presentation
    if builder_line is not None:
        pres, default_eps, canon_params = _resolve_builder(builder_name, builder_params, builder_line)
        if relator_lines:
            raise JobParseError(relator_lines[0][0], "relator lines are for inline presentations only")
        source = ("builder", builder_name) + canon_params
        relator_texts = tuple(r.to_text(pres.generator_names) for r in pres.relators)
    elif inline_line is not None:
        relators = []
        relator_texts_list = []
        letters = 0
        for lineno, wtext in relator_lines:
            letters += _letter_count(wtext)
            _check_letters(letters, lineno)
            try:
                w = Word.parse(wtext, inline_generators)
            except ValueError as exc:
                raise JobParseError(lineno, str(exc))
            relators.append(w)
            relator_texts_list.append(w.to_text(inline_generators))
        pres = Presentation(inline_generators, relators)
        default_eps = Augmentation([1] * pres.generator_count)
        source = ("inline",)
        relator_texts = tuple(relator_texts_list)
    else:
        raise JobParseError(1, "a job needs a 'builder' or 'generators' line")

    names = pres.generator_names
    index = {n: i for i, n in enumerate(names)}

    # eps
    if eps_tokens is None:
        eps_values = default_eps.values
    else:
        assigned: dict[int, int] = {}
        for tok in eps_tokens:
            name, eq, val = tok.partition("=")
            if not eq:
                raise JobParseError(eps_line, f"eps entries look like gen=int, got {tok!r}")
            if name not in index:
                raise JobParseError(eps_line, f"eps names unknown generator {name!r}")
            if index[name] in assigned:
                raise JobParseError(eps_line, f"eps assigns {name!r} twice")
            assigned[index[name]] = _integer(val, eps_line, f"eps value for {name!r} must be an integer")
            if abs(assigned[index[name]]) > MAX_EPS:
                raise JobParseError(eps_line, f"eps value for {name!r} is over the limit of {MAX_EPS} in size")
        missing = [names[i] for i in range(len(names)) if i not in assigned]
        if missing:
            raise JobParseError(eps_line, f"eps line must cover every generator; missing {', '.join(missing)}")
        eps_values = tuple(assigned[i] for i in range(len(names)))
    for i, relator in enumerate(pres.relators):
        _check_span(relator, eps_values, f"relator {i}", eps_line or builder_line or relator_lines[i][0])

    # rho
    if rho_trivial is not None:
        _, dim = rho_trivial
        eye = tuple(tuple("1" if i == j else "0" for j in range(dim)) for i in range(dim))
        rho_rows = tuple(eye for _ in names)
        rho = Representation.trivial(context, len(names), dim)
    elif rho_lines:
        given: dict[int, tuple] = {}
        dim = None
        for lineno, name, matrix_text in rho_lines:
            if name not in index:
                raise JobParseError(lineno, f"rho names unknown generator {name!r}")
            if index[name] in given:
                raise JobParseError(lineno, f"rho assigns generator {name!r} twice")
            rows = _parse_matrix_text(matrix_text, context, lineno, f"rho {name}")
            if len(rows) != len(rows[0]):
                raise JobParseError(lineno, f"rho {name}: matrix must be square, got {len(rows)}x{len(rows[0])}")
            if dim is None:
                dim = len(rows)
            elif len(rows) != dim:
                raise JobParseError(
                    lineno, f"rho {name}: dimension {len(rows)} disagrees with earlier dimension {dim}"
                )
            given[index[name]] = rows
        missing = [names[i] for i in range(len(names)) if i not in given]
        if missing:
            raise JobParseError(
                rho_lines[-1][0], f"rho needs a matrix for every generator; missing {', '.join(missing)}"
            )
        rho_rows = tuple(_matrix_text(given[i]) for i in range(len(names)))
        rho = Representation(context, [ScalarMatrix(context, given[i]) for i in range(len(names))])
    else:
        raise JobParseError(1, "a job needs rho lines (or 'rho trivial <dim>')")

    # specialize values
    specialize_values = []
    for text_value in specialize_texts:
        try:
            value = parse_scalar(text_value, context)
        except ValueError as exc:
            raise JobParseError(specialize_line, str(exc))
        if value.is_zero():
            raise JobParseError(specialize_line, "specialization at 0 is undefined")
        specialize_values.append(str(value))

    # local lines: each germ is built, measured and validated here
    local_requests = []
    complexes = {}  # the table of JobSpec.chain_complex
    for lineno, tokens in local_lines:
        if not tokens or tokens[0] not in _LOCAL_KINDS:
            what = f"unknown local kind {tokens[0]!r}" if tokens else "local line needs a kind"
            raise JobParseError(lineno, f"{what}; available: {', '.join(sorted(_LOCAL_KINDS))}")
        kind = tokens[0]
        rest = tokens[1:]
        params = []
        i = 0
        while i < len(rest) and rest[i] not in ("weights", "scalars"):
            params.append(_integer(rest[i], lineno, f"local {kind}: expected integer parameter"))
            i += 1
        try:
            (_, _, _, letters), family_params = _germ_family(kind, params)
        except ValueError as exc:
            raise JobParseError(lineno, str(exc))
        if i >= len(rest) or rest[i] != "weights":
            raise JobParseError(lineno, f"local {kind}: missing 'weights' section")
        i += 1
        weights = []
        while i < len(rest) and rest[i] != "scalars":
            weights.append(_integer(rest[i], lineno, f"local {kind}: weights must be integers"))
            i += 1

        def germ():
            scalars = None
            if i < len(rest):
                scalar_text = " ".join(rest[i + 1 :])
                if not scalar_text:
                    raise ValueError("scalars section is empty")
                scalars = [parse_scalar(text, context) for text in _split_top_level(scalar_text)]
            return scalars, _local_germ(context, kind, params, weights, scalars)

        scalars, (germ_pres, germ_eps, germ_rho) = _bounded_build(
            f"local {kind}", params, letters(*family_params), germ, lineno, f"local {kind}: "
        )
        for relator in germ_pres.relators:
            _check_span(relator, germ_eps.values, f"local {kind}", lineno)
        # As for the job's own triple, building the germ's complex validates
        # it; run_job reads the complex, and builds again one that failed its
        # d1 d2 = 0 check, to report that.
        try:
            complexes[len(local_requests)] = build_complex(germ_pres, germ_eps, germ_rho)
        except InvalidTripleError as exc:
            raise JobParseError(lineno, f"local {kind}: invalid triple: {'; '.join(exc.report.failures)}")
        except InternalInvariantError:
            pass
        scalar_texts = None if scalars is None else tuple(str(v) for v in scalars)
        local_requests.append((kind, tuple(params), tuple(weights), scalar_texts))

    # component lines
    components = []
    for lineno, kv in component_lines:
        if "degree" not in kv or "weight" not in kv:
            raise JobParseError(lineno, "component line needs degree= and weight=")
        degree = _integer(kv["degree"], lineno, "component: degree must be an integer")
        weight = _integer(kv["weight"], lineno, "component: weight must be an integer")
        euler = _integer(kv["euler"], lineno, "component: euler must be an integer") if "euler" in kv else None
        try:
            CurveComponent(degree, weight, euler=euler)  # as JobSpec.curve will
        except ValueError as exc:
            raise JobParseError(lineno, f"component: {exc}")
        meridian = None
        if "meridian" in kv:
            rows = _parse_matrix_text(kv["meridian"], context, lineno, "component meridian")
            shape, dim = (len(rows), len(rows[0])), rho.dimension
            if shape != (dim, dim):
                raise JobParseError(lineno, f"component meridian: must be {dim}x{dim} like rho, got {shape[0]}x{shape[1]}")
            if ScalarMatrix(context, rows).det().is_zero():
                raise JobParseError(lineno, "component meridian: matrix is singular")
            meridian = _matrix_text(rows)
        components.append((degree, weight, euler, meridian))

    # singularity lines
    singularities = []
    for lineno, tokens in singularity_lines:
        if not tokens:
            raise JobParseError(lineno, "singularity line needs a kind")
        kind = tokens[0]
        kv = _parse_kv(tokens[1:], lineno, {"components", "params"}, f"singularity {kind}")
        if "components" not in kv:
            raise JobParseError(lineno, "singularity line needs components=i,j,...")
        what = f"singularity {kind}"

        def integers(key):
            return tuple(_integer(x, lineno, f"{what}: {key} must be integers") for x in kv[key].split(","))

        comps_idx = integers("components")
        params = integers("params") if "params" in kv else ()
        try:
            Singularity(kind, comps_idx, params)  # as JobSpec.curve will
        except ValueError as exc:
            raise JobParseError(lineno, f"singularity: {exc}")
        # The parameters follow the rules of a local line of the same kind:
        # the count of _germ_family, then the budget and bounds of its family.
        try:
            (_, _, build, letters), family_params = _germ_family(kind, params, "singularity")
        except ValueError as exc:
            raise JobParseError(lineno, str(exc))
        _bounded_build(what, params, letters(*family_params), lambda: build(*family_params), lineno, f"{what}: ")
        for c in comps_idx:
            if not 0 <= c < len(components):
                raise JobParseError(lineno, f"singularity references component {c}, but only {len(components)} declared")
        singularities.append((kind, comps_idx, params))

    spec = JobSpec(
        conductor,
        source,
        names,
        relator_texts,
        eps_values,
        rho_rows,
        tuple(analyses),
        tuple(specialize_values),
        tuple(local_requests),
        tuple(components),
        tuple(singularities),
    )
    spec._complexes = (spec._complex_key(), complexes)

    # Building the complex is the validation of the triple, and the line that
    # supplied the data of its first failure is reported.  A complex that
    # fails its d_i d_(i+1) = 0 check is not kept: run_job builds it again.
    try:
        complexes[None] = _job_complex(source, pres, spec.augmentation(), rho)
    except InvalidTripleError as exc:
        # The line of each subject a failure can blame; the rest fall to the
        # eps, builder or inline line.  rho trivial kills every relator.
        blame = {("singular", index[name]): lineno for lineno, name, _ in rho_lines}
        for i in range(len(pres.relators)):
            if rho_lines:
                blame["rho", i] = rho_lines[0][0]
            if eps_line is None and relator_lines:  # inline relators under the default eps
                blame["eps", i] = relator_lines[i][0]
        line = blame.get(exc.report.subjects[0], eps_line or builder_line or inline_line)
        raise JobParseError(line, f"invalid triple: {exc}")
    except InternalInvariantError:
        pass
    return spec


def _builder_line(spec: JobSpec) -> str:
    """``builder <name> [key=value ...]`` for a job built from a builder."""
    return " ".join(["builder", spec.source[1], *(f"{k}={v}" for k, v in spec.source[2:])])


def serialize_job(spec: JobSpec) -> str:
    """Canonical text for a JobSpec; parse_job(serialize_job(s)) == s."""
    lines = []
    if spec.conductor == 1:
        lines.append("field rational")
    else:
        lines.append(f"field cyclotomic {spec.conductor}")
    if spec.source[0] == "builder":
        lines.append(_builder_line(spec))
    else:
        lines.append("generators " + " ".join(spec.generator_names))
        for text in spec.relator_texts:
            lines.append(f"relator {text}")
    lines.append("eps " + " ".join(f"{n}={v}" for n, v in zip(spec.generator_names, spec.eps_values)))
    for name, rows in zip(spec.generator_names, spec.rho_rows):
        lines.append(f"rho {name} = {_bracketed(rows)}")
    if spec.analyses:
        lines.append("analyze " + " ".join(spec.analyses))
    if spec.specialize_values:
        lines.append("specialize " + ", ".join(spec.specialize_values))
    for kind, params, weights, scalars in spec.local_requests:
        parts = [f"local {kind}"]
        parts.extend(str(p) for p in params)
        parts.append("weights")
        parts.extend(str(w) for w in weights)
        if scalars is not None:
            parts.append("scalars")
            parts.append(", ".join(scalars))
        lines.append(" ".join(parts))
    for degree, weight, euler, meridian in spec.components:
        parts = [f"component degree={degree} weight={weight}"]
        if euler is not None:
            parts.append(f"euler={euler}")
        if meridian is not None:
            parts.append(f"meridian={_bracketed(meridian)}")
        lines.append(" ".join(parts))
    for kind, comps_idx, params in spec.singularities:
        line = f"singularity {kind} components=" + ",".join(str(c) for c in comps_idx)
        if params:
            line += " params=" + ",".join(str(p) for p in params)
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports


def _quotient(num: str, den: str) -> str:
    """The text of a rational function from its record fields, as
    ``str(RationalFunction)`` prints it."""
    return num if den == "1" else f"({num}) / ({den})"


def _local_text(r: dict) -> str:
    text = (
        f"local {r['kind']}{tuple(r['params']) if r['params'] else ''} weights {tuple(r['weights'])}: "
        f"delta0 {r['delta0']}, delta1 {r['delta1']}"
    )
    if r["ratio_numerator"] is not None:
        text += f", ratio {_quotient(r['ratio_numerator'], r['ratio_denominator'])}"
    if r["printed_matches"] is not None:
        text += f", printed formula matches: {'yes' if r['printed_matches'] else 'NO'}"
    return text


def _ranks_text(r: dict) -> str:
    """C_k ... C_0 from the keys c0..c_k, in whatever order they arrive."""
    keys = sorted((key for key in r if key[0] == "c"), key=lambda key: -int(key[1:]))
    return f"chain ranks: {' '.join(f'C{key[1:]}={r[key]}' for key in keys)}, euler {r['euler']}"


# The text line of each record type; a text report is its records rendered
# through this table, line for line.
TEXT_FORMATTERS = {
    "job": lambda r: (
        f"job: {r['source']} ({len(r['generators'])} generators, {len(r['relators'])} relators), "
        f"field {r['field']}, dimension {r['dimension']}"
    ),
    "validation": lambda r: f"validation: {'ok' if r['ok'] else 'FAILED'} (eps image index {r['eps_image_index']})",
    "ranks": _ranks_text,
    "degree": lambda r: (
        f"degree {r['degree']}: free rank {r['free_rank']}, delta {r['delta']}, divisors [{', '.join(r['divisors'])}]"
    ),
    "ratio": lambda r: f"ratio delta1/delta0: {_quotient(r['numerator'], r['denominator'])}",
    "wada": lambda r: (
        f"wada: {_quotient(r['numerator'], r['denominator'])}, agrees with homology: {'yes' if r['agrees'] else 'NO'}"
        if r["applicable"]
        else "wada: not applicable (needs deficiency 1)"
    ),
    "divisibility": lambda r: (
        f"divisibility: delta1 divides bound: {'yes' if r['divides'] else 'NO'}; bound {r['bound']}"
        + "".join(f"; {key} {r[key]}" for key in ("quotient", "witness") if r[key] is not None)
    ),
    "root-field": lambda r: (
        f"root-field: exact {'yes' if r['exact'] else 'no'}, eigenvalues [{', '.join(r['eigenvalues'])}], "
        f"conductor {r['conductor']}, degree {r['degree']}, formula degree {r['formula_degree']}"
    ),
    "alpha": lambda r: f"alpha: {_quotient(r['numerator'], r['denominator'])}",
    # A violated dimension bound raises, so a reported bound always holds.
    "specialize": lambda r: f"specialize t={r['at']}: dims {tuple(r['dims'])}" + (
        f" (bound skipped: {'/'.join(f'H{i}' for i in range(len(r['dims']) - 1))} not torsion)"
        if r["bound_ok"] is None
        else f", multiplicities {tuple(r['multiplicities'])}, bounds {tuple(r['bounds'])}, ok"
    ),
    "local": _local_text,
    "check": lambda r: (
        f"check {r['name']}: {'skipped' if r['ok'] is None else 'ok' if r['ok'] else 'FAIL'}"
        + (f" ({r['detail']})" if r["detail"] else "")
    ),
    "error": lambda r: (
        f"{'internal invariant violated' if r['kind'] == 'invariant' else 'input error'}: {r['message']}"
    ),
    "result": lambda r: "result: " + ("ok" if r["ok"] else f"FAIL ({len(r['failures'])} failed)"),
    "corpus-job": lambda r: f"{r['job']}: {r['verdict']}" + (f" ({r['detail']})" if r["detail"] else ""),
    "corpus-summary": lambda r: f"corpus: {r['ok']} ok, {r['fail']} failed, {r['error']} errors",
}


class _Report:
    """The records of one report in order, plus the failures that decide its
    exit code; the format is applied only when rendering."""

    def __init__(self, fmt: str):
        if fmt not in ("text", "records"):
            raise ValueError(f"unknown format {fmt!r}")
        self.fmt = fmt
        self.records: list[dict] = []
        self.failures: list[str] = []

    def emit(self, record: dict):
        self.records.append(record)

    def fail(self, what: str):
        self.failures.append(what)

    def render(self) -> str:
        if self.fmt == "records":
            lines = [json.dumps(r, sort_keys=True) for r in self.records]
        else:
            lines = [TEXT_FORMATTERS[r["record"]](r) for r in self.records]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# running


def _hopf_curve(spec: JobSpec, lineno_hint: str):
    """For a hopf builder job the at-infinity curve is implied: d lines whose
    weights are read back off eps (the central generator carries the total)."""
    if spec.source[0] == "builder" and spec.source[1] == "hopf":
        d = len(spec.generator_names)
        others = list(spec.eps_values[1:])
        last = spec.eps_values[0] - sum(others)
        weights = others + [last]
        if any(w <= 0 for w in weights):
            raise ValueError(f"{lineno_hint}: eps does not come from positive meridian weights")
        return CurveData([CurveComponent(1, w) for w in weights])
    return None


def _poly_texts():
    """str for the Laurent polynomials of one report, each distinct one
    rendered once: a degree record's delta is often its one divisor, and the
    ratio and wada records print the same polynomials again.  The memo is
    keyed by the canonical fields, which equal polynomials share."""
    memo = {}

    def text(p) -> str:
        key = (p.context, p.low, p.rows, p.den)
        out = memo.get(key)
        if out is None:
            out = memo[key] = str(p)
        return out

    return text


def run_job(spec: JobSpec, *, mode: str = "compute", fmt: str = "text", seed: int = 0) -> tuple[str, int]:
    """Run one job and return (report text, exit code).

    compute mode reports; check mode additionally runs the assertion battery
    (validation, boundary exactness, Euler rank pinning, Wada agreement where
    defined, a seeded Fox identity spot check on the Fox pass that builds
    d2) and fails on any mismatch.  In both modes a specialization whose
    dimensions break the universal coefficient theorem
    (dimension_bound_check) is an internal invariant error, exit 3.
    Output is deterministic: equal spec, mode, format, and seed give
    byte-identical reports.  On a complex without a triple, analyze wada,
    divisibility and root-field are input errors ('<analysis> needs a
    presentation complex'), and the checks that read the triple are skipped
    with detail 'no presentation'.
    """
    out = _Report(fmt)
    if mode not in ("compute", "check"):
        raise ValueError(f"unknown mode {mode!r}")
    text = _poly_texts()

    try:
        out.emit(
            {
                "record": "job",
                "source": _builder_line(spec) if spec.source[0] == "builder" else "inline",
                "field": "rational" if spec.conductor == 1 else f"cyclotomic {spec.conductor}",
                "generators": list(spec.generator_names),
                "relators": list(spec.relator_texts),
                "dimension": len(spec.rho_rows[0]),
            }
        )

        # Building the complex validates the triple; its verdict is the
        # validation record.  A parsed job reuses the complex of parse_job.
        try:
            complex_ = spec.chain_complex()
            failures, index = [], spec.augmentation().image_index()
        except InvalidTripleError as exc:
            failures, index = list(exc.report.failures), exc.report.eps_image_index
        out.emit({"record": "validation", "ok": not failures, "eps_image_index": index, "failures": failures})
        if failures:
            return out.render(), EXIT_INPUT_ERROR
        context, triple = complex_.context, complex_.triple

        result = homology(complex_)

        ranks = {f"c{i}": c for i, c in enumerate(complex_.ranks)}
        out.emit({"record": "ranks", **ranks, "euler": complex_.euler_characteristic})
        for i, shape in enumerate(result.shapes):
            out.emit(
                {
                    "record": "degree",
                    "degree": i,
                    "free_rank": shape.free_rank,
                    "delta": text(result.delta(i)),
                    "divisors": [text(d) for d in shape.divisors],
                }
            )
        ratio = result.ratio() if not result.delta(0).is_zero() else None
        if ratio is not None:
            out.emit(
                {
                    "record": "ratio",
                    "numerator": text(ratio.numerator),
                    "denominator": text(ratio.denominator),
                    "polynomial": ratio.is_polynomial(),
                }
            )

        deficiency_one = triple is not None and triple[0].deficiency == 1
        wada = None  # the minor-formula ratio, once computed

        for analysis in spec.analyses:
            if analysis == "delta":
                continue  # the per-degree records above are the delta output
            if triple is None and analysis in ("wada", "divisibility", "root-field"):
                raise ValueError(f"{analysis} needs a presentation complex")
            if analysis == "wada":
                if not deficiency_one:
                    out.emit({"record": "wada", "applicable": False})
                    out.fail("wada requested on a presentation without deficiency 1")
                    continue
                wada = wada_ratio(complex_, ratio)
                agrees = ratio is not None and wada.unit_equal(ratio)
                out.emit(
                    {
                        "record": "wada",
                        "applicable": True,
                        "numerator": text(wada.numerator),
                        "denominator": text(wada.denominator),
                        "agrees": agrees,
                    }
                )
                if not agrees:
                    out.fail("wada ratio disagrees with the homology ratio")
            elif analysis == "divisibility":
                curve = spec.curve(context) or _hopf_curve(spec, "divisibility")
                if curve is None:
                    raise ValueError(
                        "divisibility needs the hopf builder or component lines describing the curve"
                    )
                bound = infinity_bound(curve, list(triple[2].matrices))
                div = check_divides(result.delta(1), bound)
                out.emit(
                    {
                        "record": "divisibility",
                        "divides": div.divides,
                        "delta": text(div.candidate),
                        "bound": text(div.bound),
                        "quotient": text(div.quotient) if div.quotient is not None else None,
                        "witness": text(div.witness) if div.witness is not None else None,
                    }
                )
                if not div.divides:
                    out.fail("delta1 does not divide the infinity bound")
            elif analysis == "root-field":
                curve = spec.curve(context) or _hopf_curve(spec, "root-field")
                if curve is None:
                    raise ValueError("root-field needs the hopf builder or component lines for the degree")
                rf = root_field(triple[2].matrices[0], curve.degree)
                out.emit(
                    {
                        "record": "root-field",
                        "exact": rf.exact,
                        "eigenvalues": [str(e) for e in rf.eigenvalues],
                        "eigenvalue_orders": list(rf.eigenvalue_orders),
                        "conductor": rf.conductor,
                        "base_conductor": rf.base_conductor,
                        "degree": str(rf.degree),
                        "formula_degree": str(rf.formula_degree),
                    }
                )
            elif analysis == "alpha":
                curve = spec.curve(context)
                if curve is None:
                    raise ValueError("alpha needs component lines with euler= and meridian=")
                alpha = alpha_term(curve)
                out.emit({"record": "alpha", "numerator": text(alpha.numerator), "denominator": text(alpha.denominator)})

        # The dimension bound specializes the complex itself, and its
        # divisor counts are reported when H_i is torsion below the top.
        torsion = all(shape.is_torsion() for shape in result.shapes[:-1])
        for value_text in spec.specialize_values:
            bound_report = dimension_bound_check(result, complex_, parse_scalar(value_text, context))
            record = {"record": "specialize", "at": value_text, "dims": list(bound_report.dims)}
            if torsion:
                record["multiplicities"] = list(bound_report.multiplicities)
                record["bounds"] = list(bound_report.bounds)
            record["bound_ok"] = bound_report.ok if torsion else None
            out.emit(record)

        for index, (kind, params, weights, _) in enumerate(spec.local_requests):
            loc = _germ_polynomial(kind, params, weights, spec.chain_complex(index))
            out.emit(
                {
                    "record": "local",
                    "kind": kind,
                    "params": list(params),
                    "weights": list(weights),
                    "delta0": text(loc.delta0),
                    "delta1": text(loc.delta1),
                    "ratio_numerator": text(loc.ratio.numerator) if loc.ratio is not None else None,
                    "ratio_denominator": text(loc.ratio.denominator) if loc.ratio is not None else None,
                    "printed_matches": loc.printed_matches,
                }
            )
            if loc.printed_matches is False:
                out.fail(f"local {kind}: printed closed form disagrees with the engine")

        if mode == "check":
            _check_battery(out, complex_, result, ratio, wada, deficiency_one, seed)

    except InternalInvariantError as exc:
        out.emit({"record": "error", "kind": "invariant", "message": str(exc)})
        return out.render(), EXIT_INVARIANT
    except (ValueError, ZeroDivisionError) as exc:
        # InvalidTripleError is a ValueError too.
        out.emit({"record": "error", "kind": "input", "message": str(exc)})
        return out.render(), EXIT_INPUT_ERROR

    code = EXIT_OK if not out.failures else EXIT_CHECK_FAILED
    out.emit({"record": "result", "ok": code == EXIT_OK, "failures": out.failures, "exit": code})
    return out.render(), code


def _check_battery(out, complex_, result, ratio, wada, deficiency_one, seed):
    """Assertion battery for check mode; every entry is deterministic given
    the seed.  wada is the minor-formula ratio when the report already
    computed it, else None."""

    def check(name: str, ok: bool | None, detail: str = ""):
        # ok is None for a check that does not apply to this job.
        out.emit({"record": "check", "name": name, "ok": ok, "detail": detail or None})
        if ok is False:
            out.fail(f"check {name}")

    try:
        euler_rank_check(complex_, result)
        check("euler-ranks", True)
    except InternalInvariantError as exc:
        check("euler-ranks", False, str(exc))

    if complex_.triple is None:
        check("wada-agreement", None, "no presentation")
        check("fox-identity", None, "no presentation")
        return
    if deficiency_one:
        w = wada if wada is not None else wada_ratio(complex_, ratio)
        agrees = ratio is not None and w.unit_equal(ratio)
        check("wada-agreement", agrees)
    else:
        check("wada-agreement", None, "not deficiency 1")

    # Fox's fundamental identity on random words, on the engine's own pass
    # (PhiMap.fox_identity).
    rng = random.Random(seed)
    pres, eps, rho = complex_.triple
    count, phi = pres.generator_count, PhiMap(eps, rho)
    trials = 5
    passed = sum(phi.fox_identity(random_word(count, 10, rng)) for _ in range(trials))
    check("fox-identity", passed == trials, f"{passed}/{trials} words, seed {seed}")


# ---------------------------------------------------------------------------
# corpus


def run_corpus(paths, *, fmt: str = "text", seed: int = 0) -> tuple[str, int]:
    """Check every job file and summarize; exit code is the worst one seen."""
    out = _Report(fmt)
    worst = EXIT_OK
    counts = {"ok": 0, "fail": 0, "error": 0}
    for path in paths:
        try:
            spec = parse_job(path.read_text(encoding="utf-8"))
            _, code = run_job(spec, mode="check", seed=seed)
        except JobParseError as exc:
            code = EXIT_INPUT_ERROR
            detail = str(exc)
        else:
            detail = None
        worst = max(worst, code)
        verdict = {EXIT_OK: "ok", EXIT_CHECK_FAILED: "FAIL"}.get(code, "ERROR")
        counts[verdict.lower()] += 1
        out.emit({"record": "corpus-job", "job": path.name, "exit": code, "verdict": verdict, "detail": detail})
    out.emit({"record": "corpus-summary", **counts, "exit": worst})
    return out.render(), worst
