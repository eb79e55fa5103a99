"""Line-oriented job descriptions and the deterministic batch runner.

A job file fixes one twisted triple and a list of analyses, one keyword-led
line each.  Blank lines and lines starting with ``#`` are ignored.

    field rational | field cyclotomic <n>
    builder <name> [key=value ...]
    generators <name> ...                 (inline alternative to builder)
    relator <word>                        (inline only; repeatable)
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
from .laurent import LaurentMatrix
from .presentations import (
    Augmentation,
    InvalidTripleError,
    PhiMap,
    Presentation,
    Representation,
    Word,
    a_odd_augmentation,
    a_odd_presentation,
    a_odd_reduced_presentation,
    braid_cusp_presentation,
    fox_derivative,
    hopf_augmentation,
    hopf_presentation,
    random_word,
    torus_germ_augmentation,
    torus_germ_presentation,
    transversal_union_augmentation,
    transversal_union_presentation,
    validate,
)
from .homology import (
    InternalInvariantError,
    build_complex,
    euler_rank_check,
    homology,
    specialize_homology,
    wada_ratio,
)
from .obstructions import (
    CurveComponent,
    CurveData,
    Singularity,
    alpha_term,
    check_divides,
    dimension_bound_check,
    infinity_bound,
    local_polynomial,
    root_field,
)

ANALYSES = ("delta", "wada", "divisibility", "root-field", "alpha")

LOCAL_KINDS = {"node": 0, "ordinary": 1, "a_odd": 1, "torus": 2, "cusp": 0}

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
        "_rho",
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
        # (rho_rows, Representation): parse_job stores the representation it
        # validated; otherwise it is built from rho_rows on first use.
        self._rho = None

    def context(self) -> FieldContext:
        return FieldContext(self.conductor)

    def presentation(self) -> Presentation:
        relators = [Word.parse(t, self.generator_names) for t in self.relator_texts]
        return Presentation(self.generator_names, relators)

    def augmentation(self) -> Augmentation:
        return Augmentation(self.eps_values)

    def representation(self, context: FieldContext) -> Representation:
        """rho over context, built once per rho_rows: a parsed job reuses the
        representation that parse_job validated."""
        cached = self._rho
        if cached is None or cached[0] is not self.rho_rows or cached[1].context is not context:
            rho = Representation(context, [_scalar_matrix(context, rows) for rows in self.rho_rows])
            cached = self._rho = (self.rho_rows, rho)
        return cached[1]

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
        return (
            self.conductor,
            self.source,
            self.generator_names,
            self.relator_texts,
            self.eps_values,
            self.rho_rows,
            self.analyses,
            self.specialize_values,
            self.local_requests,
            self.components,
            self.singularities,
        )

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


def _build_union_factors(text: str, lineno: int):
    factors = []
    for part in text.split(","):
        part = part.strip()
        bits = part.split(":")
        if bits[0] == "torus" and len(bits) == 3:
            factors.append(("torus", int(bits[1]), int(bits[2])))
        elif bits[0] == "cusp" and len(bits) == 1:
            factors.append(("cusp",))
        elif bits[0] == "line" and len(bits) == 1:
            factors.append(("line",))
        else:
            raise JobParseError(lineno, f"bad union factor {part!r} (torus:p:q, cusp, or line)")
    if not factors:
        raise JobParseError(lineno, "union needs at least one factor")
    return factors


def _int_param(params: dict, key: str, builder: str, lineno: int) -> int:
    if key not in params:
        raise JobParseError(lineno, f"builder {builder} needs {key}=<int>")
    try:
        return int(params[key])
    except ValueError:
        raise JobParseError(lineno, f"builder {builder}: {key} must be an integer, got {params[key]!r}")


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


def _check_letters(count: int, lineno: int):
    if count > MAX_LETTERS:
        raise JobParseError(lineno, f"the relators have {count} letters; the limit is {MAX_LETTERS}")


def _check_span(span: int, what: str, lineno: int):
    if span > MAX_DEGREE_SPAN:
        raise JobParseError(lineno, f"{what} spans {span} powers of t under eps; the limit is {MAX_DEGREE_SPAN}")


def _local_size(kind: str, params, weights) -> tuple[int, int]:
    """Bounds on the relator letters and on the largest relator span under
    eps of the germ presentation that local_polynomial builds for a local
    line (see its kinds), from the line's integers alone."""
    w = sum(abs(x) for x in weights)
    if kind == "torus":
        p, q = params
        return abs(p) + abs(q), 2 * abs(p * q) * w
    if kind == "a_odd":
        return 8 * abs(params[0]), 4 * w
    if kind == "cusp":
        return 6, 6 * w
    k = params[0] if params else 2  # node, ordinary k
    return 4 * abs(k), 4 * w


def _resolve_builder(name: str, params: dict, lineno: int):
    """Return (presentation, default augmentation, canonical params).  The
    letters of the relators are counted before they are built."""
    try:
        if name == "hopf":
            d = _int_param(params, "d", name, lineno)
            extra = set(params) - {"d"}
            _check_letters(4 * (d - 1), lineno)
            pres = hopf_presentation(d)
            return pres, hopf_augmentation([1] * d), (("d", str(d)),), extra
        if name == "a_odd":
            n = _int_param(params, "n", name, lineno)
            extra = set(params) - {"n"}
            _check_letters(8 * n + 3, lineno)
            return a_odd_presentation(n), a_odd_augmentation(n), (("n", str(n)),), extra
        if name == "a_odd_reduced":
            n = _int_param(params, "n", name, lineno)
            extra = set(params) - {"n"}
            _check_letters(8 * n - 1, lineno)
            return a_odd_reduced_presentation(n), a_odd_augmentation(n), (("n", str(n)),), extra
        if name == "torus":
            p = _int_param(params, "p", name, lineno)
            q = _int_param(params, "q", name, lineno)
            extra = set(params) - {"p", "q"}
            _check_letters(p + q, lineno)
            return (
                torus_germ_presentation(p, q),
                torus_germ_augmentation(p, q),
                (("p", str(p)), ("q", str(q))),
                extra,
            )
        if name == "cusp":
            return braid_cusp_presentation(), Augmentation([1, 1]), (), set(params)
        if name == "circle":
            return Presentation(["x0"], []), Augmentation([1]), (), set(params)
        if name == "union":
            if "factors" not in params:
                raise JobParseError(lineno, "builder union needs factors=torus:p:q,... ")
            factors = _build_union_factors(params["factors"], lineno)
            extra = set(params) - {"factors"}
            # Each factor's own relator, then a commutator per pair of
            # generators from distinct factors.
            sizes = [1 if f[0] == "line" else 2 for f in factors]
            pairs = (sum(sizes) ** 2 - sum(k * k for k in sizes)) // 2
            own = sum(f[1] + f[2] if f[0] == "torus" else 6 if f[0] == "cusp" else 0 for f in factors)
            _check_letters(own + 4 * pairs, lineno)
            canon = ",".join(":".join(str(x) for x in f) for f in factors)
            pres = transversal_union_presentation(factors)
            eps = transversal_union_augmentation(factors, [1] * len(factors))
            return pres, eps, (("factors", canon),), extra
    except JobParseError:
        raise
    except ValueError as exc:
        raise JobParseError(lineno, str(exc))
    raise JobParseError(
        lineno,
        f"unknown builder {name!r}; available: {', '.join(sorted(BUILDER_SUMMARY))}",
    )


BUILDER_SUMMARY = {
    "hopf": "d=<int>         generalized Hopf link group on x0..x(d-1), x0 central",
    "a_odd": "n=<int>         A_(2n-1) germ group, full 2n+1 relator presentation",
    "a_odd_reduced": "n=<int>         A_(2n-1) germ group without its redundant relator",
    "torus": "p=<int> q=<int>  irreducible germ <x, y | x^p = y^q>",
    "cusp": "(no parameters) cusp germ in braid form <x, y | xyx = yxy>",
    "union": "factors=f1,f2   transversal union; factor = torus:p:q | cusp | line",
    "circle": "(no parameters) one generator, no relators",
}


# ---------------------------------------------------------------------------
# parsing


def _split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on sep at bracket depth zero."""
    parts, depth, buf = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _tokenize_outside_brackets(text: str) -> list[str]:
    """Whitespace-split, but keep bracketed groups (and their inner spaces)
    attached to the token they start in."""
    tokens, depth, buf = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch.isspace() and depth == 0:
            if buf:
                tokens.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if buf:
        tokens.append("".join(buf))
    return tokens


def _matrix_text(values) -> tuple:
    """Rows of field elements as rows of canonical scalar text."""
    return tuple(tuple(str(e) for e in row) for row in values)


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
        tokens = _tokenize_outside_brackets(line)
        keyword = tokens[0]
        rest = tokens[1:]
        if keyword == "field":
            if field_line is not None:
                raise JobParseError(lineno, "repeated field line")
            field_line = lineno
            if rest == ["rational"]:
                conductor = 1
            elif len(rest) == 2 and rest[0] == "cyclotomic":
                try:
                    conductor = int(rest[1])
                except ValueError:
                    raise JobParseError(lineno, f"conductor must be an integer, got {rest[1]!r}")
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
                raise JobParseError(lineno, f"builder line needs a name; available: {', '.join(sorted(BUILDER_SUMMARY))}")
            builder_line = lineno
            builder_name = rest[0]
            builder_params = _parse_kv(rest[1:], lineno, {"d", "n", "p", "q", "factors"}, f"builder {builder_name}")
        elif keyword == "generators":
            if builder_line is not None or inline_line is not None:
                raise JobParseError(lineno, "only one builder/generators line per job")
            if not rest:
                raise JobParseError(lineno, "generators line needs at least one name")
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
            if rest and rest[0] == "trivial":
                if rho_trivial is not None or rho_lines:
                    raise JobParseError(lineno, "rho trivial cannot be combined with other rho lines")
                if len(rest) != 2:
                    raise JobParseError(lineno, "rho trivial needs a dimension: rho trivial <dim>")
                try:
                    dim = int(rest[1])
                except ValueError:
                    raise JobParseError(lineno, f"rho trivial dimension must be an integer, got {rest[1]!r}")
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
        pres, default_eps, canon_params, extra = _resolve_builder(builder_name, builder_params, builder_line)
        if extra:
            raise JobParseError(
                builder_line, f"builder {builder_name}: unexpected parameters {', '.join(sorted(extra))}"
            )
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
            try:
                assigned[index[name]] = int(val)
            except ValueError:
                raise JobParseError(eps_line, f"eps value for {name!r} must be an integer, got {val!r}")
            if abs(assigned[index[name]]) > MAX_EPS:
                raise JobParseError(eps_line, f"eps value for {name!r} is over the limit of {MAX_EPS} in size")
        missing = [names[i] for i in range(len(names)) if i not in assigned]
        if missing:
            raise JobParseError(eps_line, f"eps line must cover every generator; missing {', '.join(missing)}")
        eps_values = tuple(assigned[i] for i in range(len(names)))
    for i, relator in enumerate(pres.relators):
        span = sum(abs(eps_values[g]) for g, _ in relator.letters)
        _check_span(span, f"relator {i}", eps_line or builder_line or relator_lines[i][0])

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

    # local lines
    local_requests = []
    for lineno, tokens in local_lines:
        if not tokens:
            raise JobParseError(lineno, f"local line needs a kind; available: {', '.join(sorted(LOCAL_KINDS))}")
        kind = tokens[0]
        if kind not in LOCAL_KINDS:
            raise JobParseError(lineno, f"unknown local kind {kind!r}; available: {', '.join(sorted(LOCAL_KINDS))}")
        rest = tokens[1:]
        params = []
        i = 0
        while i < len(rest) and rest[i] not in ("weights", "scalars"):
            try:
                params.append(int(rest[i]))
            except ValueError:
                raise JobParseError(lineno, f"local {kind}: expected integer parameter, got {rest[i]!r}")
            i += 1
        if len(params) != LOCAL_KINDS[kind]:
            raise JobParseError(lineno, f"local {kind} takes {LOCAL_KINDS[kind]} integer parameter(s)")
        if i >= len(rest) or rest[i] != "weights":
            raise JobParseError(lineno, f"local {kind}: missing 'weights' section")
        i += 1
        weights = []
        while i < len(rest) and rest[i] != "scalars":
            try:
                weights.append(int(rest[i]))
            except ValueError:
                raise JobParseError(lineno, f"local {kind}: weights must be integers, got {rest[i]!r}")
            i += 1
        if not weights:
            raise JobParseError(lineno, f"local {kind}: needs at least one weight")
        letters, span = _local_size(kind, params, weights)
        _check_letters(letters, lineno)
        _check_span(span, f"local {kind}", lineno)
        scalars = None
        if i < len(rest):
            scalar_text = " ".join(rest[i + 1 :])
            if not scalar_text:
                raise JobParseError(lineno, f"local {kind}: scalars section is empty")
            scalars = []
            for part in _split_top_level(scalar_text):
                try:
                    scalars.append(str(parse_scalar(part, context)))
                except ValueError as exc:
                    raise JobParseError(lineno, f"local {kind}: {exc}")
            scalars = tuple(scalars)
        local_requests.append((kind, tuple(params), tuple(weights), scalars))

    # component lines
    components = []
    for lineno, kv in component_lines:
        if "degree" not in kv or "weight" not in kv:
            raise JobParseError(lineno, "component line needs degree= and weight=")
        try:
            degree = int(kv["degree"])
            weight = int(kv["weight"])
            euler = int(kv["euler"]) if "euler" in kv else None
        except ValueError as exc:
            raise JobParseError(lineno, f"component: {exc}")
        meridian = None
        if "meridian" in kv:
            meridian = _matrix_text(_parse_matrix_text(kv["meridian"], context, lineno, "component meridian"))
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
        try:
            comps_idx = tuple(int(c) for c in kv["components"].split(","))
            params = tuple(int(p) for p in kv["params"].split(",")) if "params" in kv else ()
        except ValueError as exc:
            raise JobParseError(lineno, f"singularity: {exc}")
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

    spec._rho = (spec.rho_rows, rho)

    # The triple itself must validate; report the first failure against the
    # line that supplied the failing data.
    report = validate(pres, spec.augmentation(), rho)
    if not report.ok:
        message = "; ".join(report.failures)
        line = eps_line or (rho_lines[0][0] if rho_lines else None) or builder_line or inline_line or 1
        if "eps" in message and eps_line is not None:
            line = eps_line
        elif rho_lines:
            line = rho_lines[0][0]
        elif rho_trivial is not None:
            line = rho_trivial[0]
        raise JobParseError(line, f"invalid triple: {message}")
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
        body = ", ".join("[" + ", ".join(row) + "]" for row in rows)
        lines.append(f"rho {name} = [{body}]")
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
            body = ", ".join("[" + ", ".join(row) + "]" for row in meridian)
            parts.append(f"meridian=[{body}]")
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


# The text line of each record type; a text report is its records rendered
# through this table, line for line.
TEXT_FORMATTERS = {
    "job": lambda r: (
        f"job: {r['source']} ({len(r['generators'])} generators, {len(r['relators'])} relators), "
        f"field {r['field']}, dimension {r['dimension']}"
    ),
    "validation": lambda r: f"validation: {'ok' if r['ok'] else 'FAILED'} (eps image index {r['eps_image_index']})",
    "ranks": lambda r: f"chain ranks: C2={r['c2']} C1={r['c1']} C0={r['c0']}, euler {r['euler']}",
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
        " (bound skipped: H0/H1 not torsion)"
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


def run_job(spec: JobSpec, *, mode: str = "compute", fmt: str = "text", seed: int = 0) -> tuple[str, int]:
    """Run one job and return (report text, exit code).

    compute mode reports; check mode additionally runs the assertion battery
    (validation, boundary exactness, Euler rank pinning, Wada agreement where
    defined, a seeded Fox identity spot check) and fails on any mismatch.
    Output is deterministic: equal spec, mode, format, and seed give
    byte-identical reports.
    """
    out = _Report(fmt)
    if mode not in ("compute", "check"):
        raise ValueError(f"unknown mode {mode!r}")

    try:
        context = spec.context()
        pres = spec.presentation()
        eps = spec.augmentation()
        rho = spec.representation(context)

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

        # build_complex validates the triple; its verdict is the validation
        # record.
        try:
            complex_ = build_complex(pres, eps, rho)
            failures, index = [], eps.image_index()
        except InvalidTripleError as exc:
            failures, index = list(exc.report.failures), exc.report.eps_image_index
        out.emit({"record": "validation", "ok": not failures, "eps_image_index": index, "failures": failures})
        if failures:
            return out.render(), EXIT_INPUT_ERROR

        result = homology(complex_)

        out.emit(
            {
                "record": "ranks",
                "c2": complex_.rank2,
                "c1": complex_.rank1,
                "c0": complex_.rank0,
                "euler": complex_.euler_characteristic,
            }
        )
        for i in range(3):
            shape = result.shape(i)
            out.emit(
                {
                    "record": "degree",
                    "degree": i,
                    "free_rank": shape.free_rank,
                    "delta": str(result.delta(i)),
                    "divisors": [str(d) for d in shape.divisors],
                }
            )
        ratio = result.ratio() if not result.delta(0).is_zero() else None
        if ratio is not None:
            out.emit(
                {
                    "record": "ratio",
                    "numerator": str(ratio.numerator),
                    "denominator": str(ratio.denominator),
                    "polynomial": ratio.is_polynomial(),
                }
            )

        deficiency_one = pres.relator_count == pres.generator_count - 1
        wada = None  # the minor-formula ratio, once computed

        for analysis in spec.analyses:
            if analysis == "delta":
                continue  # the per-degree records above are the delta output
            if analysis == "wada":
                if not deficiency_one:
                    out.emit({"record": "wada", "applicable": False})
                    out.fail("wada requested on a presentation without deficiency 1")
                    continue
                wada = wada_ratio(complex_)
                agrees = ratio is not None and wada.unit_equal(ratio)
                out.emit(
                    {
                        "record": "wada",
                        "applicable": True,
                        "numerator": str(wada.numerator),
                        "denominator": str(wada.denominator),
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
                bound = infinity_bound(curve, list(rho.matrices))
                div = check_divides(result.delta(1), bound)
                out.emit(
                    {
                        "record": "divisibility",
                        "divides": div.divides,
                        "delta": str(div.candidate),
                        "bound": str(div.bound),
                        "quotient": str(div.quotient) if div.quotient is not None else None,
                        "witness": str(div.witness) if div.witness is not None else None,
                    }
                )
                if not div.divides:
                    out.fail("delta1 does not divide the infinity bound")
            elif analysis == "root-field":
                curve = spec.curve(context) or _hopf_curve(spec, "root-field")
                if curve is None:
                    raise ValueError("root-field needs the hopf builder or component lines for the degree")
                rf = root_field(rho.matrices[0], curve.degree)
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
                out.emit({"record": "alpha", "numerator": str(alpha.numerator), "denominator": str(alpha.denominator)})

        # The dimension bound specializes the complex itself; only a job
        # without it calls specialize_homology here.
        for value_text in spec.specialize_values:
            value = parse_scalar(value_text, context)
            if result.h0.free_rank == 0 and result.h1.free_rank == 0:
                bound_report = dimension_bound_check(result, complex_, value)
                out.emit(
                    {
                        "record": "specialize",
                        "at": value_text,
                        "dims": list(bound_report.dims),
                        "multiplicities": list(bound_report.multiplicities),
                        "bounds": list(bound_report.bounds),
                        "bound_ok": bound_report.ok,
                    }
                )
            else:
                dims = specialize_homology(complex_, value)
                out.emit({"record": "specialize", "at": value_text, "dims": list(dims), "bound_ok": None})

        for kind, params, weights, scalar_texts in spec.local_requests:
            scalars = None
            if scalar_texts is not None:
                scalars = [parse_scalar(s, context) for s in scalar_texts]
            loc = local_polynomial(context, kind, weights, scalars=scalars, params=params)
            out.emit(
                {
                    "record": "local",
                    "kind": kind,
                    "params": list(params),
                    "weights": list(weights),
                    "delta0": str(loc.delta0),
                    "delta1": str(loc.delta1),
                    "ratio_numerator": str(loc.ratio.numerator) if loc.ratio is not None else None,
                    "ratio_denominator": str(loc.ratio.denominator) if loc.ratio is not None else None,
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

    if deficiency_one:
        w = wada if wada is not None else wada_ratio(complex_)
        agrees = ratio is not None and w.unit_equal(ratio)
        check("wada-agreement", agrees)
    else:
        check("wada-agreement", None, "not deficiency 1")

    # Fox fundamental identity on random words: Phi(w) - Id equals
    # sum_g Phi(dw/dg) (Phi(g) - Id).
    rng = random.Random(seed)
    pres = complex_.presentation
    phi = PhiMap(complex_.eps, complex_.rho)
    eye = LaurentMatrix.identity(complex_.context, complex_.rho.dimension)
    passed = 0
    trials = 5
    for _ in range(trials):
        w = random_word(pres.generator_count, 10, rng)
        lhs = phi.word_image(w) - eye
        total = None
        for g in range(pres.generator_count):
            term = phi.element_image(fox_derivative(w, g)) * (phi.generator_image(g) - eye)
            total = term if total is None else total + term
        if total is not None and (lhs - total).is_zero():
            passed += 1
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
