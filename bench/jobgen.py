"""Seeded job texts for the benchmark workloads.

The job index fixes each job's structure (builder, sizes, weights, field,
sparsity) and the seed picks the values (roots of unity, signs), so every
seed gives a job list of about the same cost and the run-to-run spread of
the metrics is the program's, not the draw's.

Everything here is independent of the package under test: representations
are built in the integral group ring Z[C_n] (integer polynomials in z with
z^n = 1), which maps onto Z[zeta_n] by a ring homomorphism, so a relation
that holds here holds exactly in Q(zeta_n).  Only inverse-free
constructions are used (unitriangular factors, roots of unity), so no
division is ever needed.  The same seed gives byte-identical texts.

Each generator returns a list of ``Job`` records: the job text plus the
facts the correctness gate needs (for Hopf jobs, the scalar lambda_j of
rho(x0) = diag(lambda_j) and eps(x0)).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

@dataclass(frozen=True)
class Job:
    name: str
    text: str
    # For Hopf jobs: (d, eps(x0), conductor, diagonal of rho(x0) as scalar
    # texts); the gate checks ratio = det(Phi(x0) - Id)^(d-2) up to a unit.
    hopf: tuple | None = None
    # Seed of the check battery's random Fox-identity words.  It follows the
    # job, not the benchmark seed, so every seed draws words of the same
    # total length.
    check_seed: int = 0


# ---------------------------------------------------------------------------
# Z[C_n] arithmetic: an element is a tuple of n integers, index k the
# coefficient of z^k.


def mono(n: int, c: int, k: int) -> tuple:
    out = [0] * n
    out[k % n] = c
    return tuple(out)


def zadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def zneg(a):
    return tuple(-x for x in a)


def zmul(a, b):
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % n] += x * y
    return tuple(out)


def mat_mul(A, B):
    n = len(A[0][0])
    return [
        [
            _sum([zmul(A[i][k], B[k][j]) for k in range(len(B))], n)
            for j in range(len(B[0]))
        ]
        for i in range(len(A))
    ]


def _sum(items, n):
    acc = (0,) * n
    for x in items:
        acc = zadd(acc, x)
    return acc


def diag(entries, n):
    r = len(entries)
    return [[entries[i] if i == j else (0,) * n for j in range(r)] for i in range(r)]


def unit_lower(r, n, rng):
    """A unit lower-triangular matrix with entries +-z^k below the
    diagonal.  Every entry is nonzero, so the seed changes values, not the
    sparsity that sets the cost of the job."""
    return [
        [mono(n, 1, 0) if i == j else (_small(n, rng) if i > j else (0,) * n) for j in range(r)]
        for i in range(r)
    ]


def transpose(A):
    return [list(row) for row in zip(*A)]


def unit_lower_inverse(L):
    """Forward substitution; exact in Z[C_n] because the diagonal is 1."""
    r = len(L)
    n = len(L[0][0])
    X = [[mono(n, 1, 0) if i == j else (0,) * n for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(i):
            acc = (0,) * n
            for k in range(j, i):
                acc = zadd(acc, zmul(L[i][k], X[k][j]))
            X[i][j] = zneg(acc)
    return X


def _small(n, rng):
    return mono(n, rng.choice((1, -1)), rng.randrange(n))


def root_of_unity(n, rng, signed=True):
    """(element, inverse) for +-z^k."""
    k = rng.randrange(n)
    s = rng.choice((1, -1)) if signed else 1
    return mono(n, s, k), mono(n, s, -k)


def scalar_text(a) -> str:
    terms = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "z" if k == 1 else f"z^{k}"
        else:
            body = f"{abs(c)}*z" if k == 1 else f"{abs(c)}*z^{k}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def matrix_text(M) -> str:
    return "[" + ", ".join("[" + ", ".join(scalar_text(e) for e in row) + "]" for row in M) + "]"


# ---------------------------------------------------------------------------
# long_relators: Fox evaluation dominates.


def long_relator_jobs(rng: random.Random, count: int) -> list[Job]:
    """Two-generator inline presentations with one relator of length 60-140
    (a ladder in steps of 2), alternately x^a y^-a and the commutator
    [x^a, y^b], twisted by a rank-1 root-of-unity rho over Q(zeta_6)."""
    n = 6
    jobs = []
    for i in range(count):
        length = 60 + 2 * (i % 41)
        w = 1 + (i // 2) % 2
        if i % 2 == 0:
            a = length // 2
            # rho(x)^a = rho(y)^a: pick kx, ky with a (kx - ky) = 0 mod 6.
            kx = rng.randrange(n)
            ky = (kx - rng.choice([s for s in range(n) if (a * s) % n == 0])) % n
            relator = f"x^{a} y^-{a}"
        else:
            a = length // 4 + (i // 2) % 3 - 1
            b = length // 2 - a
            kx, ky = rng.randrange(n), rng.randrange(n)
            relator = f"x^{a} y^{b} x^-{a} y^-{b}"
        text = "\n".join(
            [
                f"# long relator, length {length}",
                f"field cyclotomic {n}",
                "generators x y",
                f"relator {relator}",
                f"eps x={w} y={w}",
                f"rho x = [[{scalar_text(mono(n, 1, kx))}]]",
                f"rho y = [[{scalar_text(mono(n, 1, ky))}]]",
                "analyze delta wada",
            ]
        )
        jobs.append(Job(f"long_relators/{i:03d}", text + "\n"))
    return jobs


# ---------------------------------------------------------------------------
# twisted_snf: Smith forms over F[t, t^-1] and field arithmetic dominate.


def _invertible(r, n, rng):
    """(M, M^-1) with M = L D U: unitriangular L, U and a diagonal of signed
    roots of unity, so the inverse is exact in Z[C_n]."""
    L = unit_lower(r, n, rng)
    U = transpose(unit_lower(r, n, rng))
    d, dinv = zip(*(root_of_unity(n, rng) for _ in range(r)))
    M = mat_mul(mat_mul(L, diag(d, n)), U)
    Linv = unit_lower_inverse(L)
    Uinv = transpose(unit_lower_inverse(transpose(U)))
    Minv = mat_mul(mat_mul(Uinv, diag(dinv, n)), Linv)
    return M, Minv


def hopf_job(rng, name, n, d, r, analyses, extra_lines=(), comment=""):
    """Generalized Hopf group with unit meridian weights: rho(x0) = lambda * Id
    is central, the other generators are random invertible matrices."""
    lam, _ = root_of_unity(n, rng)
    e0 = d
    lines = [f"# {comment}" if comment else f"# hopf d={d} rank {r}"]
    lines.append("field rational" if n == 1 else f"field cyclotomic {n}")
    lines.append(f"builder hopf d={d}")
    lines.append(f"eps x0={e0}" + "".join(f" x{i}=1" for i in range(1, d)))
    lines.append(f"rho x0 = {matrix_text(diag([lam] * r, n))}")
    for i in range(1, d):
        if r == 1:
            M = [[root_of_unity(n, rng)[0]]]
        else:
            M, _ = _invertible(r, n, rng)
        lines.append(f"rho x{i} = {matrix_text(M)}")
    lines.append("analyze " + " ".join(analyses))
    lines.extend(extra_lines)
    return Job(name, "\n".join(lines) + "\n", hopf=(d, e0, n, (scalar_text(lam),) * r))


def a_odd_reduced_job(rng, name, n, cond, r):
    """A_(2n-1) germ group without its redundant relator.  rho(b) = Q with
    Q^n scalar (Q = S diag(base * eta_j) S^-1, eta_j^n = 1), rho(a0) = A,
    rho(a1) = Q A^-1 and rho(a(i+2)) = Q^-1 rho(a(i)) Q."""
    m = 2 * n
    S, Sinv = _invertible(r, cond, rng)
    base, base_inv = root_of_unity(cond, rng, signed=False)
    # Distinct n-th roots of unity on the diagonal keep Q from being scalar.
    etas = [(j % n) * (cond // n) for j in range(r)]
    D = diag([zmul(base, mono(cond, 1, e)) for e in etas], cond)
    Dinv = diag([zmul(base_inv, mono(cond, 1, -e)) for e in etas], cond)
    Q = mat_mul(mat_mul(S, D), Sinv)
    Qinv = mat_mul(mat_mul(S, Dinv), Sinv)
    A, Ainv = _invertible(r, cond, rng)
    images = [A, mat_mul(Q, Ainv)]
    for i in range(2, m):
        images.append(mat_mul(mat_mul(Qinv, images[i - 2]), Q))
    lines = [f"# a_odd_reduced n={n} rank {r}", f"field cyclotomic {cond}", f"builder a_odd_reduced n={n}"]
    for i, M in enumerate(images):
        lines.append(f"rho a{i} = {matrix_text(M)}")
    lines.append(f"rho b = {matrix_text(Q)}")
    lines.append("analyze delta wada")
    return Job(name, "\n".join(lines) + "\n")


def twisted_snf_jobs(rng: random.Random, count: int) -> list[Job]:
    """Rank-2/3 Hopf (d = 4..6) and rank-2 A_(2n-1) (n = 2, 3) jobs over
    Q(zeta_12), each with the Wada ratio and one specialization.  The
    largest Smith forms (A_5, and Hopf over Q(zeta_60)) are two sevenths of
    the jobs, so p90 falls inside that group rather than at its edge.

    The job grammar reads a specialization point in the job's own field, so
    the Q(zeta_60) point needs a job declared over Q(zeta_60); its rho keeps
    values in the Q(zeta_12) subfield (z -> z^5)."""
    shapes = [("hopf", 4, 2, 12), ("hopf", 5, 2, 12), ("hopf", 6, 2, 12), ("hopf", 4, 3, 12),
              ("a_odd_reduced", 2, 2, 12), ("a_odd_reduced", 3, 2, 12), ("hopf", 4, 2, 60)]
    jobs = []
    for i in range(count):
        kind, size, r, field_n = shapes[i % len(shapes)]
        name = f"twisted_snf/{i:03d}-{kind}{size}r{r}z{field_n}"
        if kind == "hopf":
            job = hopf_job(rng, name, 12, size, r, ("delta", "wada"))
        else:
            job = a_odd_reduced_job(rng, name, size, 12, r)
        if field_n == 60:
            job = _embed_12_in_60(job)
            k = rng.choice([k for k in range(1, 60) if all(k % p for p in (2, 3, 5))])
        else:
            k = rng.randrange(1, 12)
        jobs.append(Job(job.name, job.text + f"specialize {scalar_text(mono(field_n, 1, k))} + 1/2\n", job.hopf))
    return jobs


def _embed_12_in_60(job: Job) -> Job:
    """Rewrite a Q(zeta_12) job over Q(zeta_60) through zeta_12 = z^5."""
    def lift(text):
        return re.sub(r"z(?:\^(\d+))?", lambda m: f"z^{5 * int(m.group(1) or 1)}", text)

    text = job.text.replace("field cyclotomic 12", "field cyclotomic 60")
    body = "\n".join(lift(line) if line.startswith("rho ") else line for line in text.splitlines())
    hopf = None
    if job.hopf is not None:
        d, e0, _, diagonal = job.hopf
        hopf = (d, e0, 60, tuple(lift(x) for x in diagonal))
    return Job(job.name, body + "\n", hopf)


# ---------------------------------------------------------------------------
# corpus_check: small jobs where per-job overhead matters.


def _field(n):
    return "field rational" if n == 1 else f"field cyclotomic {n}"


def _root(n, rng):
    """A root of unity z^k as job text (``1`` over Q or for k = 0)."""
    return "1" if n == 1 else scalar_text(mono(n, 1, rng.randrange(n)))


def _point(n, rng):
    return rng.choice(["-1", "2", "1/3"]) if n == 1 else f"{_root(n, rng)} + 1/2"


def _pick(k, *options):
    """Mixed-radix choice: the k-th combination of the option lists."""
    out = []
    for opts in options:
        k, j = divmod(k, len(opts))
        out.append(opts[j])
    return out


def _hopf_variant(k, rng, name):
    n, d, (w1, w2) = _pick(k, (4, 6, 12, 1), (2, 3, 4), ((1, 1), (1, 2), (2, 1)))
    local = f"local node weights {w1} {w2}"
    if n > 1:
        local += f" scalars {_root(n, rng)}, {_root(n, rng)}"
    return hopf_job(rng, name, n, d, 1, ("delta", "wada", "divisibility", "root-field"),
                    [f"specialize {_point(n, rng)}", local], comment=f"hopf d={d} rank-1 variant")


def _torus_variant(k, rng, name):
    (p, q), n, w = _pick(k, ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7)), (6, 12), (1, 2))
    kx, ky = rng.choice([(a, b) for a in range(n) for b in range(n) if (p * a - q * b) % n == 0])
    sx, sy = scalar_text(mono(n, 1, kx)), scalar_text(mono(n, 1, ky))
    lines = [f"# torus germ {p},{q} variant", _field(n), f"builder torus p={p} q={q}",
             f"eps x={q * w} y={p * w}", f"rho x = [[{sx}]]", f"rho y = [[{sy}]]",
             "analyze delta wada", f"specialize {_point(n, rng)}",
             f"local torus {p} {q} weights {w} scalars {sx}, {sy}"]
    return Job(name, "\n".join(lines) + "\n")


def _cusp_variant(k, rng, name):
    n, w = _pick(k, (6, 12), (1, 2, 3))
    s = _root(n, rng)
    lines = ["# cusp variant", _field(n), "builder cusp", f"eps x={w} y={w}",
             f"rho x = [[{s}]]", f"rho y = [[{s}]]", "analyze delta wada",
             f"local cusp weights {w} scalars {s}"]
    return Job(name, "\n".join(lines) + "\n")


def _a_odd_variant(k, rng, name, reduced):
    n, cond, shift = _pick(k, (2, 3) if reduced else (1, 2), (4, 6, 12), (0, 1, 2))
    # The ratio of the two branch values sets the homology, and with it the
    # cost, so it follows the index; the seed picks the first value.
    ke = rng.randrange(cond)
    ko = ke + shift * cond // 4 + (shift == 1)
    even, odd = scalar_text(mono(cond, 1, ke)), scalar_text(mono(cond, 1, ko))
    builder = "a_odd_reduced" if reduced else "a_odd"
    lines = [f"# {builder} variant", _field(cond), f"builder {builder} n={n}"]
    lines += [f"rho a{i} = [[{even if i % 2 == 0 else odd}]]" for i in range(2 * n)]
    lines.append(f"rho b = [[{scalar_text(mono(cond, 1, ke + ko))}]]")
    if reduced:
        lines += ["analyze delta wada", f"local a_odd {n} weights 1 1 scalars {even}, {odd}"]
    else:
        lines += ["analyze delta", f"specialize {_point(cond, rng)}"]
    return Job(name, "\n".join(lines) + "\n")


def _union_variant(k, rng, name):
    factors, pair = _pick(k, (("torus:2:3", "line"), ("cusp", "line"), ("line", "line"),
                              ("torus:2:3", "cusp"), ("cusp", "cusp"), ("torus:2:3", "torus:2:3")),
                          range(6))
    n = 6
    # x^2 = y^3 in rank 1 over Q(zeta_6); which solution (trivial or not on
    # each generator) sets the cost, so it follows the index.
    torus_pairs = [(a, b) for a in range(n) for b in range(n) if (2 * a - 3 * b) % n == 0]
    lines = ["# transversal union variant", _field(n), f"builder union factors={','.join(factors)}"]
    names = iter("xyzwuvab")
    for f in factors:
        if f == "line":
            lines.append(f"rho {next(names)} = [[{_root(n, rng)}]]")
        elif f == "cusp":
            s = _root(n, rng)
            lines += [f"rho {next(names)} = [[{s}]]", f"rho {next(names)} = [[{s}]]"]
        else:
            kx, ky = torus_pairs[pair]
            pair = (pair + 1) % len(torus_pairs)
            lines += [f"rho {next(names)} = [[{scalar_text(mono(n, 1, kx))}]]",
                      f"rho {next(names)} = [[{scalar_text(mono(n, 1, ky))}]]"]
    lines += ["analyze delta", f"specialize {_point(n, rng)}"]
    return Job(name, "\n".join(lines) + "\n")


def _circle_variant(k, rng, name):
    (n,) = _pick(k, (1, 4, 6))
    lines = ["# circle variant", _field(n), "builder circle", f"rho x0 = [[{_root(n, rng)}]]",
             "analyze delta wada", f"specialize {_point(n, rng)}"]
    return Job(name, "\n".join(lines) + "\n")


def _two_lines_variant(k, rng, name):
    """Two lines meeting in a node, inline: a = x0 is the product of both
    meridians, b the first one."""
    n, (w1, w2) = _pick(k, (1, 4, 6), ((1, 1), (1, 2), (2, 1)))
    kb, kc = (0, 0) if n == 1 else (rng.randrange(n), rng.randrange(n))
    sa, sb, sc = (scalar_text(mono(n, 1, k)) if n > 1 else "1" for k in (kb + kc, kb, kc))
    lines = ["# two lines inline variant", _field(n), "generators a b", "relator a b a^-1 b^-1",
             f"eps a={w1 + w2} b={w1}", f"rho a = [[{sa}]]", f"rho b = [[{sb}]]",
             "analyze delta wada divisibility alpha",
             f"component degree=1 weight={w1} euler=1 meridian=[[{sb}]]",
             f"component degree=1 weight={w2} euler=1 meridian=[[{sc}]]",
             "singularity node components=0,1", f"specialize {_point(n, rng)}"]
    return Job(name, "\n".join(lines) + "\n")


_VARIANTS = (
    _hopf_variant,
    _torus_variant,
    _cusp_variant,
    lambda k, rng, name: _a_odd_variant(k, rng, name, reduced=False),
    lambda k, rng, name: _a_odd_variant(k, rng, name, reduced=True),
    _union_variant,
    _circle_variant,
    _two_lines_variant,
)


def corpus_jobs(rng: random.Random, count: int, sample_dir: Path) -> list[Job]:
    """The sample corpus followed by seeded rank-1 variants that cover every
    builder and every analysis."""
    jobs = []
    for path in sorted(sample_dir.glob("*.job")):
        text = path.read_text(encoding="utf-8")
        jobs.append(Job(f"corpus_check/{path.stem}", text, hopf=_sample_hopf_facts(text)))
    for i in range(count - len(jobs)):
        k, family = divmod(i, len(_VARIANTS))
        jobs.append(_VARIANTS[family](k, rng, f"corpus_check/variant-{i:03d}"))
    return [Job(j.name, j.text, j.hopf, check_seed=i) for i, j in enumerate(jobs)]


def _sample_hopf_facts(text: str):
    """Closed-form facts of a hand-written Hopf job: its rho(x0) must be
    diagonal unless d = 2, where the expected ratio is 1 whatever rho is."""
    m = re.search(r"^builder hopf d=(\d+)", text, re.M)
    if m is None:
        return None
    d = int(m.group(1))
    field = re.search(r"^field cyclotomic (\d+)", text, re.M)
    n = int(field.group(1)) if field else 1
    eps = re.search(r"^eps x0=(-?\d+)", text, re.M)
    e0 = int(eps.group(1)) if eps else d
    trivial = re.search(r"^rho trivial (\d+)", text, re.M)
    if trivial:
        return (d, e0, n, ("1",) * int(trivial.group(1)))
    rows = [r.strip(" []").split(",") for r in re.search(r"^rho x0 = \[(.*)\]$", text, re.M).group(1).split("], [")]
    off = [e.strip() for i, row in enumerate(rows) for j, e in enumerate(row) if i != j]
    if any(e != "0" for e in off):
        if d != 2:
            raise ValueError("hopf facts need a diagonal rho(x0) when d > 2")
        return (d, e0, n, ())
    return (d, e0, n, tuple(row[i].strip() for i, row in enumerate(rows)))
