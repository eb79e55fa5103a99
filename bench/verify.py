"""Correctness gate for one job's output, independent of the package.

A job fails when its exit code is not 0, when its own report says a check
failed (a ``wada`` record with ``agrees: false``, a ``specialize`` record with
``bound_ok: false``, a ``check`` record that is not ok, a result that is not
ok), or when a Hopf job breaks the closed form of acceptance criterion 2:

    Delta_1 / Delta_0  =  det(Phi(x0) - Id)^(d - 2)   up to a unit c t^k.

The closed form is checked with the small exact arithmetic below, which
parses the printed polynomials; it shares no code with the engine.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# Q(zeta_n) in power-basis coordinates: a tuple of phi(n) Fractions.

_PHI_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first."""
    if n in _PHI_CACHE:
        return _PHI_CACHE[n]
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, cyclotomic(d))
    _PHI_CACHE[n] = tuple(num)
    return _PHI_CACHE[n]


def _exact_div(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    return out


class Field:
    def __init__(self, n: int):
        self.n = n
        self.phi = cyclotomic(n)
        self.deg = len(self.phi) - 1
        self.zero = (Fraction(0),) * self.deg
        self.one = self.reduce([Fraction(1)])

    def reduce(self, coeffs):
        c = [Fraction(x) for x in coeffs]
        for top in range(len(c) - 1, self.deg - 1, -1):
            lead = c[top]
            if lead:
                for j, pj in enumerate(self.phi):
                    c[top - self.deg + j] -= lead * pj
        c = c[: self.deg] + [Fraction(0)] * (self.deg - len(c))
        return tuple(c)

    def power(self, k: int):
        out = [Fraction(0)] * (k % self.n + 1)
        out[-1] = Fraction(1)
        return self.reduce(out)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.deg)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self.reduce(out)

    def parse(self, text: str):
        """The scalar grammar ``1/2 + 3*z^2 - z^5``."""
        total = self.zero
        for sign, term in _signed_terms(text):
            coeff, zpow = Fraction(sign), 0
            for factor in term.split("*"):
                factor = factor.strip()
                if factor == "z":
                    zpow = 1
                elif factor.startswith("z^"):
                    zpow = int(factor[2:])
                else:
                    coeff *= Fraction(factor)
            total = self.add(total, tuple(coeff * x for x in self.power(zpow)))
        return total


def _signed_terms(text: str):
    """Split at top-level ``+``/``-`` (outside parentheses) into
    (sign, term) pairs."""
    out, depth, buf, sign = [], 0, [], 1
    s = text.strip()
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and (i == 0 or s[i - 1] == " "):
            if "".join(buf).strip():
                out.append((sign, "".join(buf).strip()))
            buf, sign = [], (1 if ch == "+" else -1)
            continue
        buf.append(ch)
    if "".join(buf).strip():
        out.append((sign, "".join(buf).strip()))
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials over a Field: dict exponent -> coefficient.


def parse_laurent(field: Field, text: str) -> dict:
    poly: dict[int, tuple] = {}
    for sign, term in _signed_terms(text):
        m = re.search(r"\*?t(?:\^(-?\d+))?$", term)
        if m is None:
            exp, ctext = 0, term
        else:
            exp, ctext = (int(m.group(1)) if m.group(1) else 1), term[: m.start()]
        if ctext.startswith("(") and ctext.endswith(")"):
            ctext = ctext[1:-1]
        coeff = field.parse(ctext) if ctext else field.one
        if sign < 0:
            coeff = tuple(-x for x in coeff)
        poly[exp] = field.add(poly.get(exp, field.zero), coeff)
    return {e: c for e, c in poly.items() if any(c)}


def laurent_mul(field: Field, p: dict, q: dict) -> dict:
    out: dict[int, tuple] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = field.add(out.get(e1 + e2, field.zero), field.mul(c1, c2))
    return {e: c for e, c in out.items() if any(c)}


def unit_equal(field: Field, p: dict, q: dict) -> bool:
    """p = c t^k q for some nonzero scalar c and integer k."""
    if not p or not q:
        return not p and not q
    lp, lq = min(p), min(q)
    if max(p) - lp != max(q) - lq:
        return False
    hp, hq = p[max(p)], q[max(q)]
    span = max(p) - lp
    return all(
        field.mul(p.get(lp + k, field.zero), hq) == field.mul(q.get(lq + k, field.zero), hp)
        for k in range(span + 1)
    )


def hopf_closed_form_holds(facts, numerator: str, denominator: str) -> bool:
    """facts = (d, eps(x0), conductor, scalar texts of diag rho(x0))."""
    d, e0, n, diagonal = facts
    field = Field(n)
    expect = {0: field.one}
    if d > 2:
        for lam in diagonal:
            factor = {e0: field.parse(lam), 0: tuple(-x for x in field.one)}
            for _ in range(d - 2):
                expect = laurent_mul(field, expect, factor)
    num = parse_laurent(field, numerator)
    den = parse_laurent(field, denominator)
    return unit_equal(field, num, laurent_mul(field, expect, den))


# ---------------------------------------------------------------------------
# The gate.


def _ratio_from_text(report: str):
    for line in report.splitlines():
        if line.startswith("ratio delta1/delta0: "):
            body = line[len("ratio delta1/delta0: "):]
            m = re.fullmatch(r"\((.*)\) / \((.*)\)", body)
            return (m.group(1), m.group(2)) if m else (body, "1")
    return None


def job_failures(hopf_facts, fmt: str, report: str, code: int) -> list[str]:
    """Reasons a job's output is wrong; empty when it passes."""
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    ratio = None
    if fmt == "records":
        result_ok = False
        for line in report.splitlines():
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                failures.append("output is not JSON records")
                break
            kind = rec.get("record")
            if kind == "wada" and rec.get("agrees") is False:
                failures.append("wada disagrees with homology")
            elif kind == "specialize" and rec.get("bound_ok") is False:
                failures.append("specialization bound violated")
            elif kind == "check" and rec.get("ok") is False:
                failures.append(f"check {rec.get('name')} failed")
            elif kind == "ratio":
                ratio = (rec["numerator"], rec["denominator"])
            elif kind == "result":
                result_ok = rec.get("ok") is True
        if not result_ok:
            failures.append("result record not ok")
    else:
        lines = report.splitlines()
        for line in lines:
            if line.startswith("wada:") and line.endswith("agrees with homology: NO"):
                failures.append("wada disagrees with homology")
            elif line.startswith("check ") and ": FAIL" in line:
                failures.append(f"{line.split(':')[0]} failed")
        if not lines or lines[-1] != "result: ok":
            failures.append("result line not ok")
        ratio = _ratio_from_text(report)
    if hopf_facts is not None:
        if ratio is None:
            failures.append("hopf job reports no ratio")
        else:
            try:
                holds = hopf_closed_form_holds(hopf_facts, *ratio)
            except (ValueError, ZeroDivisionError):
                holds = False
            if not holds:
                failures.append("hopf ratio differs from det(Phi(x0) - Id)^(d-2)")
    return failures
