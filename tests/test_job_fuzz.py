"""Seeded mutants of the sample corpus: every job file gets an exact answer
or exit 2, never a raise and never the invariant exit 3.

Each mutant deletes or duplicates a line, moves a number by +-1 or +-2,
drops a minus sign, or inserts one character of `` -^*/,[]z0-9``.  The
mutants run through parse_job and run_job(mode="check"), the path of
``twistalex check``; malformed input there reaches singular and zero-row
minors in the determinant and the Smith form.

A second set of mutants changes only the lines that give a family its
parameters (builder, local and singularity), and a third only the numbers
of a job: a digit group, a non-ASCII digit, a signed exponent, or a digit
string at or past the digit limit of a scalar.  Each mutant of these two
sets must also finish within a second."""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

import pytest

from twistalex.jobs import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, MAX_LETTERS, JobParseError, parse_job, run_job
from twistalex.scalars import _MAX_DIGITS

SAMPLES = sorted((Path(__file__).resolve().parent.parent / "sample_jobs").glob("*.job"))
MUTANTS_PER_FILE = 40
INSERTED = " -^*/,[]z0123456789"


def _mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines(keepends=True)
    kind = rng.randrange(5)
    if kind < 2:
        i = rng.randrange(len(lines))
        lines[i : i + 1] = [] if kind == 0 else [lines[i]] * 2
        return "".join(lines)
    if kind == 2:
        numbers = list(re.finditer(r"\d+", text))
        if numbers:
            m = rng.choice(numbers)
            value = max(0, int(m.group()) + rng.choice((-2, -1, 1, 2)))
            return text[: m.start()] + str(value) + text[m.end() :]
    if kind == 3:
        minuses = [m.start() for m in re.finditer("-", text)]
        if minuses:
            i = rng.choice(minuses)
            return text[:i] + text[i + 1 :]
    i = rng.randrange(len(text) + 1)
    return text[:i] + rng.choice(INSERTED) + text[i:]


def _exit_code(text: str) -> int:
    try:
        spec = parse_job(text)
    except JobParseError:
        return EXIT_INPUT_ERROR
    return run_job(spec, mode="check")[1]


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_mutants_of_a_sample_job_exit_0_1_or_2(path):
    rng = random.Random(f"fuzz-{path.stem}")
    text = path.read_text(encoding="utf-8")
    for _ in range(MUTANTS_PER_FILE):
        mutant = _mutate(text, rng)
        assert _exit_code(mutant) in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR), mutant


# The lines that give a family its parameters, and the characters of the
# parameter grammar inserted into them.
PARAMETER_LINE = re.compile(r"^(?:builder|local|singularity) .*$", re.MULTILINE)
PARAMETER_INSERTED = ":,=+_x"
PARAMETER_SAMPLES = [path for path in SAMPLES if PARAMETER_LINE.search(path.read_text(encoding="utf-8"))]
# Values a number moves to: half the letter budget, and its edge.
TOWARD_THE_BUDGET = (MAX_LETTERS // 2, MAX_LETTERS - 1, MAX_LETTERS, MAX_LETTERS + 1)


def _mutate_parameters(text: str, rng: random.Random) -> str:
    """One builder, local or singularity line with a character of the
    parameter grammar inserted after its keyword, a parameter (a token after the keyword, or
    an item of a comma list) dropped or duplicated, or a number moved to
    or past the letter budget."""
    line = rng.choice(list(PARAMETER_LINE.finditer(text)))
    body = line.group()
    kind = rng.randrange(4)
    items = list(re.finditer(r"[^\s,]+", body))[1:]
    numbers = list(re.finditer(r"\d+", body))
    if kind in (1, 2) and items:
        item = rng.choice(items)
        start = item.start() - 1  # with the separator before it
        if kind == 1:
            body = body[:start] + body[item.end() :]
        else:
            body = body[: item.end()] + body[start : item.end()] + body[item.end() :]
    elif kind == 3 and numbers:
        number = rng.choice(numbers)
        body = body[: number.start()] + str(rng.choice(TOWARD_THE_BUDGET)) + body[number.end() :]
    else:
        i = rng.randrange(body.index(" "), len(body) + 1)
        body = body[:i] + rng.choice(PARAMETER_INSERTED) + body[i:]
    return text[: line.start()] + body + text[line.end() :]


@pytest.mark.parametrize("path", PARAMETER_SAMPLES, ids=lambda p: p.stem)
def test_parameter_mutants_of_a_sample_job_exit_0_1_or_2_within_a_second(path):
    rng = random.Random(f"parameter-fuzz-{path.stem}")
    text = path.read_text(encoding="utf-8")
    for _ in range(MUTANTS_PER_FILE):
        mutant = _mutate_parameters(text, rng)
        start = time.perf_counter()
        assert _exit_code(mutant) in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR), mutant
        assert time.perf_counter() - start < 1.0, mutant


# Numbers outside comments and the field line: a larger conductor is a slow
# field, not a malformed number (ROADMAP item 14).
SKIPPED = re.compile(r"^(?:#|field cyclotomic ).*$", re.MULTILINE)
# A matrix entry of _MAX_DIGITS digits is a valid scalar, and a job on it is
# slow, not malformed: in the 2 x 2 rho of hopf2_matrix it ran 0.9 s, nearly
# all of it in the gcds of exact elimination (ROADMAP item 6).  Matrix
# entries get only the digit string past the limit.
MATRIX = re.compile(r"\[.*\]")
# Arabic-Indic, Devanagari and fullwidth zeros: int() reads all three.
OTHER_ZEROS = (0x660, 0x966, 0xFF10)


def _mutate_number(text: str, rng: random.Random) -> str:
    """One number of the job, outside comments and its field line, with a digit group
    separator inserted, a digit swapped for a non-ASCII one, or the number
    replaced by a digit string of _MAX_DIGITS or _MAX_DIGITS + 1 digits
    (only the latter in a matrix); or one exponent given a sign."""
    skipped = [range(m.start(), m.end()) for m in SKIPPED.finditer(text)]
    kind = rng.randrange(4)
    pattern = r"\^[+-]?" if kind == 2 else r"[0-9]+"
    spots = [m for m in re.finditer(pattern, text) if not any(m.start() in r for r in skipped)]
    if not spots:
        return text
    m = rng.choice(spots)
    digits = m.group()
    if kind == 0:
        i = rng.randint(0, len(digits))
        new = digits[:i] + "_" + digits[i:]
    elif kind == 1:
        i = rng.randrange(len(digits))
        new = digits[:i] + chr(rng.choice(OTHER_ZEROS) + int(digits[i])) + digits[i + 1 :]
    elif kind == 2:
        new = "^" + rng.choice("+-")
    else:
        in_matrix = any(e.start() <= m.start() < e.end() for e in MATRIX.finditer(text))
        count = _MAX_DIGITS + (1 if in_matrix else rng.randrange(2))
        new = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(count - 1))
    return text[: m.start()] + new + text[m.end() :]


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_number_mutants_of_a_sample_job_exit_0_1_or_2_within_a_second(path):
    rng = random.Random(f"number-fuzz-{path.stem}")
    text = path.read_text(encoding="utf-8")
    for _ in range(MUTANTS_PER_FILE):
        mutant = _mutate_number(text, rng)
        start = time.perf_counter()
        assert _exit_code(mutant) in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR), mutant
        assert time.perf_counter() - start < 1.0, mutant
