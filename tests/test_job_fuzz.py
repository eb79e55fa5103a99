"""Seeded mutants of the sample corpus: every job file gets an exact answer
or exit 2, never a raise and never the invariant exit 3.

Each mutant deletes or duplicates a line, moves a number by +-1 or +-2,
drops a minus sign, or inserts one character of `` -^*/,[]z0-9``.  The
mutants run through parse_job and run_job(mode="check"), the path of
``twistalex check``; malformed input there reaches singular and zero-row
minors in the determinant and the Smith form.

A second set of mutants changes only the lines that give a family its
parameters (builder, local and singularity), and each must also finish
within a second."""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

import pytest

from twistalex.jobs import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, MAX_LETTERS, JobParseError, parse_job, run_job

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
