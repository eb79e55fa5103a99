"""Job grammar, report determinism, exit codes, and the CLI front end."""

from __future__ import annotations

import codecs
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from twistalex import jobs, obstructions, presentations
from twistalex.cli import main
from twistalex.homology import TwistedChainComplex
from twistalex.laurent import LaurentMatrix, LaurentPoly
from twistalex.scalars import FieldContext
from twistalex.jobs import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_INVARIANT,
    EXIT_OK,
    JobParseError,
    JobSpec,
    parse_job,
    run_corpus,
    run_job,
    serialize_job,
)

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = sorted((ROOT / "sample_jobs").glob("*.job"))

HOPF3 = """
field rational
builder hopf d=3
rho trivial 1
analyze delta wada divisibility root-field
specialize 1
"""

TORUS23 = """
field rational
builder torus p=2 q=3
rho trivial 1
analyze delta wada
specialize 1, -1
"""


def test_sample_corpus_exists():
    assert len(SAMPLES) >= 8


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_serialize_round_trip(path):
    spec = parse_job(path.read_text(encoding="utf-8"))
    dumped = serialize_job(spec)
    again = parse_job(dumped)
    assert again == spec
    # canonical form is a fixed point
    assert serialize_job(again) == dumped


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_reports_are_byte_identical(fmt):
    spec = parse_job(HOPF3)
    first = run_job(spec, mode="check", fmt=fmt, seed=7)
    second = run_job(spec, mode="check", fmt=fmt, seed=7)
    assert first == second
    assert first[1] == EXIT_OK


def test_records_format_is_json_lines():
    spec = parse_job(HOPF3)
    report, code = run_job(spec, mode="compute", fmt="records")
    assert code == EXIT_OK
    records = [json.loads(line) for line in report.splitlines()]
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec["record"], []).append(rec)
    degrees = by_kind["degree"]
    assert [d["degree"] for d in degrees] == [0, 1, 2]
    for d in degrees:
        assert set(d) == {"record", "degree", "free_rank", "delta", "divisors"}
    # keys are serialized sorted, so the raw lines are canonical too
    for line in report.splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True)
    div = by_kind["divisibility"][0]
    assert div["divides"] is True and div["witness"] is None
    result = by_kind["result"][0]
    assert result["ok"] is True and result["exit"] == 0


def test_hopf3_report_values():
    spec = parse_job(HOPF3)
    report, code = run_job(spec, mode="compute", fmt="records")
    assert code == EXIT_OK
    records = [json.loads(line) for line in report.splitlines()]
    degree1 = next(r for r in records if r["record"] == "degree" and r["degree"] == 1)
    # delta1 = (t - 1)(t^3 - 1) up to units
    assert degree1["delta"] == "1 - t - t^3 + t^4"
    wada = next(r for r in records if r["record"] == "wada")
    assert wada["agrees"] is True
    spec_rec = next(r for r in records if r["record"] == "specialize")
    assert spec_rec["dims"] == [1, 3, 2]
    assert spec_rec["bound_ok"] is True


def test_eps_defaults_come_from_the_builder():
    spec = parse_job(HOPF3)
    assert spec.augmentation().values == (3, 1, 1)
    spec2 = parse_job(TORUS23)
    assert spec2.augmentation().values == (3, 2)


def test_check_mode_emits_battery_lines():
    spec = parse_job(TORUS23)
    report, code = run_job(spec, mode="check", fmt="records", seed=3)
    assert code == EXIT_OK
    names = [
        json.loads(line)["name"]
        for line in report.splitlines()
        if json.loads(line)["record"] == "check"
    ]
    assert names == ["euler-ranks", "wada-agreement", "fox-identity"]


def test_the_fox_identity_check_fails_when_a_derivative_drops_a_term(monkeypatch):
    # Negative control: the check must notice a wrong derivative of the
    # engine's own pass.  The battery's PhiMap drops the first term of the
    # first derivative that has one; the complex keeps the true pass.
    class Dropping(jobs.PhiMap):
        __slots__ = ()

        def _fox_pass(self, word):
            sums, e, rows = super()._fox_pass(word)
            terms = next((terms for terms in sums if terms), [])
            del terms[:1]
            return sums, e, rows

    monkeypatch.setattr(jobs, "PhiMap", Dropping)
    report, code = run_job(parse_job(TORUS23), mode="check", fmt="records")
    records = [json.loads(line) for line in report.splitlines()]
    fox = next(r for r in records if r.get("name") == "fox-identity")
    assert fox["ok"] is False
    passed = re.fullmatch(r"(\d)/5 words, seed 0", fox["detail"])
    assert passed and int(passed.group(1)) < 5
    assert code == EXIT_CHECK_FAILED == 1
    assert records[-1]["failures"] == ["check fox-identity"]


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_the_fox_identity_check_fails_when_every_derivative_is_negated(monkeypatch, path):
    # The check reads the pass that builds d2.  With every derivative
    # negated the jobs still build, since d1 (-d2) = 0, and every one of them
    # must fail the identity.
    original = presentations.PhiMap._fox_pass

    def negated(phi, word):
        sums, e, rows = original(phi, word)
        return [[(k, -sign, v) for k, sign, v in terms] for terms in sums], e, rows

    monkeypatch.setattr(presentations.PhiMap, "_fox_pass", negated)
    report, code = run_job(parse_job(path.read_text(encoding="utf-8")), mode="check")
    assert code == EXIT_CHECK_FAILED, report
    fox = next(line for line in report.splitlines() if line.startswith("check fox-identity: "))
    assert re.fullmatch(r"check fox-identity: FAIL \([01]/5 words, seed 0\)", fox), fox


def test_the_fox_identity_check_fails_when_a_generator_image_is_wrong(monkeypatch):
    # Negative control on the other side: the battery's PhiMap gets a halved
    # rho(x) in row form while rho(x)^-1 stays, so Phi is no longer a map of
    # the free group and the identity must fail on a word with x^-1.
    original = jobs.PhiMap

    def skewed(eps, rho):
        rho = jobs.Representation(rho.context, rho.matrices)
        table = rho._letter_rows()
        entries, den = table[0, 1]
        table[0, 1] = (entries, 2 * den)
        return original(eps, rho)

    monkeypatch.setattr(jobs, "PhiMap", skewed)
    report, code = run_job(parse_job(TORUS23), mode="check", fmt="records")
    records = [json.loads(line) for line in report.splitlines()]
    fox = next(r for r in records if r.get("name") == "fox-identity")
    assert fox["ok"] is False
    passed = re.fullmatch(r"(\d)/5 words, seed 0", fox["detail"])
    assert passed and int(passed.group(1)) < 5
    assert code == EXIT_CHECK_FAILED
    assert records[-1]["failures"] == ["check fox-identity"]


def test_the_euler_ranks_check_fails_when_the_reduction_misbooks_a_chain_rank(monkeypatch):
    # The free ranks are read on the reduced complex, the Euler
    # characteristic on the complex as built: a reduction that books one
    # top cell too many must fail the check.
    original = TwistedChainComplex.reduced

    def misbooked(complex_):
        boundaries, ranks = original(complex_)
        return boundaries, (*ranks[:-1], ranks[-1] + 1)

    monkeypatch.setattr(TwistedChainComplex, "reduced", misbooked)
    text = (ROOT / "sample_jobs" / "trefoil_germ.job").read_text(encoding="utf-8")
    report, code = run_job(parse_job(text), mode="check")
    assert code == EXIT_CHECK_FAILED == 1
    lines = report.splitlines()
    assert "check euler-ranks: FAIL (homology Euler characteristic 1 differs from chain value 0)" in lines
    assert lines[-1] == "result: FAIL (1 failed)"


def test_wada_on_wrong_deficiency_fails_the_job():
    text = """
field rational
builder a_odd n=1
rho trivial 1
analyze wada
"""
    spec = parse_job(text)
    report, code = run_job(spec, mode="compute", fmt="text")
    assert code == EXIT_CHECK_FAILED
    assert "not applicable" in report
    assert "result: FAIL" in report


def test_invalid_triple_exits_with_input_error():
    text = """
field rational
builder torus p=2 q=3
eps x=1 y=1
rho trivial 1
analyze delta
"""
    with pytest.raises(JobParseError) as err:
        parse_job(text)
    assert "invalid triple" in str(err.value)


INVALID_TRIPLES = {
    "singular rho": ("builder hopf d=2\nrho x0 = [[1]]\nrho x1 = [[0]]\n", 3, "rho(x1) is singular"),
    "singular rho first": (
        "generators x y\nrelator x^2 y^-3\nrho x = [[1]]\nrho y = [[0]]\n",
        4,
        "rho(y) is singular; eps does not kill relator 0 (value -1)",
    ),
    "default eps, inline": (
        "field rational\ngenerators x y\nrelator x y x^-1 y^-1\nrelator x^2 y^-3\nrho trivial 1\n",
        4,
        "eps does not kill relator 1 (value -1)",
    ),
    "eps line": ("builder torus p=2 q=3\nrho trivial 1\neps x=1 y=1\n", 3, "eps does not kill relator 0 (value -1)"),
    "rho": (
        "field cyclotomic 4\nbuilder hopf d=2\nrho x1 = [[1, 1], [0, 1]]\nrho x0 = [[1, 0], [1, 1]]\n",
        3,
        "rho does not kill relator 0",
    ),
    "trivial eps": ("generators x\neps x=0\nrho trivial 1\n", 2, "eps is trivial"),
}


@pytest.mark.parametrize("name", sorted(INVALID_TRIPLES))
def test_an_invalid_triple_names_the_line_of_its_first_failure(name):
    text, line, failures = INVALID_TRIPLES[name]
    with pytest.raises(JobParseError) as err:
        parse_job(text)
    assert str(err.value) == f"line {line}: invalid triple: {failures}"


def test_a_nonzero_boundary_composite_exits_3_with_an_error_record(tmp_path, capsys, monkeypatch):
    # parse_job keeps no complex whose d1 d2 = 0 check failed: run_job builds
    # it again and reports the violated invariant, and so do the CLI and the
    # corpus runner through it.
    monkeypatch.setattr(LaurentMatrix, "is_zero", lambda self: False)
    spec = parse_job(TORUS23)
    report, code = run_job(spec, fmt="records")
    records = [json.loads(line) for line in report.splitlines()]
    assert code == EXIT_INVARIANT
    assert [r["record"] for r in records] == ["job", "error"]
    assert records[1] == {"record": "error", "kind": "invariant", "message": "boundary composite d1 d2 is nonzero"}
    report, code = run_job(spec, mode="check")
    assert code == EXIT_INVARIANT
    assert report.splitlines()[-1] == "internal invariant violated: boundary composite d1 d2 is nonzero"
    path = tmp_path / "torus.job"
    path.write_text(TORUS23, encoding="utf-8")
    assert main(["compute", str(path)]) == EXIT_INVARIANT
    out = capsys.readouterr()
    assert out.out == run_job(spec)[0] and out.err == ""
    report, code = run_corpus([path])
    assert code == EXIT_INVARIANT
    assert "torus.job: ERROR" in report.splitlines()


def _reports(spec: JobSpec) -> list:
    return [run_job(spec, mode=mode, fmt=fmt) for mode in ("compute", "check") for fmt in ("text", "records")]


TWISTED_TREFOIL = """
field cyclotomic 6
generators x y
relator x^2 y^-3
eps x=3 y=2
rho x = [[-1]]
rho y = [[-1 + z]]
analyze delta wada
specialize -1
"""

# (field, new value, still valid); every valid edit changes the report.  In
# Q(zeta_12), -1 + z is no cube root of 1.
TRIPLE_EDITS = {
    "relator_texts": ("relator_texts", ("x x x x y^-1 y^-1 y^-1 y^-1 y^-1 y^-1",), True),
    "relator_texts invalid": ("relator_texts", ("x x y^-1 y^-1",), False),
    "rho_rows": ("rho_rows", ((("1",),), (("-1 + z",),)), True),
    "rho_rows singular": ("rho_rows", ((("0",),), (("-1 + z",),)), False),
    "rho_rows not killed": ("rho_rows", ((("2",),), (("-1 + z",),)), False),
    "conductor invalid": ("conductor", 12, False),
}


@pytest.mark.parametrize("name", sorted(TRIPLE_EDITS))
def test_a_reassigned_triple_field_rebuilds_the_complex(name):
    field, value, valid = TRIPLE_EDITS[name]
    spec = parse_job(TWISTED_TREFOIL)
    before = _reports(spec)
    setattr(spec, field, value)
    after = _reports(spec)
    if valid:
        twin = parse_job(serialize_job(spec))
        assert twin == spec
        assert after == _reports(twin)
        assert after != before
    else:
        with pytest.raises(JobParseError, match="invalid triple"):
            parse_job(serialize_job(spec))
        for (report, code), fmt in zip(after, ("text", "records") * 2):
            assert code == EXIT_INPUT_ERROR
            verdict = report.splitlines()[1]
            assert "validation: FAILED" in verdict if fmt == "text" else '"ok": false' in verdict


def _shares(spec: JobSpec) -> list:
    return [spec.chain_complex(i) is spec.chain_complex() for i in range(len(spec.local_requests))]


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_a_directly_built_spec_reports_like_its_parsed_twin(path):
    # Built from the fields or read back from serialize_job, a spec reports
    # byte for byte as the parsed one, and its germs share the job's complex
    # exactly where the parsed spec's do: only the first germ of cusp_braid
    # has the job's triple.
    parsed = parse_job(path.read_text(encoding="utf-8"))
    direct = JobSpec(
        parsed.conductor,
        parsed.source,
        parsed.generator_names,
        parsed.relator_texts,
        parsed.eps_values,
        parsed.rho_rows,
        parsed.analyses,
        parsed.specialize_values,
        parsed.local_requests,
        parsed.components,
        parsed.singularities,
    )
    expected = _reports(parsed)
    for twin in (direct, parse_job(serialize_job(parsed))):
        assert twin == parsed
        assert _reports(twin) == expected
        assert _shares(twin) == _shares(parsed)
    assert _shares(parsed) == [path.stem == "cusp_braid" and i == 0 for i in range(len(parsed.local_requests))]


def test_parse_errors_carry_line_numbers():
    bad = "field rational\nbuilder hopf d=3\nrho trivial 1\nfrobnicate 7\n"
    with pytest.raises(JobParseError) as err:
        parse_job(bad)
    assert str(err.value).startswith("line 4:")


def test_parse_rejects_partial_rho():
    text = """
field rational
builder hopf d=2
rho x0 = [[1]]
analyze delta
"""
    with pytest.raises(JobParseError) as err:
        parse_job(text)
    assert "x1" in str(err.value)


def test_parse_rejects_unknown_field():
    with pytest.raises(JobParseError):
        parse_job("field quaternion\nbuilder hopf d=2\nrho trivial 1\n")


def test_parse_rejects_zero_specialization():
    text = "field rational\nbuilder hopf d=2\nrho trivial 1\nspecialize 0\n"
    with pytest.raises(JobParseError):
        parse_job(text)


def test_analysis_missing_curve_data_is_input_error():
    text = """
field rational
builder torus p=2 q=3
rho trivial 1
analyze divisibility
"""
    spec = parse_job(text)
    report, code = run_job(spec, mode="compute", fmt="text")
    assert code == EXIT_INPUT_ERROR
    assert "input error" in report


def test_divisibility_on_a_single_line_is_an_input_error_record():
    text = """
field rational
builder circle
rho trivial 1
component degree=1 weight=1
analyze divisibility
"""
    report, code = run_job(parse_job(text), mode="compute", fmt="records")
    assert code == EXIT_INPUT_ERROR
    assert json.loads(report.splitlines()[-1]) == {
        "record": "error",
        "kind": "input",
        "message": "the bound at infinity needs a curve of degree at least 2, not 1",
    }


@pytest.mark.parametrize("analysis", ["divisibility", "root-field"])
def test_a_hopf_eps_without_positive_meridian_weights_is_an_input_error(analysis):
    # The implied curve at infinity reads its line weights off eps: here the
    # last one is 2 - 1 - 1 = 0.
    text = f"builder hopf d=3\neps x0=2 x1=1 x2=1\nrho trivial 1\nanalyze {analysis}\n"
    report, code = run_job(parse_job(text), mode="compute")
    assert code == EXIT_INPUT_ERROR == 2
    assert report.splitlines()[-1] == f"input error: {analysis}: eps does not come from positive meridian weights"


def test_run_corpus_over_samples():
    report, code = run_corpus(SAMPLES, fmt="text", seed=0)
    assert code == EXIT_OK
    assert f"corpus: {len(SAMPLES)} ok, 0 failed, 0 errors" in report


def test_cli_compute_and_check(tmp_path, capsys):
    job = tmp_path / "hopf.job"
    job.write_text(HOPF3, encoding="utf-8")
    assert main(["compute", str(job)]) == 0
    out = capsys.readouterr().out
    assert "result: ok" in out
    assert main(["check", str(job), "--format", "records", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert '"record": "check"' in out


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.job"
    bad.write_text("nonsense\n", encoding="utf-8")
    assert main(["compute", str(bad)]) == EXIT_INPUT_ERROR
    assert "line 1" in capsys.readouterr().err
    missing = tmp_path / "missing.job"
    assert main(["compute", str(missing)]) == EXIT_INPUT_ERROR
    capsys.readouterr()
    failing = tmp_path / "fail.job"
    failing.write_text(
        "field rational\nbuilder a_odd n=1\nrho trivial 1\nanalyze wada\n",
        encoding="utf-8",
    )
    assert main(["check", str(failing)]) == EXIT_CHECK_FAILED
    capsys.readouterr()


@pytest.mark.parametrize(
    "data, line, byte",
    [
        (b"\xff", 1, "ff"),
        (b"field rational\nbuilder cusp\nrho trivial 1 \xff\n", 3, "ff"),
        # a cut multibyte character after CRLF and bare CR line ends
        (b"field rational\r\nbuilder cusp\rrho trivial 1\n# \xe2\x82\n", 4, "e2"),
        # the byte-order mark is dropped before decoding, so the byte named
        # is the bad one and not the one three bytes before it
        (codecs.BOM_UTF8 + b"field rational\nbuilder cusp\nrho trivial 1 \xff\n", 3, "ff"),
    ],
    ids=["alone", "lf-lines", "cut-character", "after-bom"],
)
def test_cli_refuses_a_file_that_is_not_utf8_at_the_line_of_its_first_bad_byte(tmp_path, capsys, data, line, byte):
    path = tmp_path / "bytes.job"
    path.write_bytes(data)
    for command in ("compute", "check"):
        assert main([command, str(path)]) == EXIT_INPUT_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"{path}: line {line}: not UTF-8: byte 0x{byte} does not decode\n"


CUSP_JOB = b"field rational\nbuilder cusp\nrho trivial 1\n"


def test_compute_reads_a_file_with_a_byte_order_mark_as_the_file_without_it(tmp_path, capsys):
    plain, marked = tmp_path / "plain.job", tmp_path / "marked.job"
    plain.write_bytes(CUSP_JOB)
    marked.write_bytes(codecs.BOM_UTF8 + CUSP_JOB)
    assert main(["compute", str(plain)]) == EXIT_OK
    expected = capsys.readouterr()
    assert main(["compute", str(marked)]) == EXIT_OK
    assert capsys.readouterr() == expected


def test_corpus_checks_a_file_with_a_byte_order_mark(tmp_path, capsys):
    (tmp_path / "marked.job").write_bytes(codecs.BOM_UTF8 + CUSP_JOB)
    assert main(["corpus", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["marked.job: ok", "corpus: 1 ok, 0 failed, 0 errors"]


def test_corpus_gives_an_unreadable_or_undecodable_file_the_error_verdict(tmp_path, capsys):
    # A directory that matches *.job cannot be read, and a Latin-1 file
    # cannot be decoded; each is one ERROR line, and the rest still run.
    (tmp_path / "good.job").write_text(HOPF3, encoding="utf-8")
    (tmp_path / "latin1.job").write_bytes("field rational\n# caf\u00e9\nbuilder cusp\n".encode("latin-1"))
    (tmp_path / "nested.job").mkdir()
    assert main(["corpus", str(tmp_path)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().out.splitlines() == [
        "good.job: ok",
        "latin1.job: ERROR (line 2: not UTF-8: byte 0xe9 does not decode)",
        "nested.job: ERROR (cannot read: Is a directory)",
        "corpus: 1 ok, 0 failed, 2 errors",
    ]
    report, code = run_corpus(sorted(tmp_path.glob("*.job")), fmt="records")
    records = [json.loads(r) for r in report.splitlines()]
    assert code == EXIT_INPUT_ERROR
    assert [(r.get("verdict"), r["exit"]) for r in records] == [("ok", 0), ("ERROR", 2), ("ERROR", 2), (None, 2)]


def test_cli_builders_listing(capsys):
    assert main(["builders"]) == 0
    out = capsys.readouterr().out
    for name in ("hopf", "a_odd", "torus", "cusp", "circle", "union"):
        assert name in out


def test_cli_corpus(capsys):
    sample_dir = SAMPLES[0].parent
    assert main(["corpus", str(sample_dir)]) == 0
    out = capsys.readouterr().out
    assert "corpus:" in out
    assert main(["corpus", str(sample_dir / "nope")]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_seed_changes_only_the_sampled_words():
    spec = parse_job(TORUS23)
    a, code_a = run_job(spec, mode="check", fmt="text", seed=1)
    b, code_b = run_job(spec, mode="check", fmt="text", seed=2)
    assert code_a == code_b == EXIT_OK
    # the battery passes under any seed; only the seed annotation moves
    stripped_a = [ln for ln in a.splitlines() if "seed" not in ln]
    stripped_b = [ln for ln in b.splitlines() if "seed" not in ln]
    assert stripped_a == stripped_b


def test_run_corpus_rejects_an_unknown_format_before_reading_files(tmp_path):
    missing = tmp_path / "not_there.job"
    with pytest.raises(ValueError, match="unknown format 'json'") as corpus_error:
        run_corpus([missing], fmt="json")
    with pytest.raises(ValueError) as job_error:
        run_job(parse_job(HOPF3), fmt="json")
    assert str(corpus_error.value) == str(job_error.value)


@pytest.mark.parametrize(
    "builder, message",
    [
        ("hopf", "builder hopf needs d=<int>"),
        ("hopf d=x", "builder hopf: d must be an integer, got 'x'"),
        ("union factors=torus:2", "bad union factor 'torus:2' (torus:p:q, cusp, or line)"),
    ],
)
def test_builder_parameter_errors_name_their_line_once(builder, message):
    with pytest.raises(JobParseError) as err:
        parse_job(f"field rational\nbuilder {builder}\nrho trivial 1\n")
    assert str(err.value) == f"line 2: {message}"
    assert err.value.line == 2
    assert err.value.message == message


# Every way a builder, local or singularity line can name its family or
# give its parameters wrongly, and the full message.  A builder line is
# line 1 of its job; a local or singularity line is line 4, after a
# builder, a rho and a component line.
PARAMETER_ERRORS = [
    ("builder", "builder line needs a name; available: a_odd, a_odd_reduced, circle, cusp, hopf, torus, union"),
    ("builder bogus", "unknown builder 'bogus'; available: a_odd, a_odd_reduced, circle, cusp, hopf, torus, union"),
    ("builder bogus zz=1", "unknown builder 'bogus'; available: a_odd, a_odd_reduced, circle, cusp, hopf, torus, union"),
    ("builder hopf zz=2", "builder hopf: unknown key 'zz' (allowed: d)"),
    ("builder hopf p=2", "builder hopf: unknown key 'p' (allowed: d)"),
    ("builder cusp d=1", "builder cusp: unknown key 'd' (allowed: none)"),
    ("builder hopf d", "builder hopf: expected key=value, got 'd'"),
    ("builder hopf d=2 d=3", "builder hopf: repeated key 'd'"),
    ("builder hopf", "builder hopf needs d=<int>"),
    ("builder hopf d=x", "builder hopf: d must be an integer, got 'x'"),
    ("builder torus p=2", "builder torus needs q=<int>"),
    ("builder torus p=2 q=x", "builder torus: q must be an integer, got 'x'"),
    ("builder union", "builder union needs factors=f1,f2"),
    ("builder union factors=torus:2", "bad union factor 'torus:2' (torus:p:q, cusp, or line)"),
    ("builder union factors=bogus,line", "bad union factor 'bogus' (torus:p:q, cusp, or line)"),
    ("builder union factors=line", "a transversal union needs at least two factors"),
    ("local", "local line needs a kind; available: a_odd, cusp, node, ordinary, torus"),
    ("local bogus weights 1", "unknown local kind 'bogus'; available: a_odd, cusp, node, ordinary, torus"),
    ("local torus x 3 weights 1", "local torus: p must be an integer, got 'x'"),
    ("local ordinary x weights 1 1", "local ordinary: d must be an integer, got 'x'"),
    ("local torus 2 weights 1", "local torus takes 2 integer parameter(s)"),
    ("local node 2 weights 1 1", "local node takes 0 integer parameter(s)"),
    ("local cusp 1 weights 1", "local cusp takes 0 integer parameter(s)"),
    ("local torus 2 3", "local torus: missing 'weights' section"),
    ("local torus 2 3 scalars 1, 2", "local torus: missing 'weights' section"),
    ("local torus 2 3 weights x", "local torus: weights must be integers, got 'x'"),
    ("singularity", "singularity line needs a kind; available: a_odd, cusp, node, ordinary, torus"),
    ("singularity bogus components=0", "unknown singularity kind 'bogus'; available: a_odd, cusp, node, ordinary, torus"),
    ("singularity torus params=2,3", "singularity line needs components=i,j,..."),
    ("singularity torus components=0 zz=1", "singularity torus: unknown key 'zz' (allowed: components, params)"),
    ("singularity torus components=x params=2,3", "singularity torus: components must be integers, got 'x'"),
    ("singularity torus components=0 params=x,3", "singularity torus: p must be an integer, got 'x'"),
    ("singularity ordinary components=0 params=x", "singularity ordinary: d must be an integer, got 'x'"),
    ("singularity torus components=0 params=2", "singularity torus takes 2 integer parameter(s)"),
    ("singularity torus components=1 params=2,3", "singularity references component 1, but only 1 declared"),
]


@pytest.mark.parametrize("line,message", PARAMETER_ERRORS)
def test_every_parameter_error_names_its_line_and_reason(line, message):
    if line.startswith("builder"):
        text, lineno = f"{line}\nrho trivial 1\n", 1
    else:
        text, lineno = f"builder cusp\nrho trivial 1\ncomponent degree=1 weight=1\n{line}\n", 4
    with pytest.raises(JobParseError) as err:
        parse_job(text)
    assert (err.value.line, err.value.message) == (lineno, message)


# One number rule for every numeric field (scalars._numeral): ASCII only,
# with no digit groups, although int() and Fraction() take both.  One input
# per site, each refused at its line.
_NUMBER_BASE = "generators x y\nrelator x^2 y^-2\neps x=1 y=1\nrho x = [[1]]\nrho y = [[1]]\n"
NUMBER_ERRORS = [
    ("builder hopf d=1_0\nrho trivial 1\n", 1, "builder hopf: d must be an integer, got '1_0'"),
    ("builder hopf d=\u0663\nrho trivial 1\n", 1, "builder hopf: d must be an integer, got '\u0663'"),
    ("builder union factors=torus:1_0:3,line\nrho trivial 1\n", 1, "bad union factor 'torus:1_0:3' (torus:p:q, cusp, or line)"),
    ("builder hopf d=2\nrho trivial 1_0\n", 2, "rho trivial dimension must be an integer, got '1_0'"),
    ("field cyclotomic 1_2\n" + _NUMBER_BASE, 1, "conductor must be an integer, got '1_2'"),
    (_NUMBER_BASE.replace("eps x=1", "eps x=1_0"), 3, "eps value for 'x' must be an integer, got '1_0'"),
    (_NUMBER_BASE.replace("x^2 y^-2", "x^1_0 y^-10"), 2, "bad exponent in 'x^1_0'"),
    # The letter count reads the exponent by the same rule, so Word.parse,
    # not the letter limit, names it.
    (_NUMBER_BASE.replace("x^2 y^-2", "x^1_000_000 y^-1"), 2, "bad exponent in 'x^1_000_000'"),
    (_NUMBER_BASE.replace("x^2", "x^\u0662"), 2, "bad exponent in 'x^\u0662'"),
    ("field cyclotomic 6\n" + _NUMBER_BASE.replace("x = [[1]]", "x = [[z^1_2]]"), 5, "rho x: cannot parse scalar factor 'z^1_2'"),
    (_NUMBER_BASE.replace("x = [[1]]", "x = [[1_0/3]]"), 4, "rho x: cannot parse scalar factor '1_0/3'"),
    (_NUMBER_BASE.replace("x = [[1]]", "x = [[1e1_0]]"), 4, "rho x: cannot parse scalar factor '1e1_0'"),
    (_NUMBER_BASE.replace("x = [[1]]", "x = [[\u0661/3]]"), 4, "rho x: cannot parse scalar factor '\u0661/3'"),
    (_NUMBER_BASE + "local torus 2 1_0 weights 1\n", 6, "local torus: q must be an integer, got '1_0'"),
    (_NUMBER_BASE + "local torus 2 3 weights 1_0\n", 6, "local torus: weights must be integers, got '1_0'"),
    ("builder cusp\nrho trivial 1\ncomponent degree=1_0 weight=1\n", 3, "component: degree must be an integer, got '1_0'"),
]


@pytest.mark.parametrize("text,lineno,message", NUMBER_ERRORS)
def test_every_number_is_ascii_without_digit_groups(text, lineno, message):
    with pytest.raises(JobParseError) as err:
        parse_job(text)
    assert (err.value.line, err.value.message) == (lineno, message)


@pytest.mark.parametrize("kv", ["weight=10001 euler=1", "weight=1 euler=-10001", "weight=" + "9" * 4300 + " euler=1"])
def test_a_component_weight_and_euler_are_bounded_like_eps(kv):
    # Both are t-exponents of the curve analyses: a weight of 4300 digits
    # overflowed the infinity bound, and an Euler characteristic as large
    # raised a polynomial to that power.
    text = f"builder cusp\nrho trivial 1\ncomponent degree=1 {kv}\n"
    with pytest.raises(JobParseError) as err:
        parse_job(text)
    assert (err.value.line, err.value.message) == (3, "component: weight and euler must be at most 10000 in size")


def test_a_limit_message_prints_a_sum_past_the_digit_limit_of_int():
    # The weights of a local cusp meet in the span of its 6 letters: 6 times
    # 4300 nines has 4301 digits, more than str() of an int prints.
    text = f"builder cusp\nrho trivial 1\nlocal cusp weights {'9' * 4300}\n"
    with pytest.raises(JobParseError) as err:
        parse_job(text)
    span = "5" + "9" * 4299 + "4"
    assert (err.value.line, err.value.message) == (3, f"local cusp spans {span} powers of t under eps; the limit is 20000")


def test_the_ascii_number_forms_still_parse():
    # Signs, leading zeros, decimals and exponent notation.
    job = parse_job(
        "field cyclotomic +06\ngenerators x y\nrelator x^+02 y^-02\neps x=+1 y=01\n"
        "rho x = [[-0.5e1*z^-1 + 1.5 + 7/2 - 1E+0]]\nrho y = [[-0.5e1*z^-1 + 1.5 + 7/2 - 1E+0]]\n"
    )
    assert (job.conductor, job.eps_values) == (6, (1, 1))
    assert run_job(job)[1] == 0
    assert parse_job("builder hopf d=+03\nrho trivial 1\n").source == parse_job("builder hopf d=3\nrho trivial 1\n").source


def test_python_dash_m_runs_the_cli():
    # python -m twistalex is the console script: same report, same exit.
    circle = ROOT / "sample_jobs" / "circle.job"
    golden = json.loads((ROOT / "tests" / "golden_reports.json").read_text(encoding="utf-8"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "twistalex", "compute", str(circle)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == golden["circle.job"]["compute/text"]["report"]


# Short texts that ask for huge allocations, and the line each is refused at.
OVER_BUDGET = {
    "relator letters": ("generators x y\nrelator x^1000000000 y^-1000000000\nrho trivial 1\n", 2),
    "eps": ("generators x y\nrelator x y x^-1 y^-1\neps x=1000000000 y=1\nrho trivial 1\n", 3),
    "conductor": ("field cyclotomic 1000000000\ngenerators x\nrho trivial 1\n", 1),
    "builder letters": ("builder torus p=1000000001 q=2\nrho trivial 1\n", 1),
    "union letters": ("builder union factors=" + ",".join(["line"] * 200) + "\nrho trivial 1\n", 1),
    "degree span": ("builder torus p=9001 q=9002\nrho trivial 1\n", 1),
    "dimension": ("builder cusp\nrho trivial 1000000000\n", 2),
    "local germ": ("builder cusp\nrho trivial 1\nlocal torus 100000 100001 weights 1\n", 3),
    "a_odd builder": ("builder a_odd n=20000\nrho trivial 1\n", 1),
    "a_odd germ": ("builder cusp\nrho trivial 1\nlocal a_odd 20000 weights 1 1\n", 3),
}


@pytest.mark.parametrize("name", sorted(OVER_BUDGET))
def test_inputs_over_a_budget_exit_2_at_their_line(tmp_path, capsys, name):
    text, line = OVER_BUDGET[name]
    path = tmp_path / "big.job"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code = main(["compute", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert f"line {line}:" in err and "limit" in err


@pytest.mark.parametrize("name", ["a_odd builder", "a_odd germ"])
def test_an_oversized_a_odd_is_refused_before_its_presentation_is_built(monkeypatch, name):
    # The letter count comes from the parameter: 8n + 3 for the builder,
    # 8n - 1 for the reduced germ of a local line.
    built = []

    def recorded(n):
        built.append(n)
        raise AssertionError("a_odd presentation built")

    monkeypatch.setattr(presentations, "a_odd_presentation", recorded)
    text, line = OVER_BUDGET[name]
    with pytest.raises(JobParseError) as err:
        parse_job(text)
    assert err.value.line == line
    assert err.value.message == f"the relators have {159_999 if 'germ' in name else 160_003} letters; the limit is 20000"
    assert built == []


# Unions of a parameter sum within the letter limit whose letters are not,
# with the letters each asks for; the second's torus factor is not coprime.
OVERSIZED_UNIONS = {
    "torus:9989:9990,cusp,cusp,cusp,cusp,cusp,cusp": 20_351,
    "torus:9990:9992,cusp,cusp,cusp,cusp,cusp,cusp": 20_354,
}


@pytest.mark.parametrize("factors", sorted(OVERSIZED_UNIONS))
def test_an_oversized_union_is_refused_before_a_factor_is_built(monkeypatch, factors):
    # The letter count comes from the factor list: the factors' own letters
    # and 4 per cross-factor generator pair, 336 for these 14 generators.
    built = []

    def recorded(*params):
        built.append(params)
        raise AssertionError("union factor built")

    monkeypatch.setattr(presentations, "torus_germ_presentation", recorded)
    monkeypatch.setattr(presentations, "braid_cusp_presentation", recorded)
    with pytest.raises(JobParseError) as err:
        parse_job(f"builder union factors={factors}\nrho trivial 1\n")
    assert err.value.line == 1
    assert err.value.message == f"the relators have {OVERSIZED_UNIONS[factors]} letters; the limit is 20000"
    assert built == []


# Sample parameters for each presentation family, and the parameters and
# weights of each local kind.
FAMILY_PARAMS = {
    "hopf": (5,),
    "a_odd": (3,),
    "a_odd_reduced": (3,),
    "torus": (3, 5),
    "cusp": (),
    "circle": (),
    "union": ([("torus", 2, 3), ("cusp",), ("line",)],),
}
LOCAL_PARAMS = {"node": ((), (1, 1)), "ordinary": ((4,), (1,) * 4), "a_odd": ((3,), (1, 1)), "torus": ((3, 5), (1,)), "cusp": ((), (1,))}


@pytest.mark.parametrize(
    "name,params",
    list(FAMILY_PARAMS.items())
    + [(f"local {kind}", LOCAL_PARAMS[kind]) for kind in obstructions._LOCAL_KINDS],
)
def test_builder_letter_counts_match_the_built_relators(name, params):
    # The letter count a job is bounded by, the family's formula, equals the
    # letters built, for every family and for every local kind's germ.
    if name.startswith("local "):
        kind, (given, weights) = name.removeprefix("local "), params
        (_, _, _, letters), _, fixed = obstructions._germ_family(kind, len(given), "local")
        params = fixed or given
        pres, _, _ = obstructions._local_germ(FieldContext(1), kind, given, weights)
    else:
        _, _, build, letters = presentations._FAMILIES[name]
        pres, _ = build(*params)
    assert letters(*params) == sum(len(r) for r in pres.relators)


def test_every_family_has_sample_parameters():
    assert set(FAMILY_PARAMS) == set(presentations._FAMILIES)


BUILDERS_LISTING = """\
a_odd          n=<int>         A_(2n-1) germ group, full 2n+1 relator presentation
a_odd_reduced  n=<int>         A_(2n-1) germ group without its redundant relator
circle         (no parameters) one generator, no relators
cusp           (no parameters) cusp germ in braid form <x, y | xyx = yxy>
hopf           d=<int>         generalized Hopf link group on x0..x(d-1), x0 central
torus          p=<int> q=<int>  irreducible germ <x, y | x^p = y^q>
union          factors=f1,f2   transversal union; factor = torus:p:q | cusp | line
"""


def test_cli_builders_listing_is_pinned(capsys):
    assert main(["builders"]) == 0
    assert capsys.readouterr().out == BUILDERS_LISTING


# Inputs that crashed, or passed parsing and failed later or never, and the
# line each is refused at.
REFUSED_AT_THEIR_LINE = {
    "union of 15 lines": ("builder union factors=" + ",".join(["line"] * 15) + "\nrho trivial 1\n", 1),
    "union of 8 cusps": ("builder union factors=" + ",".join(["cusp"] * 8) + "\nrho trivial 1\n", 1),
    "union torus factor that builder torus refuses": ("builder union factors=torus:2:4,line\nrho trivial 1\n", 1),
    "unknown singularity kind": (
        "builder cusp\nrho trivial 1\ncomponent degree=1 weight=1\nsingularity bogus components=0\n",
        4,
    ),
    "component degree 0": (
        "builder torus p=2 q=3\nrho trivial 1\ncomponent degree=0 weight=1\nanalyze divisibility\n",
        3,
    ),
    "component weight 0": ("builder cusp\nrho trivial 1\ncomponent degree=2 weight=0\n", 3),
    "local germ that raises": ("builder cusp\nrho trivial 1\nlocal a_odd 0 weights 1 1\n", 3),
    "local germ short of scalars": ("builder cusp\nrho trivial 1\nlocal a_odd 1 weights 1 1 scalars 2\n", 3),
    "local germ with a scalar too many": ("builder cusp\nrho trivial 1\nlocal a_odd 1 weights 1 1 scalars 2, 3, 5\n", 3),
    "local germ with a zero scalar": ("builder cusp\nrho trivial 1\nlocal torus 2 3 weights 1 scalars 0, 1\n", 3),
    "local germ that rho does not kill": ("builder cusp\nrho trivial 1\nlocal torus 2 3 weights 1 scalars 2, 3\n", 3),
    "local germ with zero weights": ("builder cusp\nrho trivial 1\nlocal node weights 0 0\n", 3),
    "meridian not square": ("builder cusp\nrho trivial 1\ncomponent degree=1 weight=1 meridian=[[1, 2]]\n", 3),
    "meridian larger than rho": ("builder cusp\nrho trivial 1\ncomponent degree=1 weight=1 meridian=[[1, 0], [0, 1]]\n", 3),
    "singular meridian": ("builder cusp\nrho trivial 2\ncomponent degree=1 weight=1 meridian=[[1, 1], [1, 1]]\n", 3),
}


@pytest.mark.parametrize("name", sorted(REFUSED_AT_THEIR_LINE))
def test_bad_lines_exit_2_at_their_line(tmp_path, capsys, name):
    text, line = REFUSED_AT_THEIR_LINE[name]
    path = tmp_path / "bad.job"
    path.write_text(text, encoding="utf-8")
    assert main(["compute", str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line {line}:" in captured.err


@pytest.mark.parametrize(
    "line,message",
    [
        ("local torus 2 3 weights 1 scalars 2, 3", "local torus: invalid triple: rho does not kill relator 0"),
        ("local node weights 0 0", "local node: invalid triple: eps is trivial"),
        ("component degree=1 weight=1 meridian=[[1, 2]]", "component meridian: must be 1x1 like rho, got 1x2"),
        ("component degree=1 weight=1 meridian=[[0]]", "component meridian: matrix is singular"),
    ],
)
def test_an_invalid_germ_or_meridian_is_refused_with_its_reason(line, message):
    # Both used to parse, and failed only when run, with no line named.
    with pytest.raises(JobParseError) as err:
        parse_job(f"builder cusp\nrho trivial 1\n{line}\n")
    assert (err.value.line, err.value.message) == (3, message)


@pytest.mark.parametrize(
    "line,message",
    [
        ("singularity torus components=0 params=1,2,3", "singularity torus takes 2 integer parameter(s)"),
        ("singularity node components=0 params=2", "singularity node takes 0 integer parameter(s)"),
        ("singularity torus components=0 params=2,4", "singularity torus: torus germ parameters need p, q >= 2 coprime"),
        ("singularity a_odd components=0 params=0", "singularity a_odd: the A family needs n >= 1"),
        ("singularity ordinary components=0 params=100000", "singularity ordinary: the parameters sum to 100000; the limit is 20000"),
    ],
)
def test_a_singularity_is_refused_by_the_rules_of_a_local_line_of_its_kind(line, message):
    # These parsed, and analyze alpha ran on them with exit 0; a local line
    # of the same kind and parameters is refused.
    with pytest.raises(JobParseError) as err:
        parse_job(f"builder cusp\nrho trivial 1\ncomponent degree=1 weight=1\n{line}\nanalyze alpha\n")
    assert (err.value.line, err.value.message) == (4, message)


def test_a_singularity_within_the_rules_still_parses():
    for line in ("singularity torus components=0 params=2,3", "singularity node components=0", "singularity cusp components=0"):
        spec = parse_job(f"builder cusp\nrho trivial 1\ncomponent degree=1 weight=1\n{line}\n")
        assert len(spec.singularities) == 1


def test_a_local_germ_is_built_once_at_parse_time(monkeypatch):
    # parse_job builds and validates each germ's complex; run_job reads it
    # and builds nothing.  A spec made directly builds its germs when run.
    text = "builder cusp\nrho trivial 1\nlocal torus 2 3 weights 2\nlocal cusp weights 1\n"
    spec = parse_job(text)
    expected, _ = run_job(spec)

    def refused(*args):
        raise AssertionError("a complex was built by run_job")

    monkeypatch.setattr(jobs, "build_complex", refused)
    monkeypatch.setattr(obstructions, "build_complex", refused)
    assert run_job(spec) == (expected, EXIT_OK)
    monkeypatch.undo()
    direct = JobSpec(*(getattr(spec, name) for name in JobSpec.__slots__ if not name.startswith("_")))
    assert direct == spec and direct._complexes is None
    assert run_job(direct) == (expected, EXIT_OK)
    assert "local torus(2, 3) weights (2,)" in expected


def test_union_of_14_generators_still_builds():
    spec = parse_job("builder union factors=" + ",".join(["cusp"] * 7) + "\nrho trivial 1\n")
    assert "".join(spec.generator_names) == "xyzwuvabcdefgh"


# Two builders that exist only in these tests, each with a step (the last
# field of a _BUILDERS entry): T^3, the commutator presentation of Z^3 plus
# its 3-cell, keeps its triple; the mapping torus of the swap of two points
# has a complex with no presentation behind it, so its step drops the triple.


def _three_torus():
    names = ["x", "y", "z"]
    relators = [presentations.Word.parse(t, names) for t in ("x y x^-1 y^-1", "x z x^-1 z^-1", "y z y^-1 z^-1")]
    return presentations.Presentation(names, relators), presentations.Augmentation([1, 1, 1])


def _koszul_cell(cx2):
    # Under a rank-1 rho, d1 = (u_x, u_y, u_z) with u = Phi(g) - 1, and the
    # 3-cell of T^3 has d3 = (u_z, -u_y, u_x)^T.
    ((ux, uy, uz),) = cx2.boundaries[0].entries
    return TwistedChainComplex((*cx2.boundaries, LaurentMatrix(cx2.context, [[uz], [-uy], [ux]])), cx2.triple)


def _swap_of_two_points(cx2):
    # C1 = C0 = R^2 and d1 = t h - Id with h the swap of the two points.
    ctx = cx2.context
    t, one = LaurentPoly(ctx, [1], 1), LaurentPoly.one(ctx)
    return TwistedChainComplex((LaurentMatrix(ctx, [[-one, t], [t, -one]]),))


@pytest.fixture
def stepped_builders(monkeypatch):
    circle = presentations._FAMILIES["circle"]
    monkeypatch.setitem(jobs._BUILDERS, "three_torus", ((), "T^3", _three_torus, lambda: 12, _koszul_cell))
    monkeypatch.setitem(jobs._BUILDERS, "two_points", (*circle, _swap_of_two_points))


def test_a_builder_step_adds_a_three_cell(stepped_builders):
    spec = parse_job("builder three_torus\nrho trivial 1\nspecialize 1\n")
    assert spec.chain_complex().ranks == (1, 3, 3, 1)
    assert spec.chain_complex().triple is not None
    for mode in ("compute", "check"):
        out, code = run_job(spec, mode=mode)
        assert code == EXIT_OK, out
        lines = out.splitlines()
        assert "chain ranks: C3=1 C2=3 C1=3 C0=1, euler 0" in lines
        assert [line.split("divisors ")[1] for line in lines if line.startswith("degree ")] == [
            "[-1 + t]",
            "[-1 + t, -1 + t]",
            "[-1 + t]",
            "[]",
        ]
        assert "specialize t=1: dims (1, 3, 3, 1), multiplicities (1, 2, 1, 0), bounds (1, 3, 3, 1), ok" in lines
    assert "check fox-identity: ok (5/5 words, seed 0)" in lines
    assert "check wada-agreement: skipped (not deficiency 1)" in lines


def test_a_complex_without_a_presentation_runs_and_skips_its_readers(stepped_builders):
    spec = parse_job("builder two_points\nrho trivial 1\nspecialize 1\n")
    assert spec.chain_complex().triple is None
    assert run_job(spec)[1] == EXIT_OK
    out, code = run_job(spec, mode="check")
    assert code == EXIT_OK, out
    lines = out.splitlines()
    assert "degree 0: free rank 0, delta -1 + t^2, divisors [-1 + t^2]" in lines
    assert "validation: ok (eps image index 1)" in lines
    assert "check wada-agreement: skipped (no presentation)" in lines
    assert "check fox-identity: skipped (no presentation)" in lines


@pytest.mark.parametrize("analysis", ["wada", "divisibility", "root-field"])
def test_the_readers_of_a_triple_refuse_a_complex_without_one(stepped_builders, analysis):
    spec = parse_job(f"builder two_points\nrho trivial 1\nanalyze {analysis}\ncomponent degree=2 weight=1\n")
    for mode in ("compute", "check"):
        out, code = run_job(spec, mode=mode, fmt="records")
        assert code == EXIT_INPUT_ERROR
        last = json.loads(out.splitlines()[-1])
        assert last == {"record": "error", "kind": "input", "message": f"{analysis} needs a presentation complex"}


def test_editing_the_source_of_a_parsed_spec_rebuilds_its_complex(stepped_builders):
    spec = parse_job("builder circle\nrho trivial 1\n")
    parsed = spec.chain_complex()
    assert parsed.triple is not None and spec.chain_complex() is parsed
    spec.source = ("builder", "two_points")
    assert spec.chain_complex().triple is None
    assert spec.chain_complex().ranks == (2, 2)


def test_a_rho_entry_that_would_not_print_is_refused_at_its_line():
    # 1e5000 parsed, and then printing rho in the job record ended the CLI in
    # a traceback.
    with pytest.raises(JobParseError) as err:
        parse_job("builder hopf d=2\nrho x0 = [[1e5000]]\nrho x1 = [[1]]\n")
    assert (err.value.line, err.value.message) == (2, "rho x0: scalar factor '1e5000' has an exponent past 4300")


def test_the_specialization_bound_counts_divisors_not_root_multiplicities():
    # H0 = R/(t - 1)^2 from a Jordan block: its specialization at t = 1 has
    # dimension 1, one divisor vanishing there, not the root's multiplicity 2.
    spec = parse_job("field rational\ngenerators x\nrho x = [[1, 1], [0, 1]]\nspecialize 1\n")
    out, code = run_job(spec)
    assert code == EXIT_OK, out
    lines = out.splitlines()
    assert "degree 0: free rank 0, delta 1 - 2*t + t^2, divisors [1 - 2*t + t^2]" in lines
    assert "specialize t=1: dims (1, 1, 0), multiplicities (1, 0, 0), bounds (1, 1, 0), ok" in lines


def test_a_result_past_the_printed_digit_limit_prints():
    # rho(x0) = 10^4000 gives a delta1 coefficient of 8001 digits, past
    # Python's default limit on the digits of an int printed as text.
    rho = "rho x0 = [[1e4000]]\n" + "".join(f"rho x{i} = [[1]]\n" for i in (1, 2, 3))
    out, code = run_job(parse_job("field rational\nbuilder hopf d=4\n" + rho + "analyze delta\n"))
    assert code == EXIT_OK, out[:300]
    delta = f"1/1{'0' * 8000} - 1/5{'0' * 3999}*t^4 + t^8"
    divisor = f"-1/1{'0' * 4000} + t^4"
    assert f"degree 1: free rank 0, delta {delta}, divisors [{divisor}, {divisor}]" in out.splitlines()


@pytest.mark.parametrize(
    "text",
    [
        "generators 1 x\nrelator\neps 1=1 x=1\nrho trivial 1\n",
        "generators a=b\nrho a=b = [[1]]\n",
    ],
)
def test_a_generator_name_that_would_not_read_back_is_refused_at_its_line(text):
    # Both parsed, and their canonical text read back as another job or
    # none: relator 1 as the generator 1, and eps a=b=1 as eps of a.
    with pytest.raises(JobParseError) as err:
        parse_job(text)
    name = text.split()[1]
    assert (err.value.line, err.value.message) == (1, f"generator name {name!r} is not an identifier")


@pytest.mark.parametrize(
    "text",
    [
        "generators trivial x\nrelator trivial x trivial^-1 x^-1\nrho trivial 1\n",
        "generators trivial\nrho trivial = [[1]]\n",
        "generators x y\nrelator\nrelator x 1 x^-1 1\nrho trivial 1\n",
    ],
)
def test_a_job_with_a_generator_named_trivial_or_an_empty_relator_round_trips(text):
    spec = parse_job(text)
    dumped = serialize_job(spec)
    assert parse_job(dumped) == spec
    assert serialize_job(parse_job(dumped)) == dumped


@pytest.mark.parametrize(
    "text,line,message",
    [
        (
            "builder cusp\nrho trivial 1\ncomponent degree=1 weight=1 euler=x\n",
            3,
            "component: euler must be an integer, got 'x'",
        ),
        (
            "builder cusp\nrho trivial 1\ncomponent degree=1 weight=1\nsingularity node components=x\n",
            4,
            "singularity node: components must be integers, got 'x'",
        ),
        ("generators x\nrelator x^a\nrho trivial 1\n", 2, "bad exponent in 'x^a'"),
        (
            "builder union factors=torus:a:b,line\nrho trivial 1\n",
            1,
            "bad union factor 'torus:a:b' (torus:p:q, cusp, or line)",
        ),
    ],
)
def test_a_non_integer_is_refused_in_the_words_of_the_job(text, line, message):
    # Each was refused at its line, with Python's int() text as the reason.
    with pytest.raises(JobParseError) as err:
        parse_job(text)
    assert (err.value.line, err.value.message) == (line, message)


def test_the_wada_ratio_takes_its_reduced_form_from_the_homology_ratio(monkeypatch):
    # The minor formula's ratio agrees with the homology ratio by one
    # cross-multiplication, so wada_agreement runs no gcd and the job's
    # ratio reductions are the homology ratio and the local node germ's
    # alone.
    from twistalex import laurent

    counts = {"init": 0, "in_wada": 0}
    inside = []
    gcd, wada = laurent.laurent_gcd, jobs.wada_agreement

    def counted_gcd(a, b):
        if sys._getframe(1).f_code is laurent.RationalFunction.__init__.__code__:
            counts["init"] += 1
        counts["in_wada"] += bool(inside)
        return gcd(a, b)

    def traced_wada(*args):
        inside.append(1)
        try:
            return wada(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(laurent, "laurent_gcd", counted_gcd)
    monkeypatch.setattr(jobs, "wada_agreement", traced_wada)
    spec = parse_job((ROOT / "sample_jobs" / "hopf3_untwisted.job").read_text())
    _, code = run_job(spec, mode="compute", fmt="records")
    assert code == EXIT_OK
    assert counts == {"init": 2, "in_wada": 0}
    report, code = run_job(spec, mode="check", fmt="records")
    assert code == EXIT_OK
    checks = [json.loads(line) for line in report.splitlines() if '"record": "check"' in line]
    assert {"record": "check", "name": "wada-agreement", "ok": True, "detail": None} in checks


ZERO_DELTA1 = """
generators x y
relator x x^-1
eps x=1 y=1
rho trivial 1
analyze delta wada
"""


def test_a_zero_minor_agrees_exactly_with_a_zero_homology_numerator():
    # The relator x x^-1 has zero Fox derivatives, so the Wada minor is 0
    # and H_1 has free rank 1: Delta_1 = 0 on both routes.  The verdict
    # cannot come from unit_multiple, which refuses a zero numerator.
    from twistalex.homology import wada_agreement
    from twistalex.laurent import RationalFunction

    spec = parse_job(ZERO_DELTA1)
    report, code = run_job(spec, mode="compute")
    assert code == EXIT_OK
    assert "ratio delta1/delta0: 0\nwada: 0, agrees with homology: yes\n" in report
    report, code = run_job(spec, mode="check", fmt="records")
    assert code == EXIT_OK
    records = [json.loads(line) for line in report.splitlines()]
    assert {"record": "wada", "applicable": True, "numerator": "0", "denominator": "1", "agrees": True} in records
    assert {"record": "check", "name": "wada-agreement", "ok": True, "detail": None} in records
    complex_ = spec.chain_complex()
    t = LaurentPoly.t_power(complex_.context, 1)
    for known, agrees in ((RationalFunction.from_poly(t - 1), False), (None, False)):
        ratio, verdict = wada_agreement(complex_, known)
        assert (ratio.numerator.is_zero(), ratio.denominator.is_one(), verdict) == (True, True, agrees)
