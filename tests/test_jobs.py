"""Job grammar, report determinism, exit codes, and the CLI front end."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from twistalex.cli import main
from twistalex.jobs import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    JobParseError,
    parse_job,
    run_corpus,
    run_job,
    serialize_job,
)

SAMPLES = sorted((Path(__file__).resolve().parent.parent / "sample_jobs").glob("*.job"))

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
