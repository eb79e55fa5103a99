"""Text reports are their records rendered through one formatter table.

For every pinned report pair in ``golden_reports.json`` and
``golden_edge_reports.json`` the text report has one line per record, and
line i is ``TEXT_FORMATTERS`` applied to record i.  The table has exactly
one formatter per record type those reports emit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from twistalex.jobs import TEXT_FORMATTERS

HERE = Path(__file__).resolve().parent


def _pairs():
    """(name, text report, records report) for every pinned report pair."""
    samples = json.loads((HERE / "golden_reports.json").read_text(encoding="utf-8"))
    edges = json.loads((HERE / "golden_edge_reports.json").read_text(encoding="utf-8"))
    runs = {f"sample/{name}": by_run for name, by_run in samples.items()}
    runs.update({f"edge/{name}": by_run for name, by_run in edges["jobs"].items()})
    pairs = []
    for name, by_run in runs.items():
        for mode in ("compute", "check"):
            pairs.append((f"{name}/{mode}", by_run[f"{mode}/text"]["report"], by_run[f"{mode}/records"]["report"]))
    for name, by_fmt in edges["corpus"].items():
        pairs.append((f"corpus/{name}", by_fmt["text"]["report"], by_fmt["records"]["report"]))
    return pairs


PAIRS = _pairs()


@pytest.mark.parametrize("name,text,records", PAIRS, ids=[p[0] for p in PAIRS])
def test_text_lines_are_the_rendered_records(name, text, records):
    lines = text.splitlines()
    parsed = [json.loads(line) for line in records.splitlines()]
    assert len(lines) == len(parsed)
    for line, record in zip(lines, parsed):
        assert line == TEXT_FORMATTERS[record["record"]](record)


def test_one_formatter_per_emitted_record_type():
    emitted = {json.loads(line)["record"] for _, _, records in PAIRS for line in records.splitlines()}
    assert set(TEXT_FORMATTERS) == emitted
    assert len(emitted) == 16


def test_a_skipped_specialize_bound_names_every_degree_below_the_top():
    # A complex of length 3 gates the bound on H0, H1 and H2 being torsion.
    record = {"record": "specialize", "at": "1", "dims": [1, 3, 3, 1], "bound_ok": None}
    assert TEXT_FORMATTERS["specialize"](record) == "specialize t=1: dims (1, 3, 3, 1) (bound skipped: H0/H1/H2 not torsion)"
