"""The README's tables name what the code has."""

from __future__ import annotations

import re
from pathlib import Path

from twistalex import jobs, obstructions

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _table_rows(heading: str) -> list[list[str]]:
    """The body rows of the first table under a ``### heading``, as cells."""
    section = README.split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", row)[1:-1]] for row in rows[2:]]


def test_readme_builders_table_lists_the_builder_table():
    names = [row[0].strip("`") for row in _table_rows("Builders")]
    assert sorted(names) == sorted(jobs._BUILDERS)


def test_readme_local_kinds_table_lists_the_local_kind_table():
    families = {row[0].strip("`"): row[2].split(",")[0].strip("`") for row in _table_rows("Local kinds")}
    assert families == {kind: entry[0] for kind, entry in obstructions._LOCAL_KINDS.items()}


def test_readme_input_limits_show_the_limits():
    limits = {row[0].strip("`"): row[1] for row in _table_rows("Input limits")}
    expected = {name: str(getattr(jobs, name)) for name in dir(jobs) if name.startswith("MAX_")}
    assert limits == expected


def test_readme_python_blocks_run(capsys):
    # The Library block calls the API a reader would copy; run it as written.
    # Its last line prints the agreement of the minor formula with homology.
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.splitlines()[-1] == "True"
