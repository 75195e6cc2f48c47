"""The README's library tour runs as written, and its config tables match the parser's."""

import itertools
import re
from pathlib import Path

import numpy as np

from aeimpute.experiment import _KEYS, _SECTION_TYPES

from conftest import write_table

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(tmp_path, monkeypatch):
    (tour,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    (tmp_path / "data").mkdir()
    write_table(tmp_path / "data" / "heart.csv", "heart")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(tour, str(README), "exec"), scope)
    estimates, task = scope["estimates"], scope["task"]
    assert task.column == 13 and estimates.shape == (67,)
    assert np.all((estimates >= 0.0) & (estimates <= 1.0))
    assert scope["mae"] == float(np.abs(estimates - task.rows[:, 13]).mean())


def table_rows(header: str) -> list[list[str]]:
    """The cells of the README table under ``header``, backticks stripped."""
    lines = README.read_text(encoding="utf-8").partition(header + "\n")[2].splitlines()[1:]
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines)
    return [[cell.strip().strip("`") for cell in row.strip("|").split("|")] for row in rows]


def test_config_key_tables_are_the_parsers():
    assert sorted(row[0] for row in table_rows("| key | type | default |")) == sorted(_KEYS[""])
    sections = {row[0]: row[1] for row in table_rows("| section | config class |")}
    assert sections == {name: f"{tp.__module__}.{tp.__name__}" for name, tp in _SECTION_TYPES.items()}
