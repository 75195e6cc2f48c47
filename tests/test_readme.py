"""The README's library tour runs as written."""

import re
from pathlib import Path

import numpy as np

from conftest import write_table

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(tmp_path, monkeypatch):
    (tour,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    (tmp_path / "data").mkdir()
    write_table(tmp_path / "data" / "heart.csv", "heart")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(tour, str(README), "exec"), scope)
    completed, task = scope["completed"], scope["task"]
    assert completed.shape == (67, 14)
    known = task.known_mask
    np.testing.assert_array_equal(completed[:, known], task.record[:, known])
    assert np.all((completed[:, ~known] >= 0.0) & (completed[:, ~known] <= 1.0))
