"""The fork helper shared by the hidden-size search, the forest and the optimizer methods."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aeimpute import parallel

from conftest import deadline


class TestForkMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_item_order_with_interleaved_shares(self, workers, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: workers)
        caller = os.getpid()
        items = list(range(10, 17))
        with deadline(60):
            out = parallel.fork_map(lambda i: (i * i, os.getpid()), items)
        assert [value for value, _ in out] == [i * i for i in items]
        pids = [pid for _, pid in out]
        # The caller maps items[0::W]; worker w maps items[w::W], all in one process.
        assert set(pids[0::workers]) == {caller}
        for w in range(1, workers):
            assert len(set(pids[w::workers])) == 1 and caller not in pids[w::workers]
        assert len(set(pids)) == workers
        assert multiprocessing.active_children() == []

    def test_no_items_map_to_nothing(self):
        assert parallel.fork_map(lambda i: i, []) == []

    def test_worker_count_follows_available_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert parallel._worker_count(23) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        assert parallel._worker_count(23) == 8
        assert parallel._worker_count(3) == 3

    def test_worker_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 2)
        caller = os.getpid()

        def failing_in_worker(i):
            if os.getpid() != caller:
                raise ValueError(f"bad item {i}")
            return i

        with deadline(60), pytest.raises(ValueError, match="^bad item 3$"):
            parallel.fork_map(failing_in_worker, [2, 3, 4, 5])
        assert multiprocessing.active_children() == []

    def test_worker_exit_without_result_raises(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 3)
        caller = os.getpid()

        def exiting_in_worker(i):
            # Item 4 is the whole share of the last worker forked.
            if os.getpid() != caller and i == 4:
                os._exit(3)
            return i

        with deadline(60), pytest.raises(RuntimeError, match=r"without a result \(exit code 3\)"):
            parallel.fork_map(exiting_in_worker, [2, 3, 4, 5])
        assert multiprocessing.active_children() == []


class TestForkWaves:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_breaking_after_the_first_wave_forks_no_second(self, workers, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: min(workers, n))

        def mark(i):
            (tmp_path / str(i)).touch()  # seen from any process
            return i * i

        with deadline(60):
            for first in parallel.fork_waves(mark, range(7)):
                break
        assert first == 0
        assert sorted(int(p.name) for p in tmp_path.iterdir()) == list(range(workers))
        assert multiprocessing.active_children() == []
        with deadline(60):
            assert list(parallel.fork_waves(lambda i: i * i, range(7))) == [i * i for i in range(7)]


def test_fork_machinery_not_loaded_at_import():
    # Importing the program must not pay for multiprocessing (bench setup_s).
    src = Path(parallel.__file__).resolve().parent.parent
    code = (
        "import sys; import aeimpute.cli, aeimpute.forest, aeimpute.network; "
        "print('multiprocessing' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.split() == ["False"]
