"""The fork helper shared by the hidden-size search, the forest and the optimizer methods."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from aeimpute import parallel

from conftest import child_processes, deadline, end_child_processes


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
        assert child_processes() == []

    def test_no_items_map_to_nothing(self):
        assert parallel.fork_map(lambda i: i, []) == []

    def test_worker_count_follows_available_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert parallel._worker_count(23) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        assert parallel._worker_count(23) == 8
        assert parallel._worker_count(3) == 3
        monkeypatch.delattr(os, "fork")
        assert parallel._worker_count(23) == 1

    def test_worker_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 2)
        caller = os.getpid()

        def failing_in_worker(i):
            if os.getpid() != caller:
                raise ValueError(f"bad item {i}")
            return i

        with deadline(60), pytest.raises(ValueError, match="^bad item 3$") as caught:
            parallel.fork_map(failing_in_worker, [2, 3, 4, 5])
        worker_traceback = str(caught.value.__cause__)
        assert worker_traceback.startswith("in a forked worker:\nTraceback")
        assert "failing_in_worker" in worker_traceback
        assert child_processes() == []

    @pytest.mark.parametrize(
        "leave, exit_code",
        [
            (lambda: os._exit(3), 3),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
            # Not an Exception: the worker must still exit, not unwind into the caller's stack.
            (lambda: sys.exit(0), 1),
        ],
        ids=["exit-3", "sigkill", "system-exit"],
    )
    def test_worker_exit_without_result_raises(self, leave, exit_code, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 3)
        caller = os.getpid()

        def exiting_in_worker(i):
            # Item 4 is the whole share of the last worker forked.
            if os.getpid() != caller and i == 4:
                leave()
            return i

        match = rf"^a forked worker exited without a result \(exit code {exit_code}\)$"
        with deadline(60), pytest.raises(RuntimeError, match=match):
            parallel.fork_map(exiting_in_worker, [2, 3, 4, 5])
        assert child_processes() == []

    def test_caller_error_ends_the_workers(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 3)
        caller = os.getpid()

        def failing_in_caller(i):
            if os.getpid() == caller:
                raise ValueError("the caller's share failed")
            time.sleep(60)  # a worker still busy when the caller gives up

        with deadline(30), pytest.raises(ValueError, match="^the caller's share failed$"):
            parallel.fork_map(failing_in_caller, range(6))
        assert child_processes() == []

    @pytest.mark.parametrize("what", ["result", "error"])
    def test_unpicklable_outcome_raises_with_the_worker_traceback(self, what, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 2)
        caller = os.getpid()

        def unpicklable_in_worker(i):
            if os.getpid() == caller:
                return i
            if what == "error":
                err = ValueError("holds a lock")
                err.lock = threading.Lock()
                raise err
            return threading.Lock()

        with deadline(60), pytest.raises(RuntimeError) as caught:
            parallel.fork_map(unpicklable_in_worker, [2, 3])
        assert str(caught.value).startswith(f"a forked worker could not pickle its {what}: ")
        assert "lock" in str(caught.value)
        worker_traceback = str(caught.value.__cause__)
        assert worker_traceback.startswith("in a forked worker:\nTraceback")
        assert "pickle.dumps" in worker_traceback
        if what == "error":
            assert "raise err" in worker_traceback and "ValueError: holds a lock" in worker_traceback
        assert child_processes() == []

    def test_output_buffered_before_the_map_is_written_once(self):
        # Standard output and error to a pipe are buffered, so "before" is
        # still in the buffer when the workers fork, and each of them flushes.
        src = Path(parallel.__file__).resolve().parent.parent
        code = (
            "import sys; from aeimpute import parallel; "
            "parallel._worker_count = lambda n: 3; "
            "sys.stdout.write('before '); sys.stderr.write('before '); "
            "print(parallel.fork_map(lambda i: i * i, range(4)))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("PYTHONUNBUFFERED", None)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        assert done.stdout == "before [0, 1, 4, 9]\n"
        assert done.stderr == "before "


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
        assert child_processes() == []
        with deadline(60):
            assert list(parallel.fork_waves(lambda i: i * i, range(7))) == [i * i for i in range(7)]


class TestLeakCheck:
    def test_sees_and_ends_a_child_forked_by_hand(self):
        pid = os.fork()
        if pid == 0:
            try:
                time.sleep(60)
            finally:
                os._exit(0)
        try:
            assert child_processes() == [pid]
        finally:
            assert end_child_processes() == [pid]
        assert child_processes() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


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
