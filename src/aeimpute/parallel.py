"""Map a function over items on every available core, in forked processes.

:func:`fork_map` returns ``[fn(item) for item in items]``, in item order,
with the items spread over one process per available core, at most one per
item.  With W processes, the calling process maps ``items[0::W]`` and forked
worker w maps ``items[w::W]``; with one process nothing is forked.  The
experiment's methods and the forest's trees map through it; the
hidden-size search, which may stop early, maps through :func:`fork_waves`.

Caveats of forking, which every caller inherits:

- ``fn`` and the items are not pickled: a worker starts from ``os.fork``
  with them already in memory, so ``fn`` may be a closure.  What ``fn``
  returns, or the exception it raises, is pickled back to the caller over a
  pipe, so it must pickle; one that does not is raised in the caller as a
  RuntimeError that carries the worker's traceback.
- A worker leaves through ``os._exit``: it never returns into the caller's
  stack and runs no ``atexit`` handler or ``finally`` block of the caller.
  It flushes standard output and error first, and the caller flushes them
  before it forks, so text buffered before the map is written once.
- ``fn`` may call :func:`fork_map` itself, as a forest fit does in the
  worker that runs the forest method.  That worker's workers are its own
  children, and they are gone before it sends its results.
- Side effects of ``fn`` in a worker (a counter, a trace, a warning) stay in
  that worker and are not seen by the caller.
- A worker that exits without sending its results raises RuntimeError with
  its exit code, which is minus the signal number when a signal ended it
  (-9 for SIGKILL).
- Each worker inherits the caller's BLAS thread count.
- Python 3.12 and later warn when a process that has threads forks.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback


def _worker_count(n_items: int) -> int:
    """Processes for a map: one per available core, at most one per item.

    One where ``os.fork`` or the affinity mask is unavailable.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_items)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _outcome(fn, share) -> bytes:
    """The pickle of (None, results of the share) or (error, traceback text).

    An outcome that does not pickle becomes a RuntimeError that carries the
    traceback of the pickling, after the error's own where there is one.
    """
    try:
        outcome = (None, [fn(item) for item in share])
    except Exception as err:
        outcome = (err, traceback.format_exc())
    try:
        return pickle.dumps(outcome)
    except Exception as err:
        err_kind, text = ("result", "") if outcome[0] is None else ("error", outcome[1])
        failure = RuntimeError(f"a forked worker could not pickle its {err_kind}: {err}")
        return pickle.dumps((failure, text + traceback.format_exc()))


def _worker(writer, readers, fn, share) -> None:
    """Body of a forked worker: writes the outcome of its share to ``writer``
    and ends the process through ``os._exit``; it never returns."""
    status = 1
    try:
        for reader in readers:
            reader.close()  # a pipe's only reader is the caller
        message = _outcome(fn, share)
        _flush_std_streams()
        writer.write(message)
        writer.close()
        status = 0
    finally:
        os._exit(status)


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, computed on every available core.

    An exception that ``fn`` raises in a worker is raised again in the
    caller, chained to the worker's traceback; a worker that exits without
    sending its results raises RuntimeError.  Every worker is gone when this
    returns or raises.
    """
    items = list(items)
    workers = _worker_count(len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    _flush_std_streams()
    results = [None] * len(items)
    readers, unreaped = [], []
    try:
        for w in range(1, workers):
            receive, send = os.pipe()
            readers.append(open(receive, "rb"))
            # The caller's copy of the write end closes right after the fork, so
            # the worker holds the only one and its exit ends the pipe.
            with open(send, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _worker(writer, readers, fn, items[w::workers])
            unreaped.append(pid)
        results[0::workers] = [fn(item) for item in items[0::workers]]
        for w, reader in enumerate(readers, start=1):
            message = reader.read()
            status = os.waitpid(unreaped[0], 0)[1]
            del unreaped[0]
            if not message:
                raise RuntimeError(
                    "a forked worker exited without a result "
                    f"(exit code {os.waitstatus_to_exitcode(status)})"
                )
            err, payload = pickle.loads(message)
            if err is not None:
                raise err from RuntimeError(f"in a forked worker:\n{payload}")
            results[w::workers] = payload
        return results
    finally:
        for pid in unreaped:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def fork_waves(fn, items):
    """Yield ``fn(item)`` for each item in order, computed by one :func:`fork_map`
    per wave of one item per process; a consumer that stops iterating starts
    no further wave."""
    items = list(items)
    wave = max(_worker_count(len(items)), 1)
    for start in range(0, len(items), wave):
        yield from fork_map(fn, items[start : start + wave])
