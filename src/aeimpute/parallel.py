"""Map a function over items on every available core, in forked processes.

:func:`fork_map` returns ``[fn(item) for item in items]``, in item order,
with the items spread over one process per available core, at most one per
item.  With W processes, the calling process maps ``items[0::W]`` and forked
worker w maps ``items[w::W]``; with one process nothing is forked.  The
forest and the experiment's optimizer methods map through it; the
hidden-size search, which may stop early, maps through :func:`fork_waves`.

Caveats of forking, which every caller inherits:

- ``fn`` and the items are not pickled: a worker starts with them already in
  memory, so ``fn`` may be a closure.  What ``fn`` returns is pickled back to
  the caller, so it must pickle.
- Side effects of ``fn`` in a worker (a counter, a trace, a warning) stay in
  that worker and are not seen by the caller.
- Each worker inherits the caller's BLAS thread count.
- Python 3.12 and later warn when a process that has threads forks.

``multiprocessing`` is imported on first use, not when the package loads.
"""

from __future__ import annotations

import os
import traceback


def _worker_count(n_items: int) -> int:
    """Processes for a map: one per available core, at most one per item.

    One where ``fork`` is not a start method or the affinity mask is unknown.
    """
    import multiprocessing

    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(len(os.sched_getaffinity(0)), n_items)


def _map_share(send, fn, share) -> None:
    """Body of a worker: sends (None, results of its share) or (error, traceback text)."""
    try:
        message = (None, [fn(item) for item in share])
    except Exception as err:
        message = (err, traceback.format_exc())
    send.send(message)
    send.close()


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
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    results = [None] * len(items)
    procs, receivers = [], []
    try:
        for w in range(1, workers):
            receive, send = ctx.Pipe(duplex=False)
            receivers.append(receive)
            proc = ctx.Process(target=_map_share, args=(send, fn, items[w::workers]))
            proc.start()
            procs.append(proc)
            # The worker holds the only sending end, so its death ends the pipe.
            send.close()
        results[0::workers] = [fn(item) for item in items[0::workers]]
        for w, (proc, receive) in enumerate(zip(procs, receivers), start=1):
            try:
                err, payload = receive.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a forked worker exited without a result (exit code {proc.exitcode})"
                ) from None
            if err is not None:
                raise err from RuntimeError(f"in a forked worker:\n{payload}")
            results[w::workers] = payload
        return results
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for receive in receivers:
            receive.close()


def fork_waves(fn, items):
    """Yield ``fn(item)`` for each item in order, computed by one :func:`fork_map`
    per wave of one item per process; a consumer that stops iterating starts
    no further wave."""
    items = list(items)
    wave = max(_worker_count(len(items)), 1)
    for start in range(0, len(items), wave):
        yield from fork_map(fn, items[start : start + wave])
