"""Spans and counts around the program's public functions, installed from outside.

``Tracer.install`` replaces module attributes and class methods of the
``aeimpute`` package with timing wrappers and ``Tracer.restore`` puts the
originals back; the program's sources are never edited.  Calls at layer
boundaries become spans (name, start, end, parent).  The per-evaluation calls
(``forward``, ``forward_batch``, ``evaluate``, ``evaluate_batch``) run hundreds
of thousands of times, so they are not kept as spans: their calls, rows and
time are added to the counts of the innermost span, and their time is
charged to it as child time so that self times stay exact.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []  # recorded spans currently running
        self._hot: list[list[float]] = []  # [start, child time] of running hot calls
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._open.pop()
        if self._hot:
            self._hot[-1][1] += span.duration
        elif self._open:
            self._open[-1].child_s += span.duration

    def spanned(self, name, fn, on_result=None):
        """``fn`` wrapped in a recorded span; ``on_result(span, args, kwargs, out)`` adds counts."""
        def wrapper(*args, **kwargs):
            span = self.begin(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(span, args, kwargs, out)
            return out
        return wrapper

    def counted(self, name: str, fn, batch: bool):
        """``fn`` as a hot call: counts and time go to the innermost span.

        ``batch`` marks methods whose first argument is a matrix of rows.
        """
        hot = self._hot
        open_spans = self._open
        calls, rows, total, own = (name + k for k in (".calls", ".rows", ".s", ".self_s"))

        def wrapper(obj, x):
            frame = [perf_counter(), 0.0]
            hot.append(frame)
            try:
                out = fn(obj, x)
            finally:
                duration = perf_counter() - frame[0]
                hot.pop()
                if hot:
                    hot[-1][1] += duration
                else:
                    open_spans[-1].child_s += duration
            counts = open_spans[-1].counts
            counts[calls] += 1
            counts[rows] += len(x) if batch else 1
            counts[total] += duration
            counts[own] += duration - frame[1]
            return out
        return wrapper

    # --- installation -------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the public functions and methods the experiment calls."""
        from aeimpute import data, forest, metrics, network, optimizers
        from aeimpute.objective import MissingDataObjective

        for fn in ("load_csv", "normalize", "split", "make_tasks"):
            self.patch(data, fn, self.spanned("data." + fn, getattr(data, fn)))

        def steps(span, args, kwargs, out):
            span.counts["train_steps"] += len(kwargs["loss_history"]) - 1

        train = self.spanned("network.train", network.train, steps)
        candidate = self.spanned("network.hidden_candidate", network.train)
        search = network.select_hidden_size
        self.patch(network, "train", lambda rows, n_hidden, cfg=None: train(rows, n_hidden, cfg, loss_history=[]))
        self.patch(network, "select_hidden_size", self.spanned(
            "network.select_hidden_size",
            lambda train_rows, val_rows, cfg=None: search(train_rows, val_rows, cfg, train_fn=candidate),
        ))

        ae = network.Autoencoder
        self.patch(ae, "forward", self.counted("forward", ae.forward, False))
        self.patch(ae, "forward_batch", self.counted("forward", ae.forward_batch, True))
        obj = MissingDataObjective
        self.patch(obj, "evaluate", self.counted("objective", obj.evaluate, False))
        self.patch(obj, "evaluate_batch", self.counted("objective", obj.evaluate_batch, True))

        self.patch(optimizers, "run", self.spanned(lambda a: "optimizers." + a[1], optimizers.run))

        def nodes(span, args, kwargs, out):
            span.counts["nodes"] += sum(t.feature.size for t in out.trees)

        self.patch(forest, "fit", self.spanned("forest.fit", forest.fit, nodes))
        self.patch(forest.Forest, "predict", self.spanned("forest.predict", forest.Forest.predict))
        for fn in ("roc_curve", "prediction_scores", "comparison_matrix"):
            self.patch(metrics, fn, self.spanned("metrics." + fn, getattr(metrics, fn)))

    # --- summaries ----------------------------------------------------------

    def select(self, prefix: str) -> list[Span]:
        return [s for s in self.spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def total(self, prefix: str) -> float:
        return sum(s.duration for s in self.select(prefix))

    def count(self, prefix: str, key: str) -> float:
        return sum(s.counts.get(key, 0.0) for s in self.select(prefix))

    def all_counts(self, key: str) -> float:
        return sum(s.counts.get(key, 0.0) for s in self.spans)

    def dump(self, path: Path, facts: dict) -> None:
        spans = [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
             "self_s": s.self_s, "counts": dict(s.counts)}
            for s in self.spans
        ]
        path.write_text(json.dumps({"facts": facts, "spans": spans}, indent=1) + "\n", encoding="utf-8")
