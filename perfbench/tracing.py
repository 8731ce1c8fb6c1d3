"""Span recorder for the traced run.

The program has no spans of its own, so the benchmark wraps the module
attributes the program calls through (``tanloss.training.forward`` and so
on).  Each call becomes a span (name, start, end, parent); counters are kept
at the same boundaries.  Spans stay in memory and are written out when the
run ends; self times are computed from them afterwards.
"""

import json
import os
import time
from collections import defaultdict

import tanloss.cli
import tanloss.evaluation
import tanloss.network
import tanloss.training


def _batches(args, kwargs, result):
    return {"corpus.batches": len(result)}


def _bytes_written(args, kwargs, result):
    return {"network.checkpoint_bytes_written": os.path.getsize(args[1])}


# (module, attribute, span name, extra counters).  One span name may be
# reached through several modules, because each module binds its own name.
PATCHES = [
    (tanloss.training, "train", "training.train", None),
    (tanloss.training, "validation_error", "training.validation_error", None),
    (tanloss.training, "total_loss", "training.total_loss", None),
    (tanloss.training, "forward", "network.forward", None),
    (tanloss.evaluation, "forward", "network.forward", None),
    (tanloss.network, "forward", "network.forward", None),
    (tanloss.training, "backward", "network.backward", None),
    (tanloss.training, "rmsprop_step", "optim.rmsprop_step", None),
    (tanloss.training, "tangent_loss", "losses.tangent_loss", None),
    (tanloss.training, "tangent_loss_grad", "losses.tangent_loss_grad", None),
    (tanloss.training, "batch_error", "losses.batch_error", None),
    (tanloss.training, "save_checkpoint", "network.save_checkpoint", _bytes_written),
    (tanloss.cli, "load_checkpoint", "network.load_checkpoint", None),
    (tanloss.training, "make_batches", "corpus.make_batches", _batches),
    (tanloss.evaluation, "make_batches", "corpus.make_batches", _batches),
    (tanloss.cli, "ingest_jsonl", "corpus.ingest_jsonl", None),
    (tanloss.cli, "evaluate", "evaluation.evaluate", None),
    (tanloss.evaluation, "binarize", "evaluation.binarize", None),
    (tanloss.cli, "binarize", "evaluation.binarize", None),
    (tanloss.cli, "cmd_eval", "cli.eval", None),
    (tanloss.cli, "cmd_predict", "cli.predict", None),
]


class SpanRecorder:
    def __init__(self):
        # [name, start, end, parent index or -1, extra counters or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for module, attr, name, counter in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self, first: int = 0):
        """Totals over the spans from index ``first`` on: per span name its
        calls, total and self seconds, and the sum of each extra counter."""
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for _, start, end, parent, _ in spans:
            child_time[parent] += end - start
        per_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        counters = defaultdict(int)
        for i, (name, start, end, _, extra) in enumerate(spans, start=first):
            entry = per_name[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            for key, value in (extra or {}).items():
                counters[key] += value
        return per_name, counters

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "counts": extra}) + "\n")
