"""Span recorder for the traced benchmark run.

The program has no spans of its own, so the benchmark records them from the
outside: it replaces the functions on the module attributes where callers look
them up (the modules import functions by name) with wrappers that record one
span per call, and restores the originals when the traced phase ends.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import time
from contextlib import contextmanager

# (module under glemiml, attribute looked up there, span name).
# A span name is "<layer>.<function>"; the loss functions of one loss share a
# name, so their calls and self times add up to that loss.
SITES = (
    ("enhancer", "forward_batch", "nets.forward_batch"),
    ("classifier", "forward_batch", "nets.forward_batch"),
    ("enhancer", "backward_batch", "nets.backward_batch"),
    ("classifier", "backward_batch", "nets.backward_batch"),
    ("enhancer", "mutual_knn_median", "graph.mutual_knn_median"),
    ("enhancer", "mutual_knn_median_backward", "graph.mutual_knn_median_backward"),
    ("enhancer", "enhancer_forward", "enhancer.enhancer_forward"),
    ("training", "enhancer_forward", "enhancer.enhancer_forward"),
    ("training", "enhancer_backward", "enhancer.enhancer_backward"),
    ("enhancer", "enhance_batch", "enhancer.enhance_batch"),
    ("training", "classifier_forward", "classifier.classifier_forward"),
    ("training", "classifier_backward", "classifier.classifier_backward"),
    ("classifier", "predict_dataset", "classifier.predict_dataset"),
    ("training", "asymmetric_interaction_loss", "losses.interaction"),
    ("training", "asymmetric_interaction_loss_grad", "losses.interaction"),
    ("training", "similarity_matrices", "losses.similarity"),
    ("training", "similarity_loss", "losses.similarity"),
    ("training", "similarity_loss_grad", "losses.similarity"),
    ("training", "cosine_matrix_backward", "losses.similarity"),
    ("training", "threshold_loss", "losses.threshold"),
    ("training", "threshold_loss_grad", "losses.threshold"),
    ("training", "distribution_loss", "losses.distribution"),
    ("training", "distribution_loss_grad", "losses.distribution"),
    ("training", "logical_bce_loss", "losses.bce"),
    ("training", "logical_bce_loss_grad", "losses.bce"),
    ("training", "compute_report", "metrics.compute_report"),
    ("training", "evaluate", "training.evaluate"),
    ("data", "generate_synthetic", "data.generate_synthetic"),
    ("data", "split_dataset", "data.split_dataset"),
)

# Span names whose first argument is a point matrix; its row count is recorded
# as the span's size, from which graph.pairs is computed.
SIZED = {"graph.mutual_knn_median"}

SPAN_FIELDS = ("span_id", "parent_id", "name", "start_ns", "end_ns", "self_ns", "size")


class Tracer:
    """Records spans (id, parent id, name, start, end, self time, size) in memory.

    Self time is a span's duration minus the durations of its direct children;
    children are nested intervals, so that is the part of the span they do not
    cover, and the self times of all spans under a root add up to the root's
    duration.
    """

    def __init__(self):
        self.spans = []
        self._stack = []  # open frames: [span_id, time covered by children]
        self._ids = itertools.count()

    def begin(self, name: str):
        """Open a span that the benchmark itself ends with end()."""
        parent = self._stack[-1] if self._stack else None
        frame = [next(self._ids), 0.0, name, parent, time.perf_counter()]
        self._stack.append(frame)

    def end(self) -> float:
        """Close the span opened last by begin(); returns its duration."""
        end = time.perf_counter()
        span_id, child_s, name, parent, start = self._stack.pop()
        duration = end - start
        if parent is not None:
            parent[1] += duration
        self.spans.append((span_id, parent[0] if parent else -1, name, start, end,
                           duration - child_s, None))
        return duration

    def wrap(self, fn, name: str):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        sized = name in SIZED

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append((frame[0], parent[0] if parent else -1, name, start, end,
                              duration - frame[1], len(args[0]) if sized else None))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every site in SITES for the duration of the block.

        Yields the sites that do not exist in this version of the program;
        their spans are simply absent.
        """
        replaced, missing = [], []
        try:
            for module_name, attr, name in SITES:
                module = importlib.import_module(f"glemiml.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(original, name))
                replaced.append((module, attr, original))
            yield missing
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)


def durations(spans, name: str) -> list[float]:
    return [end - start for _, _, n, start, end, _, _ in spans if n == name]


def per_name(spans) -> dict:
    """name -> [calls, total self time, total size]."""
    out = {}
    for _, _, name, _, _, self_s, size in spans:
        row = out.setdefault(name, [0, 0.0, 0])
        row[0] += 1
        row[1] += self_s
        if size is not None:
            row[2] += size * (size - 1) // 2
    return out


def write_spans(path, phases) -> None:
    """Gzipped tab-separated dump: a header line, then one line per span.

    Times are integer nanoseconds from the earliest span's start; the phase
    names the part of the run the span belongs to.
    """
    origin = min((span[3] for _, spans in phases for span in spans), default=0.0)

    def ns(seconds):
        return str(round(seconds * 1e9))

    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("phase\t" + "\t".join(SPAN_FIELDS) + "\n")
        for phase, spans in phases:
            for span_id, parent_id, name, start, end, self_s, size in spans:
                fh.write(f"{phase}\t{span_id}\t{parent_id}\t{name}\t{ns(start - origin)}"
                         f"\t{ns(end - origin)}\t{ns(self_s)}\t{'' if size is None else size}\n")
