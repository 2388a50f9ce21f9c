"""Spans around the program's public functions, recorded from outside it.

Each layer of the program is a set of module attributes.  ``Tracer.install``
replaces each attribute with a wrapper that records a span; the attributes
are the names the callers look up at call time (``cli.parse_event_log`` is
the name the ingest command calls).  A wrapped function that no longer
exists is listed in ``Tracer.missing`` instead of failing the run.

Spans stay in memory: ``(layer, start, end, parent, op, counts)``, with
``parent`` the index of the enclosing span (-1 for an op's root span).
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import lru_cache, wraps
from pathlib import Path

import numpy as np


def _size(path) -> int:
    return os.path.getsize(path)


def _lines(path) -> int:
    return _count_lines(str(path), os.stat(path).st_mtime_ns)


@lru_cache(maxsize=8)
def _count_lines(path: str, mtime_ns: int) -> int:
    # Cached per file version: counting is the tracer's work, and it would
    # otherwise land in the caller's self time on every op.
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1  # minus the CSV header


def _cells(matrix) -> int:
    rows, cols = np.shape(matrix)
    return rows * cols


# layer -> [(module, attribute, counter(args, result) -> {measure: count})]
LAYERS = {
    "ingest.parse": [("cli", "parse_event_log",
                      lambda a, r: {"rows": _lines(a[0]), "bytes": _size(a[0]), "events_out": len(r.events)})],
    "ingest.stabilize": [("cli", "stabilize", lambda a, r: {"events_in": len(a[0]), "events_out": len(r)})],
    "ingest.bins": [("cli", "compute_bins", None),
                    ("cli", "apply_bins", lambda a, r: {"events_in": 1})],
    "ingest.store_write": [("cli", "write_store", lambda a, r: {"events_in": len(a[1]), "bytes": _size(a[0])})],
    "ingest.store_load": [("cli", "load_store", lambda a, r: {"events": len(r.events), "bytes": _size(a[0])})],
    "ingest.requests": [("cli", "load_requests", lambda a, r: {"requests": len(r), "bytes": _size(a[0])})],
    "ingest.digest": [("cli", "sha256_file", lambda a, r: {"bytes": _size(a[0])})],
    "detect": [("cli", "detect_conflicts", lambda a, r: {"situations": len(r)}),
               ("evaluate", "detect_conflicts", lambda a, r: {"situations": len(r)})],
    "preferences": [("aggregate", "build_preference_table",
                     lambda a, r: {"history_events_scanned": len(a[0]), "situation": a[1].key()})],
    "aggregate.matrix": [("aggregate", "build_item_set", None),
                         ("aggregate", "build_preference_matrix", lambda a, r: {"cells": _cells(r.scores)})],
    "aggregate.rank": [("aggregate", name, None) for name in (
        "request_centroid", "consensus_scores", "consensus_distance",
        "rank_by_average", "rank_by_least_misery", "rank_by_most_pleasure")],
    "linalg": [("aggregate", "svd", lambda a, r: {"cells": _cells(a[0])}),
               ("aggregate", "truncate", None)],
    "evaluate.adopted": [("evaluate", "adopted_items", lambda a, r: {"history_events_scanned": len(a[0])})],
    "evaluate.metrics": [("evaluate", name, None) for name in (
        "satisfaction_gain", "harmonic_satisfaction", "average_satisfaction")],
}

# Per-op counts reported for each layer, besides busy_ms and calls.
MEASURES = {
    "ingest.parse": ("rows", "events_out", "bytes"),
    "ingest.stabilize": ("events_in", "events_out"),
    "ingest.bins": ("events_in",),
    "ingest.store_write": ("events_in", "bytes"),
    "ingest.store_load": ("events", "bytes"),
    "ingest.requests": ("requests", "bytes"),
    "ingest.digest": ("bytes",),
    "detect": ("situations",),
    "preferences": ("history_events_scanned",),
    "aggregate.matrix": ("cells",),
    "aggregate.rank": (),
    "linalg": ("cells",),
    "evaluate.adopted": ("history_events_scanned",),
    "evaluate.metrics": (),
}

PACKAGE = "homearbiter"
ROOT = "cli"


class Tracer:
    """Records spans of the wrapped layers while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._originals: list[tuple] = []

    def _wrap(self, name: str, layer: str, func, counter):
        def count(args, result) -> dict:
            # A counter that no longer fits the function's signature must
            # not change what the program does: list it and count nothing.
            try:
                return counter(args, result)
            except Exception:  # noqa: BLE001 - any counter failure is reported the same way
                if f"{name} (counts)" not in self.missing:
                    self.missing.append(f"{name} (counts)")
                return {}

        @wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot so children know their parent
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (layer, start, end, parent, self._op, {})
            if counter:
                self.spans[index] = (layer, start, end, parent, self._op, count(args, result))
            return result
        return wrapper

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module_name, attr, counter in targets:
                target = f"{module_name}.{attr}"
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                    func = getattr(module, attr)
                except (ImportError, AttributeError):
                    if target not in self.missing:
                        self.missing.append(target)
                    continue
                self._originals.append((module, attr, func))
                setattr(module, attr, self._wrap(target, layer, func, counter))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._originals):
            setattr(module, attr, func)
        self._originals.clear()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; wrappers are installed only inside it."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack = [index]
        self.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._stack = []
            self.spans[index] = (ROOT, start, end, -1, op_id, {})

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans as JSON lines, after a header line with ``meta``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**meta, "missing": self.missing}) + "\n")
            for layer, start, end, parent, op, counts in self.spans:
                record = {"name": layer, "start": start, "end": end, "parent": parent, "op": op}
                record.update({k: v for k, v in counts.items() if k != "situation"})
                out.write(json.dumps(record) + "\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-op means of busy time, calls and counts for every layer.

    ``busy_ms`` is self time, so the layers' busy times and ``cli.self_ms``
    add up to ``cli.op_ms``.
    """
    ops = {op for _, _, _, _, op, _ in spans}
    n = max(len(ops), 1)
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    situations: set = set()
    op_total = 0.0
    for (layer, start, end, _, op, c), self_s in zip(spans, own):
        busy[layer] += self_s
        calls[layer] += 1
        if layer == ROOT:
            op_total += end - start
        for key, value in c.items():
            if key == "situation":
                situations.add((op, value))
            else:
                counts[f"{layer}.{key}"] += value
    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_ms"] = 1000 * busy[layer] / n
        out[f"{layer}.calls"] = calls[layer] / n
        for measure in MEASURES[layer]:
            out[f"{layer}.{measure}"] = counts[f"{layer}.{measure}"] / n
    # Builds of a preference table per distinct situation an op resolved:
    # every build past the first is repeated work.
    out["preferences.builds_per_situation"] = calls["preferences"] / len(situations) if situations else 0.0
    out[f"{ROOT}.self_ms"] = 1000 * busy[ROOT] / n
    out[f"{ROOT}.op_ms"] = 1000 * op_total / n
    return out
