"""Span tracing of protosemi from outside the program.

The tracer replaces public functions with timing wrappers at the place
their callers look them up (a module global or a class attribute), so
the program itself is not edited.  Calls made once per epoch or per
command become spans (name, start, end, parent).  Calls made once per
batch or per sample, tens of thousands of times in a large run, are
aggregated instead: time, call count and counters are summed per
(enclosing span, call path), which keeps memory flat and the overhead
near two clock reads per call.  Everything stays in memory until
:meth:`Tracer.dump` writes it out.

Self time of a node is its duration minus the time its direct children
cover.  Children run strictly nested inside their parent in this
single-threaded program, so self times partition every span exactly.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from protosemi import cli, mixmatch, net, pipeline, select

clock = time.perf_counter


def _rows(x) -> int:
    return int(np.atleast_2d(x).shape[0])


# Counters each wrapped function reports, from its positional arguments
# and its result.  Every call site in protosemi passes these positionally.
def _load_counts(args, result):
    return {"rows": result.n, "bytes": os.path.getsize(args[0])}


def _save_counts(args, result):
    return {"rows": args[0].n, "bytes": os.path.getsize(args[1])}


def _repartition_counts(args, result):
    before = args[2]
    after = result[0]
    return {"unconfident_in": int(before.unconfident_idx.size),
            "moved": int(after.confident_idx.size - before.confident_idx.size)}


MEASURES = {
    "data.load_dataset": _load_counts,
    "data.save_dataset": _save_counts,
    "pipeline.evaluate": lambda args, result: {"rows": args[1].n},
    "select.split_by_agreement": lambda args, result: {"rows": args[1].n},
    "select.repartition": _repartition_counts,
    "select.save_correction_log": lambda args, result: {"rows": len(args[0])},
    "mixmatch.semi_train_epoch": lambda args, result: {"pool_rows": len(args[2])},
    "mixmatch.guess_labels": lambda args, result: {"rows": _rows(args[1])},
    "net.Network.activations": lambda args, result: {"rows": _rows(args[1])},
}

# Called once per batch or per sample: aggregated, not kept as spans.
HOT = frozenset({
    "net.Network.activations", "net.Network.backprop", "net.Network.sgd_step",
    "net.cross_entropy_grads", "select.cosine_to_rows", "mixmatch.augment",
    "mixmatch.guess_labels", "mixmatch.sharpen", "mixmatch.mixup",
    "mixmatch.brier_grads",
})


def wrap_targets():
    """(owner, attribute) pairs to wrap: every place a caller looks a name up."""
    targets = [(pipeline, n) for n in (
        "train_epoch", "split_by_agreement", "repartition", "semi_train_epoch", "evaluate")]
    targets += [(select, n) for n in ("build_prototypes", "cosine_to_rows")]
    targets += [(mixmatch, n) for n in (
        "augment", "guess_labels", "sharpen", "mixup", "brier_grads", "cross_entropy_grads")]
    # train_epoch looks cross_entropy_grads up in its own module
    targets += [(net, "cross_entropy_grads")]
    targets += [(cli, n) for n in (
        "parse_config_file", "load_dataset", "save_dataset", "run_with_artifacts",
        "write_report", "save_correction_log", "write_stats_csv")]
    targets += [(net.Network, n) for n in ("activations", "backprop", "sgd_step")]
    return targets


def span_name(fn) -> str:
    """Home module and qualified name, e.g. ``net.Network.activations``."""
    return f"{fn.__module__.removeprefix('protosemi.')}.{fn.__qualname__}"


class Patches:
    """Replace attributes for the life of a ``with`` block, then restore them."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


@dataclass
class Aggregate:
    calls: int = 0
    seconds: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans and per-parent aggregates in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[tuple, Aggregate] = {}
        self._open: list[int] = []  # ids of the spans currently running
        self._path: tuple = ()      # hot calls running inside the innermost span

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the caller's own code."""
        rec = Span(len(self.spans), name, self._open[-1] if self._open else None, clock())
        self.spans.append(rec)
        self._open.append(rec.id)
        saved_path, self._path = self._path, ()
        try:
            yield rec
        finally:
            rec.end = clock()
            self._path = saved_path
            self._open.pop()

    def wrap(self, fn, name: str):
        measure = MEASURES.get(name)
        if name in HOT:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                saved = self._path
                self._path = path = saved + (name,)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self._path = saved
                key = (self._open[-1] if self._open else None, path)
                agg = self.aggregates.get(key)
                if agg is None:
                    agg = self.aggregates[key] = Aggregate()
                agg.calls += 1
                agg.seconds += elapsed
                if measure is not None:
                    _add(agg.counts, measure(args, result))
                return result
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name) as rec:
                    result = fn(*args, **kwargs)
                if measure is not None:
                    _add(rec.counts, measure(args, result))
                return result
        return traced

    def install(self, patches: Patches) -> None:
        """Wrap every target; ``patches`` restores the originals."""
        for owner, attr in wrap_targets():
            fn = owner.__dict__[attr]
            patches.set(owner, attr, self.wrap(fn, span_name(fn)))

    def nodes(self) -> list[dict]:
        """Spans and aggregates as one tree, each with total and self seconds."""
        out = []
        index = {}
        for s in self.spans:
            node = {"id": f"s{s.id}", "name": s.name, "calls": 1,
                    "seconds": s.end - s.start, "counts": s.counts,
                    "parent": None if s.parent is None else f"s{s.parent}"}
            index[node["id"]] = node
            out.append(node)
        for (span_id, path), agg in self.aggregates.items():
            owner = None if span_id is None else f"s{span_id}"
            node = {"id": f"{owner}/{'/'.join(path)}", "name": path[-1],
                    "calls": agg.calls, "seconds": agg.seconds, "counts": agg.counts,
                    "parent": owner if len(path) == 1 else f"{owner}/{'/'.join(path[:-1])}"}
            index[node["id"]] = node
            out.append(node)
        child_seconds = dict.fromkeys(index, 0.0)
        for node in out:
            if node["parent"] is not None:
                child_seconds[node["parent"]] += node["seconds"]
        for node in out:
            node["self"] = node["seconds"] - child_seconds[node["id"]]
        return out

    def dump(self, path) -> None:
        """Write every span and aggregate, with self times, as JSON."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"nodes": self.nodes()}, fh, indent=1)


def _add(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


def descendants(nodes: list[dict], root_id: str) -> list[dict]:
    """Every node under ``root_id``, the root included."""
    children = {}
    for node in nodes:
        children.setdefault(node["parent"], []).append(node)
    found, todo = [], [n for n in nodes if n["id"] == root_id]
    while todo:
        node = todo.pop()
        found.append(node)
        todo.extend(children.get(node["id"], ()))
    return found
