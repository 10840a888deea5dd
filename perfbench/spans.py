"""Spans and counters for the traced benchmark run.

Tracing is installed from outside the program: each wrapped function is
replaced, in every ``mlimb`` module namespace that binds it, by a thin
wrapper that records one span (name, start, end, parent) around the call and
updates the counters derived from the call's inputs and outputs. Spans stay
in memory; the caller writes them out when the run ends.

Only functions called a bounded number of times per operation are wrapped.
Per-instance or per-seed-visit helpers such as ``scumble_instance``,
``Instance.__post_init__`` or ``Fingerprint.from_hex`` are left alone: the
wrapper's own cost would swamp the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Module (under ``mlimb``) -> wrapped public functions. Span and metric names
# are ``<module>.<function>``.
WRAPPED: dict[str, tuple[str, ...]] = {
    "data": ("parse_dataset", "write_dataset"),
    "synth": ("generate",),
    "metrics": ("imbalance_report", "label_counts", "scumble_label"),
    "resampling": ("mlsmote", "oversample_proposed"),
    "cooccurrence": ("compare_snapshots", "cooccurrence"),
    "network": (
        "build_batch",
        "forward",
        "loss",
        "backward",
        "train",
        "label_matrix",
        "predict",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "evaluation": ("evaluate_multilabel",),
}

SPAN_NAMES: tuple[str, ...] = tuple(
    f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and named counters of one traced pass in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._open: list[tuple[int, str, float]] = []
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._open.append((self._next_id, name, self.clock()))
        self._next_id += 1

    def exit(self) -> None:
        end = self.clock()
        span_id, name, start = self._open.pop()
        parent = self._open[-1][0] if self._open else None
        self.spans.append(Span(span_id, name, parent, start, end))

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount


# ---------------------------------------------------------------------------
# Counters computed from a wrapped call's inputs and outputs
# ---------------------------------------------------------------------------

def _count_parse(rec: Recorder, args: tuple, kwargs: dict, result) -> None:
    records = args[0] if args else kwargs.get("records")
    rec.add("data.records", len(result))
    if isinstance(records, str):
        rec.add("data.bytes", len(records.encode("utf-8")))


def _count_write(rec: Recorder, args: tuple, kwargs: dict, result) -> None:
    # write_dataset re-enters itself with an open handle when given a path;
    # only the outer call, which names a file, is counted.
    dataset = args[0] if args else kwargs["dataset"]
    destination = args[1] if len(args) > 1 else kwargs.get("destination")
    if isinstance(destination, (str, Path)):
        rec.add("data.records", len(dataset))
        rec.add("data.bytes", os.path.getsize(destination))


def _count_batch(rec: Recorder, args: tuple, kwargs: dict, result) -> None:
    if result.sizes is not None:
        rec.add("network.build_batch.nodes", int(result.sizes.sum()))


def _count_targets(rec: Recorder, args: tuple, kwargs: dict, result) -> None:
    rec.add("network.targets_mb", result.nbytes / 1e6)


def _count_mlsmote(rec: Recorder, args: tuple, kwargs: dict, result) -> None:
    original = args[0] if args else kwargs["dataset"]
    synthetics = result.dataset.instances[len(original):]
    distinct = {(inst.fingerprint.bits.tobytes(), inst.labels) for inst in synthetics}
    rec.add("resampling.mlsmote.made", len(synthetics))
    rec.add("resampling.mlsmote.distinct", len(distinct))


COUNTERS = {
    "data.parse_dataset": _count_parse,
    "data.write_dataset": _count_write,
    "network.build_batch": _count_batch,
    "network.label_matrix": _count_targets,
    "resampling.mlsmote": _count_mlsmote,
}


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------

def _wrap(rec: Recorder, name: str, fn):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if count is not None:
            count(rec, args, kwargs, result)
        return result

    return traced


def install(rec: Recorder) -> tuple[list[tuple[object, str, object]], dict[str, list[str]]]:
    """Wrap every WRAPPED function wherever an imported ``mlimb`` module binds it.

    Returns the (module, attribute, original) triples that ``restore`` needs,
    and for each span name the module namespaces it was installed in.
    """
    originals = {}
    for module_name, fns in WRAPPED.items():
        home = importlib.import_module(f"mlimb.{module_name}")
        for fn in fns:
            originals[f"{module_name}.{fn}"] = getattr(home, fn)
    wrappers = {name: _wrap(rec, name, fn) for name, fn in originals.items()}

    modules = [
        m for key, m in sorted(sys.modules.items())
        if m is not None and (key == "mlimb" or key.startswith("mlimb."))
    ]
    undo: list[tuple[object, str, object]] = []
    bound: dict[str, list[str]] = {name: [] for name in originals}
    for module in modules:
        for attr, value in list(vars(module).items()):
            for name, original in originals.items():
                if value is original:
                    setattr(module, attr, wrappers[name])
                    undo.append((module, attr, original))
                    bound[name].append(module.__name__)
    return undo, bound


def restore(undo: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans
# ---------------------------------------------------------------------------

def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo  # everything before reach is already counted
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def summarize(spans: list[Span], names: tuple[str, ...] = SPAN_NAMES) -> dict[str, float]:
    """``<name>.s``, ``.self_s`` and ``.calls`` for every name.

    ``.s`` and ``.calls`` count only the outermost span of a name, so a
    function that re-enters itself is not counted twice; ``.self_s`` sums
    self time over every span of the name.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for s in spans:
        out[f"{s.name}.self_s"] += own[s.id]
        ancestor = s.parent
        nested = False
        while ancestor is not None:
            if by_id[ancestor].name == s.name:
                nested = True
                break
            ancestor = by_id[ancestor].parent
        if not nested:
            out[f"{s.name}.s"] += s.duration
            out[f"{s.name}.calls"] += 1
    return out


# Per-layer metrics beyond the span timings, with their units.
COUNTER_UNITS = {
    "cli.import_s": "s",
    "data.records": "count",
    "data.bytes": "bytes",
    "network.build_batch.nodes": "count",
    "network.targets_mb": "MB",
    "resampling.mlsmote.unique_share": "ratio",
}

LAYER_UNITS: dict[str, str] = {
    **{f"{name}.{part}": unit for name in SPAN_NAMES
       for part, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))},
    **COUNTER_UNITS,
}


def layer_metrics(span_sets: list[list[Span]], counter_sets: list[dict[str, float]],
                  import_times: list[float] = ()) -> dict[str, float]:
    """Every LAYER_UNITS metric of one pass, summed over its processes.

    A pass may run in several processes (one per CLI command), each with its
    own span ids, so spans are summarized per process and then added up.
    Metrics of layers the pass never entered are 0.
    """
    out = dict.fromkeys(LAYER_UNITS, 0.0)
    for recorded in span_sets:
        for key, value in summarize(recorded).items():
            out[key] += value
    counters: dict[str, float] = {}
    for c in counter_sets:
        for key, value in c.items():
            counters[key] = counters.get(key, 0.0) + value
    for key in ("data.records", "data.bytes", "network.build_batch.nodes",
                "network.targets_mb"):
        out[key] = counters.get(key, 0.0)
    made = counters.get("resampling.mlsmote.made", 0.0)
    if made:
        out["resampling.mlsmote.unique_share"] = counters["resampling.mlsmote.distinct"] / made
    if import_times:
        out["cli.import_s"] = sum(import_times) / len(import_times)
    return out
