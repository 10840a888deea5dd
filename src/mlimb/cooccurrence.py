"""Joint label occurrence summaries and cross-snapshot SCUMBLE comparison.

A co-occurrence summary holds, for a chosen label subset, each label's
instance count (arc size) and the joint counts of label pairs (links). The
export document is shaped for chord-diagram plotters. Snapshot comparison
lines up per-label counts and SCUMBLE across an original dataset and any
number of resampled variants sharing its vocabulary.

Arc sizes are the labels' instance counts, from ``metrics.label_counts``.
Joint counts come from the dataset's table of distinct label sets: X has one
0/1 row per set holding a subset label and one column per subset label, and
W is X with each row multiplied by how many instances carry its set. The
joint counts are the product W^T X, summed over blocks of rows, so memory is
bounded by a block and not by sets x subset labels. They are integer sums
below 2**53, which float64 arithmetic computes exactly in any order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import LabelVocabulary, MultiLabelDataset, _check_seed
from .metrics import irlbl, label_counts, scumble_label

__all__ = [
    "CooccurrenceSummary",
    "cooccurrence",
    "SnapshotComparison",
    "compare_snapshots",
    "random_label_subset",
    "chord_document",
]


@dataclass(frozen=True)
class CooccurrenceSummary:
    """Arc sizes and pairwise joint counts for one snapshot's label subset.

    Links are stored once per unordered pair with a < b, and only when the
    joint count is nonzero.
    """

    snapshot_name: str
    labels: tuple[int, ...]
    arc_sizes: tuple[int, ...]
    links: tuple[tuple[int, int, int], ...]


# Values per block of X and of W: a block takes _BLOCK_VALUES // subset size
# label sets, so each of the two holds at most this many 8-byte values.
_BLOCK_VALUES = 1 << 16


def _check_subset(label_subset: tuple[int, ...] | list[int], label_count: int) -> tuple[int, ...]:
    subset = tuple(int(l) for l in label_subset)
    if not subset:
        raise ValueError("label subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValueError("label subset contains duplicates")
    for l in subset:
        if not (0 <= l < label_count):
            raise ValueError(f"unknown label index {l} for a vocabulary of size {label_count}")
    return subset


def cooccurrence(
    dataset: MultiLabelDataset,
    label_subset: tuple[int, ...] | list[int],
    snapshot_name: str = "dataset",
) -> CooccurrenceSummary:
    """Arc sizes and joint counts of the subset's labels over the dataset."""
    subset = _check_subset(label_subset, dataset.label_count)
    ordered = np.array(sorted(subset))
    column = np.full(dataset.label_count, -1)
    column[ordered] = np.arange(ordered.size)
    owners, labels = dataset.set_members
    columns = column[labels]
    inside = columns >= 0
    owners, columns = owners[inside], columns[inside]
    # X has one row per set holding a subset label (the sets of ``owners``,
    # which runs set by set) and W is X weighted by the set counts. Their
    # columns follow ascending label order, so W^T X's upper triangle holds
    # the a < b links. The products run in float64, through BLAS, exactly:
    # numpy's int64 matmul has no BLAS and takes seconds at 200 labels.
    # X and W are taken a block of rows at a time.
    opens = np.diff(owners, prepend=-1) != 0  # a set's first member
    rows = np.cumsum(opens) - 1
    weights = dataset.set_counts[owners[opens]].astype(np.float64)
    joint = np.zeros((ordered.size, ordered.size))
    block = max(1, _BLOCK_VALUES // ordered.size)
    starts = range(0, weights.size, block)
    bounds = np.searchsorted(rows, [*starts, weights.size]).tolist()
    for start, lo, hi in zip(starts, bounds, bounds[1:]):
        x = np.zeros((min(block, weights.size - start), ordered.size))
        x[rows[lo:hi] - start, columns[lo:hi]] = 1.0
        w = x * weights[start:start + len(x), None]
        joint += w.T @ x
    joint = joint.astype(np.int64)
    a, b = np.nonzero(np.triu(joint, k=1))
    return CooccurrenceSummary(
        snapshot_name=snapshot_name,
        labels=subset,
        arc_sizes=tuple(label_counts(dataset)[list(subset)].tolist()),
        links=tuple(zip(ordered[a].tolist(), ordered[b].tolist(), joint[a, b].tolist())),
    )


@dataclass(frozen=True)
class SnapshotComparison:
    """Per-label counts and SCUMBLE, one column group per snapshot."""

    labels: tuple[int, ...]
    label_names: tuple[str, ...]
    snapshots: tuple[str, ...]
    counts: dict[str, tuple[int, ...]]
    scumble: dict[str, tuple[float, ...]]

    def to_document(self) -> dict:
        return {
            "labels": list(self.label_names),
            "snapshots": list(self.snapshots),
            "counts": {name: list(self.counts[name]) for name in self.snapshots},
            "scumble": {name: list(self.scumble[name]) for name in self.snapshots},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), separators=(",", ":"))


def compare_snapshots(
    original: MultiLabelDataset,
    variants: dict[str, MultiLabelDataset],
    label_subset: tuple[int, ...] | list[int],
    original_name: str = "original",
) -> SnapshotComparison:
    """Align per-label count and SCUMBLE columns across dataset snapshots."""
    subset = _check_subset(label_subset, original.label_count)
    if original_name in variants:
        raise ValueError(f"variant name {original_name!r} collides with the original snapshot")
    snapshots: list[tuple[str, MultiLabelDataset]] = [(original_name, original)]
    snapshots.extend(variants.items())
    for name, ds in snapshots[1:]:
        if ds.vocabulary.names != original.vocabulary.names:
            raise ValueError(
                f"snapshot {name!r} does not share the vocabulary of snapshot {original_name!r}"
            )

    counts: dict[str, tuple[int, ...]] = {}
    scumble: dict[str, tuple[float, ...]] = {}
    for name, ds in snapshots:
        c = label_counts(ds)
        counts[name] = tuple(int(c[l]) for l in subset)
        if c.max(initial=0) == 0:
            scumble[name] = tuple(0.0 for _ in subset)
        else:
            table = irlbl(c)
            scumble[name] = tuple(scumble_label(ds, table, l) for l in subset)
    return SnapshotComparison(
        labels=subset,
        label_names=tuple(original.vocabulary.name_of(l) for l in subset),
        snapshots=tuple(name for name, _ in snapshots),
        counts=counts,
        scumble=scumble,
    )


def random_label_subset(vocabulary: LabelVocabulary, n: int, seed: int) -> tuple[int, ...]:
    """n distinct label indices drawn uniformly, returned sorted ascending."""
    if not (1 <= n <= len(vocabulary)):
        raise ValueError(f"cannot draw {n} labels from a vocabulary of {len(vocabulary)}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(vocabulary), size=n, replace=False)
    return tuple(sorted(int(l) for l in picks))


def chord_document(summary: CooccurrenceSummary, vocabulary: LabelVocabulary) -> dict:
    """Chord-diagram document with label names in place of indices."""
    return {
        "snapshot": summary.snapshot_name,
        "arcs": [
            {"label": vocabulary.name_of(l), "count": c}
            for l, c in zip(summary.labels, summary.arc_sizes)
        ],
        "links": [
            {"a": vocabulary.name_of(a), "b": vocabulary.name_of(b), "count": c}
            for a, b, c in summary.links
        ],
    }
