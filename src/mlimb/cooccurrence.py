"""Joint label occurrence summaries and cross-snapshot SCUMBLE comparison.

A co-occurrence summary holds, for a chosen label subset, each label's
instance count (arc size) and the joint counts of label pairs (links). The
export document is shaped for chord-diagram plotters. Snapshot comparison
lines up per-label counts and SCUMBLE across an original dataset and any
number of resampled variants sharing its vocabulary.

Counts are taken once per distinct label set of the dataset's table and
weighted by how many instances carry it; they are integers, so the totals
are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import LabelVocabulary, MultiLabelDataset
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
    members = set(subset)
    arcs = {l: 0 for l in subset}
    joint: dict[tuple[int, int], int] = {}
    owners, labels = dataset.set_members
    table, multiplicities = dataset.label_sets, dataset.set_counts.tolist()
    # Only the table's sets holding a label of the subset contribute.
    for s in np.unique(owners[np.isin(labels, subset)]).tolist():
        count = multiplicities[s]
        active = [l for l in table[s] if l in members]
        for l in active:
            arcs[l] += count
        for i in range(len(active)):
            for j in range(i + 1, len(active)):
                pair = (active[i], active[j])  # labels are sorted, so a < b
                joint[pair] = joint.get(pair, 0) + count
    links = tuple((a, b, c) for (a, b), c in sorted(joint.items()))
    return CooccurrenceSummary(
        snapshot_name=snapshot_name,
        labels=subset,
        arc_sizes=tuple(arcs[l] for l in subset),
        links=links,
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
