"""Label-imbalance statistics: per-label counts and IRLbl, MeanIR, Card,
SCUMBLE, and the ranked sample-percentage profile.

Definitions. With counts(l) = number of instances whose label set contains l:

    IRLbl(l)   = max_l' counts(l') / counts(l)      (undefined when counts(l) = 0)
    MeanIR     = arithmetic mean of IRLbl over labels with counts > 0
    Card       = (sum_i |Y_i|) / |D|                (mean active labels per instance)
    SCUMBLE_i  = 1 - GM(IRLbl over Y_i) / AM(IRLbl over Y_i), 0 when |Y_i| <= 1
    profile    = 100 * counts / |D|, sorted descending

Exactness notes. Means use math.fsum (correctly rounded exact sums), and Card
is kept alongside its integer numerator: the float product card * |D| does not
recover the pair count exactly in IEEE arithmetic, so the report carries
``positive_pairs`` as an integer. These choices also make every statistic
bit-for-bit invariant under duplicating the whole dataset, since correctly
rounded results of 2a/2b and a/b coincide.

Grouping by label set. Every statistic here depends on an instance only
through its label set, so all of them read the dataset's table of distinct
sets and their multiplicities (``set_counts``) instead of walking instances.
Counts are multiplicity-weighted sums over the table, exact in integers.
Each distinct set's SCUMBLE is computed once and enters the sums once per
instance that carries it, via itertools.repeat. fsum returns the correctly
rounded value of the exact sum of its inputs whatever their order, so these
sums equal the per-instance ones to the bit. The product
score * multiplicity would round, which is why the score is repeated rather
than multiplied.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .data import Instance, MultiLabelDataset

__all__ = [
    "label_counts",
    "irlbl",
    "mean_ir",
    "cardinality",
    "positive_pair_count",
    "scumble_instance",
    "scumble_label",
    "ImbalanceReport",
    "imbalance_report",
    "profile_csv",
]


def label_counts(dataset: MultiLabelDataset) -> np.ndarray:
    """counts[l] = number of instances whose label set contains l."""
    owners, labels = dataset.set_members
    # Float weights hold these integer sums exactly (they stay below 2**53).
    weighted = np.bincount(labels, weights=dataset.set_counts[owners],
                           minlength=dataset.label_count)
    return weighted.astype(np.int64)


def irlbl(counts: np.ndarray) -> np.ndarray:
    """Per-label imbalance ratio max(counts)/counts; NaN where counts is 0."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0 or counts.max(initial=0) == 0:
        raise ValueError("IRLbl requires at least one label with a positive count")
    peak = float(counts.max())
    out = np.full(counts.shape, np.nan, dtype=np.float64)
    present = counts > 0
    out[present] = peak / counts[present].astype(np.float64)
    return out


def mean_ir(irlbl_values: np.ndarray) -> float:
    """Arithmetic mean over defined (non-NaN) IRLbl values."""
    values = np.asarray(irlbl_values, dtype=np.float64)
    defined = values[~np.isnan(values)]
    if defined.size == 0:
        raise ValueError("MeanIR requires at least one defined IRLbl value")
    return math.fsum(defined.tolist()) / defined.size


def positive_pair_count(dataset: MultiLabelDataset) -> int:
    """Total number of positive (instance, label) pairs."""
    owners, _ = dataset.set_members
    return int(dataset.set_counts[owners].sum())


def cardinality(dataset: MultiLabelDataset) -> float:
    """Mean number of active labels per instance."""
    if len(dataset) == 0:
        raise ValueError("cardinality of an empty dataset is undefined")
    return positive_pair_count(dataset) / len(dataset)


def _set_scumble(labels: tuple[int, ...], irlbl_table: np.ndarray | list[float]) -> float | None:
    """SCUMBLE of one label set; None when one of several labels has an
    undefined IRLbl. Indexing a list is much cheaper than indexing an array,
    so callers scoring many sets pass the table as a list."""
    if len(labels) <= 1:
        return 0.0
    values = [irlbl_table[l] for l in labels]
    if any(map(math.isnan, values)):
        return None
    if values.count(values[0]) == len(values):
        return 0.0
    am = math.fsum(values) / len(values)
    gm = math.exp(math.fsum(map(math.log, values)) / len(values))
    return max(0.0, 1.0 - gm / am)


def _undefined_irlbl(instance_id: str) -> ValueError:
    return ValueError(f"instance {instance_id!r} has an active label with undefined IRLbl")


def scumble_instance(instance: Instance, irlbl_table: np.ndarray) -> float:
    """Concurrence score of one instance's active labels.

    1 - GM/AM of the active labels' IRLbl values; 0 when the instance has at
    most one label or all its labels share one IRLbl value. The geometric
    mean runs in log space so IRLbl values in the thousands cannot overflow
    the product.
    """
    score = _set_scumble(instance.labels, irlbl_table)
    if score is None:
        raise _undefined_irlbl(instance.id)
    return score


def _set_scores(dataset: MultiLabelDataset, irlbl_table: np.ndarray, sets: list[int]) -> list[float]:
    """SCUMBLE of each of the dataset's label sets at positions ``sets``.

    A set with an undefined IRLbl raises naming the first instance carrying
    it. The table lists sets by first appearance, so for ascending ``sets``
    that is the first offending instance of the dataset, as a per-instance
    pass would report.
    """
    values = np.asarray(irlbl_table, dtype=np.float64).tolist()
    table = dataset.label_sets
    scores = [_set_scumble(table[s], values) for s in sets]
    if None in scores:
        undefined = sets[scores.index(None)]
        raise _undefined_irlbl(dataset.ids[int(np.argmax(dataset.set_ids == undefined))])
    return scores


def _repeated_mean(scores: list[float], multiplicities: list[int], total: int) -> float:
    """Exact mean of each score repeated its multiplicity, over ``total`` items."""
    return math.fsum(chain.from_iterable(map(repeat, scores, multiplicities))) / total


def scumble_label(dataset: MultiLabelDataset, irlbl_table: np.ndarray, label: int) -> float:
    """Mean instance SCUMBLE over instances containing the label; 0 if absent."""
    owners, labels = dataset.set_members
    held = owners[labels == label].tolist()
    if not held:
        return 0.0
    multiplicities = dataset.set_counts[held].tolist()
    return _repeated_mean(
        _set_scores(dataset, irlbl_table, held), multiplicities, sum(multiplicities)
    )


@dataclass(frozen=True)
class ImbalanceReport:
    """All imbalance statistics of one dataset snapshot.

    ``positive_pairs`` is the exact integer numerator of ``card``; the float
    product card * instance_count is not reliable for the bookkeeping
    identity, the integer is.
    """

    instance_count: int
    label_counts: tuple[int, ...]
    irlbl: tuple[float, ...]
    mean_ir: float
    card: float
    positive_pairs: int
    scumble_per_label: tuple[float, ...]
    scumble_mean: float
    sample_percent_profile: tuple[float, ...]

    def to_document(self, label_names: tuple[str, ...] | None = None) -> dict:
        doc = {
            "instance_count": self.instance_count,
            "label_counts": list(self.label_counts),
            "irlbl": [None if math.isnan(v) else v for v in self.irlbl],
            "mean_ir": self.mean_ir,
            "card": self.card,
            "positive_pairs": self.positive_pairs,
            "scumble_per_label": list(self.scumble_per_label),
            "scumble_mean": self.scumble_mean,
            "sample_percent_profile": list(self.sample_percent_profile),
        }
        if label_names is not None:
            doc["label_names"] = list(label_names)
        return doc

    def to_json(self, label_names: tuple[str, ...] | None = None) -> str:
        return json.dumps(self.to_document(label_names), separators=(",", ":"))


def imbalance_report(dataset: MultiLabelDataset) -> ImbalanceReport:
    if len(dataset) == 0:
        raise ValueError("imbalance report requires a non-empty dataset")
    counts = label_counts(dataset)
    n = len(dataset)
    ir = irlbl(counts)
    m_ir = mean_ir(ir)
    pairs = int(counts.sum())

    scores = _set_scores(dataset, ir, list(range(len(dataset.label_sets))))
    multiplicities = dataset.set_counts.tolist()
    # The sets holding each label, ascending: owners grouped by label.
    owners, labels = dataset.set_members
    holders = owners[np.argsort(labels, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(labels, minlength=dataset.label_count)).tolist()
    scumble_per_label = tuple(
        _repeated_mean([scores[i] for i in held], [multiplicities[i] for i in held],
                       int(counts[l])) if held else 0.0
        for l, held in enumerate(holders[a:b] for a, b in zip([0] + ends, ends))
    )
    scumble_mean = _repeated_mean(scores, multiplicities, n)

    percents = (100.0 * counts) / n
    profile = tuple(sorted(percents.tolist(), reverse=True))

    return ImbalanceReport(
        instance_count=n,
        label_counts=tuple(int(c) for c in counts),
        irlbl=tuple(float(v) for v in ir),
        mean_ir=m_ir,
        card=pairs / n,
        positive_pairs=pairs,
        scumble_per_label=scumble_per_label,
        scumble_mean=scumble_mean,
        sample_percent_profile=profile,
    )


def profile_csv(report: ImbalanceReport) -> str:
    """Two-column (rank, percent) CSV of the descending frequency profile."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "percent"])
    for rank, percent in enumerate(report.sample_percent_profile, start=1):
        writer.writerow([rank, repr(percent)])
    return buf.getvalue()
