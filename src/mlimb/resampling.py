"""Oversampling methods that append new instances to reduce label imbalance.

Two methods share one interface:

``proposed``
    Scores every labeled instance by the fraction of its active labels that
    are minority labels (IRLbl strictly above MeanIR), ranks descending,
    selects the top floor((p/r)*|D|), and appends exactly r verbatim copies
    of each. Runs in O(|D| * mean labels per instance + |D| log |D|): no
    pairwise instance comparisons.

``mlsmote``
    Walks minority-label instance bags in descending IRLbl order and, per
    seed instance, synthesizes one new instance from the seed and its k
    nearest bag neighbors under Hamming distance: fingerprints by per-bit
    strict-majority vote, labels active iff present in strictly more than
    half of the group. Budget floor(p*|D|); per-seed neighbor searches make
    the cost grow with bag size, quadratic when bags scale with |D|.

Copies and synthetics get fresh ids (source id plus a ``::p<j>`` / ``::s<j>``
suffix) and carry origin = source id. Original instances are never modified
and keep their positions; new instances are appended after them.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Fingerprint, Instance, MultiLabelDataset
from .metrics import irlbl, label_counts, mean_ir

__all__ = [
    "ResampleConfig",
    "MinorityScore",
    "ResampleOutcome",
    "minority_labels",
    "minority_score",
    "rank_candidates",
    "oversample_proposed",
    "knn_hamming",
    "mlsmote",
    "oversample",
]

METHODS = ("proposed", "mlsmote")


@dataclass(frozen=True)
class ResampleConfig:
    """method, oversampling fraction p, replication count r (proposed) and
    neighbor count k (mlsmote).

    ``seed`` is recorded in the diagnostics document only. Both methods are
    deterministic: neither the ``proposed`` selection nor the ``mlsmote``
    synthetics depend on it.
    """

    method: str
    p: float
    r: int = 2
    k: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.r < 1:
            raise ValueError(f"r must be a positive integer, got {self.r}")
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")


@dataclass(frozen=True)
class MinorityScore:
    instance_index: int
    score: float


@dataclass(frozen=True)
class ResampleOutcome:
    """Oversampled dataset plus per-method diagnostics."""

    dataset: MultiLabelDataset
    method: str
    added_count: int
    minority_label_count: int
    selected_ids: tuple[str, ...] = ()
    zero_score_selected: int = 0
    per_label_synthetic_counts: dict[int, int] | None = None
    warnings: tuple[str, ...] = ()

    def diagnostics_document(self, config: ResampleConfig) -> dict:
        doc = {
            "method": self.method,
            "p": config.p,
            "r": config.r,
            "k": config.k,
            "seed": config.seed,
            "added_count": self.added_count,
            "minority_label_count": self.minority_label_count,
            "warnings": list(self.warnings),
        }
        if self.method == "proposed":
            doc["selected_ids"] = list(self.selected_ids)
            doc["zero_score_selected"] = self.zero_score_selected
        else:
            doc["per_label_synthetic_counts"] = {
                str(l): c for l, c in sorted((self.per_label_synthetic_counts or {}).items())
            }
        return doc


def minority_labels(irlbl_table: np.ndarray, mean_ir_value: float) -> frozenset[int]:
    """Labels whose defined IRLbl strictly exceeds MeanIR."""
    table = np.asarray(irlbl_table, dtype=np.float64)
    mask = ~np.isnan(table) & (table > mean_ir_value)
    return frozenset(int(l) for l in np.nonzero(mask)[0])


def minority_score(instance: Instance, minority_set: frozenset[int]) -> float | None:
    """Fraction of the instance's active labels that are minority labels.

    Instances with no active labels are unscored (None) and never enter the
    candidate ranking.
    """
    if not instance.labels:
        return None
    hits = sum(1 for l in instance.labels if l in minority_set)
    return hits / len(instance.labels)


def _ranked_indices(
    dataset: MultiLabelDataset, minority_set: frozenset[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Scorable instance indices in selection order plus their scores.

    Order is score descending with index as the tie-break; the score of
    index i is scores[position of i in the returned order].
    """
    n = len(dataset.instances)
    lengths = np.fromiter((len(inst.labels) for inst in dataset.instances), np.int64, count=n)
    flat = [l for inst in dataset.instances for l in inst.labels]
    mask = np.zeros(dataset.label_count, dtype=np.float64)
    mask[list(minority_set)] = 1.0
    hits = np.zeros(n, dtype=np.float64)
    if flat:
        owners = np.repeat(np.arange(n), lengths)
        hits = np.bincount(owners, weights=mask[np.asarray(flat, dtype=np.int64)], minlength=n)
    scorable = lengths > 0
    scores = np.zeros(n, dtype=np.float64)
    scores[scorable] = hits[scorable] / lengths[scorable]
    order = np.lexsort((np.arange(n), -scores))
    order = order[scorable[order]]
    return order, scores[order]


def rank_candidates(dataset: MultiLabelDataset, minority_set: frozenset[int]) -> list[MinorityScore]:
    """Scored instances in selection order: score descending, index ascending."""
    order, scores = _ranked_indices(dataset, minority_set)
    return [
        MinorityScore(instance_index=int(i), score=float(s))
        for i, s in zip(order, scores)
    ]


def _copy_of(src: Instance, new_id: str) -> Instance:
    # Verbatim copy sharing every field reference with the source. Bypasses
    # field revalidation, which the source already passed and which dominates
    # wall time when appending tens of thousands of replicas.
    dup = copy.copy(src)
    dup.id = new_id
    dup.origin = src.id
    return dup


def oversample_proposed(dataset: MultiLabelDataset, config: ResampleConfig) -> ResampleOutcome:
    """Select the floor((p/r)*|D|) most minority-heavy instances and append r
    verbatim copies of each (fresh ids, origin = source id)."""
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot oversample an empty dataset")
    warnings: list[str] = []
    s = int(math.floor((config.p / config.r) * n))

    counts = label_counts(dataset)
    if counts.max(initial=0) == 0:
        return ResampleOutcome(
            dataset=dataset.with_instances(list(dataset.instances)),
            method="proposed",
            added_count=0,
            minority_label_count=0,
            warnings=("no labeled instances; dataset returned unchanged",),
        )
    table = irlbl(counts)
    minority = minority_labels(table, mean_ir(table))

    if s == 0:
        return ResampleOutcome(
            dataset=dataset.with_instances(list(dataset.instances)),
            method="proposed",
            added_count=0,
            minority_label_count=len(minority),
            warnings=("selection count floor((p/r)*|D|) is 0; dataset returned unchanged",),
        )

    order, scores = _ranked_indices(dataset, minority)
    if order.size < s:
        warnings.append(
            f"only {order.size} scorable instances for a selection of {s}; selecting all of them"
        )
    take = min(s, order.size)
    selected = order[:take]
    zero_score = int((scores[:take] == 0.0).sum())
    if zero_score:
        warnings.append(f"{zero_score} selected instances had zero minority score")

    added: list[Instance] = []
    for index in selected:
        src = dataset.instances[index]
        for j in range(1, config.r + 1):
            added.append(_copy_of(src, f"{src.id}::p{j}"))

    return ResampleOutcome(
        dataset=dataset.with_instances(list(dataset.instances) + added),
        method="proposed",
        added_count=len(added),
        minority_label_count=len(minority),
        selected_ids=tuple(dataset.instances[i].id for i in selected),
        zero_score_selected=zero_score,
        warnings=tuple(warnings),
    )


def knn_hamming(bag: Sequence[Instance], query: Instance, k: int) -> list[int]:
    """Positions of the k bag members nearest to the query fingerprint.

    Hamming distance; ties broken by ascending bag position; k past the bag
    size returns the whole bag. The bag must not contain the query itself.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not bag:
        return []
    bits = np.stack([inst.fingerprint.bits for inst in bag])
    dist = (bits != query.fingerprint.bits).sum(axis=1)
    order = np.lexsort((np.arange(len(bag)), dist))
    return [int(i) for i in order[: min(k, len(bag))]]


def _vote_group(
    bag_bits: np.ndarray, group_rows: list[int], group_instances: list[Instance]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Strict-majority fingerprint bits and label set over a seed+neighbors group."""
    m = len(group_rows)
    bit_counts = bag_bits[group_rows].sum(axis=0)
    bits = (2 * bit_counts > m).astype(np.uint8)
    label_tally: dict[int, int] = {}
    for inst in group_instances:
        for l in inst.labels:
            label_tally[l] = label_tally.get(l, 0) + 1
    labels = tuple(sorted(l for l, c in label_tally.items() if 2 * c > m))
    return bits, labels


def mlsmote(dataset: MultiLabelDataset, config: ResampleConfig) -> ResampleOutcome:
    """Neighbor-vote synthesis inside minority-label bags, budget floor(p*|D|).

    Bags are walked in descending IRLbl order, one synthetic per seed visit,
    repeating passes over the bags until the budget is met or no bag can
    contribute. The majority votes use every one of the k neighbors, so no
    random draw is involved and the output does not depend on
    ``config.seed``. Synthetics have no graph.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot oversample an empty dataset")
    budget = int(math.floor(config.p * n))

    counts = label_counts(dataset)
    if counts.max(initial=0) == 0:
        return ResampleOutcome(
            dataset=dataset.with_instances(list(dataset.instances)),
            method="mlsmote",
            added_count=0,
            minority_label_count=0,
            per_label_synthetic_counts={},
            warnings=("no labeled instances; dataset returned unchanged",),
        )
    table = irlbl(counts)
    minority = minority_labels(table, mean_ir(table))
    if not minority:
        return ResampleOutcome(
            dataset=dataset.with_instances(list(dataset.instances)),
            method="mlsmote",
            added_count=0,
            minority_label_count=0,
            per_label_synthetic_counts={},
            warnings=("no minority labels; dataset returned unchanged",),
        )
    ordered_minority = sorted(minority, key=lambda l: (-table[l], l))

    if budget == 0:
        return ResampleOutcome(
            dataset=dataset.with_instances(list(dataset.instances)),
            method="mlsmote",
            added_count=0,
            minority_label_count=len(minority),
            per_label_synthetic_counts={},
            warnings=("synthesis budget floor(p*|D|) is 0; dataset returned unchanged",),
        )

    # Bags and their bit matrices are built once from the original instances.
    bags: dict[int, list[int]] = {l: [] for l in ordered_minority}
    for index, inst in enumerate(dataset.instances):
        for l in inst.labels:
            if l in bags:
                bags[l].append(index)
    usable = [l for l in ordered_minority if len(bags[l]) >= 2]
    bag_bits = {
        l: np.stack([dataset.instances[i].fingerprint.bits for i in bags[l]]) for l in usable
    }

    warnings: list[str] = []
    per_label: dict[int, int] = {l: 0 for l in ordered_minority}
    per_seed_serial: dict[str, int] = {}
    added: list[Instance] = []

    if not usable:
        warnings.append("every minority bag has fewer than 2 members; nothing synthesized")
    while usable and len(added) < budget:
        for l in usable:
            members = bags[l]
            bits = bag_bits[l]
            k_eff = min(config.k, len(members) - 1)
            for pos, seed_index in enumerate(members):
                if len(added) >= budget:
                    break
                dist = (bits != bits[pos]).sum(axis=1)
                dist[pos] = bits.shape[1] + 1  # the seed is not its own neighbor
                order = np.lexsort((np.arange(len(members)), dist))
                neighbor_pos = [int(i) for i in order[:k_eff]]
                group_rows = [pos] + neighbor_pos
                group_instances = [dataset.instances[members[i]] for i in group_rows]
                synth_bits, synth_labels = _vote_group(bits, group_rows, group_instances)
                seed_inst = dataset.instances[seed_index]
                serial = per_seed_serial.get(seed_inst.id, 0) + 1
                per_seed_serial[seed_inst.id] = serial
                added.append(
                    Instance(
                        id=f"{seed_inst.id}::s{serial}",
                        fingerprint=Fingerprint(synth_bits),
                        labels=synth_labels,
                        graph=None,
                        regression_targets=None,
                        origin=seed_inst.id,
                    )
                )
                per_label[l] += 1
            if len(added) >= budget:
                break

    if len(added) < budget:
        warnings.append(f"budget {budget} not met; produced {len(added)} synthetics")

    return ResampleOutcome(
        dataset=dataset.with_instances(list(dataset.instances) + added),
        method="mlsmote",
        added_count=len(added),
        minority_label_count=len(minority),
        per_label_synthetic_counts=per_label,
        warnings=tuple(warnings),
    )


def oversample(dataset: MultiLabelDataset, config: ResampleConfig) -> ResampleOutcome:
    if config.method == "proposed":
        return oversample_proposed(dataset, config)
    return mlsmote(dataset, config)
