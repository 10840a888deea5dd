"""Label-imbalance statistics: per-label counts and IRLbl, MeanIR, Card,
SCUMBLE, and the ranked sample-percentage profile.

Definitions. With counts(l) = number of instances whose label set contains l:

    IRLbl(l)   = max_l' counts(l') / counts(l)      (undefined when counts(l) = 0)
    MeanIR     = arithmetic mean of IRLbl over labels with counts > 0
    Card       = (sum_i |Y_i|) / |D|                (mean active labels per instance)
    SCUMBLE_i  = 1 - GM(IRLbl over Y_i) / AM(IRLbl over Y_i), 0 when |Y_i| <= 1
    profile    = 100 * counts / |D|, sorted descending

Exactness notes. Every mean is an exact sum rounded once to float, then
divided: the same value math.fsum gives, since both round the exact sum
correctly. The summed floats (IRLbl values and their logarithms within a
label set, SCUMBLE scores within a label or over the dataset) are integer
multiples of one power of two, so ldexp and floor split each exactly into
int64 limbs. np.bincount sums each limb per group, exactly while the sums
stay below 2**53; the limb width leaves room for the largest group, and the
number of limbs follows from the exponent span of the summed values. After
the carries are normalised the limbs are added as floats from the top down:
the first inexact addition is the one rounding, and a sticky flag from the
limbs below breaks a tie. The sums are sized for IRLbl tables with entries
in [1, 2**53], which holds every IRLbl a dataset can give; scumble_label and
scumble_instance refuse other tables in one line. Logarithms come from
math.log once per label and exponentials from math.exp once per label set,
not from numpy's vectorised versions, which may differ from libm in the
last bit. Card is kept alongside its integer numerator: the float product
card * |D| does not recover the pair count exactly in IEEE arithmetic, so
the report carries ``positive_pairs`` as an integer. These choices also
make every statistic bit-for-bit invariant under duplicating the whole
dataset, since correctly rounded results of 2a/2b and a/b coincide.

Grouping by label set. Every statistic here depends on an instance only
through its label set, so all of them read the dataset's table of distinct
sets (``set_members``, one (set, label) pair per member) and their
multiplicities (``set_counts``) instead of walking instances. Counts are
multiplicity-weighted sums over the table, exact in integers. Each distinct
set's SCUMBLE is computed once, and the per-label and overall means weight
it by its multiplicity inside the exact integer sums, so they equal the
per-instance sums to the bit. ``scumble_instance`` is the same scorer
applied to one set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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


# IRLbl = max count / count lies in [1, |D|]; the exact sums below are sized
# for any table in [1, 2**53].
_MAX_IRLBL = 2.0 ** 53


def _irlbl_table(irlbl_table: np.ndarray, label_count: int | None = None) -> np.ndarray:
    """The table as float64, refused in one line unless it is one-dimensional,
    has ``label_count`` entries when given, and each entry is NaN (undefined)
    or lies in [1, 2**53]."""
    table = np.asarray(irlbl_table, dtype=np.float64)
    if table.ndim != 1:
        raise ValueError(f"IRLbl table must be one-dimensional, got shape {table.shape}")
    if label_count is not None and table.size != label_count:
        raise ValueError(f"IRLbl table has {table.size} entries for {label_count} labels")
    outside = ~(np.isnan(table) | ((table >= 1.0) & (table <= _MAX_IRLBL)))
    if outside.any():
        l = int(np.argmax(outside))
        raise ValueError(f"IRLbl of label {l} is {float(table[l])!r}, outside [1, 2**53]")
    return table


def _exact_sums(table: np.ndarray, picks: np.ndarray, groups: np.ndarray, size: int,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Per group g < ``size``, the correctly rounded sum of
    ``weights[i] * table[picks[i]]`` over the i with ``groups[i] == g``.

    ``table`` holds finite non-negative floats whose exponents span well
    under 1000 bits, and ``weights`` (default 1) non-negative integers with
    group totals below 2**52. Every entry is an integer multiple of the table's
    lowest set bit, ``2**unit``, so ldexp and floor split it exactly into
    limbs of ``limb_bits`` bits. np.bincount sums each limb per group in
    float64, exactly: the limb width leaves room for the largest group weight
    below 2**53. After the carries are normalised the limbs do not overlap,
    and adding them as floats from the top down is exact up to the first
    inexact addition, which is the one rounding; a nonzero limb below it
    breaks a tie upwards, as in math.fsum.
    """
    group_weight = np.bincount(groups, weights=weights, minlength=size)
    limb_bits = 53 - int(group_weight.max(initial=0)).bit_length()
    nonzero = table[table > 0]
    if nonzero.size == 0:
        return np.zeros(size)
    fraction, exponent = np.frexp(nonzero)
    digits = np.ldexp(fraction, 53).astype(np.int64)
    trailing = np.frexp((digits & -digits).astype(np.float64))[1] - 1
    unit = int((exponent - 53 + trailing).min())
    # Every entry is below 2**span units.
    span = int(exponent.max()) - unit
    rest = np.ldexp(table, -unit)
    sums = []
    for _ in range(-(-span // limb_bits)):
        upper = np.floor(np.ldexp(rest, -limb_bits))
        limb = (rest - np.ldexp(upper, limb_bits))[picks]
        if weights is not None:
            limb *= weights
        sums.append(np.bincount(groups, weights=limb, minlength=size).astype(np.int64))
        rest = upper
    for low, high in zip(sums, sums[1:]):
        high += low >> limb_bits
        low &= (1 << limb_bits) - 1
    total, error = np.zeros(size), np.zeros(size)
    below = np.zeros(size, dtype=bool)
    for k in reversed(range(len(sums))):
        part = np.ldexp(sums[k].astype(np.float64), k * limb_bits)
        rounded = error != 0
        below |= rounded & (part > 0)
        added = total + part
        error = np.where(rounded, error, part - (added - total))
        total = np.where(rounded, total, added)
    up = total + 2.0 * error
    ties = below & (error > 0) & (up - total == 2.0 * error)
    return np.ldexp(np.where(ties, up, total), unit)


def _set_scores(table: np.ndarray, owners: np.ndarray, labels: np.ndarray,
                n_sets: int) -> tuple[np.ndarray, np.ndarray]:
    """SCUMBLE of each of ``n_sets`` label sets given as (set, label) pairs,
    set by set, and the mask of the sets that hold several labels, one of
    them with an undefined (NaN) IRLbl; those score 0 here.

    A set with at most one label, or whose labels share one IRLbl value,
    scores 0. Otherwise AM and the mean logarithm are exact sums divided by
    the set size; math.log runs once per label and math.exp once per set.
    """
    sizes = np.bincount(owners, minlength=n_sets)
    undefined = np.isnan(table)
    defined = np.where(undefined, 1.0, table)
    broken = (np.bincount(owners, weights=undefined[labels], minlength=n_sets) > 0) & (sizes > 1)
    values = defined[labels]
    first = (np.cumsum(sizes) - sizes)[owners]
    varied = np.bincount(owners, weights=values != values[first], minlength=n_sets) > 0
    scored = np.flatnonzero(varied & ~broken)
    logs = np.fromiter(map(math.log, defined.tolist()), dtype=np.float64, count=defined.size)
    am = _exact_sums(defined, labels, owners, n_sets)[scored] / sizes[scored]
    mean_log = _exact_sums(logs, labels, owners, n_sets)[scored] / sizes[scored]
    gm = np.fromiter(map(math.exp, mean_log.tolist()), dtype=np.float64, count=scored.size)
    scores = np.zeros(n_sets)
    scores[scored] = np.maximum(0.0, 1.0 - gm / am)
    return scores, broken


def _undefined_irlbl(instance_id: str) -> ValueError:
    return ValueError(f"instance {instance_id!r} has an active label with undefined IRLbl")


def _dataset_scores(dataset: MultiLabelDataset, table: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """SCUMBLE of the dataset's label sets at the ascending positions ``sets``.

    A set with an undefined IRLbl raises naming the first instance carrying
    it. The table lists sets by first appearance, so that is the first
    offending instance of the dataset, as a per-instance pass would report.
    """
    owners, labels = dataset.set_members
    chosen = np.zeros(len(dataset.label_sets), dtype=bool)
    chosen[sets] = True
    keep = chosen[owners]
    position = np.cumsum(chosen) - 1
    scores, broken = _set_scores(table, position[owners[keep]], labels[keep], sets.size)
    if broken.any():
        undefined = sets[np.argmax(broken)]
        raise _undefined_irlbl(dataset.instances[int(np.argmax(dataset.set_ids == undefined))].id)
    return scores


def _weighted_mean(scores: np.ndarray, weights: np.ndarray) -> float:
    """Exact mean of the scores, each counted ``weights`` times."""
    total = _exact_sums(scores, np.arange(scores.size), np.zeros(scores.size, dtype=np.intp), 1,
                        weights)
    return float(total[0] / weights.sum())


def scumble_instance(instance: Instance, irlbl_table: np.ndarray) -> float:
    """Concurrence score of one instance's active labels.

    1 - GM/AM of the active labels' IRLbl values; 0 when the instance has at
    most one label or all its labels share one IRLbl value. The geometric
    mean runs in log space so IRLbl values in the thousands cannot overflow
    the product. The table must cover the instance's labels, and each entry
    must be NaN or lie in [1, 2**53].
    """
    table = _irlbl_table(irlbl_table)
    if instance.labels and instance.labels[-1] >= table.size:
        raise ValueError(f"IRLbl table has {table.size} entries; instance {instance.id!r} "
                         f"holds label {instance.labels[-1]}")
    labels = np.asarray(instance.labels, dtype=np.intp)
    scores, broken = _set_scores(table, np.zeros(labels.size, dtype=np.intp), labels, 1)
    if broken[0]:
        raise _undefined_irlbl(instance.id)
    return float(scores[0])


def scumble_label(dataset: MultiLabelDataset, irlbl_table: np.ndarray, label: int) -> float:
    """Mean instance SCUMBLE over instances containing the label; 0 if absent.
    The table needs one entry per label, each NaN or in [1, 2**53]."""
    table = _irlbl_table(irlbl_table, dataset.label_count)
    owners, labels = dataset.set_members
    held = owners[labels == label]
    if not held.size:
        return 0.0
    return _weighted_mean(_dataset_scores(dataset, table, held), dataset.set_counts[held])


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

    sets = np.arange(len(dataset.label_sets))
    scores = _dataset_scores(dataset, ir, sets)
    multiplicities = dataset.set_counts
    # Scores lie in [0, 1] on the 2**-53 grid: 1 - GM/AM is exact when
    # GM/AM >= 1/2 and rounds onto that grid otherwise. So score * 2**53 *
    # multiplicity is an integer, and the sums below take at most 54 bits
    # plus those of the count.
    owners, labels = dataset.set_members
    sums = _exact_sums(scores, owners, labels, dataset.label_count, multiplicities[owners])
    scumble_per_label = np.divide(sums, counts, out=np.zeros(dataset.label_count),
                                  where=counts > 0)
    scumble_mean = _weighted_mean(scores, multiplicities)

    percents = (100.0 * counts) / n
    profile = tuple(sorted(percents.tolist(), reverse=True))

    return ImbalanceReport(
        instance_count=n,
        label_counts=tuple(int(c) for c in counts),
        irlbl=tuple(float(v) for v in ir),
        mean_ir=m_ir,
        card=pairs / n,
        positive_pairs=pairs,
        scumble_per_label=tuple(scumble_per_label.tolist()),
        scumble_mean=scumble_mean,
        sample_percent_profile=profile,
    )


def profile_csv(report: ImbalanceReport) -> str:
    """Two-column (rank, percent) CSV of the descending frequency profile."""
    lines = ["rank,percent"]
    lines.extend(f"{rank},{percent!r}"
                 for rank, percent in enumerate(report.sample_percent_profile, start=1))
    return "\n".join(lines) + "\n"
