"""Oversampling methods that append new instances to reduce label imbalance.

Two methods share one interface:

``proposed``
    Scores every labeled instance by the fraction of its active labels that
    are minority labels (IRLbl strictly above MeanIR), ranks descending,
    selects the top floor((p/r)*|D|), and appends exactly r verbatim copies
    of each. Each distinct label set is scored once, so ranking runs in
    O(sets * mean set size + |D| log |D|): no pairwise comparisons.

``mlsmote``
    Walks minority-label instance bags in descending IRLbl order and, per
    seed instance, synthesizes one new instance from the seed and its k
    nearest bag neighbors under Hamming distance: fingerprints by per-bit
    strict-majority vote, labels active iff present in strictly more than
    half of the group. Budget floor(p*|D|); a budget past one round of seed
    visits replays the round.

    Cost model: the bags come from one pass over the label-set table, and
    a round is built in blocks of whole bags holding about
    ``_BLOCK_VISITS`` seed visits. A block unpacks the bits of its distinct
    rows once. A bag's neighbour search is one float64 GEMM of its seeds'
    bits against the bag's, taken in blocks of ``_BLOCK_ROWS`` seed rows,
    then a selection of the k smallest (distance, row) keys of each seed:
    bag^2 * width multiply-adds plus O(bag^2) selection, where a full sort
    cost O(bag^2 log bag). The bit and label votes are gather-sums over the
    block's seed-and-neighbour groups, the labels read from a 0/1 set x
    label table restricted to the block. Memory is bounded by the block's
    bits, groups and votes, plus ``_BLOCK_ROWS`` x bag distances and keys.

Results are the input's rows followed by new ones (see ``mlimb.data``):
copies and replays are index arrays into the input's rows or the round's
synthetics, sharing every object with their source. No new row is
validated: a copy is a valid row again, and a synthetic has the input's
fingerprint width and a sorted set of labels the input holds. A result's new
rows are built only when its ``instances`` is first read, their ids minted
in one call over all of them in order; statistics, which read the label-set
table, never make them. A method that adds nothing returns its input.
mlsmote's lookup of distinct synthetics is per-synthetic Python.

Copies and synthetics get fresh ids, which ``mlimb.data`` mints from the
method's tag (source id plus a ``::p<j>`` / ``::s<j>`` suffix, j the source's
next serial whose id the dataset does not hold), and carry origin = source
id. Original instances are never modified and keep their positions; new
instances are appended after them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .data import (Fingerprint, MultiLabelDataset, _check_seed, _integer, _packed_rows,
                   _unpacked_rows)
from .metrics import irlbl, label_counts, mean_ir

__all__ = [
    "ResampleConfig",
    "ResampleOutcome",
    "minority_labels",
    "oversample_proposed",
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
        for name in ("r", "k"):
            value = _integer(name, getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value}")
            object.__setattr__(self, name, value)
        _check_seed(self.seed)


@dataclass(frozen=True)
class ResampleOutcome:
    """Oversampled dataset plus per-method diagnostics."""

    dataset: MultiLabelDataset
    method: str
    added_count: int
    minority_label_count: int
    selected_ids: tuple[str, ...] = ()
    zero_score_selected: int = 0
    per_label_synthetic_counts: dict[int, int] = field(default_factory=dict)
    distinct_synthetics: int = 0
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
                str(l): c for l, c in sorted(self.per_label_synthetic_counts.items())
            }
            doc["distinct_synthetics"] = self.distinct_synthetics
        return doc


def minority_labels(irlbl_table: np.ndarray, mean_ir_value: float) -> frozenset[int]:
    """Labels whose defined IRLbl strictly exceeds MeanIR."""
    table = np.asarray(irlbl_table, dtype=np.float64)
    mask = ~np.isnan(table) & (table > mean_ir_value)
    return frozenset(int(l) for l in np.nonzero(mask)[0])


def _ranked_indices(
    dataset: MultiLabelDataset, minority_set: frozenset[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Scorable instance indices in selection order plus their scores.

    Order is score descending with index as the tie-break; the score of
    index i is scores[position of i in the returned order].
    """
    owners, labels = dataset.set_members
    sizes = np.bincount(owners, minlength=len(dataset.label_sets))
    hits = np.bincount(owners, weights=np.isin(labels, list(minority_set)), minlength=sizes.size)
    scorable = sizes > 0
    scores = np.divide(hits, sizes, out=np.zeros(sizes.size), where=scorable)[dataset.set_ids]
    order = np.argsort(-scores, kind="stable")
    order = order[scorable[dataset.set_ids[order]]]
    return order, scores[order]


NO_LABELS = "no labeled instances; dataset returned unchanged"


def _imbalance(dataset: MultiLabelDataset) -> tuple[np.ndarray, frozenset[int]] | None:
    """IRLbl table and minority label set; None when no instance has a label."""
    if len(dataset) == 0:
        raise ValueError("cannot oversample an empty dataset")
    counts = label_counts(dataset)
    if counts.max(initial=0) == 0:
        return None
    table = irlbl(counts)
    return table, minority_labels(table, mean_ir(table))


def _unchanged(
    dataset: MultiLabelDataset, method: str, minority_label_count: int, warning: str
) -> ResampleOutcome:
    """Outcome of a method that adds nothing: the input itself, with the
    reason as its warning."""
    return ResampleOutcome(
        dataset=dataset,
        method=method,
        added_count=0,
        minority_label_count=minority_label_count,
        warnings=(warning,),
    )


def oversample_proposed(dataset: MultiLabelDataset, config: ResampleConfig) -> ResampleOutcome:
    """Select the floor((p/r)*|D|) most minority-heavy instances and append r
    verbatim copies of each (fresh ids, origin = source id)."""
    s = int(math.floor((config.p / config.r) * len(dataset)))
    found = _imbalance(dataset)
    if found is None:
        return _unchanged(dataset, "proposed", 0, NO_LABELS)
    minority = found[1]
    if s == 0:
        return _unchanged(
            dataset, "proposed", len(minority),
            "selection count floor((p/r)*|D|) is 0; dataset returned unchanged",
        )

    warnings: list[str] = []
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

    selected_rows = map(dataset.instances.__getitem__, selected.tolist())
    return ResampleOutcome(
        dataset=dataset._with_copies(np.repeat(selected, config.r), "p"),
        method="proposed",
        added_count=take * config.r,
        minority_label_count=len(minority),
        selected_ids=tuple(map(attrgetter("id"), selected_rows)),
        zero_score_selected=zero_score,
        warnings=tuple(warnings),
    )


# Seed rows per distance block: the block's distances and their selection
# keys take _BLOCK_ROWS x bag size 8-byte values each.
_BLOCK_ROWS = 256
# Seed visits per block of whole bags (a bag with more visits is a block of
# its own): the block's bits, neighbour groups and votes take about
# _BLOCK_VISITS x (width + labels + k) values.
_BLOCK_VISITS = 1024


def _neighbours(bits: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """For each of ``rows``, the min(k, m - 1) rows of the 0/1 matrix ``bits``
    nearest to it by Hamming distance, itself excluded, ties broken by
    ascending row; one line per query row, nearest first.

    Distances come from one GEMM per block of query rows: the Hamming
    distance is pop_i + pop_j - 2 b_i.b_j. Every product and partial sum is
    an integer below 2**53, so they are exact whatever the summation order.
    Row i is ordered by the int64 key (pop_j - 2 b_i.b_j) * m + j, its
    distances less pop_i spread by m and tie-broken by column: the k
    smallest keys, partitioned out and then sorted, are the first k of an
    exhaustive (distance, row) sort.
    """
    m = bits.shape[0]
    take = max(min(k, m - 1), 0)
    out = np.empty((len(rows), take), dtype=np.intp)
    dense = bits.astype(np.float64)
    offset = dense.sum(axis=1) * m + np.arange(m)
    # Consecutive query rows are read as a view of ``dense``: a gathered copy
    # is one more large allocation, faulted in afresh on every call.
    consecutive = len(rows) > 0 and np.array_equal(rows, np.arange(rows[0], rows[0] + len(rows)))
    for start in range(0, len(rows) if take else 0, _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        product = (dense[block[0]:block[-1] + 1] if consecutive else dense[block]) @ dense.T
        product *= -2.0 * m
        product += offset
        key = product.astype(np.int64)
        key[np.arange(len(block)), block] = np.iinfo(np.int64).max  # never its own neighbour
        nearest = np.partition(key, take - 1, axis=1)[:, :take]
        nearest.sort(axis=1)
        out[start:start + len(block)] = nearest % m
    return out


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i] .. starts[i] + lengths[i] - 1."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _minority_bags(dataset: MultiLabelDataset, ordered: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of each label of ``ordered``, bag after bag and ascending in
    a bag, and the bag sizes; read from the label-set table in one pass."""
    owners, labels = dataset.set_members
    rank = np.full(dataset.label_count, -1, dtype=np.intp)
    rank[ordered] = np.arange(len(ordered))
    ranks = rank[labels]
    held = ranks >= 0
    sets, ranks = owners[held], ranks[held]
    counts = dataset.set_counts
    by_set = np.argsort(dataset.set_ids, kind="stable")
    rows = by_set[_ranges((np.cumsum(counts) - counts)[sets], counts[sets])]
    key = np.sort(np.repeat(ranks, counts[sets]) * len(dataset) + rows)
    return key % len(dataset), np.bincount(key // len(dataset), minlength=len(ordered))


def _label_table(dataset: MultiLabelDataset, sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels held by any of the ascending ``sets``, ascending, and the 0/1
    set x label table of which set holds which, with a zero row appended."""
    owners, labels = dataset.set_members
    first = np.searchsorted(owners, sets)
    lengths = np.searchsorted(owners, sets, side="right") - first
    held = labels[_ranges(first, lengths)]
    column = np.zeros(dataset.label_count, dtype=np.intp)
    column[held] = 1
    present = np.flatnonzero(column)
    column[present] = np.arange(present.size)
    table = np.zeros((sets.size + 1, present.size), dtype=np.uint8)
    table[np.repeat(np.arange(sets.size), lengths), column[held]] = 1
    return present, table


def _tally(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Per line of ``groups`` (row indices), the sum of those rows of the 0/1
    matrix ``values``."""
    tally = np.zeros((len(groups), values.shape[1]), dtype=np.min_scalar_type(groups.shape[1]))
    for column in groups.T:
        tally += values[column]
    return tally


def _whole_bag_blocks(visits: np.ndarray) -> list[tuple[int, int]]:
    """Runs first:last of the visited bags (those with a visit), each taking
    whole bags while their visits total at most _BLOCK_VISITS; a bag with
    more visits is a run of its own."""
    runs: list[tuple[int, int]] = []
    total = 0
    for bag, seeds in enumerate(visits.tolist()):
        if not seeds:
            break
        if not runs or total + seeds > _BLOCK_VISITS:
            runs.append((bag, bag))
            total = 0
        runs[-1] = (runs[-1][0], bag + 1)
        total += seeds
    return runs


def _block_votes(
    dataset: MultiLabelDataset, rows: np.ndarray, sizes: list[int], visits: list[int], k: int
) -> tuple[list[bytes], list[tuple[int, ...]]]:
    """Packed voted fingerprints and label sets of the seed visits of a block
    of whole bags: ``rows`` holds the bags one after another, the first
    ``visits[b]`` rows of bag b are its seeds, and each seed votes with its
    k nearest bag neighbours by strict majority."""
    distinct, local = np.unique(rows, return_inverse=True)
    width = dataset.fingerprint_width
    sentinel = bytes(-(-width // 8))  # a zero row
    packed_of = attrgetter("fingerprint.packed")
    picked = map(packed_of, map(dataset.instances.__getitem__, distinct.tolist()))
    bits = _unpacked_rows([*picked, sentinel], width)
    sets, row_set = np.unique(dataset.set_ids[distinct], return_inverse=True)
    present, table = _label_table(dataset, sets)
    row_set = np.append(row_set, sets.size)  # the sentinel row holds no label

    # One line per visit: the seed, its neighbours, and sentinel padding where
    # a bag has fewer than k other rows; a majority is more than half of
    # the group's real rows.
    groups = np.full((sum(visits), 1 + min(k, max(sizes) - 1)), distinct.size)
    half = np.empty(len(groups), dtype=np.intp)
    start = line = 0
    for size, seeds in zip(sizes, visits):
        bag = local[start:start + size]
        near = bag[_neighbours(bits[bag], np.arange(seeds), k)]
        groups[line:line + seeds, 0] = bag[:seeds]
        groups[line:line + seeds, 1:1 + near.shape[1]] = near
        half[line:line + seeds] = (1 + near.shape[1]) // 2
        start += size
        line += seeds
    voted_bits = _tally(bits, groups) > half[:, None]
    voted = _tally(table, row_set[groups]) > half[:, None]
    keys = _packed_rows(voted)
    line_of = dict(zip(keys, range(len(keys))))  # equal keys, equal rows
    label_set = {key: tuple(present[voted[line]].tolist()) for key, line in line_of.items()}
    return _packed_rows(voted_bits), list(map(label_set.__getitem__, keys))


def mlsmote(dataset: MultiLabelDataset, config: ResampleConfig) -> ResampleOutcome:
    """Neighbor-vote synthesis inside minority-label bags, budget floor(p*|D|).

    One round visits every member of every bag with at least 2 members.
    Bags never change, so a budget past one round replays it: later visits
    copy the first round's synthetic under the seed's next id, and a warning
    says so. The majority votes use every one of the k neighbors, so no
    random draw is involved and the output does not depend on
    ``config.seed``. Synthetics have no graph. ``distinct_synthetics``
    counts the distinct (fingerprint, labels) rows of the round.
    """
    budget = int(math.floor(config.p * len(dataset)))
    found = _imbalance(dataset)
    if found is None:
        return _unchanged(dataset, "mlsmote", 0, NO_LABELS)
    table, minority = found
    if not minority:
        return _unchanged(dataset, "mlsmote", 0, "no minority labels; dataset returned unchanged")
    if budget == 0:
        return _unchanged(
            dataset, "mlsmote", len(minority),
            "synthesis budget floor(p*|D|) is 0; dataset returned unchanged",
        )

    ordered_minority = sorted(minority, key=lambda l: (-table[l], l))
    rows, sizes = _minority_bags(dataset, ordered_minority)
    usable = sizes >= 2
    rows = rows[np.repeat(usable, sizes)]
    sizes = sizes[usable]
    round_size = int(sizes.sum())

    if not round_size:
        warnings = ["every minority bag has fewer than 2 members; nothing synthesized",
                    f"budget {budget} not met; produced 0 synthetics"]
    elif budget > round_size:
        warnings = [f"budget {budget} exceeds one round of {round_size} seed visits; "
                    "later synthetics repeat earlier ones"]
    else:
        warnings = []

    # Each bag's seeds are its first rows, up to what is left of the budget.
    ends = np.cumsum(sizes)
    visits = np.clip(budget - (ends - sizes), 0, sizes)
    seeds = rows[_ranges(ends - sizes, visits)]
    fingerprints: list[Fingerprint] = []
    label_sets: list[tuple[int, ...]] = []
    made: dict[tuple[bytes, tuple[int, ...]], Fingerprint] = {}  # one per distinct synthetic
    for first, last in _whole_bag_blocks(visits):
        block = rows[ends[first] - sizes[first]:ends[last - 1]]
        voted_packed, voted_labels = _block_votes(
            dataset, block, sizes[first:last].tolist(), visits[first:last].tolist(), config.k)
        for key in zip(voted_packed, voted_labels):  # the key holds the packed row
            if key not in made:
                made[key] = Fingerprint._trusted(key[0], dataset.fingerprint_width)
            fingerprints.append(made[key])
        label_sets += voted_labels

    # The round's synthetics, each with its seed as origin, then the replays:
    # the round's rows again, under the seeds' next ids.
    replayed = np.arange(len(seeds), budget if round_size else 0) % max(round_size, 1)
    result = dataset._append(fingerprints, label_sets, seeds, replayed, "s")
    added = len(result) - len(dataset)
    bag_of_visit = np.repeat(np.flatnonzero(usable), sizes)
    counts = np.bincount(bag_of_visit[np.arange(added) % max(round_size, 1)],
                         minlength=len(ordered_minority))

    return ResampleOutcome(
        dataset=result,
        method="mlsmote",
        added_count=added,
        minority_label_count=len(minority),
        per_label_synthetic_counts=dict(zip(ordered_minority, counts.tolist())),
        distinct_synthetics=len(made),
        warnings=tuple(warnings),
    )


def oversample(dataset: MultiLabelDataset, config: ResampleConfig) -> ResampleOutcome:
    if config.method == "proposed":
        return oversample_proposed(dataset, config)
    return mlsmote(dataset, config)
