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

    Cost model: a bag's neighbor search is one GEMM of the bag's bits
    against themselves, taken in blocks of ``_BLOCK_ROWS`` seed rows. Time
    stays quadratic in bag size: bag^2 * width multiply-adds, then a stable
    argsort of every row of distances. Memory is bounded by block x bag
    for the distances, on top of the bag's own bits (held as float64 for
    the GEMM) and labels. Bags come from the label-set table, and the votes
    are one gather-and-sum per bag.

Results are built from the input's columns (see ``mlimb.data``): copies and
replays are index gathers sharing every object with their source, and only
mlsmote's synthetics are validated. Only id minting is still per-row Python.

Copies and synthetics get fresh ids (source id plus a ``::p<j>`` / ``::s<j>``
suffix, j the source's next serial whose id the dataset does not hold) and
carry origin = source id. Original instances are never modified
and keep their positions; new instances are appended after them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from .data import Fingerprint, MultiLabelDataset, _check_seed
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
        if self.r < 1:
            raise ValueError(f"r must be a positive integer, got {self.r}")
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
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
    """Outcome of a method that adds nothing, with the reason as its warning."""
    return ResampleOutcome(
        dataset=dataset._take(np.arange(len(dataset))),
        method=method,
        added_count=0,
        minority_label_count=minority_label_count,
        warnings=(warning,),
    )


def _id_minter(dataset: MultiLabelDataset, tag: str) -> Callable[[list[str]], list[str]]:
    """Mints one id per source id of a list: ``<src>::<tag><j>`` with a
    per-source serial j counting from 1 across calls, skipping ids the
    dataset already holds. Two sources never mint the same id, since the
    suffix after the last ``::`` holds no colon."""
    taken = dataset.id_set
    serials: dict[str, int] = {}

    def mint(sources: list[str]) -> list[str]:
        minted = []
        for src_id in sources:
            j = serials.get(src_id, 0) + 1
            new_id = f"{src_id}::{tag}{j}"
            while new_id in taken:
                j += 1
                new_id = f"{src_id}::{tag}{j}"
            serials[src_id] = j
            minted.append(new_id)
        return minted

    return mint


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

    ids = dataset.ids
    copied = np.repeat(selected, config.r)
    sources = [ids[i] for i in copied.tolist()]
    mint = _id_minter(dataset, "p")
    return ResampleOutcome(
        dataset=dataset._with_copies(copied, mint(sources), sources),
        method="proposed",
        added_count=len(sources),
        minority_label_count=len(minority),
        selected_ids=tuple(sources[::config.r]),
        zero_score_selected=zero_score,
        warnings=tuple(warnings),
    )


# Seed rows per distance block: the block's distances and their argsort
# take _BLOCK_ROWS x bag size 8-byte values each.
_BLOCK_ROWS = 256


def _neighbours(bits: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """For each of ``rows``, the min(k, m - 1) rows of the 0/1 matrix ``bits``
    nearest to it by Hamming distance, itself excluded, ties broken by
    ascending row; one line per query row, nearest first.

    Distances come from one GEMM per block of query rows,
    pop_i + pop_j - 2 b_i.b_j. Every product and partial sum is an integer
    below 2**53, so the distances are exact whatever the summation order,
    and a stable argsort of each row is the exhaustive (distance, row) sort.
    """
    m = bits.shape[0]
    take = max(min(k, m - 1), 0)
    out = np.empty((len(rows), take), dtype=np.intp)
    dense = bits.astype(np.float64)
    pop = dense.sum(axis=1)
    for start in range(0, len(rows) if take else 0, _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        distance = dense[block] @ dense.T
        distance *= -2.0
        distance += pop
        distance += pop[block, None]
        distance[np.arange(len(block)), block] = np.inf  # never its own neighbour
        out[start:start + len(block)] = np.argsort(distance, axis=1, kind="stable")[:, :take]
    return out


def _vote(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Strict-majority vote of the 0/1 rows of ``values`` over each line of
    ``groups`` (row indices): 1 where more than half the group holds 1."""
    size = groups.shape[1]
    tally = np.zeros((len(groups), values.shape[1]), dtype=np.min_scalar_type(size))
    for column in groups.T:
        tally += values[column]
    return (tally > size // 2).astype(np.uint8)


def _label_indicator(dataset: MultiLabelDataset, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels carried by any of the dataset's ``rows``, ascending, and the 0/1
    matrix of which row holds which of them, built once per distinct set."""
    sets, where = np.unique(dataset.set_ids[rows], return_inverse=True)
    table = [dataset.label_sets[s] for s in sets.tolist()]
    flat = np.fromiter(chain.from_iterable(table), dtype=np.int64)
    present, column = np.unique(flat, return_inverse=True)
    indicator = np.zeros((len(table), present.size), dtype=np.uint8)
    indicator[np.repeat(np.arange(len(table)), [len(t) for t in table]), column] = 1
    return present, indicator[where]


def _bag_votes(
    dataset: MultiLabelDataset, bag: np.ndarray, seeds: np.ndarray, k: int
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Voted fingerprint rows and label sets of each seed position of one bag
    (dataset rows), each seed voting with its k nearest bag neighbors."""
    bits = np.stack([fp.bits for fp in map(dataset.fingerprints.__getitem__, bag.tolist())])
    present, indicator = _label_indicator(dataset, bag)
    groups = np.column_stack([seeds, _neighbours(bits, seeds, k)])
    rows, columns = np.nonzero(_vote(indicator, groups))
    flat = present[columns].tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(seeds))).tolist()
    label_sets = [tuple(flat[a:b]) for a, b in zip([0] + ends, ends)]
    return _vote(bits, groups), label_sets


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
    bags = {l: dataset.rows_with_label(l) for l in ordered_minority}
    usable = [l for l in ordered_minority if len(bags[l]) >= 2]
    round_size = sum(len(bags[l]) for l in usable)

    if not round_size:
        warnings = ["every minority bag has fewer than 2 members; nothing synthesized",
                    f"budget {budget} not met; produced 0 synthetics"]
    elif budget > round_size:
        warnings = [f"budget {budget} exceeds one round of {round_size} seed visits; "
                    "later synthetics repeat earlier ones"]
    else:
        warnings = []

    ids = dataset.ids
    mint = _id_minter(dataset, "s")
    per_label = dict.fromkeys(ordered_minority, 0)
    origins: list[str] = []  # the seed id of each synthetic of the round
    fingerprints: list[Fingerprint] = []
    label_sets: list[tuple[int, ...]] = []
    round_labels: list[int] = []  # the bag label of each synthetic of the round
    made: dict[tuple[bytes, tuple[int, ...]], Fingerprint] = {}  # one per distinct synthetic
    for l in usable:
        seeds = np.arange(min(len(bags[l]), budget - len(origins)))
        if not seeds.size:
            break
        bag = bags[l]
        voted_bits, voted_labels = _bag_votes(dataset, bag, seeds, config.k)
        for seed, bits, voted in zip(bag[seeds].tolist(), voted_bits, voted_labels):
            key = (bits.tobytes(), voted)
            if key not in made:
                made[key] = Fingerprint(bits)
            origins.append(ids[seed])
            fingerprints.append(made[key])
            label_sets.append(voted)
        round_labels += [l] * len(seeds)
    result = dataset._append(mint(origins), origins, fingerprints, label_sets)

    # Replays gather the round's rows again under the seeds' next ids.
    replayed = np.arange(len(origins), budget if round_size else 0) % max(round_size, 1)
    replay_origins = [origins[j] for j in replayed.tolist()]
    result = result._with_copies(len(dataset) + replayed, mint(replay_origins), replay_origins)
    for j in range(len(result) - len(dataset)):
        per_label[round_labels[j % round_size]] += 1

    return ResampleOutcome(
        dataset=result,
        method="mlsmote",
        added_count=len(result) - len(dataset),
        minority_label_count=len(minority),
        per_label_synthetic_counts=per_label,
        distinct_synthetics=len(made),
        warnings=tuple(warnings),
    )


def oversample(dataset: MultiLabelDataset, config: ResampleConfig) -> ResampleOutcome:
    if config.method == "proposed":
        return oversample_proposed(dataset, config)
    return mlsmote(dataset, config)
