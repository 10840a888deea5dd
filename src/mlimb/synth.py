"""Seeded generator of synthetic multilabel molecular datasets.

The generator plants everything the rest of the toolkit wants to detect:
Zipf-skewed label frequencies (thousands of labels, most of them rare),
an optional co-occurrence boost, per-label fingerprint bits,
per-label shifts of graph node-feature means, and regression targets that
are a noisy linear function of the fingerprint. One integer seed determines
the dataset byte-for-byte.

Construction order (fixed so the random stream is reproducible): label
counts via largest-remainder allocation of round(target_card * n) positives,
per-label membership draws, co-occurrence boost coin flips, label shift
matrix, regression weights, then one block of draws per instance
(fingerprint noise, graph size, node features, tree parents, extra-edge
count and pairs, regression noise).

Draws are made in bulk wherever the stream allows it, which gives the same
values as one call per value: one ``choice`` per label; one ``random(k)``
per boosted pair over the minor label's k instances in ascending order; a
graph's tree parents as one ``integers`` call with an array of bounds and
its extra edges as one (k, 2) call. When an instance makes no draw besides
its fingerprint noise (no graphs and no regression targets), the noise of a
block of consecutive instances is one ``random((rows, width))`` call.
Rows are built from values valid by construction, without the per-row
checks of the public constructors; the dataset still runs its own checks.

The co-occurrence boost pairs the k = min(8, populated // 2) rarest labels
that have instances with the k commonest, in label order, and gives each
instance of a rare label its paired common label with probability
min(1, cooccurrence_boost). Only those labels' rows can change, so mean
SCUMBLE barely moves: at 1200 x 40 labels, Zipf 1.2 and seed 0, boost 1.0
changes 60 of the 1200 rows at target cardinality 2 (101 at 4), and boosts
0, 0.3 and 1.0 give mean SCUMBLE within 0.004 of each other at both.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from .data import (
    Fingerprint,
    Instance,
    LabelVocabulary,
    MolecularGraph,
    MultiLabelDataset,
    _check_seed,
    _integer,
    _packed_rows,
    _readonly,
)

__all__ = ["SynthConfig", "generate", "allocate_counts"]

# Rows are built in blocks of consecutive instances. A block's fingerprint
# noise, drawn at once, takes about this many bytes of doubles, and its bits
# one uint8 array an eighth of that size, packed before the next block. Small
# blocks keep the noise small beside the dataset, and keep glibc's mmap
# threshold low when a dataset is freed: freeing one array of many megabytes
# raises it, and the process's later large temporaries then stay on the heap.
_NOISE_BLOCK_BYTES = 1 << 20

# Bound on the positives allocate_counts shares out: below it, every quota and
# the sum of their floors fit int64, even after float rounding.
_MAX_POSITIVES = 2**62


@dataclass(frozen=True)
class SynthConfig:
    n_instances: int
    n_labels: int
    zipf_exponent: float = 1.1
    target_card: float = 2.0
    fingerprint_width: int = 128
    signal_bits_per_label: int = 1
    noise_flip_prob: float = 0.01
    graph_nodes_range: tuple[int, int] | None = (6, 12)
    node_feature_dim: int = 9
    regression_width: int = 0
    cooccurrence_boost: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_instances", "n_labels", "fingerprint_width", "signal_bits_per_label",
                     "node_feature_dim", "regression_width", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        _check_seed(self.seed)
        if self.graph_nodes_range is not None:
            object.__setattr__(self, "graph_nodes_range", tuple(
                _integer("graph_nodes_range", v) for v in self.graph_nodes_range))
        for name in ("zipf_exponent", "target_card", "cooccurrence_boost"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_instances < 1 or self.n_labels < 1:
            raise ValueError("n_instances and n_labels must be positive")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be > 0")
        if self.target_card <= 0:
            raise ValueError("target_card must be > 0")
        if not self.target_card * self.n_instances < _MAX_POSITIVES:
            raise ValueError(f"target_card * n_instances must be below 2**62, "
                             f"got {self.target_card * self.n_instances:g}")
        if self.fingerprint_width < 1:
            raise ValueError("fingerprint_width must be positive")
        if self.signal_bits_per_label < 0:
            raise ValueError("signal_bits_per_label must be non-negative")
        if not (0.0 <= self.noise_flip_prob <= 1.0):
            raise ValueError("noise_flip_prob must lie in [0, 1]")
        if self.graph_nodes_range is not None:
            lo, hi = self.graph_nodes_range
            if not (1 <= lo <= hi):
                raise ValueError("graph_nodes_range must satisfy 1 <= min <= max")
        if self.node_feature_dim < 1:
            raise ValueError("node_feature_dim must be positive")
        if self.regression_width < 0:
            raise ValueError("regression_width must be non-negative")
        if self.cooccurrence_boost < 0:
            raise ValueError("cooccurrence_boost must be non-negative")
        if self.signal_bits_per_label * self.n_labels > self.fingerprint_width:
            raise ValueError(
                f"infeasible config: {self.n_labels} labels x {self.signal_bits_per_label} "
                f"dedicated bits exceed fingerprint width {self.fingerprint_width}"
            )

    def to_meta(self) -> dict:
        doc = asdict(self)
        if doc["graph_nodes_range"] is not None:
            doc["graph_nodes_range"] = list(doc["graph_nodes_range"])
        return {"generator": doc}


def allocate_counts(weights: np.ndarray, total: int, cap: int) -> np.ndarray:
    """Largest-remainder integer allocation of ``total`` over ``weights``.

    Result is sorted descending (rank 0 most frequent) and capped at ``cap``,
    so the rank-frequency curve is non-increasing by construction.
    """
    weights = np.asarray(weights, dtype=np.float64)
    with np.errstate(over="ignore"):
        mass = weights.sum()
    if not (np.isfinite(weights).all() and (weights >= 0).all() and 0 < mass < np.inf):
        raise ValueError("weights must be finite and non-negative, with a positive finite sum")
    if not total < _MAX_POSITIVES:
        raise ValueError("cannot allocate 2**62 or more positives: quotas must fit int64")
    quota = total * weights / mass
    base = np.floor(quota).astype(np.int64)
    frac = quota - base
    order = np.lexsort((np.arange(weights.size), -frac))
    short = int(total - base.sum())
    i = 0
    while short > 0:
        base[order[i % weights.size]] += 1
        short -= 1
        i += 1
    while short < 0:  # float quota drift; trim from the smallest fractions
        j = order[weights.size - 1 - (i % weights.size)]
        if base[j] > 0:
            base[j] -= 1
            short += 1
        i += 1
    counts = np.minimum(base, cap)
    return -np.sort(-counts)


def generate(config: SynthConfig) -> MultiLabelDataset:
    rng = np.random.default_rng(config.seed)
    n, L = config.n_instances, config.n_labels
    w = config.fingerprint_width

    # 1. Label frequencies: Zipf weights, integer counts, descending by rank.
    weights = np.power(np.arange(1, L + 1, dtype=np.float64), -config.zipf_exponent)
    total = int(round(config.target_card * n))
    counts = allocate_counts(weights, total, cap=n)

    # 2-3. Membership and co-occurrence boost; label bits are planted in 5.
    step = max(1, _NOISE_BLOCK_BYTES // (8 * w))
    label_sets, blocks = _labels_and_bits(rng, config, counts, step)

    # 4. Planted structure shared across instances.
    label_shift = rng.normal(0.0, 1.0, size=(L, config.node_feature_dim))
    reg_weight = None
    if config.regression_width > 0:
        reg_weight = rng.normal(0.0, 1.0, size=(w, config.regression_width))

    # 5. Per-instance draws, in row order: fingerprint noise, graph, regression
    # noise. Rows that draw only noise take it one block at a time.
    p = config.noise_flip_prob
    graphs: list[MolecularGraph | None] = [None] * n
    targets: list[np.ndarray | None] = [None] * n
    fingerprints: list[Fingerprint] = []
    for block in blocks:
        if config.graph_nodes_range is None and reg_weight is None:
            if p > 0:
                block ^= rng.random(block.shape) < p
        else:
            for i, row in enumerate(block, len(fingerprints)):
                if p > 0:
                    row ^= rng.random(w) < p
                if config.graph_nodes_range is not None:
                    graphs[i] = _graph(rng, config, label_shift, label_sets[i])
                if reg_weight is not None:
                    clean = row.astype(np.float64) @ reg_weight / np.sqrt(w)
                    targets[i] = clean + rng.normal(0.0, 0.1, size=config.regression_width)
        fingerprints += map(Fingerprint._trusted, _packed_rows(block), repeat(w))

    id_width = len(str(n - 1))
    instances = list(map(
        Instance._trusted,
        map(f"s{{:0{id_width}d}}".format, range(n)),
        fingerprints,
        label_sets,
        graphs,
        targets,
        repeat(None),
    ))

    name_width = max(4, len(str(L - 1)))
    vocabulary = LabelVocabulary(tuple(f"c{l:0{name_width}d}" for l in range(L)))
    return MultiLabelDataset(
        vocabulary=vocabulary,
        instances=instances,
        fingerprint_width=w,
        node_feature_dim=config.node_feature_dim,
        regression_width=config.regression_width,
        meta=json.loads(json.dumps(config.to_meta())),
    )


def _labels_and_bits(rng: np.random.Generator, config: SynthConfig, counts: np.ndarray,
                     step: int) -> tuple[list[tuple[int, ...]], Iterator[np.ndarray]]:
    """Each instance's sorted label set, and its fingerprint with the bits of
    its labels set (label l owns bits l*s .. (l+1)*s - 1), as uint8 blocks of
    ``step`` rows, each planted when asked for. The (instance, label) pairs
    are flat index arrays, never an n x L matrix, freed after the last block."""
    n, L = config.n_instances, config.n_labels
    # 2. Membership: label l lands on counts[l] distinct instances.
    populated = np.flatnonzero(counts).tolist()
    members = [rng.choice(n, size=c, replace=False) if c else np.empty(0, dtype=np.int64)
               for c in counts.tolist()]
    row_chunks = members.copy()
    label_chunks = [np.full(m.size, l) for l, m in enumerate(members)]

    # 3. Co-occurrence boost: each instance of the k rarest populated labels
    # gains, with probability min(1, boost), its paired label among the k
    # commonest. Few rows hold a rare label, so mean SCUMBLE barely moves
    # (see the module docstring). Minors and majors are disjoint, so a minor's
    # instances are its members, and each flips one coin, in instance order.
    if config.cooccurrence_boost > 0 and L >= 2:
        n_pairs = min(8, len(populated) // 2)
        minors = populated[-n_pairs:] if n_pairs else []
        majors = populated[:n_pairs]
        prob = min(1.0, config.cooccurrence_boost)
        for minor, major in zip(minors, majors):
            hits = np.sort(members[minor])
            gained = hits[rng.random(hits.size) < prob]
            row_chunks.append(gained)
            label_chunks.append(np.full(gained.size, major))

    # Sorted by instance, then label; a boosted label already present is dropped.
    keys = np.sort(np.concatenate(row_chunks) * L + np.concatenate(label_chunks))
    rows, labels = np.divmod(keys[np.diff(keys, prepend=-1) > 0], L)
    flat, bounds = labels.tolist(), np.searchsorted(rows, np.arange(n + 1)).tolist()
    label_sets = [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]

    s = config.signal_bits_per_label
    owned = labels[:, None] * s + np.arange(s)

    def planted() -> Iterator[np.ndarray]:
        for start in range(0, n, step):
            stop = min(start + step, n)
            block = np.zeros((stop - start, config.fingerprint_width), dtype=np.uint8)
            pairs = slice(bounds[start], bounds[stop])
            block[rows[pairs, None] - start, owned[pairs]] = 1
            yield block

    return label_sets, planted()


def _graph(rng: np.random.Generator, config: SynthConfig, label_shift: np.ndarray,
           labels: tuple[int, ...]) -> MolecularGraph:
    """One instance's graph: size, node features shifted by its labels, a
    random tree (each node v > 0 joins a parent below it) and up to
    size - 1 extra edges, repeats and self-pairs dropped, as one array."""
    lo, hi = config.graph_nodes_range
    n_nodes = int(rng.integers(lo, hi + 1))
    feats = rng.normal(0.0, 1.0, size=(n_nodes, config.node_feature_dim))
    if labels:
        feats = feats + label_shift[list(labels)].sum(axis=0)
    # A dict keeps each pair once, in the order it was first drawn.
    edges = dict.fromkeys(zip(rng.integers(np.arange(1, n_nodes)).tolist(), range(1, n_nodes)))
    extra = int(rng.integers(0, n_nodes))
    for u, v in rng.integers(n_nodes, size=(extra, 2)).tolist():
        if u != v:
            edges[min(u, v), max(u, v)] = None
    array = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges)).reshape(-1, 2)
    return MolecularGraph._trusted(feats, _readonly(array))
