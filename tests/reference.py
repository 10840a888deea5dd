"""Per-instance reference paths that the tests compare production code against.

The package ships one implementation of each computation: the batched
network engine (``mlimb.network.forward``/``predict``), the label-set-table
ranking of ``proposed`` and the blocked neighbour search of ``mlsmote``.
This module spells the same computations one graph or one instance at a
time, in the plainest numpy, so a test can check the fast path against an
independent derivation:

- the per-graph forward pass, ``adjacency_operator`` → ``graph_layer_forward``
  → ``readout`` → ``fingerprint_dense`` → ``fuse_and_predict``, composed by
  ``graph_embedding`` and ``predict_instance``;
- ``minority_score``, the per-instance score ``proposed`` ranks by;
- ``knn_hamming``, the one-row case of ``resampling._neighbours``;
- ``mlsmote_round``, mlsmote's first round one bag at a time: per bag a
  scan of the label-set table for the label's rows (``rows_with_label``),
  a stack of the bag's fingerprints, its own label indicator
  (``_label_indicator``) and majority votes (``_bag_votes``, ``_vote``),
  against which the blocked round of ``mlimb.resampling`` is checked;
- ``_set_scumble`` and ``_repeated_mean``, SCUMBLE of one label set with
  ``math.fsum`` sums and the exact mean of scores repeated by multiplicity,
  against which the integer-limb sums of ``mlimb.metrics`` are checked.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

import numpy as np

from mlimb.data import Instance, MolecularGraph, MultiLabelDataset
from mlimb.metrics import irlbl, label_counts, mean_ir
from mlimb.network import ACTIVATIONS, ADJACENCY_MODES, READOUT_MODES, ModelParameters, _sigmoid
from mlimb.resampling import ResampleConfig, _neighbours, minority_labels


def adjacency_operator(graph: MolecularGraph, mode: str) -> np.ndarray:
    """Dense adjacency operator of one graph under the chosen mode."""
    if mode not in ADJACENCY_MODES:
        raise ValueError(f"unknown adjacency_mode {mode!r}")
    n = graph.node_count
    a = np.zeros((n, n), dtype=np.float64)
    for u, v in graph.edges:
        a[u, v] += 1.0
        a[v, u] += 1.0
    if mode == "literal":
        return a
    a += np.eye(n)
    if mode == "self_loops":
        return a
    inv_sqrt_deg = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]


def graph_layer_forward(
    h_prev: np.ndarray, operator: np.ndarray, w: np.ndarray, b: np.ndarray, activation: str
) -> np.ndarray:
    """One propagation step act(operator @ h_prev @ w + b)."""
    act, _ = ACTIVATIONS[activation]
    if h_prev.shape[1] != w.shape[0]:
        raise ValueError(f"hidden width {h_prev.shape[1]} does not match weight rows {w.shape[0]}")
    return act(operator @ h_prev @ w + b)


def readout(h_final: np.ndarray, mode: str) -> np.ndarray:
    """Pool node rows into one graph embedding."""
    if mode not in READOUT_MODES:
        raise ValueError(f"unknown readout_mode {mode!r}")
    if h_final.ndim != 2 or h_final.shape[0] == 0:
        raise ValueError("readout needs a non-empty node matrix")
    if mode == "max_plus_mean":
        return h_final.max(axis=0) + h_final.mean(axis=0)
    if mode == "max_plus_min":
        return h_final.max(axis=0) + h_final.min(axis=0)
    return np.concatenate([h_final.mean(axis=0), h_final.max(axis=0)])


def fingerprint_dense(f: np.ndarray, w_p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Affine map of the 0/1 fingerprint vector."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape[-1] != w_p.shape[0]:
        raise ValueError(f"fingerprint width {f.shape[-1]} does not match weight rows {w_p.shape[0]}")
    return f @ w_p + c


def _head(logits: np.ndarray, mode: str) -> np.ndarray:
    """The configured head, computed in place: overwrites and returns logits."""
    if mode == "sigmoid_multilabel":
        return _sigmoid(logits, out=logits)
    return logits


def fuse_and_predict(h_g: np.ndarray, f_star: np.ndarray, params: ModelParameters) -> np.ndarray:
    """Fusion Z = (h_G + F*) W_q + d, then the configured head on Z W_r + e."""
    if h_g.shape != f_star.shape:
        raise ValueError(f"embedding width {h_g.shape} does not match dense fingerprint {f_star.shape}")
    z = (h_g + f_star) @ params.fuse_weight + params.fuse_bias
    logits = z @ params.head_weight + params.head_bias
    return _head(logits, params.config.head_mode)


def graph_embedding(graph: MolecularGraph, params: ModelParameters) -> np.ndarray:
    """Stacked layers plus readout for a single graph."""
    cfg = params.config
    operator = adjacency_operator(graph, cfg.adjacency_mode)
    h = graph.node_features
    for w, b in zip(params.layer_weights, params.layer_biases):
        h = graph_layer_forward(h, operator, w, b, cfg.activation)
    return readout(h, cfg.readout_mode)


def predict_instance(params: ModelParameters, instance: Instance) -> np.ndarray:
    """Single-instance forward pass honoring the configured input mode."""
    cfg = params.config
    fusion = cfg.fusion_input_dim
    if cfg.input_mode in ("hybrid", "graph"):
        if instance.graph is None:
            raise ValueError(f"instance {instance.id!r} has no graph but input_mode={cfg.input_mode!r}")
        h_g = graph_embedding(instance.graph, params)
    else:
        h_g = np.zeros(fusion)
    if cfg.input_mode in ("hybrid", "fingerprint"):
        f_star = fingerprint_dense(instance.fingerprint.bits, params.fp_weight, params.fp_bias)
    else:
        f_star = np.zeros(fusion)
    return fuse_and_predict(h_g, f_star, params)


def minority_score(instance: Instance, minority_set: frozenset[int]) -> float | None:
    """Fraction of the instance's active labels that are minority labels.

    Instances with no active labels are unscored (None) and never enter the
    candidate ranking.
    """
    if not instance.labels:
        return None
    hits = sum(1 for l in instance.labels if l in minority_set)
    return hits / len(instance.labels)


def knn_hamming(bits: np.ndarray, row: int, k: int) -> list[int]:
    """Rows of the 0/1 matrix ``bits`` nearest to ``bits[row]``, excluding
    ``row`` itself.

    Hamming distance; ties broken by ascending row; k past the number of
    other rows returns all of them.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return _neighbours(bits, np.array([row]), k)[0].tolist()


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


def rows_with_label(dataset: MultiLabelDataset, label: int) -> np.ndarray:
    """Positions of the rows whose label set holds ``label``, ascending."""
    owners, labels = dataset.set_members
    holds = np.zeros(len(dataset.label_sets), dtype=bool)
    holds[owners[labels == label]] = True
    return np.flatnonzero(holds[dataset.set_ids])


def _bag_votes(
    dataset: MultiLabelDataset, bag: np.ndarray, seeds: np.ndarray, k: int
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Voted fingerprint rows and label sets of each seed position of one bag
    (dataset rows), each seed voting with its k nearest bag neighbors."""
    bits = np.stack([dataset.instances[r].fingerprint.bits for r in bag.tolist()])
    present, indicator = _label_indicator(dataset, bag)
    groups = np.column_stack([seeds, _neighbours(bits, seeds, k)])
    rows, columns = np.nonzero(_vote(indicator, groups))
    flat = present[columns].tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(seeds))).tolist()
    label_sets = [tuple(flat[a:b]) for a, b in zip([0] + ends, ends)]
    return _vote(bits, groups), label_sets


def mlsmote_round(
    dataset: MultiLabelDataset, config: ResampleConfig
) -> list[tuple[int, tuple[int, ...], tuple[int, ...], int]]:
    """The seed visits of mlsmote's first round under the budget
    floor(p*|D|), in order: (seed row, voted bits, voted labels, bag label).

    Bags are the minority labels' rows in descending IRLbl order (label as
    the tie-break), bags of fewer than 2 rows skipped; a bag's seeds are its
    first rows, up to what is left of the budget. The dataset must hold a
    label.
    """
    table = irlbl(label_counts(dataset))
    minority = minority_labels(table, mean_ir(table))
    budget = int(math.floor(config.p * len(dataset)))
    visits: list[tuple[int, tuple[int, ...], tuple[int, ...], int]] = []
    for l in sorted(minority, key=lambda l: (-table[l], l)):
        bag = rows_with_label(dataset, l)
        seeds = np.arange(min(len(bag), budget - len(visits)))
        if len(bag) < 2 or not seeds.size:
            continue
        voted_bits, voted_labels = _bag_votes(dataset, bag, seeds, config.k)
        visits += zip(bag[seeds].tolist(), map(tuple, voted_bits.tolist()), voted_labels,
                      [l] * len(seeds))
    return visits


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


def _repeated_mean(scores: list[float], multiplicities: list[int], total: int) -> float:
    """Exact mean of each score repeated its multiplicity, over ``total`` items."""
    return math.fsum(chain.from_iterable(map(repeat, scores, multiplicities))) / total
