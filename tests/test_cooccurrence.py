"""Label co-occurrence snapshots and chord-diagram export."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from mlimb import cooccurrence as cooccurrence_module
from mlimb.cooccurrence import (
    chord_document,
    compare_snapshots,
    cooccurrence,
    random_label_subset,
)
from mlimb.data import LabelVocabulary
from mlimb.resampling import ResampleConfig, mlsmote, oversample
from mlimb.synth import SynthConfig, generate
from tests.conftest import random_dataset
from tests.test_resampling import make_dataset


def test_hand_counts_and_links():
    d = make_dataset([(0, 1), (0,), (1,)], 2)
    summary = cooccurrence(d, (0, 1))
    assert summary.arc_sizes == (2, 2)
    assert summary.links == (((0, 1, 1)),)


def test_diagonal_excluded_and_zero_links_dropped():
    d = make_dataset([(0,), (0,), (2,)], 3)
    summary = cooccurrence(d, (0, 1, 2))
    assert summary.arc_sizes == (2, 0, 1)
    assert summary.links == ()


def test_duplication_doubles_counts():
    rng = np.random.default_rng(7)
    d = random_dataset(rng, ensure_labeled=True, max_labels=8)
    subset = tuple(range(d.label_count))
    base = cooccurrence(d, subset)
    doubled = cooccurrence(d.with_instances(
        list(d.instances)
        + [dataclasses.replace(i, id=i.id + "::p1") for i in d.instances]
    ), subset)
    assert doubled.arc_sizes == tuple(2 * c for c in base.arc_sizes)
    assert doubled.links == tuple((a, b, 2 * c) for a, b, c in base.links)


def test_subset_order_does_not_change_pair_identity():
    d = make_dataset([(0, 1, 2), (1, 2)], 3)
    fwd = cooccurrence(d, (0, 1, 2))
    rev = cooccurrence(d, (2, 1, 0))
    assert dict(((a, b), c) for a, b, c in fwd.links) == dict(
        ((a, b), c) for a, b, c in rev.links
    )
    assert sorted(zip((0, 1, 2), fwd.arc_sizes)) == sorted(zip((2, 1, 0), rev.arc_sizes))


def test_subset_validation():
    d = make_dataset([(0,)], 2)
    with pytest.raises(ValueError):
        cooccurrence(d, ())
    with pytest.raises(ValueError):
        cooccurrence(d, (0, 0))
    with pytest.raises(ValueError):
        cooccurrence(d, (0, 5))


def test_compare_snapshots_self_identical():
    rng = np.random.default_rng(11)
    d = random_dataset(rng, ensure_labeled=True, max_labels=10)
    subset = random_label_subset(d.vocabulary, min(4, d.label_count), seed=0)
    cmp = compare_snapshots(d, {"again": d}, subset)
    assert cmp.counts["original"] == cmp.counts["again"]
    assert cmp.scumble["original"] == cmp.scumble["again"]


def test_compare_snapshots_after_oversampling():
    d = make_dataset([(0,)] * 5 + [(1,)] * 2 + [(2,)], 3)
    out = oversample(d, ResampleConfig(method="proposed", p=0.25, r=2))
    cmp = compare_snapshots(d, {"replicated": out.dataset}, (0, 1, 2))
    assert cmp.counts["replicated"][2] == cmp.counts["original"][2] + 2
    doc = cmp.to_document()
    assert set(doc["snapshots"]) == {"original", "replicated"}
    json.loads(cmp.to_json())


def test_vocabulary_mismatch_rejected():
    a = make_dataset([(0,)], 2)
    b = make_dataset([(0,)], 3)
    with pytest.raises(ValueError, match="snapshot 'other' does not share the vocabulary"):
        compare_snapshots(a, {"other": b}, (0,))


def test_random_subset_deterministic_and_sorted():
    vocab = LabelVocabulary(tuple(f"l{i}" for i in range(30)))
    s1 = random_label_subset(vocab, 6, seed=4)
    s2 = random_label_subset(vocab, 6, seed=4)
    assert s1 == s2
    assert list(s1) == sorted(set(s1))
    assert random_label_subset(vocab, 6, seed=5) != s1
    with pytest.raises(ValueError):
        random_label_subset(vocab, 31, seed=0)


def test_chord_document_shape():
    d = make_dataset([(0, 1), (0,), (1,)], 2)
    doc = chord_document(cooccurrence(d, (0, 1), snapshot_name="orig"), d.vocabulary)
    assert doc["snapshot"] == "orig"
    assert doc["arcs"] == [
        {"label": "l0", "count": 2},
        {"label": "l1", "count": 2},
    ]
    assert doc["links"] == [{"a": "l0", "b": "l1", "count": 1}]
    json.dumps(doc)


def per_instance_cooccurrence(dataset, subset):
    arcs = {l: 0 for l in subset}
    joint = {}
    for inst in dataset.instances:
        active = [l for l in inst.labels if l in arcs]
        for i, a in enumerate(active):
            arcs[a] += 1
            for b in active[i + 1:]:
                joint[(a, b)] = joint.get((a, b), 0) + 1
    return tuple(arcs[l] for l in subset), tuple((a, b, c) for (a, b), c in sorted(joint.items()))


def test_grouped_counts_equal_per_instance_reference():
    rng = np.random.default_rng(23)
    for _ in range(8):
        d = random_dataset(rng, ensure_labeled=True, max_labels=7, graph_prob=0.0)
        for method in ("proposed", "mlsmote"):
            out = oversample(d, ResampleConfig(method=method, p=1.0, r=3, k=2)).dataset
            subset = tuple(int(l) for l in rng.permutation(d.label_count)[:5])
            summary = cooccurrence(out, subset)
            assert (summary.arc_sizes, summary.links) == per_instance_cooccurrence(out, subset)


def test_blocked_counts_equal_per_instance_reference(monkeypatch):
    # Blocks of one to a few label sets: every block edge is crossed.
    rng = np.random.default_rng(29)
    for block_values in (1, 5, 16):
        monkeypatch.setattr(cooccurrence_module, "_BLOCK_VALUES", block_values)
        for _ in range(6):
            d = random_dataset(rng, ensure_labeled=True, max_labels=7, graph_prob=0.0)
            out = oversample(d, ResampleConfig(method="proposed", p=1.0, r=2)).dataset
            subset = tuple(int(l) for l in rng.permutation(d.label_count)[:4])
            summary = cooccurrence(out, subset)
            assert (summary.arc_sizes, summary.links) == per_instance_cooccurrence(out, subset)


def test_peak_memory_does_not_grow_with_the_subset():
    # The mlsmote p=1 output of the rebalance sweep corpus: 80k rows over
    # 12.4k label sets. Dense X and W over every set took 41.7 MB at 200
    # labels against 0.7 MB at 8. Blocked, the 200-label call adds at most
    # its two blocks (1 MB), its 200 x 200 products (1.3 MB) and per-member
    # index arrays.
    corpus = generate(SynthConfig(n_instances=40_000, n_labels=200, fingerprint_width=256,
                                  graph_nodes_range=None, cooccurrence_boost=0.3, seed=1))
    out = mlsmote(corpus, ResampleConfig(method="mlsmote", p=1.0, k=5)).dataset
    peaks = {}
    for n in (8, 200):
        subset = random_label_subset(corpus.vocabulary, n, seed=1)
        cooccurrence(out, subset)  # the dataset's cached label-set columns are built here
        tracemalloc.start()
        cooccurrence(out, subset)
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[200] <= peaks[8] + 4_000_000, peaks
