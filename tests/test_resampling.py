"""Oversampling methods against brute-force references and hand-worked examples."""

import math

import numpy as np
import pytest

from mlimb.data import Fingerprint, Instance, LabelVocabulary, MultiLabelDataset
from mlimb.metrics import cardinality, irlbl, label_counts, mean_ir
from mlimb.resampling import (
    ResampleConfig,
    knn_hamming,
    minority_labels,
    minority_score,
    mlsmote,
    oversample,
    oversample_proposed,
    rank_candidates,
    _vote_group,
)
from mlimb.synth import SynthConfig, generate
from tests.conftest import random_dataset


def make_dataset(label_sets, n_labels, width=8, fps=None):
    vocab = LabelVocabulary(tuple(f"l{j}" for j in range(n_labels)))
    instances = []
    for i, labels in enumerate(label_sets):
        bits = (
            np.array(fps[i], dtype=np.uint8)
            if fps is not None
            else np.zeros(width, dtype=np.uint8)
        )
        instances.append(
            Instance(id=f"i{i}", fingerprint=Fingerprint(bits), labels=tuple(labels))
        )
    return MultiLabelDataset(
        vocabulary=vocab, instances=instances,
        fingerprint_width=width if fps is None else len(fps[0]), node_feature_dim=1,
    )


def brute_force_proposed(dataset, p, r):
    """Naive re-derivation: count, ratio, score, sort, select, replicate."""
    n = len(dataset.instances)
    counts = [0] * dataset.label_count
    for inst in dataset.instances:
        for l in inst.labels:
            counts[l] += 1
    peak = max(counts)
    ratios = {l: peak / counts[l] for l in range(dataset.label_count) if counts[l] > 0}
    mean_ratio = sum(ratios.values()) / len(ratios)
    minority = {l for l, v in ratios.items() if v > mean_ratio}
    scored = []
    for idx, inst in enumerate(dataset.instances):
        if inst.labels:
            score = sum(1 for l in inst.labels if l in minority) / len(inst.labels)
            scored.append((idx, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    s = math.floor((p / r) * n)
    out = list(dataset.instances)
    for idx, _ in scored[: min(s, len(scored))]:
        src = dataset.instances[idx]
        for j in range(1, r + 1):
            out.append(
                Instance(id=f"{src.id}::p{j}", fingerprint=src.fingerprint,
                         labels=src.labels, graph=src.graph,
                         regression_targets=src.regression_targets, origin=src.id)
            )
    return out


# ---------------------------------------------------------------------------
# Minority criterion and scoring
# ---------------------------------------------------------------------------

def test_minority_labels_hand_case():
    table = irlbl(np.array([4, 2, 1]))
    assert minority_labels(table, mean_ir(table)) == {2}  # 4 > 7/3, 2 < 7/3


def test_minority_labels_uniform_empty():
    table = irlbl(np.array([5, 5, 5]))
    assert minority_labels(table, mean_ir(table)) == frozenset()


def test_undefined_irlbl_never_minority():
    table = irlbl(np.array([4, 0, 1]))
    minority = minority_labels(table, mean_ir(table))
    assert 1 not in minority
    assert minority == {2}


def test_minority_score_cases():
    inst = Instance(id="x", fingerprint=Fingerprint(np.zeros(4, dtype=np.uint8)), labels=(0, 2))
    assert minority_score(inst, frozenset({2})) == 0.5
    assert minority_score(inst, frozenset({0, 2})) == 1.0
    empty = Instance(id="y", fingerprint=Fingerprint(np.zeros(4, dtype=np.uint8)), labels=())
    assert minority_score(empty, frozenset({0})) is None


def test_rank_excludes_unlabeled_and_breaks_ties_by_index():
    d = make_dataset([(0,), (), (0,), (1,)], 2)
    ranked = rank_candidates(d, frozenset({1}))
    assert [ms.instance_index for ms in ranked] == [3, 0, 2]


# ---------------------------------------------------------------------------
# Replication oversampler
# ---------------------------------------------------------------------------

def test_spot_case_8_instances():
    d = make_dataset([(0,)] * 5 + [(1,)] * 2 + [(2,)], 3)
    out = oversample_proposed(d, ResampleConfig(method="proposed", p=0.25, r=2))
    assert out.added_count == 2
    assert len(out.dataset) == 10
    # The rarest label's unique carrier is the top-ranked candidate.
    assert out.selected_ids == ("i7",)
    assert [i.origin for i in out.dataset.instances[8:]] == ["i7", "i7"]


def test_p_zero_returns_unchanged():
    d = make_dataset([(0,), (1,)], 2)
    out = oversample_proposed(d, ResampleConfig(method="proposed", p=0.0, r=2))
    assert out.added_count == 0
    assert len(out.dataset) == 2
    assert out.warnings


def test_seven_instance_fixture_selects_rarest_carrier():
    d = make_dataset([(0,), (0, 1), (0,), (0, 1, 2), (), (), ()], 3)
    out = oversample_proposed(d, ResampleConfig(method="proposed", p=2 / 7, r=2))
    assert out.selected_ids == ("i3",)
    expected = brute_force_proposed(d, 2 / 7, 2)
    assert out.dataset.instances == expected


def test_matches_brute_force_on_random_datasets():
    rng = np.random.default_rng(1234)
    for trial in range(40):
        d = random_dataset(rng, ensure_labeled=True)
        p = float(rng.choice([0.1, 0.25, 0.5, 1.0]))
        r = int(rng.integers(1, 4))
        out = oversample_proposed(d, ResampleConfig(method="proposed", p=p, r=r))
        assert out.dataset.instances == brute_force_proposed(d, p, r), f"trial {trial}"


def test_originals_untouched_and_counts_monotone():
    rng = np.random.default_rng(55)
    d = random_dataset(rng, ensure_labeled=True)
    out = oversample_proposed(d, ResampleConfig(method="proposed", p=0.5, r=2))
    assert out.dataset.instances[: len(d)] == d.instances
    before = label_counts(d)
    after = label_counts(out.dataset)
    assert (after >= before).all()
    by_id = {inst.id: inst for inst in d.instances}
    for added in out.dataset.instances[len(d):]:
        src = by_id[added.origin]
        assert added.labels == src.labels
        assert added.fingerprint == src.fingerprint
        assert added.graph == src.graph


def test_card_bookkeeping_identity():
    rng = np.random.default_rng(66)
    for _ in range(20):
        d = random_dataset(rng, ensure_labeled=True)
        p = float(rng.uniform(0, 1))
        r = int(rng.integers(1, 4))
        out = oversample_proposed(d, ResampleConfig(method="proposed", p=p, r=r))
        n, n_hat = len(d), len(out.dataset)
        assert n_hat == n + math.floor((p / r) * n) * r or out.warnings
        added_pairs = sum(len(i.labels) for i in out.dataset.instances[n:])
        expected = (n * cardinality(d) + added_pairs) / n_hat
        assert abs(cardinality(out.dataset) - expected) <= 1e-12


def test_selection_shortfall_warns_and_zero_score_diagnostic():
    # Only two scorable instances but a selection of four.
    d = make_dataset([(0,), (0, 1), (), ()], 2)
    out = oversample_proposed(d, ResampleConfig(method="proposed", p=1.0, r=1))
    assert out.added_count == 2
    assert any("scorable" in w for w in out.warnings)
    uniform = make_dataset([(0,), (1,)], 2)
    out2 = oversample_proposed(uniform, ResampleConfig(method="proposed", p=1.0, r=1))
    assert out2.zero_score_selected == 2
    assert out2.minority_label_count == 0


def test_config_validation():
    with pytest.raises(ValueError):
        ResampleConfig(method="bogus", p=0.5)
    with pytest.raises(ValueError):
        ResampleConfig(method="proposed", p=1.5)
    with pytest.raises(ValueError):
        ResampleConfig(method="proposed", p=0.5, r=0)
    with pytest.raises(ValueError):
        ResampleConfig(method="mlsmote", p=0.5, k=0)


# ---------------------------------------------------------------------------
# Nearest neighbors
# ---------------------------------------------------------------------------

def test_knn_exact_match_ranked_first():
    fps = [[0, 0, 1, 1], [1, 1, 1, 1], [0, 0, 0, 0]]
    d = make_dataset([(0,)] * 3, 1, fps=fps)
    query = d.instances[0]
    exact = Instance(id="q2", fingerprint=query.fingerprint, labels=(0,))
    assert knn_hamming([d.instances[1], exact], query, 1) == [1]


def test_knn_whole_bag_and_tie_break():
    fps = [[0, 0], [0, 1], [1, 0]]
    d = make_dataset([(0,)] * 3, 1, fps=fps)
    query = d.instances[0]
    bag = [d.instances[1], d.instances[2]]
    # Both neighbors at distance 1: ascending position wins.
    assert knn_hamming(bag, query, 2) == [0, 1]
    assert knn_hamming(bag, query, 5) == [0, 1]
    with pytest.raises(ValueError):
        knn_hamming(bag, query, 0)


def test_knn_matches_exhaustive_sort():
    rng = np.random.default_rng(31)
    for _ in range(30):
        m = int(rng.integers(2, 9))
        bits = rng.integers(0, 2, size=(m + 1, 16)).astype(np.uint8)
        instances = [
            Instance(id=f"b{i}", fingerprint=Fingerprint(bits[i]), labels=(0,))
            for i in range(m + 1)
        ]
        query, bag = instances[0], instances[1:]
        k = int(rng.integers(1, m + 1))
        expected = sorted(
            range(m),
            key=lambda i: (int((bits[i + 1] != bits[0]).sum()), i),
        )[:k]
        assert knn_hamming(bag, query, k) == expected


# ---------------------------------------------------------------------------
# Neighbor-vote synthesis
# ---------------------------------------------------------------------------

def test_identical_bag_fixed_point():
    fps = [[1, 0, 1, 0]] * 3
    d = make_dataset([(0,)] * 3 + [(1,)] * 9, 2,
                     fps=fps + [[0, 0, 0, 0]] * 9)
    out = mlsmote(d, ResampleConfig(method="mlsmote", p=3 / 12, r=1, k=2))
    assert out.added_count == 3
    for synth in out.dataset.instances[12:]:
        assert synth.fingerprint.bits.tolist() == [1, 0, 1, 0]
        assert synth.labels == (0,)
        assert synth.graph is None


def test_vote_rule_majority_counts():
    # Group label sets {a,b},{a},{a},{a},{b}: a in 4 of 5, b in 2 of 5.
    bits = np.array([[1, 1], [1, 0], [1, 0], [1, 0], [0, 1]], dtype=np.uint8)
    instances = [
        Instance(id=f"v{i}", fingerprint=Fingerprint(bits[i]), labels=labels)
        for i, labels in enumerate([(0, 1), (0,), (0,), (0,), (1,)])
    ]
    synth_bits, synth_labels = _vote_group(bits, [0, 1, 2, 3, 4], instances)
    assert synth_labels == (0,)
    assert synth_bits.tolist() == [1, 0]  # bit 0: 4/5, bit 1: 2/5


def test_budget_exact_on_synthetic_thousand():
    d = generate(SynthConfig(n_instances=1000, n_labels=20, target_card=2.0,
                             fingerprint_width=32, signal_bits_per_label=1,
                             graph_nodes_range=None, seed=3))
    out = mlsmote(d, ResampleConfig(method="mlsmote", p=0.25, k=5, seed=1))
    assert out.added_count == 250
    assert len(out.dataset) == 1250
    assert sum(out.per_label_synthetic_counts.values()) == 250


def test_synthetic_labels_subset_of_neighborhood():
    rng = np.random.default_rng(90)
    d = random_dataset(rng, max_instances=40, ensure_labeled=True, graph_prob=0.0)
    out = mlsmote(d, ResampleConfig(method="mlsmote", p=0.5, k=3, seed=2))
    by_id = {inst.id: inst for inst in d.instances}
    for synth in out.dataset.instances[len(d):]:
        assert synth.origin in by_id
        seen = set()
        for orig in d.instances:
            seen |= set(orig.labels)
        assert set(synth.labels) <= seen


def test_no_minority_labels_warns_unchanged():
    d = make_dataset([(0,), (1,)], 2)
    out = mlsmote(d, ResampleConfig(method="mlsmote", p=0.5, k=2))
    assert out.added_count == 0
    assert any("minority" in w for w in out.warnings)


def test_singleton_bags_cannot_contribute():
    # One minority label held by a single instance: nothing can be synthesized.
    d = make_dataset([(0,)] * 9 + [(1,)], 2)
    out = mlsmote(d, ResampleConfig(method="mlsmote", p=0.3, k=2))
    assert out.added_count == 0
    assert any("fewer than 2" in w for w in out.warnings)


def test_mlsmote_deterministic():
    rng = np.random.default_rng(101)
    d = random_dataset(rng, max_instances=40, ensure_labeled=True)
    cfg = ResampleConfig(method="mlsmote", p=0.4, k=3, seed=9)
    a = mlsmote(d, cfg)
    b = mlsmote(d, cfg)
    assert a.dataset == b.dataset
    assert a.per_label_synthetic_counts == b.per_label_synthetic_counts


def test_mlsmote_output_does_not_depend_on_seed():
    d = generate(SynthConfig(n_instances=300, n_labels=12, fingerprint_width=32,
                             graph_nodes_range=None, cooccurrence_boost=0.3, seed=4))
    a = mlsmote(d, ResampleConfig(method="mlsmote", p=0.5, k=3, seed=1))
    b = mlsmote(d, ResampleConfig(method="mlsmote", p=0.5, k=3, seed=2))
    assert a.added_count > 0
    assert a.dataset == b.dataset
    assert a.per_label_synthetic_counts == b.per_label_synthetic_counts
    assert a.warnings == b.warnings


def test_dispatch_and_diagnostics_document():
    d = make_dataset([(0,)] * 5 + [(1,)] * 2 + [(2,)], 3)
    cfg = ResampleConfig(method="proposed", p=0.25, r=2)
    out = oversample(d, cfg)
    doc = out.diagnostics_document(cfg)
    assert doc["method"] == "proposed"
    assert doc["added_count"] == 2
    assert doc["selected_ids"] == ["i7"]
