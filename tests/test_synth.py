"""Synthetic corpus generator: frequency profiles, signal bits, determinism."""

import gc
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlimb.data import format_vocabulary, parse_dataset, write_dataset
from mlimb.metrics import imbalance_report
from mlimb.synth import SynthConfig, allocate_counts, generate


def serialize(dataset):
    buf = io.StringIO()
    write_dataset(dataset, buf)
    return buf.getvalue()


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_instances=0, n_labels=3)
    with pytest.raises(ValueError):
        SynthConfig(n_instances=10, n_labels=0)
    with pytest.raises(ValueError):
        SynthConfig(n_instances=10, n_labels=3, zipf_exponent=0.0)
    with pytest.raises(ValueError):
        SynthConfig(n_instances=10, n_labels=3, target_card=0.0)
    with pytest.raises(ValueError):
        SynthConfig(n_instances=10, n_labels=3, noise_flip_prob=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_instances=10, n_labels=3, graph_nodes_range=(5, 4))
    # Owned signal bits cannot exceed the fingerprint width.
    with pytest.raises(ValueError):
        SynthConfig(n_instances=10, n_labels=40, fingerprint_width=32,
                    signal_bits_per_label=1)
    # Non-finite rates: a NaN Zipf exponent made allocate_counts loop forever,
    # an infinite card overflowed, and a NaN boost became probability 1.
    for field, value in (("zipf_exponent", math.nan), ("zipf_exponent", math.inf),
                         ("target_card", math.nan), ("target_card", math.inf),
                         ("cooccurrence_boost", math.nan), ("cooccurrence_boost", math.inf)):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            SynthConfig(n_instances=10, n_labels=3, **{field: value})
    with pytest.raises(ValueError, match=r"^target_card \* n_instances must be below 2\*\*62"):
        SynthConfig(n_instances=10, n_labels=3, target_card=1e300)
    # Integer fields are refused, not truncated, when not integral.
    for field, value in (("n_instances", 10.0), ("n_labels", 3.5), ("fingerprint_width", 16.0),
                         ("signal_bits_per_label", 1.0), ("node_feature_dim", 2.5),
                         ("regression_width", 1.0), ("seed", 0.5), ("graph_nodes_range", (2.0, 4))):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            SynthConfig(**{"n_instances": 10, "n_labels": 3, field: value})
    cfg = SynthConfig(n_instances=np.int64(10), n_labels=np.int32(3), seed=np.uint8(4),
                      graph_nodes_range=(np.int64(2), np.int64(4)))
    assert cfg == SynthConfig(n_instances=10, n_labels=3, seed=4, graph_nodes_range=(2, 4))
    assert all(type(v) is int for v in (cfg.n_instances, cfg.n_labels, cfg.seed,
                                         *cfg.graph_nodes_range))
    json.dumps(cfg.to_meta())


@pytest.mark.parametrize("weights", [[1.0, math.nan], [2.0, -1.0], [0.0, 0.0], [math.inf, 1.0],
                                     [1e308, 1e308], []])
def test_allocate_counts_rejects_unusable_weights(weights):
    with pytest.raises(ValueError, match="^weights must be finite and non-negative"):
        allocate_counts(np.array(weights), 10, cap=100)


@pytest.mark.parametrize("total", [2**62, 10**300, 10**400], ids=["2**62", "1e300", "1e400"])
def test_allocate_counts_rejects_totals_beyond_int64(total):
    with pytest.raises(ValueError, match=r"^cannot allocate 2\*\*62 or more positives"):
        allocate_counts(np.array([1.0, 1.0]), total, cap=100)


def test_allocate_counts_known_split():
    got = allocate_counts(np.array([4.0, 2.0, 1.0]), 7, cap=100)
    assert got.tolist() == [4, 2, 1]
    assert allocate_counts(np.array([1.0, 1.0]), 5, cap=100).sum() == 5
    assert allocate_counts(np.array([1.0]), 2**62 - 1, cap=100).tolist() == [100]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 100.0), min_size=1, max_size=12),
    st.integers(0, 500),
    st.integers(1, 80),
)
def test_allocate_counts_properties(weights, total, cap):
    got = allocate_counts(np.array(weights), total, cap)
    assert (got >= 0).all() and (got <= cap).all()
    assert (np.diff(got) <= 0).all()  # non-increasing
    assert got.sum() <= total
    if total <= cap * len(weights):
        assert got.sum() == total or got.max() == cap


def test_single_label_everything_uniform():
    d = generate(SynthConfig(n_instances=50, n_labels=1, target_card=1.0,
                             fingerprint_width=16, graph_nodes_range=None, seed=0))
    report = imbalance_report(d)
    assert report.label_counts == (50,)
    assert report.mean_ir == 1.0
    assert all(inst.labels == (0,) for inst in d.instances)


def test_profile_non_increasing_and_skewed():
    d = generate(SynthConfig(n_instances=10_000, n_labels=1000, zipf_exponent=1.2,
                             target_card=3.0, fingerprint_width=64,
                             signal_bits_per_label=0, graph_nodes_range=None, seed=1))
    report = imbalance_report(d)
    profile = np.array(report.sample_percent_profile)
    assert (np.diff(profile) <= 0).all()
    assert report.mean_ir > 100.0
    assert profile[0] > 10 * profile[-1]


def test_cardinality_near_target():
    for card in (1.5, 2.0, 4.0):
        d = generate(SynthConfig(n_instances=2000, n_labels=40, target_card=card,
                                 fingerprint_width=64, graph_nodes_range=None, seed=2))
        got = imbalance_report(d).card
        assert abs(got - card) <= 0.1 * card


def test_noiseless_fingerprints_recover_owned_bits():
    cfg = SynthConfig(n_instances=300, n_labels=8, target_card=2.0,
                      fingerprint_width=32, signal_bits_per_label=4,
                      noise_flip_prob=0.0, graph_nodes_range=None, seed=3)
    d = generate(cfg)
    s = cfg.signal_bits_per_label
    for inst in d.instances:
        expected = np.zeros(32, dtype=np.uint8)
        for l in inst.labels:
            expected[l * s:(l + 1) * s] = 1
        assert np.array_equal(inst.fingerprint.bits, expected)


def test_graphs_and_regression_targets_shapes():
    cfg = SynthConfig(n_instances=60, n_labels=5, fingerprint_width=32,
                      graph_nodes_range=(4, 7), node_feature_dim=3,
                      regression_width=2, seed=4)
    d = generate(cfg)
    assert d.regression_width == 2
    for inst in d.instances:
        assert inst.graph is not None
        assert 4 <= inst.graph.node_count <= 7
        assert inst.graph.node_features.shape[1] == 3
        # Random tree plus extras keeps the graph connected.
        assert len(inst.graph.edges) >= inst.graph.node_count - 1
        assert inst.regression_targets.shape == (2,)


def test_graphless_mode_emits_no_graphs():
    d = generate(SynthConfig(n_instances=20, n_labels=3, fingerprint_width=16,
                             graph_nodes_range=None, seed=5))
    assert all(inst.graph is None for inst in d.instances)


def test_seed_determinism_is_byte_level():
    cfg = SynthConfig(n_instances=120, n_labels=10, fingerprint_width=32,
                      graph_nodes_range=(4, 6), regression_width=1, seed=6)
    a = serialize(generate(cfg))
    b = serialize(generate(cfg))
    assert a == b
    c = serialize(generate(SynthConfig(n_instances=120, n_labels=10,
                                       fingerprint_width=32,
                                       graph_nodes_range=(4, 6),
                                       regression_width=1, seed=7)))
    assert c != a


def test_boost_raises_cooccurrence_of_rare_and_frequent():
    base = dict(n_instances=4000, n_labels=30, zipf_exponent=1.1, target_card=2.0,
                fingerprint_width=64, signal_bits_per_label=0,
                graph_nodes_range=None, seed=8)
    plain = generate(SynthConfig(**base, cooccurrence_boost=0.0))
    boosted = generate(SynthConfig(**base, cooccurrence_boost=0.9))
    assert imbalance_report(boosted).scumble_mean > imbalance_report(plain).scumble_mean


def test_meta_records_generator_settings():
    cfg = SynthConfig(n_instances=10, n_labels=3, fingerprint_width=16,
                      graph_nodes_range=None, seed=9)
    d = generate(cfg)
    meta = json.loads(json.dumps(d.meta))
    assert meta["generator"]["n_instances"] == 10
    assert meta["generator"]["seed"] == 9


def test_ids_and_label_names_are_stable():
    d = generate(SynthConfig(n_instances=12, n_labels=3, fingerprint_width=16,
                             graph_nodes_range=None, seed=10))
    assert d.instances[0].id == "s00"
    assert d.instances[11].id == "s11"
    assert len({inst.id for inst in d.instances}) == 12
    assert d.vocabulary.names[0].startswith("c")


def test_every_instance_gets_at_least_one_label_when_card_allows():
    d = generate(SynthConfig(n_instances=500, n_labels=20, target_card=2.0,
                             fingerprint_width=32, graph_nodes_range=None, seed=11))
    unlabeled = sum(1 for inst in d.instances if not inst.labels)
    assert unlabeled < 0.2 * len(d)


# SHA-256 of the written dataset for configurations that between them set
# every generator switch away from its default; recorded with the
# one-draw-per-value generator that the bulk draws replaced.
PINNED = {
    "readme": (dict(n_instances=2000, n_labels=50, zipf_exponent=1.2, cooccurrence_boost=0.3,
                    seed=7),
               "139dc80609614713a895ee233f66d9b61e82b5fe55a304a71be80d5b0c6d3b68"),
    "sweep": (dict(n_instances=40_000, n_labels=200, fingerprint_width=256,
                   graph_nodes_range=None, cooccurrence_boost=0.3, seed=101),
              "40ab44ad08e4e0a9b53084cb5008e939d42f67e0158e69ab65dd221c2307fe05"),
    "small_graphs_regression_noisy": (
        dict(n_instances=300, n_labels=12, fingerprint_width=64, graph_nodes_range=(1, 5),
             regression_width=2, noise_flip_prob=0.2, seed=3),
        "2d161951c9904f575711d4da78aefc902b2aca3a27688c28c5447dc61b32605d"),
    "three_signal_bits_noiseless": (
        dict(n_instances=400, n_labels=10, fingerprint_width=48, signal_bits_per_label=3,
             noise_flip_prob=0.0, graph_nodes_range=None, seed=4),
        "3caf1dc9d3ca66b798032e12aabee446d489a49f7d733456cbdc7c286cbd8138"),
    "regression_without_graphs": (
        dict(n_instances=300, n_labels=8, fingerprint_width=32, graph_nodes_range=None,
             regression_width=2, seed=5),
        "6d9ebce6cd09edd9afdecfaead936d6f3a4c349ad4f46e337c35d1d06fa5e4d7"),
    "no_draws_per_row": (
        dict(n_instances=250, n_labels=6, fingerprint_width=16, noise_flip_prob=0.0,
             graph_nodes_range=None, seed=6),
        "844391257aedf985c13c27843ee78e20f2b816d0e902c786f8a8d36d76432691"),
    "strong_boost_small_feature_dim": (
        dict(n_instances=500, n_labels=30, zipf_exponent=0.8, target_card=3.0,
             node_feature_dim=4, cooccurrence_boost=0.9, seed=8),
        "a3ecb237fa1882b4e389b07dbe29e048ab323cfff7c383b67f6d47461204784f"),
    "unpopulated_labels_boost_over_one": (
        dict(n_instances=20, n_labels=60, target_card=1.0, fingerprint_width=64,
             graph_nodes_range=(2, 3), cooccurrence_boost=1.5, seed=10),
        "ec870b0b974dcfac2e88a89e04488a76626876e4764d73dfca9cdd5a9da3ba33"),
    "one_single_node_instance": (
        dict(n_instances=1, n_labels=1, fingerprint_width=8, graph_nodes_range=(1, 1), seed=9),
        "cc82e2d1a2fd0a0780a6d85362f0b67d7f3e09d24a62b6c39a637385b2278440"),
}


@pytest.mark.parametrize("name", PINNED)
def test_generated_bytes_are_pinned_and_parse_back(name):
    kwargs, digest = PINNED[name]
    dataset = generate(SynthConfig(**kwargs))
    text = serialize(dataset)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # The parser validates every row (0/1 bits, sorted unique labels, edges
    # in range without self-loops, feature dims), so this checks the rows the
    # generator built without those checks.
    assert parse_dataset(text, format_vocabulary(dataset.vocabulary)) == dataset


def test_generation_peak_memory_stays_near_the_dataset():
    """The transient memory of generate is small next to what it returns: no
    dense instance x label matrix and no large blocks of noise draws."""
    config = SynthConfig(n_instances=10_000, n_labels=200, fingerprint_width=256,
                         graph_nodes_range=None, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        dataset = generate(config)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 10_000
    assert peak < 1.25 * retained, (peak, retained)


def test_generated_fingerprints_are_held_packed():
    """A 10k x 256-bit corpus retains under 5.5 MB: held as 0/1 bytes with a
    numpy row view each, its fingerprints alone took about 3.3 MB more."""
    config = SynthConfig(n_instances=10_000, n_labels=200, fingerprint_width=256,
                         graph_nodes_range=None, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        dataset = generate(config)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 10_000
    assert retained < 5.5e6, retained
