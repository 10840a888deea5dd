"""Oversampling methods against brute-force references and hand-worked examples."""

import hashlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlimb import resampling
from mlimb.data import (Fingerprint, Instance, LabelVocabulary, MultiLabelDataset, format_vocabulary,
                        parse_dataset, write_dataset)
from mlimb.metrics import cardinality, irlbl, label_counts, mean_ir
from mlimb.resampling import (
    ResampleConfig,
    minority_labels,
    mlsmote,
    oversample,
    oversample_proposed,
    _BLOCK_ROWS,
    _BLOCK_VISITS,
    _neighbours,
    _ranked_indices,
)
from mlimb.synth import SynthConfig, generate
from tests.conftest import random_dataset
from tests.reference import _bag_votes, _vote, knn_hamming, minority_score, mlsmote_round


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
    assert _ranked_indices(d, frozenset({1}))[0].tolist() == [3, 0, 2]


def test_ranked_scores_match_the_per_instance_score():
    rng = np.random.default_rng(12)
    for _ in range(40):
        d = random_dataset(rng, max_instances=30, max_labels=6)
        minority = frozenset(int(l) for l in rng.choice(d.label_count, 2))
        order, scores = _ranked_indices(d, minority)
        scored = [(i, minority_score(inst, minority)) for i, inst in enumerate(d.instances)]
        expected = sorted(((i, s) for i, s in scored if s is not None), key=lambda p: (-p[1], p[0]))
        assert list(zip(order.tolist(), scores.tolist())) == expected


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
    for field_name in ("r", "k"):
        with pytest.raises(ValueError, match=f"^{field_name} must be an integer, got 2.5$"):
            ResampleConfig(method="proposed", p=0.5, **{field_name: 2.5})
        config = ResampleConfig(method="proposed", p=0.5, **{field_name: np.int64(3)})
        assert type(getattr(config, field_name)) is int


# ---------------------------------------------------------------------------
# Nearest neighbors
# ---------------------------------------------------------------------------

def test_knn_exact_match_ranked_first():
    bits = np.array([[0, 0, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1]], dtype=np.uint8)
    # Row 0 is the query; row 2 is an exact copy of it.
    assert knn_hamming(bits, 0, 1) == [2]


def test_knn_whole_bag_and_tie_break():
    bits = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.uint8)
    # Both neighbors of row 0 at distance 1: ascending row wins.
    assert knn_hamming(bits, 0, 2) == [1, 2]
    assert knn_hamming(bits, 0, 5) == [1, 2]
    # The query row is skipped wherever it sits.
    assert knn_hamming(bits, 1, 2) == [0, 2]
    with pytest.raises(ValueError):
        knn_hamming(bits, 0, 0)


def test_knn_matches_exhaustive_sort():
    rng = np.random.default_rng(31)
    for _ in range(30):
        m = int(rng.integers(2, 9))
        bits = rng.integers(0, 2, size=(m + 1, 16)).astype(np.uint8)
        k = int(rng.integers(1, m + 1))
        expected = sorted(
            range(m),
            key=lambda i: (int((bits[i + 1] != bits[0]).sum()), i),
        )[:k]
        assert knn_hamming(bits, 0, k) == [i + 1 for i in expected]


def exhaustive_neighbours(bits, row, k):
    """Every other row sorted by (Hamming distance, row), first k kept."""
    others = [j for j in range(len(bits)) if j != row]
    return sorted(others, key=lambda j: (int((bits[j] != bits[row]).sum()), j))[:k]


def test_batched_neighbours_match_exhaustive_sort():
    rng = np.random.default_rng(44)
    cases = [
        (2, 8, 1), (2, 8, 5),  # m = 2: the one other row, whatever k is
        (7, 3, 6), (7, 3, 40),  # k >= m - 1: every other row
        (12, 2, 3),  # 2-bit rows: duplicates and ties everywhere
        (_BLOCK_ROWS + 45, 5, 4),  # more rows than one block
        (2 * _BLOCK_ROWS + 3, 9, 7),
    ]
    for m, width, k in cases:
        bits = rng.integers(0, 2, size=(m, width)).astype(np.uint8)
        bits[m // 2] = bits[0]  # an exact duplicate of row 0
        rows = np.arange(m)
        found = _neighbours(bits, rows, k)
        assert found.shape == (m, min(k, m - 1))
        for i in rows:
            assert found[i].tolist() == exhaustive_neighbours(bits, i, k), (m, width, k, i)
        # A subset of query rows, out of order and across block edges.
        picked = rng.permutation(m)[: max(1, m // 3)]
        assert _neighbours(bits, picked, k).tolist() == found[picked].tolist()


def test_batched_neighbours_single_row_bag_is_empty():
    bits = np.array([[1, 0, 1]], dtype=np.uint8)
    assert _neighbours(bits, np.array([0]), 3).shape == (1, 0)
    assert knn_hamming(bits, 0, 3) == []


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
    bag = make_dataset([(0, 1), (0,), (0,), (0,), (1,)], 2, fps=bits.tolist())
    # Seed 0 with k=4 takes the whole bag as its group.
    synth_bits, synth_labels = _bag_votes(bag, np.arange(5), np.array([0]), 4)
    assert synth_labels == [(0,)]
    assert synth_bits.tolist() == [[1, 0]]  # bit 0: 4/5, bit 1: 2/5
    assert _vote(bits, np.array([[0, 1, 2, 3, 4]])).tolist() == [[1, 0]]
    # An even group needs more than half: 2 of 4 is not a majority.
    assert _vote(bits, np.array([[0, 1, 2, 4], [0, 1, 4, 4]])).tolist() == [[1, 0], [0, 1]]


def test_distinct_synthetics_counts_a_collapse():
    # Label 0 is the only minority label. Its bag of four rows with k=3 puts
    # every seed in the same whole-bag group, so all four synthetics are one
    # row [1, 1, 0, 0] with labels (0,): one distinct row in the round.
    collapse = make_dataset([(0,)] * 4 + [(1,)] * 12, 2,
                            fps=[[1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 0, 1], [1, 1, 1, 0]]
                            + [[0, 0, 0, 0]] * 12)
    cfg = ResampleConfig(method="mlsmote", p=0.5, k=3)
    out = mlsmote(collapse, cfg)
    assert out.added_count == 8  # two rounds of four
    assert {(tuple(s.fingerprint.bits.tolist()), s.labels)
            for s in out.dataset.instances[16:]} == {((1, 1, 0, 0), (0,))}
    assert out.distinct_synthetics == 1
    doc = out.diagnostics_document(cfg)
    assert doc["distinct_synthetics"] == 1
    assert mlsmote(collapse, cfg).diagnostics_document(cfg) == doc

    # Two pairs of identical rows with k=1: each seed votes with its twin,
    # so the round holds two distinct rows.
    pairs = make_dataset([(0,)] * 4 + [(1,)] * 12, 2,
                         fps=[[1, 0, 0, 0], [0, 0, 1, 1], [1, 0, 0, 0], [0, 0, 1, 1]]
                         + [[0, 0, 0, 0]] * 12)
    out = mlsmote(pairs, ResampleConfig(method="mlsmote", p=0.25, k=1))
    assert out.added_count == 4
    assert out.distinct_synthetics == 2


def test_distinct_synthetics_matches_the_written_rows():
    d = generate(SynthConfig(n_instances=300, n_labels=20, fingerprint_width=32,
                             graph_nodes_range=None, cooccurrence_boost=0.3, seed=4))
    for p in (0.1, 0.27, 1.0):  # inside one round, cutting a bag, and replaying
        out = mlsmote(d, ResampleConfig(method="mlsmote", p=p, k=3))
        rows = {(s.fingerprint.bits.tobytes(), s.labels) for s in out.dataset.instances[len(d):]}
        assert out.distinct_synthetics == len(rows)
    cfg = ResampleConfig(method="proposed", p=0.5)
    assert "distinct_synthetics" not in oversample(d, cfg).diagnostics_document(cfg)


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6), p=st.sampled_from([0.3, 1.0]))
def test_synthetics_have_the_input_width_and_sorted_labels_it_holds(seed, k, p):
    # The rows mlsmote appends are not validated, so they must hold what the
    # dataset constructor would check.
    d = random_dataset(np.random.default_rng(seed), max_instances=30, max_labels=8,
                       graph_prob=0.0, ensure_labeled=True)
    held = {l for labels in d.label_sets for l in labels}
    for row in mlsmote(d, ResampleConfig(method="mlsmote", p=p, k=k)).dataset.instances[len(d):]:
        assert row.fingerprint.width == d.fingerprint_width
        assert len(row.fingerprint.packed) == -(-d.fingerprint_width // 8)
        assert list(row.labels) == sorted(set(row.labels)) and set(row.labels) <= held


def test_replay_warning_exactly_past_one_round():
    # One minority bag of 3 members: one round is 3 seed visits.
    d = make_dataset([(0,)] * 3 + [(1,)] * 9, 2,
                     fps=[[1, 0, 1, 0], [1, 1, 1, 0], [0, 0, 1, 1]] + [[0, 0, 0, 0]] * 9)
    within = mlsmote(d, ResampleConfig(method="mlsmote", p=3 / 12, k=2))
    assert within.added_count == 3
    assert within.warnings == ()
    past = mlsmote(d, ResampleConfig(method="mlsmote", p=4 / 12, k=2))
    assert past.warnings == (
        "budget 4 exceeds one round of 3 seed visits; later synthetics repeat earlier ones",
    )
    first, replay = past.dataset.instances[12], past.dataset.instances[15]
    assert (first.id, replay.id) == ("i0::s1", "i0::s2")
    assert replay.origin == first.origin == "i0"
    assert replay.fingerprint == first.fingerprint and replay.labels == first.labels
    assert past.per_label_synthetic_counts == {0: 4}


def test_mint_skips_a_taken_serial_across_the_round_and_its_replays():
    # a and b are the minority label's bag. mlsmote at p = 1 visits a, b in
    # its round and a, b, a in the replays; proposed copies a three times.
    for tag, config in (("s", ResampleConfig(method="mlsmote", p=1.0, k=1)),
                        ("p", ResampleConfig(method="proposed", p=1.0, r=3))):
        ids = ["a", "b", f"a::{tag}2", "c", "d"]
        d = MultiLabelDataset(
            vocabulary=LabelVocabulary(("l0", "l1")),
            instances=[Instance(id=i, fingerprint=Fingerprint(np.zeros(4, dtype=np.uint8)),
                                labels=labels)
                       for i, labels in zip(ids, [(1,), (1,), (0,), (0,), (0,)])],
            fingerprint_width=4, node_feature_dim=1,
        )
        out = oversample(d, config)
        new = out.dataset.instances[len(d):]
        assert [row.id for row in new if row.origin == "a"] == [f"a::{tag}1", f"a::{tag}3",
                                                                f"a::{tag}4"]
        if tag == "s":
            assert [row.id for row in new] == ["a::s1", "b::s1", "a::s3", "b::s2", "a::s4"]
        else:
            assert out.selected_ids == ("a",)


def test_statistics_build_no_row_objects():
    from mlimb.cooccurrence import compare_snapshots, cooccurrence
    from mlimb.metrics import imbalance_report

    d = generate(SynthConfig(n_instances=300, n_labels=20, fingerprint_width=32,
                             cooccurrence_boost=0.3, seed=4))
    proposed_config = ResampleConfig(method="proposed", p=0.5, r=2)
    mlsmote_config = ResampleConfig(method="mlsmote", p=1.0, k=3)
    replaying = oversample(d, mlsmote_config)
    assert "later synthetics repeat earlier ones" in replaying.warnings[0]
    results = {"proposed": oversample(d, proposed_config).dataset, "mlsmote": replaying.dataset}
    subset = [0, 3, 7, 11]
    compare_snapshots(d, results, subset)
    for result in results.values():
        imbalance_report(result)
        cooccurrence(result, subset)
        assert "instances" not in vars(result)

    # Read now, the rows equal the eager construction through the constructor.
    visits = mlsmote_round(d, mlsmote_config)
    rows, serials = list(d.instances), {}
    for j in range(len(d)):
        seed, bits, labels, _ = visits[j % len(visits)]
        source = d.ids[seed]
        serials[source] = serials.get(source, 0) + 1
        rows.append(Instance(id=f"{source}::s{serials[source]}", labels=labels, origin=source,
                             fingerprint=Fingerprint(np.array(bits, dtype=np.uint8))))
    expected = {"proposed": d.with_instances(brute_force_proposed(d, 0.5, 2)),
                "mlsmote": d.with_instances(rows)}
    for name, result in results.items():
        assert result.ids == expected[name].ids, name
        assert [row.origin for row in result.instances] == \
            [row.origin for row in expected[name].instances], name
        assert result.instances == expected[name].instances, name
        assert result == expected[name], name


def assert_round_matches_oracle(dataset, config):
    """mlsmote's synthetics, their distinct count and the per-label counts
    against the per-bag round of ``tests.reference``, replays included."""
    out = mlsmote(dataset, config)
    visits = mlsmote_round(dataset, config)
    table = irlbl(label_counts(dataset))
    minority = minority_labels(table, mean_ir(table))
    n = len(dataset)
    synthetics = out.dataset.instances[n:]
    assert len(synthetics) == (math.floor(config.p * n) if visits else 0)
    expected_counts = dict.fromkeys(minority, 0)
    for j, row in enumerate(synthetics):
        seed, bits, labels, label = visits[j % len(visits)]
        assert row.origin == dataset.ids[seed], j
        assert tuple(row.fingerprint.bits.tolist()) == bits, j
        assert row.labels == labels, j
        expected_counts[label] += 1
    assert out.distinct_synthetics == len({(bits, labels) for _, bits, labels, _ in visits})
    assert out.per_label_synthetic_counts == expected_counts
    return visits


@st.composite
def small_corpora(draw):
    # Each label holds a drawn number of distinct rows, at least n // 6: the
    # minority labels are those below the harmonic mean count, so no single
    # near-empty label makes every other bag a majority bag.
    n = draw(st.integers(min_value=2, max_value=40))
    n_labels = draw(st.integers(min_value=2, max_value=8))
    width = draw(st.integers(min_value=1, max_value=8))  # narrow rows: ties and duplicates
    label_sets = [[] for _ in range(n)]
    for label in range(n_labels):
        size = draw(st.integers(min_value=max(1, n // 6), max_value=n))
        for row in draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)):
            label_sets[row].append(label)
    fps = draw(st.lists(st.lists(st.integers(0, 1), min_size=width, max_size=width),
                        min_size=n, max_size=n))
    return make_dataset(label_sets, n_labels, fps=fps)


def four_bag_corpus():
    """30 rows whose minority bags, in visiting order, hold 3, 5, 6 and 6
    rows (labels 1-4); labels 0, 5 and 6 are majority labels."""
    rng = np.random.default_rng(16)
    label_sets = [[0] for _ in range(30)]
    for label, size in ((1, 3), (2, 5), (3, 6), (4, 6), (5, 28), (6, 28)):
        for row in rng.choice(30, size, replace=False):
            label_sets[row].append(int(label))
    return make_dataset([sorted(s) for s in label_sets], 7,
                        fps=rng.integers(0, 2, size=(30, 4)).tolist())


@settings(max_examples=150, deadline=None)
# With k = 3, blocks of 8 visits and distance blocks of 2 rows: the 3-row
# bag (fewer than k + 1 rows) shares a block with the 5-row bag, the 6-row
# bags make a second block, and the budget of 16 ends inside the last bag.
@example(dataset=four_bag_corpus(), k=3, budget_share=Fraction(16, 30), block_rows=2,
         block_visits=8)
@given(
    dataset=small_corpora(),
    k=st.integers(min_value=1, max_value=12),
    budget_share=st.fractions(min_value=0, max_value=1),
    block_rows=st.integers(min_value=1, max_value=6),
    block_visits=st.integers(min_value=1, max_value=24),
)
def test_blocked_round_matches_per_bag_oracle(dataset, k, budget_share, block_rows, block_visits):
    # Shrunk block sizes put bags larger than a distance block, rounds over
    # several blocks of whole bags, and bags of fewer than k + 1 rows beside
    # larger ones into small corpora; the budget ends anywhere, mid-bag too.
    # The full-size test below checks the same cases at the real sizes.
    budget = max(1, math.floor(budget_share * len(dataset)))
    config = ResampleConfig(method="mlsmote", p=budget / len(dataset), k=k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resampling, "_BLOCK_ROWS", block_rows)
        patch.setattr(resampling, "_BLOCK_VISITS", block_visits)
        out = mlsmote(dataset, config)
    expected = mlsmote(dataset, config)
    assert out.dataset == expected.dataset
    assert out.diagnostics_document(config) == expected.diagnostics_document(config)
    assert_round_matches_oracle(dataset, config)


def test_blocked_round_matches_per_bag_oracle_at_full_block_sizes():
    # Minority bags of 150, 250, 450 and 500 rows, visited in that order:
    # with k = 200 the 150-row bag has fewer than k + 1 rows and shares its
    # block with the 250- and 450-row bags, the 500-row bag makes a second
    # block, and both large bags span two distance blocks.
    rng = np.random.default_rng(8)
    n = 4000
    label_sets = [{0} for _ in range(n)]
    for label in range(5, 10):
        for row in rng.choice(n, 3600, replace=False):
            label_sets[row].add(label)
    for label, size in zip((1, 2, 3, 4), (150, 250, 450, 500)):
        for row in rng.choice(n, size, replace=False):
            label_sets[row].add(label)
    fps = rng.integers(0, 2, size=(n, 16)).tolist()
    d = make_dataset([sorted(s) for s in label_sets], 10, fps=fps)
    table = irlbl(label_counts(d))
    assert minority_labels(table, mean_ir(table)) == {1, 2, 3, 4}
    assert 500 > 450 > _BLOCK_ROWS and 150 + 250 + 450 <= _BLOCK_VISITS < 150 + 250 + 450 + 500
    mid_bag = 150 + 250 + 100
    visits = assert_round_matches_oracle(d, ResampleConfig(method="mlsmote", p=mid_bag / n, k=200))
    assert len(visits) == mid_bag
    visits = assert_round_matches_oracle(d, ResampleConfig(method="mlsmote", p=1.0, k=200))
    assert len(visits) == 1350


def test_synthetics_own_their_bits():
    # A synthetic's fingerprint is a row of its own, so the outcome keeps no
    # block of votes alive.
    d = generate(SynthConfig(n_instances=300, n_labels=20, fingerprint_width=32,
                             graph_nodes_range=None, cooccurrence_boost=0.3, seed=4))
    out = mlsmote(d, ResampleConfig(method="mlsmote", p=1.0, k=3))
    synthetics = out.dataset.instances[len(d):]
    assert synthetics
    assert all(row.fingerprint.bits.base is None for row in synthetics)
    assert all(type(row.fingerprint.packed) is bytes and len(row.fingerprint.packed) == 4
               for row in synthetics)


@pytest.mark.parametrize("width", [1, 13, 32, 2048])
def test_generated_parsed_and_synthesized_fingerprints_are_held_packed(width):
    d = generate(SynthConfig(n_instances=120, n_labels=6, fingerprint_width=width,
                             signal_bits_per_label=int(width >= 6), noise_flip_prob=0.2,
                             graph_nodes_range=None, cooccurrence_boost=0.3, seed=2))
    text = io.StringIO()
    write_dataset(d, text)
    parsed = parse_dataset(text.getvalue(), format_vocabulary(d.vocabulary))
    made = mlsmote(d, ResampleConfig(method="mlsmote", p=1.0, k=3)).dataset.instances[len(d):]
    assert made
    for rows in (d.instances, parsed.instances, made):
        for row in rows:
            assert type(row.fingerprint.packed) is bytes
            assert len(row.fingerprint.packed) == -(-width // 8)
            assert row.fingerprint.width == width


def test_mlsmote_output_pinned_across_rounds():
    # Budget 300 over rounds of 82 seed visits; the digest was recorded from
    # the implementation that recomputed every round's neighbors and votes.
    d = generate(SynthConfig(n_instances=300, n_labels=20, fingerprint_width=32,
                             graph_nodes_range=None, cooccurrence_boost=0.3, seed=4))
    out = mlsmote(d, ResampleConfig(method="mlsmote", p=1.0, k=3))
    assert out.added_count == 300
    assert "one round of 82 seed visits" in out.warnings[0]
    buffer = io.StringIO()
    write_dataset(out.dataset, buffer)
    digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    assert digest == "182ab9cab08c9d74bcd4fa922a19438c62a063155b5740368310eba8442e58f1"


def test_no_minority_labels_warns_unchanged():
    d = make_dataset([(0,), (1,)], 2)
    out = mlsmote(d, ResampleConfig(method="mlsmote", p=0.5, k=2))
    assert out.added_count == 0
    assert any("minority" in w for w in out.warnings)


@pytest.mark.parametrize("method, label_sets, p, reason", [
    ("proposed", [(), ()], 1.0, "no labeled instances"),
    ("mlsmote", [(), ()], 1.0, "no labeled instances"),
    ("mlsmote", [(0,), (1,)], 0.5, "no minority labels"),
    ("proposed", [(0,), (1,)], 0.0, "selection count"),
    ("mlsmote", [(0,), (0,), (0,), (1,)], 0.0, "synthesis budget"),
])
def test_a_method_that_adds_nothing_returns_its_input(method, label_sets, p, reason):
    d = make_dataset(label_sets, 2)
    outcome = oversample(d, ResampleConfig(method=method, p=p, r=2, k=2))
    assert outcome.dataset is d
    assert outcome.added_count == 0
    assert outcome.warnings[0].startswith(reason)
    assert outcome.warnings[0].endswith("dataset returned unchanged")


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
