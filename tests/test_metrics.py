"""Imbalance statistics against hand oracles and algebraic invariants."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlimb.data import Fingerprint, Instance, LabelVocabulary, MultiLabelDataset, split_dataset
from mlimb.evaluation import scatter_csv
from mlimb.metrics import (
    cardinality,
    imbalance_report,
    irlbl,
    label_counts,
    mean_ir,
    positive_pair_count,
    profile_csv,
    scumble_instance,
    scumble_label,
)
from mlimb.metrics import _exact_sums, _set_scores
from mlimb.resampling import ResampleConfig, oversample
from mlimb.synth import SynthConfig, generate
from tests.conftest import random_dataset
from tests.reference import _repeated_mean, _set_scumble


def dataset_from_label_sets(label_sets, n_labels):
    vocab = LabelVocabulary(tuple(f"l{j}" for j in range(n_labels)))
    instances = [
        Instance(id=f"i{i}", fingerprint=Fingerprint(np.zeros(4, dtype=np.uint8)),
                 labels=tuple(labels))
        for i, labels in enumerate(label_sets)
    ]
    return MultiLabelDataset(vocabulary=vocab, instances=instances,
                             fingerprint_width=4, node_feature_dim=1)


# The 7-instance fixture with label multiset {a:4, b:2, c:1}.
SEVEN = dataset_from_label_sets(
    [(0,), (0, 1), (0,), (0, 1, 2), (), (), ()], 3
)


def test_label_counts_hand_case():
    assert label_counts(SEVEN).tolist() == [4, 2, 1]


def test_label_counts_empty_dataset_all_zero():
    empty = dataset_from_label_sets([], 3)
    assert label_counts(empty).tolist() == [0, 0, 0]


def test_counts_sum_equals_pair_count():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = random_dataset(rng)
        assert int(label_counts(d).sum()) == positive_pair_count(d)


def test_irlbl_hand_case():
    assert irlbl(np.array([4, 2, 1])).tolist() == [1.0, 2.0, 4.0]


def test_irlbl_uniform():
    assert irlbl(np.array([5, 5, 5])).tolist() == [1.0, 1.0, 1.0]
    assert mean_ir(irlbl(np.array([5, 5, 5]))) == 1.0


def test_irlbl_zero_count_is_nan_and_excluded():
    table = irlbl(np.array([4, 0, 2]))
    assert math.isnan(table[1])
    assert mean_ir(table) == (1.0 + 2.0) / 2


def test_irlbl_all_zero_raises():
    with pytest.raises(ValueError):
        irlbl(np.array([0, 0]))


def test_mean_ir_hand_case():
    assert mean_ir(irlbl(np.array([4, 2, 1]))) == pytest.approx(7 / 3, abs=0)


def test_cardinality_cases():
    assert cardinality(dataset_from_label_sets([(0,), (1,)], 2)) == 1.0
    assert cardinality(dataset_from_label_sets([(), (0,), (1,), (0, 1)], 2)) == 1.0
    with pytest.raises(ValueError):
        cardinality(dataset_from_label_sets([], 2))


def test_scumble_single_label_is_zero():
    table = irlbl(np.array([4, 2, 1]))
    assert scumble_instance(SEVEN.instances[0], table) == 0.0


def test_scumble_hand_case():
    # Active IRLbl values (1, 4): GM 2, AM 2.5 -> 0.2.
    d = dataset_from_label_sets([(0, 1), (0,), (0,), (0,)], 2)
    table = irlbl(label_counts(d))
    assert table.tolist() == [1.0, 4.0]
    assert scumble_instance(d.instances[0], table) == pytest.approx(0.2, abs=1e-15)


def test_scumble_equal_irlbl_is_exactly_zero():
    d = dataset_from_label_sets([(0, 1), (0, 1), (0, 1)], 2)
    table = irlbl(label_counts(d))
    assert scumble_instance(d.instances[0], table) == 0.0


def test_scumble_label_mean_and_absent_label():
    d = dataset_from_label_sets([(0, 1), (0,), (0,), (0,)], 2)
    table = irlbl(label_counts(d))
    # Label 0 appears in four instances with SCUMBLEs (0.2, 0, 0, 0).
    assert scumble_label(d, table, 0) == pytest.approx(0.05, abs=1e-15)
    assert scumble_label(d, table, 1) == pytest.approx(0.2, abs=1e-15)
    d2 = dataset_from_label_sets([(0,), (0,)], 2)
    assert scumble_label(d2, irlbl(label_counts(d2)), 1) == 0.0


def test_scumble_huge_irlbl_no_overflow():
    # Log-space geometric mean must survive IRLbl in the thousands.
    counts = np.array([100000, 1])
    table = irlbl(counts)
    inst = Instance(id="x", fingerprint=Fingerprint(np.zeros(2, dtype=np.uint8)), labels=(0, 1))
    value = scumble_instance(inst, table)
    expected = 1.0 - math.sqrt(1.0 * 100000.0) / ((1.0 + 100000.0) / 2.0)
    assert value == pytest.approx(expected, rel=1e-12)
    assert 0.0 <= value < 1.0


def test_report_seven_instance_fixture():
    report = imbalance_report(SEVEN)
    assert report.instance_count == 7
    assert report.label_counts == (4, 2, 1)
    assert report.irlbl == (1.0, 2.0, 4.0)
    assert report.mean_ir == pytest.approx(7 / 3, abs=0)
    assert report.positive_pairs == 7
    assert report.card == 1.0
    profile = report.sample_percent_profile
    assert profile == tuple(sorted(profile, reverse=True))
    assert profile[0] == pytest.approx(100 * 4 / 7)


def test_report_singleton():
    report = imbalance_report(dataset_from_label_sets([(0,)], 1))
    assert report.card == 1.0
    assert report.mean_ir == 1.0
    assert report.scumble_mean == 0.0


def test_report_deterministic():
    a = imbalance_report(SEVEN)
    b = imbalance_report(SEVEN)
    assert a == b


def test_report_json_and_profile_csv():
    report = imbalance_report(SEVEN)
    doc = report.to_json(("a", "b", "c"))
    assert '"label_names":["a","b","c"]' in doc
    csv_text = profile_csv(report)
    lines = csv_text.splitlines()
    assert lines[0] == "rank,percent"
    assert len(lines) == 4


@pytest.mark.parametrize("writer", ["profile", "scatter"])
def test_two_column_csv_matches_the_csv_module(writer):
    # Ints and float reprs never need quoting, so joining them with commas
    # gives the csv module's bytes.
    values = [math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16]
    if writer == "profile":
        report = dataclasses.replace(imbalance_report(SEVEN), sample_percent_profile=tuple(values))
        text = profile_csv(report)
        rows = [["rank", "percent"]] + [[rank, repr(v)] for rank, v in enumerate(values, start=1)]
    else:
        text = scatter_csv(np.array(values[::-1]), np.array(values))
        rows = [["target", "prediction"]] + [[repr(t), repr(p)] for t, p in zip(values, values[::-1])]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert text == buf.getvalue()


def test_report_empty_dataset_raises():
    with pytest.raises(ValueError):
        imbalance_report(dataset_from_label_sets([], 2))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def duplicate(dataset):
    doubled = list(dataset.instances) + [
        Instance(id=inst.id + "+copy", fingerprint=inst.fingerprint, labels=inst.labels,
                 graph=inst.graph, regression_targets=inst.regression_targets,
                 origin=inst.origin)
        for inst in dataset.instances
    ]
    return dataset.with_instances(doubled)


def check_invariants(dataset):
    report = imbalance_report(dataset)
    counts = np.array(report.label_counts)
    table = np.array(report.irlbl)
    peak = counts.max()
    for l in range(dataset.label_count):
        if counts[l] == 0:
            assert math.isnan(table[l])
        else:
            assert table[l] >= 1.0
            assert (table[l] == 1.0) == (counts[l] == peak)
    assert report.mean_ir >= 1.0
    for inst in dataset.instances:
        v = scumble_instance(inst, table)
        assert 0.0 <= v < 1.0
        if len(inst.labels) <= 1:
            assert v == 0.0
    # Exact integer bookkeeping: the float product card*|D| cannot be trusted
    # in IEEE arithmetic, the integer field can.
    assert report.positive_pairs == sum(len(i.labels) for i in dataset.instances)
    assert report.card == report.positive_pairs / report.instance_count
    return report


def test_invariants_and_duplication_exactness():
    rng = np.random.default_rng(77)
    for _ in range(60):
        d = random_dataset(rng, ensure_labeled=True)
        r1 = check_invariants(d)
        r2 = check_invariants(duplicate(d))
        assert np.array_equal(r2.irlbl, r1.irlbl, equal_nan=True)
        assert r2.mean_ir == r1.mean_ir
        assert r2.card == r1.card
        assert r2.scumble_per_label == r1.scumble_per_label
        assert r2.scumble_mean == r1.scumble_mean
        assert r2.sample_percent_profile == r1.sample_percent_profile


def test_card_times_size_float_product_is_why_integer_field_exists():
    # 29/7 is a witness: fl(29/7)*7 != 29, so the report must carry the
    # integer pair count for the bookkeeping identity to be exact.
    assert (29 / 7) * 7 != 29
    d = dataset_from_label_sets([(0, 1, 2, 3, 4)] * 4 + [(0, 1, 2)] * 3, 5)
    report = imbalance_report(d)
    assert report.positive_pairs == 29
    assert report.instance_count == 7


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=5), max_size=5).map(
            lambda raw: tuple(sorted(set(raw)))
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=120, deadline=None)
def test_scumble_bounds_property(label_sets):
    if not any(label_sets):
        return
    d = dataset_from_label_sets(label_sets, 6)
    table = irlbl(label_counts(d))
    for inst in d.instances:
        v = scumble_instance(inst, table)
        assert 0.0 <= v < 1.0


def test_permuting_instances_keeps_card():
    rng = np.random.default_rng(9)
    d = random_dataset(rng, ensure_labeled=True)
    perm = rng.permutation(len(d))
    shuffled = d.with_instances([d.instances[i] for i in perm])
    assert cardinality(shuffled) == cardinality(d)


# ---------------------------------------------------------------------------
# Grouping by label set against a per-instance reference
# ---------------------------------------------------------------------------

def per_instance_report(dataset):
    """SCUMBLE statistics the plain way: score every instance with the fsum
    oracle, sum its list."""
    table = irlbl(label_counts(dataset)).tolist()
    scores = [_set_scumble(inst.labels, table) for inst in dataset.instances]
    per_label = [[] for _ in range(dataset.label_count)]
    for inst, score in zip(dataset.instances, scores):
        for l in inst.labels:
            per_label[l].append(score)
    return (
        tuple(math.fsum(v) / len(v) if v else 0.0 for v in per_label),
        math.fsum(scores) / len(scores),
    )


def repeated_label_set_datasets():
    """Datasets where most label sets repeat: oversampled outputs and a
    duplicated random dataset."""
    rng = np.random.default_rng(12)
    base = generate(SynthConfig(n_instances=500, n_labels=15, fingerprint_width=16,
                                graph_nodes_range=None, cooccurrence_boost=0.4, seed=6))
    yield base
    for method in ("proposed", "mlsmote"):
        yield oversample(base, ResampleConfig(method=method, p=1.0, r=4, k=3)).dataset
    for _ in range(10):
        d = random_dataset(rng, max_labels=6, ensure_labeled=True, graph_prob=0.0)
        yield d.with_instances(d.instances + [
            Instance(id=f"{inst.id}+{j}", fingerprint=inst.fingerprint, labels=inst.labels)
            for j in range(3) for inst in d.instances
        ])


def test_grouped_scumble_equals_per_instance_reference():
    for d in repeated_label_set_datasets():
        assert len({inst.labels for inst in d.instances}) < len(d)
        per_label, mean = per_instance_report(d)
        report = imbalance_report(d)
        assert report.scumble_per_label == per_label
        assert report.scumble_mean == mean
        table = np.array(report.irlbl)
        # The fsum oracle grouped by label set: each distinct set's score
        # repeated by its multiplicity.
        set_scores = [_set_scumble(s, report.irlbl) for s in d.label_sets]
        multiplicities = d.set_counts.tolist()
        assert _repeated_mean(set_scores, multiplicities, len(d)) == mean
        for l in range(d.label_count):
            held = [i for i, s in enumerate(d.label_sets) if l in s]
            assert scumble_label(d, table, l) == per_label[l]
            if held:
                assert _repeated_mean([set_scores[i] for i in held],
                                      [multiplicities[i] for i in held],
                                      report.label_counts[l]) == per_label[l]


def test_undefined_irlbl_names_the_first_offending_instance():
    d = dataset_from_label_sets([(0,), (1, 2), (0, 2), (1, 2), (0, 2)], 3)
    table = np.array([1.0, 2.0, np.nan])
    with pytest.raises(ValueError, match="'i1'"):
        scumble_label(d, table, 2)
    with pytest.raises(ValueError, match="'i2'"):
        scumble_label(d, table, 0)
    # A lone label scores 0 before its IRLbl is looked at, as per instance.
    lone = dataset_from_label_sets([(2,), (0, 1)], 3)
    assert scumble_label(lone, table, 2) == 0.0


def test_undefined_irlbl_names_the_first_offending_instance_after_a_split():
    # Seed 5 keeps i0, i2, i3 and i5, so (0, 2) now appears before (1, 2).
    d = dataset_from_label_sets([(0,), (1, 2), (0, 2), (1, 2), (0, 2), (0,)], 3)
    train, test = split_dataset(d, 0.34, seed=5)
    assert train.ids == ("i0", "i2", "i3", "i5")
    assert train.label_sets == ((0,), (0, 2), (1, 2))
    table = np.array([1.0, 2.0, np.nan])
    with pytest.raises(ValueError, match="'i2'"):
        scumble_label(train, table, 2)
    with pytest.raises(ValueError, match="'i1'"):
        scumble_label(test, table, 2)


# ---------------------------------------------------------------------------
# The IRLbl table's domain
# ---------------------------------------------------------------------------

TWO_LABELS = dataset_from_label_sets([(0, 1), (0,)], 2)
PAIR = Instance(id="x", fingerprint=Fingerprint(np.zeros(2, dtype=np.uint8)), labels=(0, 1))


@pytest.mark.parametrize("table, message", [
    ([1.0, math.inf], r"^IRLbl of label 1 is inf, outside \[1, 2\*\*53\]$"),
    ([1.0, -math.inf], r"^IRLbl of label 1 is -inf, outside \[1, 2\*\*53\]$"),
    ([1.0, 0.0], r"^IRLbl of label 1 is 0.0, outside \[1, 2\*\*53\]$"),
    ([1.0, -2.0], r"^IRLbl of label 1 is -2.0, outside \[1, 2\*\*53\]$"),
    ([1.0, 1e300], r"^IRLbl of label 1 is 1e\+300, outside \[1, 2\*\*53\]$"),
    ([1.0, 2.0 ** 53 + 2], r"^IRLbl of label 1 is 9007199254740994.0, outside"),
], ids=["inf", "-inf", "zero", "negative", "1e300", "past-2**53"])
@pytest.mark.parametrize("scorer", ["scumble_instance", "scumble_label"])
def test_scumble_refuses_a_table_outside_the_irlbl_domain(scorer, table, message):
    with pytest.raises(ValueError, match=message):
        if scorer == "scumble_instance":
            scumble_instance(PAIR, np.array(table))
        else:
            scumble_label(TWO_LABELS, np.array(table), 0)


def test_scumble_refuses_a_table_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"^IRLbl table has 1 entries; instance 'x' holds label 1$"):
        scumble_instance(PAIR, np.array([1.0]))
    with pytest.raises(ValueError, match=r"^IRLbl table has 1 entries for 2 labels$"):
        scumble_label(TWO_LABELS, np.array([1.0]), 0)
    with pytest.raises(ValueError, match=r"^IRLbl table has 3 entries for 2 labels$"):
        scumble_label(TWO_LABELS, np.array([1.0, 2.0, 3.0]), 0)


def test_scumble_accepts_the_ends_of_the_domain_and_keeps_nan_undefined():
    ends = np.array([1.0, 2.0 ** 53])
    assert scumble_instance(PAIR, ends) == _set_scumble((0, 1), ends.tolist())
    assert scumble_label(TWO_LABELS, ends, 1) == _set_scumble((0, 1), ends.tolist())
    with pytest.raises(ValueError, match="'x' has an active label with undefined IRLbl"):
        scumble_instance(PAIR, np.array([1.0, math.nan]))
    with pytest.raises(ValueError, match="'i0' has an active label with undefined IRLbl"):
        scumble_label(TWO_LABELS, np.array([1.0, math.nan]), 0)


# ---------------------------------------------------------------------------
# The exact integer sums against the fsum oracle and Python integers
# ---------------------------------------------------------------------------

IRLBL_VALUES = st.one_of(
    st.sampled_from([1.0, 1.0 + 2.0 ** -52, 2.0, 2.0 ** 53 - 1, 2.0 ** 53]),
    st.floats(min_value=1.0, max_value=2.0 ** 53),
    st.integers(min_value=1, max_value=10 ** 6).map(float),
)


def members(label_sets):
    owners = np.repeat(np.arange(len(label_sets)), [len(s) for s in label_sets])
    labels = np.array([l for s in label_sets for l in s], dtype=np.intp)
    return owners, labels


@given(st.lists(IRLBL_VALUES, min_size=1, max_size=12),
       st.lists(st.lists(st.integers(min_value=0, max_value=11), max_size=12),
                min_size=1, max_size=6))
@example([1.0 + 2.0 ** -52, 2.0 ** 53], [[0, 1], [1], [], [0]])
@example([1.0 + 2.0 ** -52, 2.0 ** 53, 1.0, 3.0], [[0, 1, 2, 3], [0, 2], [1, 3]])
@settings(max_examples=300, deadline=None)
def test_set_scores_equal_the_fsum_oracle_bit_for_bit(values, raw_sets):
    label_sets = [tuple(sorted({l % len(values) for l in s})) for s in raw_sets]
    scores, broken = _set_scores(np.array(values), *members(label_sets), len(label_sets))
    assert not broken.any()
    assert scores.tolist() == [_set_scumble(s, values) for s in label_sets]


@given(st.lists(IRLBL_VALUES, min_size=1, max_size=6), st.integers(min_value=0, max_value=2**32 - 1))
@example([1.0 + 2.0 ** -52, 2.0 ** 53], 0)
@settings(max_examples=25, deadline=None)
def test_a_set_of_every_label_of_a_4096_label_vocabulary(draws, seed):
    table = np.random.default_rng(seed).choice(np.array(draws), size=4096)
    everything = Instance(id="all", fingerprint=Fingerprint(np.zeros(2, dtype=np.uint8)),
                          labels=tuple(range(4096)))
    assert scumble_instance(everything, table) == _set_scumble(everything.labels, table.tolist())


SUMMANDS = st.one_of(
    IRLBL_VALUES,
    IRLBL_VALUES.map(math.log),
    # SCUMBLE scores: [0, 1] on the 2**-53 grid.
    st.integers(min_value=0, max_value=2 ** 53).map(lambda k: k * 2.0 ** -53),
)


@given(st.lists(st.tuples(SUMMANDS, st.integers(min_value=0, max_value=2 ** 31),
                          st.integers(min_value=0, max_value=3)), min_size=1, max_size=40))
@example([(2.0 ** 53, 1, 0), (1.0, 1, 0), (2.0 ** -60, 1, 0)])
@example([(2.0 ** 53, 1, 0), (1.0, 1, 0)])
@settings(max_examples=300, deadline=None)
def test_weighted_sums_are_the_correctly_rounded_exact_sums(items):
    values, weights, groups = (list(column) for column in zip(*items))
    got = _exact_sums(np.array(values), np.arange(len(values)), np.array(groups, dtype=np.intp),
                      4, np.array(weights, dtype=np.int64))
    # Every float is an integer number of 2**-1074; Python's int division
    # rounds the exact quotient once.
    scale = 2 ** 1074
    for g in range(4):
        exact = sum(w * (n * (scale // d)) for (n, d), w, h in
                    zip(map(float.as_integer_ratio, values), weights, groups) if h == g)
        assert got[g] == exact / scale
