"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run `pytest -s tests/test_acceptance.py` to watch the lines appear, or rely
on the -rA summary of a plain `pytest` run. Numbers 01-10 index the
guarantees; every test prints `ACCEPTANCE nn [pass|fail] detail` before
asserting.
"""

import gc
import io
import math
import statistics
import time

import numpy as np

from mlimb.data import (
    Fingerprint,
    Instance,
    MolecularGraph,
    format_vocabulary,
    parse_dataset,
    split_dataset,
    write_dataset,
)
from mlimb.evaluation import evaluate_multilabel
from mlimb.metrics import (
    cardinality,
    imbalance_report,
    irlbl,
    label_counts,
    mean_ir,
    scumble_instance,
)
from mlimb.network import (
    NetworkConfig,
    TrainConfig,
    build_batch,
    init_parameters,
    label_matrix,
    loss_and_gradients,
    predict,
    train,
)
from mlimb.resampling import ResampleConfig, oversample, oversample_proposed
from mlimb.synth import SynthConfig, generate
from tests.conftest import random_dataset
from tests.test_cli import run as run_cli
from tests.test_data import roundtrip
from tests.test_network import max_relative_error, numerical_gradients
from tests.test_resampling import brute_force_proposed, make_dataset


def check(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{'pass' if ok else 'fail'}] {detail}")
    assert ok, f"acceptance {num:02d}: {detail}"


# ---------------------------------------------------------------------------
# 01: replication oversampler equals a brute-force reference
# ---------------------------------------------------------------------------

def test_01_oversampler_matches_brute_force_reference():
    rng = np.random.default_rng(20260823)
    mismatches = 0
    t0 = time.perf_counter()
    for _ in range(200):
        d = random_dataset(rng, max_instances=50, max_labels=20, ensure_labeled=True)
        p = float(rng.choice([0.1, 0.25, 0.5, 0.75, 1.0]))
        r = int(rng.integers(1, 4))
        got = oversample_proposed(d, ResampleConfig(method="proposed", p=p, r=r))
        if got.dataset.instances != brute_force_proposed(d, p, r):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    check(1, mismatches == 0 and elapsed < 10.0,
          f"oversampler identical to brute-force reference on {200 - mismatches}/200 "
          f"random datasets in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 02: imbalance metric invariants
# ---------------------------------------------------------------------------

def test_02_metric_invariants_over_random_datasets():
    rng = np.random.default_rng(31415)
    violations = 0
    for _ in range(500):
        d = random_dataset(rng, max_instances=30, max_labels=12, ensure_labeled=True)
        counts = label_counts(d)
        table = irlbl(counts)
        defined = ~np.isnan(table)
        modal = int(counts.argmax())
        if not (table[defined] >= 1.0).all() or table[modal] != 1.0:
            violations += 1
        if mean_ir(table) < 1.0:
            violations += 1
        rep = imbalance_report(d)
        scumbles = [scumble_instance(inst, table) for inst in d.instances]
        if any(not (0.0 <= s < 1.0) for s in scumbles):
            violations += 1
        if any(s != 0.0 for inst, s in zip(d.instances, scumbles) if len(inst.labels) <= 1):
            violations += 1
        if rep.positive_pairs != sum(len(i.labels) for i in d.instances):
            violations += 1
        if rep.card != rep.positive_pairs / len(d):
            violations += 1
        doubled = d.with_instances(
            list(d.instances)
            + [Instance(id=inst.id + "::p1", fingerprint=inst.fingerprint,
                        labels=inst.labels, graph=inst.graph,
                        regression_targets=inst.regression_targets, origin=inst.id)
               for inst in d.instances]
        )
        rep2 = imbalance_report(doubled)
        same = (
            np.array_equal(rep2.irlbl, rep.irlbl, equal_nan=True)
            and rep2.mean_ir == rep.mean_ir
            and rep2.card == rep.card
            and rep2.scumble_mean == rep.scumble_mean
            and rep2.sample_percent_profile == rep.sample_percent_profile
        )
        if not same:
            violations += 1
    # The all-equal-ratio zero case of the concurrence score.
    uniform = make_dataset([(0, 1, 2)] * 4, 3)
    if imbalance_report(uniform).scumble_mean != 0.0:
        violations += 1
    check(2, violations == 0,
          f"metric invariants held on 500 random datasets ({violations} violations)")


# ---------------------------------------------------------------------------
# 03: size and cardinality bookkeeping
# ---------------------------------------------------------------------------

def test_03_size_and_cardinality_bookkeeping():
    rng = np.random.default_rng(2718)
    bad = 0
    worst = 0.0
    for _ in range(60):
        d = random_dataset(rng, max_instances=40, max_labels=10, ensure_labeled=True)
        p = float(rng.uniform(0.0, 1.0))
        r = int(rng.integers(1, 5))
        out = oversample_proposed(d, ResampleConfig(method="proposed", p=p, r=r))
        n = len(d)
        s = math.floor((p / r) * n)
        shortfall = any("scorable" in w for w in out.warnings)
        expected_n = n + (out.added_count if shortfall else s * r)
        if len(out.dataset) != expected_n:
            bad += 1
        added_pairs = sum(len(i.labels) for i in out.dataset.instances[n:])
        closed_form = (n * cardinality(d) + added_pairs) / len(out.dataset)
        err = abs(cardinality(out.dataset) - closed_form)
        worst = max(worst, err)
        if err > 1e-12:
            bad += 1
    spot = oversample_proposed(
        make_dataset([(0,)] * 5 + [(1,)] * 2 + [(2,)], 3),
        ResampleConfig(method="proposed", p=0.25, r=2),
    )
    if len(spot.dataset) != 10:
        bad += 1
    check(3, bad == 0,
          f"size formula and cardinality identity held on 60 random (p, r) draws "
          f"(worst error {worst:.2e}); 8-instance spot case gives {len(spot.dataset)}")


# ---------------------------------------------------------------------------
# 04: directional rebalancing on the large skewed corpus
# ---------------------------------------------------------------------------

def test_04_directional_rebalancing_at_scale():
    d = generate(SynthConfig(n_instances=10_000, n_labels=2000, zipf_exponent=1.1,
                             target_card=3.0, fingerprint_width=128,
                             signal_bits_per_label=0, noise_flip_prob=0.01,
                             graph_nodes_range=None, cooccurrence_boost=0.3,
                             seed=404))
    before = imbalance_report(d)
    prop = oversample(d, ResampleConfig(method="proposed", p=0.25, r=2))
    mls = oversample(d, ResampleConfig(method="mlsmote", p=0.25, k=5, seed=0))
    after_prop = imbalance_report(prop.dataset)
    after_mls = imbalance_report(mls.dataset)
    originals_untouched = (
        prop.dataset.instances[: len(d)] == d.instances
        and mls.dataset.instances[: len(d)] == d.instances
    )
    ok = (
        after_prop.mean_ir < before.mean_ir
        and after_mls.card < before.card
        and originals_untouched
    )
    check(4, ok,
          f"on 10k x 2000 skewed data: replication drops MeanIR "
          f"{before.mean_ir:.1f} -> {after_prop.mean_ir:.1f}, neighbor synthesis drops "
          f"Card {before.card:.4f} -> {after_mls.card:.4f}, originals untouched")


# ---------------------------------------------------------------------------
# 05: near-linear scaling of replication vs quadratic neighbor synthesis
# ---------------------------------------------------------------------------

def test_05_scaling_from_10k_to_40k():
    t_start = time.perf_counter()

    def dataset(n):
        return generate(SynthConfig(n_instances=n, n_labels=12, zipf_exponent=1.1,
                                    target_card=2.0, fingerprint_width=256,
                                    signal_bits_per_label=0, noise_flip_prob=0.01,
                                    graph_nodes_range=None, seed=777))

    small, large = dataset(10_000), dataset(40_000)
    prop_cfg = ResampleConfig(method="proposed", p=0.25, r=2)
    mls_cfg = ResampleConfig(method="mlsmote", p=0.25, k=5, seed=0)

    def median_time(ds, cfg):
        oversample(ds, cfg)  # warmup
        times = []
        for _ in range(3):
            # Collect leftovers from the previous run so its garbage does not
            # bill a pause to this one; each run still pays for its own.
            gc.collect()
            t0 = time.perf_counter()
            oversample(ds, cfg)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    prop_ratio = median_time(large, prop_cfg) / median_time(small, prop_cfg)
    mls_ratio = median_time(large, mls_cfg) / median_time(small, mls_cfg)
    elapsed = time.perf_counter() - t_start
    ok = prop_ratio <= 5.0 and mls_ratio >= 8.0 and elapsed < 300.0
    check(5, ok,
          f"10k->40k wall-time grows {prop_ratio:.1f}x for replication (<= 5x) vs "
          f"{mls_ratio:.1f}x for neighbor synthesis (>= 8x), measured in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 06: analytic gradients match finite differences everywhere
# ---------------------------------------------------------------------------

def test_06_gradient_sweep_both_heads_all_readouts():
    rng = np.random.default_rng(606)

    def six_node_graph():
        feats = rng.normal(size=(6, 4))
        edges = [(int(rng.integers(v)), v) for v in range(1, 6)]
        edges.append((0, 5))
        return MolecularGraph(node_features=feats, edges=tuple(edges))

    worst = 0.0
    components = 0
    failures = 0
    for head, task in (("sigmoid_multilabel", "multilabel"),
                       ("linear_regression", "multiregression")):
        for readout_mode in ("max_plus_mean", "max_plus_min", "concat_mean_max"):
            cfg = NetworkConfig(node_feature_dim=4, fingerprint_width=16,
                                output_dim=3, hidden_dims=(5, 4), fuse_dim=3,
                                readout_mode=readout_mode, head_mode=head)
            params = init_parameters(cfg, rng)
            instances = [
                Instance(id=f"t{i}",
                         fingerprint=Fingerprint(rng.integers(0, 2, 16).astype(np.uint8)),
                         labels=(), graph=six_node_graph())
                for i in range(3)
            ]
            batch = build_batch(instances, cfg)
            if task == "multilabel":
                targets = rng.integers(0, 2, size=(3, 3)).astype(np.float64)
            else:
                targets = rng.normal(size=(3, 3))
            _, analytic = loss_and_gradients(params, batch, targets)
            numeric = numerical_gradients(params, batch, targets, task)
            rel = max_relative_error(analytic, numeric)
            worst = max(worst, rel)
            for _, tensor in params.named_tensors():
                components += tensor.size
            if rel >= 1e-4:
                failures += 1
    check(6, failures == 0,
          f"gradients of 6 head/readout combos match finite differences on all "
          f"{components} components (worst relative error {worst:.1e})")


# ---------------------------------------------------------------------------
# 07: node order never changes a prediction
# ---------------------------------------------------------------------------

def test_07_permutation_invariance():
    rng = np.random.default_rng(707)
    cfg = NetworkConfig(node_feature_dim=3, fingerprint_width=8, output_dim=4,
                        hidden_dims=(6, 5), fuse_dim=4)
    params = init_parameters(cfg, rng)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        feats = rng.normal(size=(n, 3))
        edges = [(int(rng.integers(v)), v) for v in range(1, n)]
        fp = Fingerprint(rng.integers(0, 2, 8).astype(np.uint8))
        inst = Instance(id="orig", fingerprint=fp, labels=(),
                        graph=MolecularGraph(node_features=feats, edges=tuple(edges)))
        pos = rng.permutation(n)
        shuffled_feats = np.empty_like(feats)
        shuffled_feats[pos] = feats
        shuffled_edges = tuple((int(pos[u]), int(pos[v])) for u, v in edges)
        shuffled = Instance(id="perm", fingerprint=fp, labels=(),
                            graph=MolecularGraph(node_features=shuffled_feats,
                                                 edges=shuffled_edges))
        gap = float(np.abs(predict([inst], params)[0] - predict([shuffled], params)[0]).max())
        worst = max(worst, gap)
    check(7, worst <= 1e-10,
          f"predictions identical under node permutation on 100 graphs "
          f"(worst deviation {worst:.1e})")


# ---------------------------------------------------------------------------
# 08: directional training comparison on planted-signal data
# ---------------------------------------------------------------------------

def test_08_training_comparisons_on_planted_signal():
    t_start = time.perf_counter()
    data = generate(SynthConfig(n_instances=2000, n_labels=100, zipf_exponent=1.3,
                                target_card=1.5, fingerprint_width=128,
                                signal_bits_per_label=1, noise_flip_prob=0.0,
                                graph_nodes_range=(6, 12), node_feature_dim=9,
                                cooccurrence_boost=0.0, seed=808))
    train_split, test_split = split_dataset(data, 0.2, seed=17)
    test_y = label_matrix(test_split)

    def samples_f1(training_set, inputs, lr):
        net = NetworkConfig(node_feature_dim=9, fingerprint_width=128,
                            output_dim=100, hidden_dims=(32, 32), fuse_dim=32,
                            input_mode=inputs)
        params, _ = train(training_set, net,
                          TrainConfig(task="multilabel", epochs=400,
                                      learning_rate=lr, seed=1))
        scores = predict(test_split.instances, params)
        return evaluate_multilabel(scores, test_y, threshold=0.5).f1["samples"]

    f_hybrid = samples_f1(train_split, "hybrid", 1.0)
    f_graph = samples_f1(train_split, "graph", 1.0)
    f_fp = samples_f1(train_split, "fingerprint", 1.0)

    prop = oversample(train_split, ResampleConfig(method="proposed", p=1.0, r=4)).dataset
    mls = oversample(train_split, ResampleConfig(method="mlsmote", p=1.0, k=5, seed=0)).dataset
    f_none = samples_f1(train_split, "fingerprint", 8.0)
    f_prop = samples_f1(prop, "fingerprint", 8.0)
    f_mls = samples_f1(mls, "fingerprint", 8.0)
    elapsed = time.perf_counter() - t_start

    ok = (
        f_hybrid >= f_graph and f_hybrid >= f_fp
        and f_prop > f_none and f_prop > f_mls
        and elapsed < 600.0
    )
    check(8, ok,
          f"samples-F1: hybrid {f_hybrid:.4f} >= graph {f_graph:.4f} >= "
          f"fingerprint {f_fp:.4f}; replication {f_prop:.4f} > none {f_none:.4f} "
          f"and > neighbor synthesis {f_mls:.4f} ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 09: byte-identical reruns of every subcommand
# ---------------------------------------------------------------------------

def test_09_cli_reruns_byte_identical(tmp_path, capsys):
    synth_flags = ["synth", "--n-instances", "40", "--n-labels", "6",
                   "--fp-width", "16", "--graph-nodes", "3,5", "--node-dim", "3",
                   "--reg-width", "1", "--seed", "12"]
    diffs = []

    def compare(label, rel_paths, *argv):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{label}_{tag}"
            args = [a.replace("@OUT@", str(out)) for a in argv]
            code = run_cli(capsys, *args)[0]
            assert code == 0, f"{label} run failed"
            dirs.append(out)
        for rel in rel_paths:
            if (dirs[0] / rel).read_bytes() != (dirs[1] / rel).read_bytes():
                diffs.append(f"{label}/{rel}")

    compare("synth", ["dataset.jsonl", "dataset.labels.tsv"],
            *synth_flags, "--out", "@OUT@")
    base = tmp_path / "synth_a"
    data = str(base / "dataset.jsonl")
    compare("metrics", ["report.json", "profile.csv"],
            "metrics", "--data", data, "--out", "@OUT@")
    compare("oversample_rep", ["dataset.jsonl", "dataset.labels.tsv", "diagnostics.json"],
            "oversample", "--data", data, "--method", "proposed", "--p", "0.5",
            "--out", "@OUT@")
    compare("oversample_nn", ["dataset.jsonl", "dataset.labels.tsv", "diagnostics.json"],
            "oversample", "--data", data, "--method", "mlsmote", "--p", "0.5",
            "--k", "3", "--seed", "4", "--out", "@OUT@")
    compare("cooccur", ["chord_base.json", "scumble_table.json"],
            "cooccur", "--data", f"base={data}", "--random-labels", "3",
            "--seed", "2", "--out", "@OUT@")
    compare("train", ["model.json", "model.loss.csv"],
            "train", "--data", data, "--task", "multilabel", "--epochs", "3",
            "--hidden", "4", "--fuse-dim", "3", "--seed", "1",
            "--model-out", "@OUT@/model.json")
    model = str(tmp_path / "train_a" / "model.json")
    compare("eval", ["report.json"],
            "eval", "--data", data, "--model", model, "--report", "@OUT@/report.json")
    check(9, not diffs,
          f"all 7 subcommand reruns byte-identical on primary outputs "
          f"({'no diffs' if not diffs else ', '.join(diffs)})")


# ---------------------------------------------------------------------------
# 10: serialization round-trip identity
# ---------------------------------------------------------------------------

def test_10_round_trip_identity():
    rng = np.random.default_rng(1010)
    diffs = 0
    for _ in range(100):
        d = random_dataset(rng, max_instances=25, max_labels=10,
                           reg_width=int(rng.integers(0, 3)))
        back = roundtrip(d)
        first = io.StringIO()
        second = io.StringIO()
        write_dataset(d, first)
        write_dataset(back, second)
        if first.getvalue() != second.getvalue():
            diffs += 1
        if format_vocabulary(back.vocabulary) != format_vocabulary(d.vocabulary):
            diffs += 1
    check(10, diffs == 0,
          f"parse/write round-trip identical on 100 random datasets ({diffs} diffs)")
