"""Forward/backward passes of the fused graph+fingerprint network.

Gradients are checked against central finite differences; the batched
engine is checked against the plain single-instance path.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from mlimb.data import Fingerprint, Instance, MolecularGraph
from mlimb.network import (
    BCE_EPS,
    ModelParameters,
    NetworkConfig,
    TrainConfig,
    adjacency_operator,
    build_batch,
    fingerprint_dense,
    forward,
    fuse_and_predict,
    graph_layer_forward,
    init_parameters,
    label_matrix,
    load_checkpoint,
    loss,
    loss_and_gradients,
    loss_curve_csv,
    predict,
    predict_instance,
    readout,
    regression_matrix,
    save_checkpoint,
    train,
    _apply_update,
    _sigmoid,
)
from tests.conftest import random_dataset, random_graph


def path_graph(feats):
    feats = np.asarray(feats, dtype=np.float64)
    return MolecularGraph(
        node_features=feats,
        edges=tuple((v - 1, v) for v in range(1, feats.shape[0])),
    )


def small_config(**overrides):
    base = dict(node_feature_dim=3, fingerprint_width=8, output_dim=2,
                hidden_dims=(4, 3), fuse_dim=3)
    base.update(overrides)
    return NetworkConfig(**base)


def small_instances(rng, n, cfg, with_graph=True):
    out = []
    for i in range(n):
        out.append(
            Instance(
                id=f"g{i}",
                fingerprint=Fingerprint(
                    rng.integers(0, 2, size=cfg.fingerprint_width).astype(np.uint8)
                ),
                labels=(),
                graph=random_graph(rng, cfg.node_feature_dim) if with_graph else None,
            )
        )
    return out


def numerical_gradients(params, batch, targets, task, step=1e-5):
    """Central differences through the full forward pass."""
    grads = params.zeros_like()
    for (_, tensor), (_, slot) in zip(params.named_tensors(), grads.named_tensors()):
        flat = tensor.reshape(-1)
        gflat = slot.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = loss(forward(batch, params).y_pred, targets, task)
            flat[i] = saved - step
            lo = loss(forward(batch, params).y_pred, targets, task)
            flat[i] = saved
            gflat[i] = (hi - lo) / (2 * step)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (_, a), (_, n) in zip(analytic.named_tensors(), numeric.named_tensors()):
        num = np.abs(a - n)
        den = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        rel = num / den
        rel[num < 1e-10] = 0.0
        worst = max(worst, float(rel.max()))
    return worst


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def test_adjacency_modes_two_node_path():
    g = path_graph([[1.0, 0, 0], [0, 1.0, 0]])
    assert np.array_equal(adjacency_operator(g, "literal"), [[0, 1], [1, 0]])
    assert np.array_equal(adjacency_operator(g, "self_loops"), [[1, 1], [1, 1]])
    assert np.allclose(adjacency_operator(g, "normalized"), [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        adjacency_operator(g, "spectral")


def test_normalized_rows_of_isolated_node():
    g = MolecularGraph(node_features=np.ones((1, 2)), edges=())
    assert np.array_equal(adjacency_operator(g, "normalized"), [[1.0]])


def test_layer_forward_identity_activation_matches_product():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(4, 3))
    op = rng.normal(size=(4, 4))
    w = rng.normal(size=(3, 5))
    b = rng.normal(size=5)
    got = graph_layer_forward(h, op, w, b, "identity")
    assert np.allclose(got, op @ h @ w + b)
    assert np.allclose(graph_layer_forward(h, op, w, b, "relu"),
                       np.maximum(op @ h @ w + b, 0.0))


def test_readout_column_oracles():
    h = np.array([[1.0, 5.0], [3.0, 2.0]])
    assert np.allclose(readout(h, "max_plus_mean"), [5.0, 8.5])
    assert np.allclose(readout(h, "max_plus_min"), [4.0, 7.0])
    assert np.allclose(readout(h, "concat_mean_max"), [2.0, 3.5, 3.0, 5.0])


def test_single_node_readout_doubles_row():
    h = np.array([[0.25, -2.0, 7.0]])
    assert np.allclose(readout(h, "max_plus_mean"), 2 * h[0])
    assert np.allclose(readout(h, "max_plus_min"), 2 * h[0])


def test_fingerprint_dense_selector_rows():
    f = np.array([1, 0, 1, 1], dtype=np.uint8)
    w = np.eye(4)
    assert np.allclose(fingerprint_dense(f, w, np.zeros(4)), [1, 0, 1, 1])
    assert np.allclose(fingerprint_dense(f, w, np.full(4, 0.5)), [1.5, 0.5, 1.5, 1.5])


def test_config_validation_and_fusion_width():
    with pytest.raises(ValueError):
        small_config(hidden_dims=())
    with pytest.raises(ValueError):
        small_config(readout_mode="sum")
    with pytest.raises(ValueError):
        small_config(head_mode="probit")
    cfg = small_config(readout_mode="concat_mean_max")
    assert cfg.fusion_input_dim == 2 * cfg.embedding_dim
    assert small_config().fusion_input_dim == small_config().embedding_dim


def test_glorot_init_bounds_and_zero_biases():
    cfg = small_config()
    params = init_parameters(cfg, 0)
    for name, tensor in params.named_tensors():
        if name.endswith("bias"):
            assert not tensor.any()
    w = params.layer_weights[0]
    limit = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
    assert np.abs(w).max() <= limit
    assert np.abs(w).max() > 0.25 * limit  # actually fills the range


# ---------------------------------------------------------------------------
# Heads and losses
# ---------------------------------------------------------------------------

def test_zero_parameters_give_half_probability_and_ln2_loss():
    cfg = small_config()
    params = init_parameters(cfg, 0)
    zeroed = params.zeros_like()
    rng = np.random.default_rng(1)
    instances = small_instances(rng, 3, cfg)
    preds = predict(instances, zeroed)
    assert np.allclose(preds, 0.5)
    targets = np.array([[0, 1], [1, 1], [0, 0]], dtype=np.float64)
    assert math.isclose(
        loss(preds, targets, "multilabel"), math.log(2.0), rel_tol=1e-12
    )


def test_softmax_rows_sum_to_one():
    cfg = small_config(head_mode="softmax", output_dim=4)
    params = init_parameters(cfg, 3)
    rng = np.random.default_rng(5)
    preds = predict(small_instances(rng, 6, cfg), params)
    assert np.allclose(preds.sum(axis=1), 1.0)
    assert (preds > 0).all()


def test_mse_means_over_all_entries():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = np.array([[0.0, 2.0], [3.0, 2.0]])
    assert math.isclose(loss(y, t, "multiregression"), (1.0 + 0.0 + 0.0 + 4.0) / 4)


def test_bce_clamp_keeps_loss_and_gradients_finite():
    cfg = small_config(input_mode="fingerprint")
    params = init_parameters(cfg, 0)
    params.head_bias[:] = [500.0, -500.0]  # saturates the sigmoid to exactly 1 and 0
    rng = np.random.default_rng(2)
    instances = small_instances(rng, 3, cfg, with_graph=False)
    batch = build_batch(instances, cfg)
    preds = forward(batch, params).y_pred
    assert preds[:, 0].min() == 1.0 and preds[:, 1].max() < 1e-100
    # Every target on the wrong side, so every entry is clamped.
    targets = np.array([[0, 1], [0, 1], [0, 1]], dtype=np.float64)
    value, grads = loss_and_gradients(params, batch, targets, "multilabel")
    assert math.isfinite(value)
    assert value == pytest.approx(-math.log(BCE_EPS), rel=1e-6)
    for _, g in grads.named_tensors():
        assert np.isfinite(g).all()


def test_sigmoid_saturates_without_overflow_warnings():
    x = np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0])
    with np.errstate(over="raise", invalid="raise"):
        y = _sigmoid(x)
    assert y[0] == 0.0 and y[2] == 0.5 and y[4] == 1.0
    assert np.allclose(y[1:4], [1.0 / (1.0 + math.exp(40.0)), 0.5, 1.0 / (1.0 + math.exp(-40.0))],
                       rtol=1e-15, atol=0.0)


def test_zero_loss_means_zero_gradients():
    cfg = small_config(head_mode="linear_regression")
    params = init_parameters(cfg, 7)
    rng = np.random.default_rng(7)
    batch = build_batch(small_instances(rng, 4, cfg), cfg)
    targets = forward(batch, params).y_pred.copy()
    value, grads = loss_and_gradients(params, batch, targets, "multiregression")
    assert value == 0.0
    for _, g in grads.named_tensors():
        assert not g.any()


# ---------------------------------------------------------------------------
# Gradient checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "head,task,readout_mode",
    [
        ("sigmoid_multilabel", "multilabel", "max_plus_mean"),
        ("sigmoid_multilabel", "multilabel", "concat_mean_max"),
        ("linear_regression", "multiregression", "max_plus_min"),
        ("softmax", "multilabel", "max_plus_mean"),
    ],
)
def test_gradients_match_finite_differences(head, task, readout_mode):
    cfg = small_config(head_mode=head, readout_mode=readout_mode)
    rng = np.random.default_rng(11)
    params = init_parameters(cfg, rng)
    instances = small_instances(rng, 3, cfg)
    batch = build_batch(instances, cfg)
    if task == "multilabel":
        targets = rng.integers(0, 2, size=(3, cfg.output_dim)).astype(np.float64)
    else:
        targets = rng.normal(size=(3, cfg.output_dim))
    _, analytic = loss_and_gradients(params, batch, targets, task)
    numeric = numerical_gradients(params, batch, targets, task)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_gradcheck_fingerprint_only_mode():
    cfg = small_config(input_mode="fingerprint")
    rng = np.random.default_rng(13)
    params = init_parameters(cfg, rng)
    batch = build_batch(small_instances(rng, 4, cfg, with_graph=False), cfg)
    targets = rng.integers(0, 2, size=(4, cfg.output_dim)).astype(np.float64)
    _, analytic = loss_and_gradients(params, batch, targets, "multilabel")
    numeric = numerical_gradients(params, batch, targets, "multilabel")
    assert max_relative_error(analytic, numeric) < 1e-4
    # The unused graph path receives exactly zero gradient.
    for w in analytic.layer_weights:
        assert not w.any()


# ---------------------------------------------------------------------------
# Input modes and batching
# ---------------------------------------------------------------------------

def test_graph_mode_equals_hybrid_with_zeroed_fingerprint_path():
    cfg_h = small_config(input_mode="hybrid")
    params = init_parameters(cfg_h, 21)
    params.fp_weight[:] = 0.0
    params.fp_bias[:] = 0.0
    cfg_g = small_config(input_mode="graph")
    params_g = dataclasses.replace(params.copy(), config=cfg_g)
    rng = np.random.default_rng(21)
    instances = small_instances(rng, 5, cfg_h)
    assert np.array_equal(predict(instances, params), predict(instances, params_g))


def test_fingerprint_mode_ignores_graphs_entirely():
    cfg = small_config(input_mode="fingerprint")
    params = init_parameters(cfg, 4)
    rng = np.random.default_rng(4)
    with_graphs = small_instances(rng, 3, cfg)
    stripped = [dataclasses.replace(i, graph=None) for i in with_graphs]
    assert np.array_equal(predict(with_graphs, params), predict(stripped, params))


def test_batched_forward_matches_single_instance_path():
    rng = np.random.default_rng(17)
    for _ in range(8):
        d = random_dataset(rng, max_instances=12, max_labels=5, graph_prob=1.0)
        cfg = NetworkConfig(
            node_feature_dim=d.node_feature_dim,
            fingerprint_width=d.fingerprint_width,
            output_dim=d.label_count,
            hidden_dims=(5, 4),
            fuse_dim=3,
            readout_mode=str(rng.choice(["max_plus_mean", "max_plus_min", "concat_mean_max"])),
            adjacency_mode=str(rng.choice(["literal", "self_loops", "normalized"])),
        )
        params = init_parameters(cfg, int(rng.integers(1000)))
        batched = predict(d.instances, params)
        for row, inst in zip(batched, d.instances):
            assert np.allclose(row, predict_instance(params, inst), atol=1e-12)


def test_missing_graph_rejected_in_graph_modes():
    cfg = small_config()
    rng = np.random.default_rng(3)
    instances = small_instances(rng, 2, cfg, with_graph=False)
    with pytest.raises(ValueError, match="no graph"):
        build_batch(instances, cfg)
    with pytest.raises(ValueError, match="no graph"):
        predict_instance(init_parameters(cfg, 0), instances[0])


def test_batch_rejects_wrong_widths():
    cfg = small_config()
    inst = Instance(
        id="w", fingerprint=Fingerprint(np.zeros(5, dtype=np.uint8)), labels=(),
        graph=random_graph(np.random.default_rng(0), cfg.node_feature_dim),
    )
    with pytest.raises(ValueError):
        build_batch([inst], cfg)


def test_fuse_and_predict_width_mismatch():
    cfg = small_config()
    params = init_parameters(cfg, 0)
    with pytest.raises(ValueError):
        fuse_and_predict(np.zeros(3), np.zeros(4), params)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def labeled_dataset(rng, n=16):
    d = random_dataset(rng, max_instances=n, max_labels=4, graph_prob=1.0,
                       ensure_labeled=True)
    return d


def test_zero_epochs_returns_untouched_init():
    rng = np.random.default_rng(23)
    d = labeled_dataset(rng)
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width,
                        output_dim=d.label_count, hidden_dims=(4,), fuse_dim=3)
    params, curve = train(d, cfg, TrainConfig(task="multilabel", epochs=0, seed=5))
    reference = init_parameters(cfg, np.random.default_rng(5))
    assert curve == []
    for (_, a), (_, b) in zip(params.named_tensors(), reference.named_tensors()):
        assert np.array_equal(a, b)


def test_training_descends_and_is_deterministic():
    rng = np.random.default_rng(29)
    d = labeled_dataset(rng)
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width,
                        output_dim=d.label_count, hidden_dims=(8,), fuse_dim=6)
    tc = TrainConfig(task="multilabel", epochs=60, learning_rate=0.2, seed=1)
    params_a, curve_a = train(d, cfg, tc)
    params_b, curve_b = train(d, cfg, tc)
    assert curve_a == curve_b
    for (_, a), (_, b) in zip(params_a.named_tensors(), params_b.named_tensors()):
        assert np.array_equal(a, b)
    assert curve_a[-1] < curve_a[0]


def test_momentum_and_minibatch_paths_run():
    rng = np.random.default_rng(31)
    d = labeled_dataset(rng)
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width,
                        output_dim=d.label_count, hidden_dims=(6,), fuse_dim=4)
    tc = TrainConfig(task="multilabel", epochs=25, learning_rate=0.1,
                     momentum=0.9, batch_size=5, seed=2)
    params, curve = train(d, cfg, tc)
    assert len(curve) == 25
    repeat, curve2 = train(d, cfg, tc)
    assert curve == curve2
    for (_, a), (_, b) in zip(params.named_tensors(), repeat.named_tensors()):
        assert np.array_equal(a, b)


def test_momentum_update_matches_hand_computation():
    cfg = small_config()
    params = init_parameters(cfg, 0)
    grads = params.zeros_like()
    grads.head_bias[:] = [1.0, 2.0]
    velocity = params.zeros_like()
    tc = TrainConfig(task="multilabel", learning_rate=0.1, momentum=0.5)
    before = params.head_bias.copy()
    _apply_update(params, grads, velocity, tc)
    assert np.allclose(params.head_bias, before - 0.1 * np.array([1.0, 2.0]))
    _apply_update(params, grads, velocity, tc)
    # v2 = 0.5*(-0.1 g) - 0.1 g = -0.15 g
    assert np.allclose(params.head_bias, before - 0.25 * np.array([1.0, 2.0]))


@pytest.mark.parametrize("batch_size", [None, 4])
def test_training_stops_at_first_non_finite_loss(batch_size):
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, max_instances=12, graph_prob=0.0, reg_width=2)
    cfg = small_config(fingerprint_width=ds.fingerprint_width, output_dim=2,
                       head_mode="linear_regression", input_mode="fingerprint")
    with pytest.raises(ValueError, match=r"loss is (inf|nan) in epoch \d+; try a lower --lr"):
        train(ds, cfg, TrainConfig(task="multiregression", epochs=100, learning_rate=1e3,
                                   batch_size=batch_size))


def test_target_matrices():
    rng = np.random.default_rng(37)
    d = random_dataset(rng, max_instances=6, max_labels=3, reg_width=2)
    y = label_matrix(d)
    for i, inst in enumerate(d.instances):
        assert set(np.nonzero(y[i])[0]) == set(inst.labels)
    r = regression_matrix(d)
    assert r.shape == (len(d), 2)
    plain = random_dataset(rng, max_instances=4, max_labels=3, reg_width=0)
    with pytest.raises(ValueError):
        regression_matrix(plain)


def test_output_dim_must_match_targets():
    rng = np.random.default_rng(41)
    d = labeled_dataset(rng)
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width,
                        output_dim=d.label_count + 1, hidden_dims=(4,), fuse_dim=3)
    with pytest.raises(ValueError, match="output_dim"):
        train(d, cfg, TrainConfig(task="multilabel", epochs=1))


# ---------------------------------------------------------------------------
# Checkpoints and exports
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_exact(tmp_path):
    cfg = small_config(readout_mode="concat_mean_max", head_mode="linear_regression")
    params = init_parameters(cfg, 99)
    dest = tmp_path / "model.json"
    save_checkpoint(params, dest)
    loaded = load_checkpoint(dest)
    assert loaded.config == cfg
    for (na, a), (nb, b) in zip(params.named_tensors(), loaded.named_tensors()):
        assert na == nb
        assert np.array_equal(a, b)


def test_checkpoint_rejects_tampering(tmp_path):
    cfg = small_config()
    dest = tmp_path / "model.json"
    save_checkpoint(init_parameters(cfg, 0), dest)
    doc = json.loads(dest.read_text())
    doc["format"] = "other-v9"
    dest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(dest)
    doc["format"] = "hybridnet-checkpoint-v1"
    doc["tensors"]["head_bias"]["data"] = [0.0]  # wrong length
    dest.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_checkpoint(dest)


def test_loss_curve_csv_layout():
    text = loss_curve_csv([0.5, 0.25])
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,loss"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,0.25"
