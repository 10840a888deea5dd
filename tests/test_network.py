"""Forward/backward passes of the fused graph+fingerprint network.

Gradients are checked against central finite differences; the batched
engine is checked against the plain per-graph forward pass in
``tests.reference``.
"""

import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from mlimb import network
from mlimb.data import (Fingerprint, Instance, MolecularGraph, format_vocabulary, parse_dataset,
                        write_dataset)
from mlimb.evaluation import evaluate_multilabel
from mlimb.network import (
    ACTIVATIONS,
    BCE_EPS,
    HEAD_MODES,
    INPUT_MODES,
    ModelParameters,
    NetworkConfig,
    TrainConfig,
    backward,
    build_batch,
    forward,
    init_parameters,
    label_matrix,
    load_checkpoint,
    loss,
    loss_and_gradients,
    loss_curve_csv,
    predict,
    regression_matrix,
    save_checkpoint,
    train,
    _apply_update,
    _sigmoid,
)
from mlimb.synth import SynthConfig, generate
from tests.conftest import random_dataset, random_graph
from tests.reference import (
    adjacency_operator,
    fingerprint_dense,
    fuse_and_predict,
    graph_layer_forward,
    predict_instance,
    readout,
)


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
    for field_name, value, message in [
        ("hidden_dims", (4.7,), "hidden_dims must be an integer, got 4.7"),
        ("hidden_dims", (4, 0), "hidden_dims must be positive, got 0"),
        ("node_feature_dim", 3.5, "node_feature_dim must be an integer, got 3.5"),
        ("fingerprint_width", "8", "fingerprint_width must be an integer, got '8'"),
        ("output_dim", 0, "output_dim must be positive, got 0"),
        ("fuse_dim", 3.0, "fuse_dim must be an integer, got 3.0"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{field_name: value})
    numpy_ints = small_config(node_feature_dim=np.int64(3), hidden_dims=(np.int32(4), 3))
    assert numpy_ints == small_config()
    assert type(numpy_ints.node_feature_dim) is int and type(numpy_ints.hidden_dims[0]) is int
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


def test_tensors_are_views_into_one_parameter_vector():
    params = init_parameters(small_config(), 0)
    flat = np.concatenate([tensor.ravel() for _, tensor in params.named_tensors()])
    assert np.array_equal(flat, params.vector)
    params.layer_weights[0][0, 0] = 5.0
    params.head_bias[:] = [3.0, 4.0]
    assert params.vector[0] == 5.0
    assert params.vector[-2:].tolist() == [3.0, 4.0]
    for other in (params.copy(), params.zeros_like()):
        assert not np.shares_memory(other.vector, params.vector)
        for (_, a), (_, b) in zip(other.named_tensors(), params.named_tensors()):
            assert not np.shares_memory(a, b)
    assert np.array_equal(params.copy().vector, params.vector)
    assert not params.zeros_like().vector.any()


def test_replacing_the_config_carves_views_of_the_same_vector():
    params = init_parameters(small_config(), 0)
    graph_only = dataclasses.replace(params, config=small_config(input_mode="graph"))
    assert graph_only.vector is params.vector
    graph_only.fp_bias[:] = 7.0
    graph_only.layer_biases[1][:] = 8.0
    assert (params.fp_bias == 7.0).all() and (params.layer_biases[1] == 8.0).all()
    with pytest.raises(ValueError, match="parameter vector must be float64 of shape"):
        dataclasses.replace(params, config=small_config(output_dim=3))


def test_parameter_vector_of_wrong_size_or_dtype_is_rejected():
    cfg = small_config()
    size = init_parameters(cfg, 0).vector.size
    for vector in (np.zeros(size - 1), np.zeros(size + 1), np.zeros(size, dtype=np.float32),
                   np.zeros((size, 1))):
        with pytest.raises(ValueError, match=rf"must be float64 of shape \({size},\)"):
            ModelParameters(cfg, vector)


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
    value, grads = loss_and_gradients(params, batch, targets)
    assert math.isfinite(value)
    assert value == pytest.approx(-math.log(BCE_EPS), rel=1e-6)
    for _, g in grads.named_tensors():
        assert np.isfinite(g).all()


@pytest.mark.parametrize("dtype", [np.float64, bool])
def test_bce_equals_the_two_log_form_to_the_bit(dtype):
    # Exactly 0 and 1, inside the clamp, at its edges, just past them, and
    # the middle, each with target 1 and 0; then random entries.
    edges = [0.0, 0.5 * BCE_EPS, BCE_EPS, 1.5 * BCE_EPS, 0.5,
             1.0 - 1.5 * BCE_EPS, 1.0 - BCE_EPS, 1.0 - 0.5 * BCE_EPS, 1.0]
    rng = np.random.default_rng(61)
    y = np.concatenate([np.repeat(edges, 2), rng.random(482)]).reshape(25, 20)
    t = np.concatenate([np.tile([1.0, 0.0], len(edges)),
                        rng.integers(0, 2, 482)]).reshape(y.shape)

    def two_log(y, t):
        yc = np.clip(y, BCE_EPS, 1.0 - BCE_EPS)
        return float(np.mean(-(t * np.log(yc) + (1.0 - t) * np.log(1.0 - yc))))

    assert loss(y, t.astype(dtype), "multilabel") == two_log(y, t)
    for yi, ti in zip(y.flat, t.flat):  # every term on its own
        yi, ti = np.array([[yi]]), np.array([[ti]])
        assert loss(yi, ti.astype(dtype), "multilabel") == two_log(yi, ti)


@pytest.mark.parametrize("soft", [0.3, -1.0, 2.0, math.nan])
def test_multilabel_loss_rejects_soft_targets(soft):
    with pytest.raises(ValueError, match="multilabel targets must contain only 0/1 entries"):
        loss(np.full((2, 2), 0.5), np.array([[1.0, 0.0], [soft, 1.0]]), "multilabel")


@pytest.mark.parametrize("head", HEAD_MODES)
def test_backward_takes_bool_targets_as_their_0_1_values(head):
    cfg = small_config(head_mode=head, output_dim=5)
    params = init_parameters(cfg, 7)
    params.head_bias[:2] = [60.0, -60.0]  # some outputs inside the clamp
    rng = np.random.default_rng(13)
    batch = build_batch(small_instances(rng, 6, cfg), cfg)
    targets = rng.random((6, 5)) < 0.4
    trace = forward(batch, params)
    from_bool = backward(trace, targets, params)
    from_float = backward(trace, targets.astype(np.float64), params)
    for (name, a), (_, b) in zip(from_bool.named_tensors(), from_float.named_tensors()):
        assert np.array_equal(a, b), name


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
    value, grads = loss_and_gradients(params, batch, targets)
    assert value == 0.0
    for _, g in grads.named_tensors():
        assert not g.any()


# ---------------------------------------------------------------------------
# Gradient checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("activation", tuple(ACTIVATIONS))
@pytest.mark.parametrize(
    "head,task,readout_mode",
    [
        ("sigmoid_multilabel", "multilabel", "max_plus_mean"),
        ("sigmoid_multilabel", "multilabel", "concat_mean_max"),
        ("linear_regression", "multiregression", "max_plus_min"),
    ],
)
def test_gradients_match_finite_differences(head, task, readout_mode, activation):
    cfg = small_config(head_mode=head, readout_mode=readout_mode, activation=activation)
    rng = np.random.default_rng(11)
    params = init_parameters(cfg, rng)
    instances = small_instances(rng, 3, cfg)
    batch = build_batch(instances, cfg)
    inputs = [batch.nodes.copy(), batch.operator.copy(), batch.fingerprints.copy()]
    if task == "multilabel":
        targets = rng.integers(0, 2, size=(3, cfg.output_dim)).astype(np.float64)
    else:
        targets = rng.normal(size=(3, cfg.output_dim))
    _, analytic = loss_and_gradients(params, batch, targets)
    # The activations write in place, but never into the batch.
    for before, after in zip(inputs, (batch.nodes, batch.operator, batch.fingerprints)):
        assert np.array_equal(before, after)
    numeric = numerical_gradients(params, batch, targets, task)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_gradcheck_fingerprint_only_mode():
    cfg = small_config(input_mode="fingerprint")
    rng = np.random.default_rng(13)
    params = init_parameters(cfg, rng)
    batch = build_batch(small_instances(rng, 4, cfg, with_graph=False), cfg)
    targets = rng.integers(0, 2, size=(4, cfg.output_dim)).astype(np.float64)
    _, analytic = loss_and_gradients(params, batch, targets)
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


@pytest.mark.parametrize("head_mode", HEAD_MODES)
@pytest.mark.parametrize("input_mode", INPUT_MODES)
@pytest.mark.parametrize("activation", list(ACTIVATIONS))
def test_batched_forward_matches_single_instance_path(activation, input_mode, head_mode):
    modes = dict(activation=activation, input_mode=input_mode, head_mode=head_mode)
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
            **modes,
        )
        params = init_parameters(cfg, int(rng.integers(1000)))
        batched = predict(d.instances, params)
        for row, inst in zip(batched, d.instances):
            assert np.allclose(row, predict_instance(params, inst), atol=1e-12)
    # More rows than one prediction block.
    cfg = small_config(readout_mode="max_plus_min", **modes)
    params = init_parameters(cfg, 5)
    instances = small_instances(rng, 600, cfg)
    for row, inst in zip(predict(instances, params), instances):
        assert np.allclose(row, predict_instance(params, inst), atol=1e-12)


@pytest.mark.parametrize("input_mode", ["hybrid", "graph"])
def test_blockwise_predict_matches_one_batch(input_mode):
    cfg = small_config(input_mode=input_mode)
    params = init_parameters(cfg, 13)
    rng = np.random.default_rng(13)
    # 1100 rows run as four blocks with graphs of up to 3, 5, 7 and 10 nodes.
    instances = [
        Instance(id=f"g{i}",
                 fingerprint=Fingerprint(rng.integers(0, 2, size=8).astype(np.uint8)),
                 labels=(),
                 graph=random_graph(rng, cfg.node_feature_dim, max_nodes=1 + i // 120))
        for i in range(1100)
    ]
    whole = forward(build_batch(instances, cfg), params).y_pred
    blocked = predict(instances, params)
    assert blocked.shape == whole.shape
    assert np.allclose(blocked, whole, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("input_mode", INPUT_MODES)
def test_predict_on_no_rows_is_an_empty_output(input_mode, monkeypatch):
    cfg = small_config(input_mode=input_mode)
    params = init_parameters(cfg, 13)
    monkeypatch.setattr(network, "build_batch", pytest.fail)  # no batch is built
    out = predict([], params)
    assert out.shape == (0, cfg.output_dim) and out.dtype == np.float64
    with pytest.raises(ValueError, match="cannot build a batch from zero instances"):
        build_batch([], cfg)


def test_missing_graph_rejected_in_graph_modes():
    cfg = small_config()
    rng = np.random.default_rng(3)
    instances = small_instances(rng, 2, cfg, with_graph=False)
    with pytest.raises(ValueError, match="no graph"):
        build_batch(instances, cfg)
    with pytest.raises(ValueError, match="no graph"):
        predict(instances[:1], init_parameters(cfg, 0))


def test_graph_modes_refuse_a_graph_kept_as_text_and_fingerprint_mode_trains_the_same():
    d = generate(SynthConfig(n_instances=30, n_labels=4, fingerprint_width=16,
                             graph_nodes_range=(3, 5), node_feature_dim=3, seed=2))
    buf = io.StringIO()
    write_dataset(d, buf)
    kept = parse_dataset(buf.getvalue(), format_vocabulary(d.vocabulary), decode_graphs=False)
    first = kept.instances[0].id
    for mode in ("hybrid", "graph"):
        cfg = NetworkConfig(node_feature_dim=3, fingerprint_width=16, output_dim=4,
                            hidden_dims=(4,), fuse_dim=3, input_mode=mode)
        message = (f"instance {first!r} holds its graph as undecoded text but "
                   f"input_mode={mode!r}; load the dataset with decode_graphs=True")
        with pytest.raises(ValueError) as caught:
            train(kept, cfg, TrainConfig(task="multilabel", epochs=1))
        assert str(caught.value) == message
        with pytest.raises(ValueError) as caught:
            predict(kept.instances, init_parameters(cfg, 0))
        assert str(caught.value) == message
    cfg = NetworkConfig(node_feature_dim=3, fingerprint_width=16, output_dim=4,
                        hidden_dims=(4,), fuse_dim=3, input_mode="fingerprint")
    tc = TrainConfig(task="multilabel", epochs=3, learning_rate=0.5, batch_size=7)
    (a, curve_a), (b, curve_b) = train(kept, cfg, tc), train(d, cfg, tc)
    assert curve_a == curve_b and a.vector.tobytes() == b.vector.tobytes()
    assert predict(kept.instances, a).tobytes() == predict(d.instances, b).tobytes()


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


@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
def test_train_config_rejects_a_non_finite_or_non_positive_learning_rate(rate):
    with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
        TrainConfig(task="multilabel", learning_rate=rate)


@pytest.mark.parametrize("field_name", ["epochs", "batch_size"])
def test_train_config_refuses_a_non_integer_count(field_name):
    with pytest.raises(ValueError, match=f"^{field_name} must be an integer, got 2.5$"):
        TrainConfig(task="multilabel", **{field_name: 2.5})
    config = TrainConfig(task="multilabel", **{field_name: np.int64(3)})
    assert type(getattr(config, field_name)) is int


@pytest.mark.parametrize("momentum", [0.0, 0.5])
def test_training_never_returns_non_finite_parameters(momentum):
    # The loss is finite at the initial parameters, so only the one update
    # can overflow, and the loss check never sees it.
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, max_instances=12, graph_prob=0.0, reg_width=2)
    ds = ds.with_instances([dataclasses.replace(i, regression_targets=i.regression_targets * 1e6)
                            for i in ds.instances])
    cfg = small_config(fingerprint_width=ds.fingerprint_width, output_dim=2,
                       head_mode="linear_regression", input_mode="fingerprint")
    with pytest.raises(ValueError, match=r"^training diverged: \d+ parameters are non-finite "
                                         r"after epoch 1; try a lower --lr than 1e\+305$"):
        train(ds, cfg, TrainConfig(task="multiregression", epochs=1, learning_rate=1e305,
                                   momentum=momentum))


def test_predict_refuses_non_finite_predictions_in_one_line():
    # One step at this rate leaves finite weights whose predictions overflow.
    ds = generate(SynthConfig(n_instances=30, n_labels=4, fingerprint_width=16,
                              graph_nodes_range=None, regression_width=2, seed=3))
    cfg = NetworkConfig(node_feature_dim=ds.node_feature_dim, fingerprint_width=16,
                        output_dim=2, hidden_dims=(4,), fuse_dim=3,
                        head_mode="linear_regression", input_mode="fingerprint")
    params, _ = train(ds, cfg, TrainConfig(task="multiregression", epochs=1, learning_rate=1e300))
    with pytest.raises(ValueError, match=r"^60 of 60 predictions are non-finite; "
                                         r"retrain the model with a lower --lr$"):
        predict(ds.instances, params)


def test_target_matrices():
    rng = np.random.default_rng(37)
    d = random_dataset(rng, max_instances=6, max_labels=3, reg_width=2)
    y = label_matrix(d)
    assert y.dtype == bool
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
    with pytest.raises(ValueError, match="^model predicts 5 labels, dataset has 4$"):
        train(d, cfg, TrainConfig(task="multilabel", epochs=1))


def test_each_head_serves_exactly_one_task():
    assert HEAD_MODES == ("sigmoid_multilabel", "linear_regression")
    assert [small_config(head_mode=head).task for head in HEAD_MODES] == [
        "multilabel", "multiregression"]


MISMATCHED = pytest.mark.parametrize("head, served, task", [
    ("sigmoid_multilabel", "multilabel", "multiregression"),
    ("linear_regression", "multiregression", "multilabel"),
])


@MISMATCHED
def test_train_refuses_a_head_that_does_not_serve_the_task(monkeypatch, head, served, task):
    rng = np.random.default_rng(43)
    d = random_dataset(rng, max_instances=12, max_labels=3, graph_prob=0.0, reg_width=2)
    width = d.label_count if task == "multilabel" else d.regression_width
    cfg = small_config(fingerprint_width=d.fingerprint_width, output_dim=width,
                       head_mode=head, input_mode="fingerprint")
    monkeypatch.setattr(network, "init_parameters", pytest.fail)  # nothing may train
    with pytest.raises(ValueError, match=f"^head_mode '{head}' trains task '{served}', "
                                         f"not '{task}'$"):
        train(d, cfg, TrainConfig(task=task, epochs=3))


# Recorded from the implementation that built every target row up front.
@pytest.mark.parametrize("task, batch_size, digest", [
    ("multilabel", 7, "1d256ce53bf449926821ed6099b4c797747ca12f8687f49b3054856932eb2f72"),
    ("multilabel", None, "06fa06a80c887437cc0b499657ff947917f0d780d383e4568d4f669da2ca152f"),
    ("multiregression", 10, "709479ab4c5fd3f5738d9987714877817fc5d53da8c756db52ec6936dd350cfe"),
], ids=["multilabel-batch7", "multilabel-full", "multiregression-batch10"])
def test_training_outputs_pinned(tmp_path, task, batch_size, digest):
    # 45 rows, so batches of 7 and 10 both end on a partial batch.
    d = generate(SynthConfig(n_instances=45, n_labels=6, fingerprint_width=16,
                             graph_nodes_range=(3, 6), node_feature_dim=4,
                             regression_width=2, cooccurrence_boost=0.3, seed=11))
    regression = task == "multiregression"
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width,
                        output_dim=d.regression_width if regression else d.label_count,
                        hidden_dims=(5, 4), fuse_dim=3,
                        head_mode="linear_regression" if regression else "sigmoid_multilabel")
    params, curve = train(d, cfg, TrainConfig(task=task, epochs=6, learning_rate=0.2,
                                              momentum=0.5, batch_size=batch_size, seed=3))
    save_checkpoint(params, tmp_path / "model.json")
    payload = (tmp_path / "model.json").read_bytes() + loss_curve_csv(curve).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == digest


# Recorded before backward reused the activation buffers for its gradients.
MODE_PIN = "0ba4cd92bdb604eef83a8d01ffe8b65add3d08554d44be63414cf8fd013a6fe9"


def test_training_outputs_pinned_across_modes(tmp_path):
    # Every readout and activation, an even and a narrowing layer stack,
    # full-batch and batch 7: checkpoint, loss curve and predictions.
    d = generate(SynthConfig(n_instances=45, n_labels=6, fingerprint_width=16,
                             graph_nodes_range=(3, 6), node_feature_dim=4,
                             regression_width=2, cooccurrence_boost=0.3, seed=11))
    digest = hashlib.sha256()
    for readout_mode, activation, hidden, batch_size in itertools.product(
            network.READOUT_MODES, ACTIVATIONS, ((5, 4), (3, 6, 2)), (None, 7)):
        cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                            fingerprint_width=d.fingerprint_width, output_dim=d.label_count,
                            hidden_dims=hidden, fuse_dim=3, activation=activation,
                            readout_mode=readout_mode)
        params, curve = train(d, cfg, TrainConfig(task="multilabel", epochs=6, learning_rate=0.2,
                                                  momentum=0.5, batch_size=batch_size, seed=3))
        save_checkpoint(params, tmp_path / "model.json")
        digest.update((tmp_path / "model.json").read_bytes())
        digest.update(loss_curve_csv(curve).encode("utf-8"))
        digest.update(predict(d.instances, params).tobytes())
    assert digest.hexdigest() == MODE_PIN


# ---------------------------------------------------------------------------
# Memory bounded by the batch
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wide_fingerprints():
    """4000 x 1000 labels: the dense float64 target matrix is 30.5 MiB."""
    d = generate(SynthConfig(n_instances=4000, n_labels=1000, fingerprint_width=1024,
                             graph_nodes_range=None))
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width, output_dim=d.label_count,
                        hidden_dims=(32,), fuse_dim=32, input_mode="fingerprint")
    return d, cfg, len(d) * d.label_count * 8


def traced_peak(call):
    """Peak bytes allocated during call; numpy reports its buffers to tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_minibatch_training_memory_follows_the_batch(wide_fingerprints):
    d, cfg, dense = wide_fingerprints
    tc = TrainConfig(task="multilabel", epochs=1, batch_size=64)
    assert traced_peak(lambda: train(d, cfg, tc)) < 0.25 * dense


def test_predict_memory_is_the_output_plus_one_block(wide_fingerprints):
    d, cfg, dense = wide_fingerprints
    params = init_parameters(cfg, 0)
    assert traced_peak(lambda: predict(d.instances, params)) < 1.5 * dense


def test_evaluation_counts_without_copying_the_matrices(wide_fingerprints):
    d, cfg, dense = wide_fingerprints
    scores = predict(d.instances, init_parameters(cfg, 0))
    targets = label_matrix(d)
    assert traced_peak(lambda: evaluate_multilabel(scores, targets)) < 1.0 * dense


@pytest.fixture(scope="module")
def wide_step():
    """One hybrid training batch of 256 x 2000 labels; a 256 x 2000 float64
    array is 3.9 MiB."""
    d = generate(SynthConfig(n_instances=256, n_labels=2000, fingerprint_width=2048,
                             graph_nodes_range=(6, 12), seed=1))
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width, output_dim=d.label_count,
                        hidden_dims=(32, 32), fuse_dim=32)
    targets = label_matrix(d)
    return init_parameters(cfg, 0), build_batch(d.instances, cfg), targets, targets.size * 8


def test_multilabel_loss_allocates_one_output_sized_buffer(wide_step):
    _, _, targets, dense = wide_step
    y = np.random.default_rng(0).random(targets.shape)
    assert traced_peak(lambda: loss(y, targets, "multilabel")) < 1.25 * dense


def test_training_step_memory_is_a_few_output_sized_arrays(wide_step):
    params, batch, targets, dense = wide_step
    step = lambda: loss_and_gradients(params, batch, targets)
    assert traced_peak(step) < 5 * dense


def test_a_minibatch_step_inside_train_is_a_few_output_sized_arrays(monkeypatch):
    # wide_step's shape, in batches of 256 through train, whose worker thread
    # runs the loss and the fingerprint path into arrays the caller
    # allocated; tracemalloc counts both threads.
    d = generate(SynthConfig(n_instances=512, n_labels=2000, fingerprint_width=2048,
                             graph_nodes_range=(6, 12), seed=1))
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width, output_dim=d.label_count,
                        hidden_dims=(32, 32), fuse_dim=32)
    peaks = []

    def measured(*args, _step=network.loss_and_gradients):
        result = []
        peaks.append(traced_peak(lambda: result.append(_step(*args))))
        return result[0]

    monkeypatch.setattr(network, "loss_and_gradients", measured)
    train(d, cfg, TrainConfig(task="multilabel", epochs=1, batch_size=256))
    assert len(peaks) == 2 and max(peaks) < 5 * (256 * d.label_count * 8)


@pytest.fixture(scope="module")
def node_step():
    """A hybrid batch of 400 graphs of 12 nodes each; with 32-wide layers a
    (400, 12, 32) float64 node tensor is 1.2 MB, and the labels, fingerprints
    and fusion arrays are small next to it."""
    d = generate(SynthConfig(n_instances=400, n_labels=8, fingerprint_width=64,
                             graph_nodes_range=(12, 12), seed=2))
    return d, label_matrix(d), 400 * 12 * 32 * 8


@pytest.mark.parametrize("activation", tuple(ACTIVATIONS))
def test_training_step_keeps_no_pre_activations(node_step, activation):
    # Two layers keep two activations and one scratch tensor, which holds
    # the readout's masked copies, propagated inputs and derivatives in turn.
    # A step that also kept every pre-activation needs about 10 node tensors.
    d, targets, node_tensor = node_step
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width, output_dim=d.label_count,
                        hidden_dims=(32, 32), fuse_dim=32, activation=activation)
    params, batch = init_parameters(cfg, 0), build_batch(d.instances, cfg)
    step = lambda: loss_and_gradients(params, batch, targets)
    assert traced_peak(step) < 9 * node_tensor


@pytest.mark.parametrize("activation", tuple(ACTIVATIONS))
def test_full_batch_training_memory_is_a_fixed_workspace(node_step, activation):
    # The workspace holds the two activations and one scratch tensor,
    # allocated in the first epoch and reused by the others; the batch's own
    # node and operator tensors and build_batch's temporaries make up most
    # of the rest. Allocating them per epoch reads about 9.
    d, _, node_tensor = node_step
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width, output_dim=d.label_count,
                        hidden_dims=(32, 32), fuse_dim=32, activation=activation)
    tc = TrainConfig(task="multilabel", epochs=5)
    assert traced_peak(lambda: train(d, cfg, tc)) < 7 * node_tensor


def node_config(d, **overrides):
    base = dict(node_feature_dim=d.node_feature_dim, fingerprint_width=d.fingerprint_width,
                output_dim=d.label_count, hidden_dims=(32, 32), fuse_dim=32)
    return NetworkConfig(**{**base, **overrides})


@pytest.mark.parametrize("readout_mode", network.READOUT_MODES)
@pytest.mark.parametrize("activation", tuple(ACTIVATIONS))
def test_full_batch_training_holds_no_finished_node_tensor(node_step, activation, readout_mode):
    # Backward writes its node gradients into activation buffers it has
    # finished reading, and the readout's extreme search copies nothing
    # beyond its masked copy in the scratch tensor. Keeping a separate node
    # gradient and letting argmax copy the tensor read about 6.
    d, _, node_tensor = node_step
    cfg = node_config(d, activation=activation, readout_mode=readout_mode)
    tc = TrainConfig(task="multilabel", epochs=5)
    assert traced_peak(lambda: train(d, cfg, tc)) < 5.5 * node_tensor


@pytest.mark.parametrize("readout_mode", network.READOUT_MODES)
@pytest.mark.parametrize("activation", tuple(ACTIVATIONS))
def test_one_shot_step_runs_in_one_workspace(node_step, activation, readout_mode):
    # forward and backward share the step's workspace, so its node tensors
    # are allocated once; a fresh workspace for each read about 4.7.
    d, targets, node_tensor = node_step
    cfg = node_config(d, activation=activation, readout_mode=readout_mode)
    params, batch = init_parameters(cfg, 0), build_batch(d.instances, cfg)
    step = lambda: loss_and_gradients(params, batch, targets)
    assert traced_peak(step) < 4.5 * node_tensor


@pytest.mark.parametrize("hidden", [(32, 32), (3, 6, 2)])
def test_training_workspace_is_scratch_and_one_buffer_per_layer(monkeypatch, node_step, hidden):
    workspaces = []

    def recording(trace, targets, params, workspace=None, _backward=network.backward):
        workspaces.append(workspace)
        return _backward(trace, targets, params, workspace)

    monkeypatch.setattr(network, "backward", recording)
    d, _, _ = node_step
    train(d, node_config(d, hidden_dims=hidden), TrainConfig(task="multilabel", epochs=2))
    assert len(workspaces) == 2 and workspaces[0] is workspaces[1]
    assert set(workspaces[0]) == {"scratch"} | {f"hidden{k}" for k in range(len(hidden))}


def path_instances(rng, node_counts, cfg):
    return [
        Instance(id=f"g{i}",
                 fingerprint=Fingerprint(rng.integers(0, 2, size=cfg.fingerprint_width)),
                 labels=(), graph=path_graph(rng.normal(size=(n, cfg.node_feature_dim))))
        for i, n in enumerate(node_counts)
    ]


@pytest.mark.parametrize("readout_mode", network.READOUT_MODES)
@pytest.mark.parametrize("activation", tuple(ACTIVATIONS))
def test_a_reused_workspace_gives_the_bits_of_fresh_calls(readout_mode, activation):
    # A batch with Nmax 12, then a shorter one with Nmax 5, through one
    # workspace: the second reads prefix views of buffers the first filled.
    rng = np.random.default_rng(21)
    cfg = small_config(readout_mode=readout_mode, activation=activation)
    params = init_parameters(cfg, 8)
    workspace = {}
    for node_counts in ((12, 3, 7, 12, 1, 9), (5, 2, 4)):
        batch = build_batch(path_instances(rng, node_counts, cfg), cfg)
        targets = rng.integers(0, 2, size=(batch.instance_count, cfg.output_dim))
        trace = forward(batch, params, workspace)
        grads = backward(trace, targets, params, workspace)
        fresh = forward(batch, params)
        assert np.array_equal(trace.y_pred, fresh.y_pred)
        assert np.array_equal(grads.vector, backward(fresh, targets, params).vector)


def test_train_and_predict_step_through_the_public_step_functions(monkeypatch):
    # Tracing wraps network.forward and network.backward by name, so every
    # step of train and predict has to run through those names.
    calls = []
    for name in ("forward", "backward"):
        def counted(*args, _step=getattr(network, name), _name=name, **kwargs):
            calls.append(_name)
            return _step(*args, **kwargs)
        monkeypatch.setattr(network, name, counted)
    d = labeled_dataset(np.random.default_rng(31), n=12)
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width,
                        output_dim=d.label_count, hidden_dims=(4,), fuse_dim=3)
    params, _ = train(d, cfg, TrainConfig(task="multilabel", epochs=3, batch_size=5, seed=2))
    predict(d.instances, params)
    assert calls == ["forward", "backward"] * (3 * -(-len(d) // 5)) + ["forward"]


# Calls of each stage in one training step (forward then backward) of a
# hybrid model with K graph layers. Backward propagates K times to recompute
# each layer's input and K - 1 times to carry the gradient down, as the
# bottom layer's input needs none.
def stage_calls(k):
    per_layer = ("_transform", "_activate", "_derivative", "_activate_backward",
                 "_transform_backward")
    once = ("_readout", "_fingerprint_path", "_fuse", "_head", "_head_backward",
            "_fuse_backward", "_fingerprint_backward", "_readout_backward")
    return {"_propagate": 3 * k - 1, **dict.fromkeys(per_layer, k), **dict.fromkeys(once, 1)}


def test_every_stage_runs_through_its_module_name_with_the_same_bytes(monkeypatch, tmp_path):
    # A tracer wraps each stage in the module namespace, as the benchmark's
    # spans do for the public functions, so forward and backward must call
    # every stage by that name, and the wrapped run must train the same model.
    d = labeled_dataset(np.random.default_rng(41), n=16)
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width,
                        output_dim=d.label_count, hidden_dims=(5, 4), fuse_dim=3)
    runs = {"full": TrainConfig(task="multilabel", epochs=2, learning_rate=0.5, seed=3),
            "minibatch": TrainConfig(task="multilabel", epochs=1, learning_rate=0.5,
                                     batch_size=5, seed=3)}

    def checkpoints():
        out = {}
        for name, tc in runs.items():
            save_checkpoint(train(d, cfg, tc)[0], tmp_path / f"{name}.json")
            out[name] = (tmp_path / f"{name}.json").read_bytes()
        return out

    plain = checkpoints()
    counts = dict.fromkeys(stage_calls(cfg.layer_count), 0)
    for name in counts:
        def counted(*args, _stage=getattr(network, name), _name=name):
            counts[_name] += 1
            return _stage(*args)
        monkeypatch.setattr(network, name, counted)
    assert checkpoints() == plain
    steps = 2 + -(-len(d) // 5)
    assert counts == {name: calls * steps for name, calls in stage_calls(cfg.layer_count).items()}


# ---------------------------------------------------------------------------
# The worker thread of train and predict
# ---------------------------------------------------------------------------

def test_the_jobs_run_beside_the_caller_in_train_and_predict_and_inline_elsewhere(monkeypatch):
    caller, threads = threading.current_thread(), {}
    for name in ("_fingerprint_path", "_fingerprint_backward", "_loss"):
        def recorded(*args, _job=getattr(network, name), _name=name):
            threads.setdefault(_name, set()).add(threading.current_thread())
            return _job(*args)
        monkeypatch.setattr(network, name, recorded)
    d = labeled_dataset(np.random.default_rng(31), n=12)
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width,
                        output_dim=d.label_count, hidden_dims=(4,), fuse_dim=3)
    params, _ = train(d, cfg, TrainConfig(task="multilabel", epochs=2, batch_size=5))
    predict(d.instances, params)
    assert len(threads) == 3 and not any(caller in seen for seen in threads.values())
    threads.clear()
    loss_and_gradients(params, build_batch(d.instances, cfg), label_matrix(d))
    assert threads == dict.fromkeys(("_fingerprint_path", "_fingerprint_backward", "_loss"),
                                    {caller})


def diverging_regression():
    """A hybrid regression set whose loss turns non-finite at lr 1e8; the
    squared error overflows on the worker before it does."""
    d = generate(SynthConfig(n_instances=24, n_labels=4, fingerprint_width=16,
                             regression_width=2, seed=3))
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim, fingerprint_width=16,
                        output_dim=2, hidden_dims=(4,), fuse_dim=3,
                        head_mode="linear_regression")
    return d, cfg, TrainConfig(task="multiregression", epochs=20, learning_rate=1e8)


DIVERGED = r"^training diverged: loss is (inf|nan) in epoch \d+; try a lower --lr than 100000000\.0$"


@pytest.mark.parametrize("call", ["full batch", "minibatch", "predict", "diverged", "refused"])
def test_train_and_predict_leave_no_thread_running(call):
    # Each call joins its worker thread before it returns or raises.
    d = labeled_dataset(np.random.default_rng(31), n=12)
    cfg = NetworkConfig(node_feature_dim=d.node_feature_dim,
                        fingerprint_width=d.fingerprint_width,
                        output_dim=d.label_count, hidden_dims=(4,), fuse_dim=3)
    tc = TrainConfig(task="multilabel", epochs=2)
    before = threading.active_count()
    if call == "full batch":
        train(d, cfg, tc)
    elif call == "minibatch":
        train(d, cfg, dataclasses.replace(tc, batch_size=5))
    elif call == "predict":
        predict(d.instances, init_parameters(cfg, 0))
    elif call == "diverged":
        regression, net, diverging = diverging_regression()
        with pytest.raises(ValueError, match=DIVERGED):
            train(regression, net, dataclasses.replace(diverging, batch_size=5))
    else:
        graphless = generate(SynthConfig(n_instances=6, n_labels=3, fingerprint_width=8,
                                         graph_nodes_range=None))
        net = dataclasses.replace(cfg, node_feature_dim=graphless.node_feature_dim,
                                  fingerprint_width=8, output_dim=3)
        with pytest.raises(ValueError, match="have no graph"):
            train(graphless, net, tc)
    assert threading.active_count() == before


@pytest.mark.parametrize("batch_size", [None, 5])
def test_a_diverging_run_raises_its_one_line_error_and_no_warning(batch_size):
    # The worker's jobs run under the caller's errstate, so their overflows
    # are as silent as the caller's.
    d, cfg, tc = diverging_regression()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=DIVERGED):
            train(d, cfg, dataclasses.replace(tc, batch_size=batch_size))


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

    good = json.loads(dest.read_text())
    good["tensors"]["head_bias"]["data"] = [0.0, 0.0]
    config = good["config"]
    tensors = good["tensors"]
    for tampered, message in [
        ([good], "not a model checkpoint: format None"),
        ({**good, "config": None}, "needs a config object and a tensors object"),
        ({k: v for k, v in good.items() if k != "tensors"}, "needs a config object"),
        ({**good, "config": {k: v for k, v in config.items() if k != "hidden_dims"}},
         r"missing fields \['hidden_dims'\] and unknown fields \[\]"),
        ({**good, "config": {**config, "dropout": 0.5}}, r"unknown fields \['dropout'\]"),
        ({**good, "config": {**config, "hidden_dims": 4}}, "checkpoint config is invalid"),
        ({**good, "config": {**config, "activation": "gelu"}}, "unknown activation"),
        ({**good, "config": {**config, "head_mode": "softmax"}},
         r"^checkpoint config is invalid: unknown head_mode 'softmax'; expected one of "
         r"\('sigmoid_multilabel', 'linear_regression'\)$"),
        ({**good, "tensors": {k: v for k, v in tensors.items() if k != "fp_bias"}},
         "tensor 'fp_bias' is missing"),
        ({**good, "tensors": {**tensors, "fp_bias": {"shape": [3]}}},
         "tensor 'fp_bias' is missing or lacks its shape or data"),
        ({**good, "tensors": {**tensors, "fp_bias": {"shape": [3], "data": ["a", 1, 2]}}},
         "tensor 'fp_bias' is malformed"),
        ({**good, "tensors": {**tensors, "fp_bias": {"shape": [1, 3], "data": [0, 1, 2]}}},
         r"tensor 'fp_bias' has shape \(1, 3\), expected \(3,\)"),
        ({**good, "tensors": {**tensors, "fp_bias": {"shape": [3], "data": [0, math.nan, 2]}}},
         "checkpoint holds 1 non-finite parameter values"),
    ]:
        dest.write_text(json.dumps(tampered))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(dest)
    dest.write_text(json.dumps(good))
    load_checkpoint(dest)


def test_loss_curve_csv_layout():
    text = loss_curve_csv([0.5, 0.25])
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,loss"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,0.25"
