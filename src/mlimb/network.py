"""Hybrid graph/fingerprint network built from numpy, with analytic gradients.

Forward structure, all shapes row-major (instances/nodes in rows):

    H^(0) = X                       node features
    H^(k) = act(A_hat H^(k-1) W_k + b_k)   stacked graph layers
    h_G   = readout(H^(K))          per-graph pooling (permutation invariant)
    F*    = F W_p + c               dense fingerprint path
    Z     = (h_G + F*) W_q + d      additive fusion
    y     = head(Z W_r + e)         sigmoid / identity / softmax head

The adjacency operator A_hat is configurable: the literal adjacency, with
self-loops, or symmetric degree-normalized with self-loops (default, the
operator of Kipf & Welling, ICLR 2017). Input modes zero the unused path:
graph-only forces F* = 0, fingerprint-only forces h_G = 0, so the hybrid
model with a zeroed fingerprint path equals the graph-only model exactly.

Training is plain (optionally momentum) gradient descent, full-batch by
default. A batch pads every graph to the batch's largest node count: node
features are one (B, Nmax, F) tensor and the operators one (B, Nmax, Nmax)
tensor whose padding rows and columns are zero, so padding never mixes
into real nodes, and readouts mask it out. An epoch is then a handful of
batched and 2-D matrix products. Gradients are exact derivatives of the
clamped losses, which is what the finite-difference checks in the test
suite verify.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .data import Instance, MolecularGraph, MultiLabelDataset

__all__ = [
    "ACTIVATIONS",
    "READOUT_MODES",
    "HEAD_MODES",
    "ADJACENCY_MODES",
    "INPUT_MODES",
    "TASKS",
    "NetworkConfig",
    "ModelParameters",
    "init_parameters",
    "adjacency_operator",
    "graph_layer_forward",
    "readout",
    "fingerprint_dense",
    "fuse_and_predict",
    "graph_embedding",
    "predict_instance",
    "GraphBatch",
    "build_batch",
    "ForwardTrace",
    "forward",
    "loss",
    "backward",
    "loss_and_gradients",
    "label_matrix",
    "regression_matrix",
    "TrainConfig",
    "train",
    "predict",
    "save_checkpoint",
    "load_checkpoint",
    "loss_curve_csv",
]

READOUT_MODES = ("max_plus_mean", "max_plus_min", "concat_mean_max")
HEAD_MODES = ("sigmoid_multilabel", "linear_regression", "softmax")
ADJACENCY_MODES = ("literal", "self_loops", "normalized")
INPUT_MODES = ("hybrid", "graph", "fingerprint")
TASKS = ("multilabel", "multiregression")
BCE_EPS = 1e-7


def _tanh(p: np.ndarray) -> np.ndarray:
    return np.tanh(p)


def _dtanh(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    d = h * h
    return np.subtract(1.0, d, out=d)


def _relu(p: np.ndarray) -> np.ndarray:
    return np.maximum(p, 0.0)


def _drelu(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    return (p > 0.0).astype(np.float64)


def _identity(p: np.ndarray) -> np.ndarray:
    return p


def _didentity(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    return np.ones_like(p)


def _sigmoid(p: np.ndarray) -> np.ndarray:
    """Logistic 1 / (1 + exp(-p)); exp overflowing to inf correctly gives 0."""
    out = np.negative(p)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def _dsigmoid(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    d = 1.0 - h
    d *= h
    return d


ACTIVATIONS = {
    "tanh": (_tanh, _dtanh),
    "relu": (_relu, _drelu),
    "identity": (_identity, _didentity),
    "sigmoid": (_sigmoid, _dsigmoid),
}


@dataclass(frozen=True)
class NetworkConfig:
    """Dimension chain and mode switches of one model."""

    node_feature_dim: int
    fingerprint_width: int
    output_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    fuse_dim: int = 64
    activation: str = "tanh"
    readout_mode: str = "max_plus_mean"
    head_mode: str = "sigmoid_multilabel"
    adjacency_mode: str = "normalized"
    input_mode: str = "hybrid"

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.node_feature_dim < 1 or self.fingerprint_width < 1 or self.output_dim < 1:
            raise ValueError("node_feature_dim, fingerprint_width, output_dim must be positive")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must be a non-empty tuple of positive widths")
        if self.fuse_dim < 1:
            raise ValueError("fuse_dim must be positive")
        for name, value, allowed in (
            ("activation", self.activation, tuple(ACTIVATIONS)),
            ("readout_mode", self.readout_mode, READOUT_MODES),
            ("head_mode", self.head_mode, HEAD_MODES),
            ("adjacency_mode", self.adjacency_mode, ADJACENCY_MODES),
            ("input_mode", self.input_mode, INPUT_MODES),
        ):
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}; expected one of {allowed}")

    @property
    def layer_count(self) -> int:
        return len(self.hidden_dims)

    @property
    def embedding_dim(self) -> int:
        return self.hidden_dims[-1]

    @property
    def fusion_input_dim(self) -> int:
        # Concatenating mean and max doubles the embedding the dense
        # fingerprint path must match.
        factor = 2 if self.readout_mode == "concat_mean_max" else 1
        return factor * self.embedding_dim


@dataclass
class ModelParameters:
    """Every weight/bias tensor plus the config that fixes their shapes."""

    config: NetworkConfig
    layer_weights: list[np.ndarray]
    layer_biases: list[np.ndarray]
    fp_weight: np.ndarray
    fp_bias: np.ndarray
    fuse_weight: np.ndarray
    fuse_bias: np.ndarray
    head_weight: np.ndarray
    head_bias: np.ndarray

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for k, (w, b) in enumerate(zip(self.layer_weights, self.layer_biases)):
            out.append((f"layer_weights.{k}", w))
            out.append((f"layer_biases.{k}", b))
        out.extend(
            [
                ("fp_weight", self.fp_weight),
                ("fp_bias", self.fp_bias),
                ("fuse_weight", self.fuse_weight),
                ("fuse_bias", self.fuse_bias),
                ("head_weight", self.head_weight),
                ("head_bias", self.head_bias),
            ]
        )
        return out

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            config=self.config,
            layer_weights=[w.copy() for w in self.layer_weights],
            layer_biases=[b.copy() for b in self.layer_biases],
            fp_weight=self.fp_weight.copy(),
            fp_bias=self.fp_bias.copy(),
            fuse_weight=self.fuse_weight.copy(),
            fuse_bias=self.fuse_bias.copy(),
            head_weight=self.head_weight.copy(),
            head_bias=self.head_bias.copy(),
        )

    def zeros_like(self) -> "ModelParameters":
        return ModelParameters(
            config=self.config,
            layer_weights=[np.zeros_like(w) for w in self.layer_weights],
            layer_biases=[np.zeros_like(b) for b in self.layer_biases],
            fp_weight=np.zeros_like(self.fp_weight),
            fp_bias=np.zeros_like(self.fp_bias),
            fuse_weight=np.zeros_like(self.fuse_weight),
            fuse_bias=np.zeros_like(self.fuse_bias),
            head_weight=np.zeros_like(self.head_weight),
            head_bias=np.zeros_like(self.head_bias),
        )

    def add_scaled(self, other: "ModelParameters", factor: float) -> None:
        """In-place self += factor * other, tensor by tensor."""
        for (_, a), (_, b) in zip(self.named_tensors(), other.named_tensors()):
            a += factor * b


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def init_parameters(config: NetworkConfig, seed_or_rng: int | np.random.Generator) -> ModelParameters:
    """Uniform [-s, s] weights with s = sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    dims = (config.node_feature_dim,) + config.hidden_dims
    layer_weights = [_glorot(rng, dims[k], dims[k + 1]) for k in range(config.layer_count)]
    layer_biases = [np.zeros(dims[k + 1]) for k in range(config.layer_count)]
    fusion = config.fusion_input_dim
    return ModelParameters(
        config=config,
        layer_weights=layer_weights,
        layer_biases=layer_biases,
        fp_weight=_glorot(rng, config.fingerprint_width, fusion),
        fp_bias=np.zeros(fusion),
        fuse_weight=_glorot(rng, fusion, config.fuse_dim),
        fuse_bias=np.zeros(config.fuse_dim),
        head_weight=_glorot(rng, config.fuse_dim, config.output_dim),
        head_bias=np.zeros(config.output_dim),
    )


# ---------------------------------------------------------------------------
# Single-graph operations
# ---------------------------------------------------------------------------

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
    if mode == "sigmoid_multilabel":
        return _sigmoid(logits)
    if mode == "linear_regression":
        return logits
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


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


# ---------------------------------------------------------------------------
# Batched engine
# ---------------------------------------------------------------------------

@dataclass
class GraphBatch:
    """All instances of one batch packed for vectorized passes.

    Each graph is padded to the batch's largest node count ``Nmax``:
    ``nodes`` is (B, Nmax, F), ``operator`` is (B, Nmax, Nmax) and symmetric
    with zero rows and columns at padding, ``mask`` (B, Nmax) marks real
    nodes, and ``sizes`` holds each graph's node count. Graph fields are
    None in fingerprint-only mode.
    """

    instance_count: int
    fingerprints: np.ndarray
    nodes: np.ndarray | None = None
    operator: np.ndarray | None = None
    mask: np.ndarray | None = None
    sizes: np.ndarray | None = None


def build_batch(instances: list[Instance], config: NetworkConfig) -> GraphBatch:
    if not instances:
        raise ValueError("cannot build a batch from zero instances")
    for inst in instances:
        if inst.fingerprint.width != config.fingerprint_width:
            raise ValueError(
                f"instance {inst.id!r}: fingerprint width {inst.fingerprint.width} "
                f"does not match config width {config.fingerprint_width}"
            )
    fingerprints = np.stack([inst.fingerprint.bits for inst in instances]).astype(np.float64)
    batch = GraphBatch(instance_count=len(instances), fingerprints=fingerprints)
    if config.input_mode == "fingerprint":
        return batch

    for inst in instances:
        if inst.graph is None:
            raise ValueError(
                f"instance {inst.id!r} has no graph but input_mode={config.input_mode!r}"
            )
        if inst.graph.feature_dim != config.node_feature_dim:
            raise ValueError(
                f"instance {inst.id!r}: node feature dim {inst.graph.feature_dim} "
                f"does not match config dim {config.node_feature_dim}"
            )
    count = len(instances)
    sizes = np.fromiter((inst.graph.node_count for inst in instances), np.int64, count)
    width = int(sizes.max())
    mask = np.arange(width) < sizes[:, None]

    nodes = np.zeros((count, width, config.node_feature_dim))
    nodes[mask] = np.concatenate([inst.graph.node_features for inst in instances], axis=0)

    # Edge endpoints as rows of the flattened (B*Nmax) node axis; each
    # undirected edge counts once in each direction and duplicates sum.
    edge_counts = np.fromiter((len(inst.graph.edges) for inst in instances), np.int64, count)
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(inst.graph.edges for inst in instances)),
        np.int64,
        2 * int(edge_counts.sum()),
    ).reshape(-1, 2)
    rows = ends + np.repeat(np.arange(count, dtype=np.int64) * width, edge_counts)[:, None]
    operator = np.zeros((count, width, width))
    flat = operator.reshape(count * width, width)
    np.add.at(flat, (rows[:, 0], ends[:, 1]), 1.0)
    np.add.at(flat, (rows[:, 1], ends[:, 0]), 1.0)
    if config.adjacency_mode in ("self_loops", "normalized"):
        diag = np.arange(width)
        operator[:, diag, diag] += mask
    if config.adjacency_mode == "normalized":
        # Self-loops guarantee degree >= 1 on real nodes; padding keeps 0.
        inv_sqrt = 1.0 / np.sqrt(np.where(mask, operator.sum(axis=2), 1.0))
        operator *= inv_sqrt[:, :, None]
        operator *= inv_sqrt[:, None, :]

    batch.nodes = nodes
    batch.operator = operator
    batch.mask = mask
    batch.sizes = sizes
    return batch


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, kept from one forward pass."""

    batch: GraphBatch
    hidden: list[np.ndarray] = field(default_factory=list)  # [H^(0)=X, ..., H^(K)], (B, Nmax, .)
    pre: list[np.ndarray] = field(default_factory=list)  # (B*Nmax, .)
    propagated: list[np.ndarray] = field(default_factory=list)  # A_hat @ H^(k-1), (B, Nmax, .)
    h_g: np.ndarray | None = None
    max_rows: np.ndarray | None = None  # (B, D): first node attaining each column's max
    min_rows: np.ndarray | None = None
    f_star: np.ndarray | None = None
    fused: np.ndarray | None = None
    z: np.ndarray | None = None
    logits: np.ndarray | None = None
    y_pred: np.ndarray | None = None


def forward(batch: GraphBatch, params: ModelParameters) -> ForwardTrace:
    cfg = params.config
    act, _ = ACTIVATIONS[cfg.activation]
    trace = ForwardTrace(batch=batch)
    b = batch.instance_count
    fusion = cfg.fusion_input_dim

    if cfg.input_mode in ("hybrid", "graph"):
        h = batch.nodes
        width = h.shape[1]
        trace.hidden.append(h)
        for w, bias in zip(params.layer_weights, params.layer_biases):
            m = batch.operator @ h
            p = m.reshape(b * width, -1) @ w
            p += bias
            h = act(p).reshape(b, width, -1)
            trace.propagated.append(m)
            trace.pre.append(p)
            trace.hidden.append(h)
        # Padding rows hold act(bias); the readouts mask them out. argmax and
        # argmin return the first extreme node, the rows backward routes to.
        padding = ~batch.mask[:, :, None]
        masked = np.where(padding, -np.inf, h)
        trace.max_rows = masked.argmax(axis=1)
        maxv = np.take_along_axis(h, trace.max_rows[:, None, :], axis=1)[:, 0, :]
        if cfg.readout_mode == "max_plus_min":
            np.copyto(masked, np.inf, where=padding)
            trace.min_rows = masked.argmin(axis=1)
            minv = np.take_along_axis(h, trace.min_rows[:, None, :], axis=1)[:, 0, :]
            trace.h_g = maxv + minv
        else:
            np.copyto(masked, 0.0, where=padding)
            meanv = masked.sum(axis=1) / batch.sizes[:, None]
            if cfg.readout_mode == "max_plus_mean":
                trace.h_g = maxv + meanv
            else:
                trace.h_g = np.concatenate([meanv, maxv], axis=1)
    else:
        trace.h_g = np.zeros((b, fusion))

    if cfg.input_mode in ("hybrid", "fingerprint"):
        trace.f_star = batch.fingerprints @ params.fp_weight
        trace.f_star += params.fp_bias
    else:
        trace.f_star = np.zeros((b, fusion))

    trace.fused = trace.h_g + trace.f_star
    trace.z = trace.fused @ params.fuse_weight
    trace.z += params.fuse_bias
    trace.logits = trace.z @ params.head_weight
    trace.logits += params.head_bias
    trace.y_pred = _head(trace.logits, cfg.head_mode)
    return trace


def loss(y_pred: np.ndarray, targets: np.ndarray, task: str) -> float:
    """Mean squared error (multiregression) or mean clamped binary
    cross-entropy (multilabel) over all outputs."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    y = np.asarray(y_pred, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if y.shape != t.shape:
        raise ValueError(f"shape mismatch: predictions {y.shape} vs targets {t.shape}")
    if task == "multiregression":
        d = y - t
        return float(np.mean(d * d))
    yc = np.clip(y, BCE_EPS, 1.0 - BCE_EPS)
    return float(np.mean(-(t * np.log(yc) + (1.0 - t) * np.log(1.0 - yc))))


def _loss_grad(y: np.ndarray, t: np.ndarray, task: str) -> np.ndarray:
    n = y.size
    if task == "multiregression":
        return 2.0 * (y - t) / n
    yc = np.clip(y, BCE_EPS, 1.0 - BCE_EPS)
    inside = (y > BCE_EPS) & (y < 1.0 - BCE_EPS)
    g = (-(t / yc) + (1.0 - t) / (1.0 - yc)) / n
    return np.where(inside, g, 0.0)


def _head_grad(dy: np.ndarray, y: np.ndarray, mode: str) -> np.ndarray:
    if mode == "sigmoid_multilabel":
        return dy * y * (1.0 - y)
    if mode == "linear_regression":
        return dy
    return y * (dy - (dy * y).sum(axis=-1, keepdims=True))


def backward(
    trace: ForwardTrace, targets: np.ndarray, params: ModelParameters, task: str
) -> ModelParameters:
    """Gradients of loss(forward(batch), targets) for every parameter tensor."""
    cfg = params.config
    _, dact = ACTIVATIONS[cfg.activation]
    grads = params.zeros_like()
    batch = trace.batch

    y, t = trace.y_pred, np.asarray(targets, dtype=np.float64)
    if task == "multilabel" and cfg.head_mode == "sigmoid_multilabel":
        # Through the sigmoid the clamped BCE gradient collapses to
        # (y - t) / n where the clamp is inactive, and 0 where it is active.
        dlogits = np.subtract(y, t)
        dlogits /= y.size
        dlogits[(y <= BCE_EPS) | (y >= 1.0 - BCE_EPS)] = 0.0
    else:
        dlogits = _head_grad(_loss_grad(y, t, task), y, cfg.head_mode)

    grads.head_weight[:] = trace.z.T @ dlogits
    grads.head_bias[:] = dlogits.sum(axis=0)
    dz = dlogits @ params.head_weight.T

    grads.fuse_weight[:] = trace.fused.T @ dz
    grads.fuse_bias[:] = dz.sum(axis=0)
    dfused = dz @ params.fuse_weight.T

    if cfg.input_mode in ("hybrid", "fingerprint"):
        grads.fp_weight[:] = batch.fingerprints.T @ dfused
        grads.fp_bias[:] = dfused.sum(axis=0)

    if cfg.input_mode in ("hybrid", "graph"):
        b, width, dim = trace.hidden[-1].shape
        if cfg.readout_mode == "max_plus_min":
            dmax = dfused
            dh = np.zeros((b, width, dim))
        else:
            dmean, dmax = (
                (dfused, dfused) if cfg.readout_mode == "max_plus_mean"
                else np.split(dfused, 2, axis=1)
            )
            dh = batch.mask[:, :, None] * (dmean / batch.sizes[:, None])[:, None, :]
        # Flat offset of node row 0 for each (graph, column). A column has one
        # max row per graph, so no element is hit twice by one += below.
        base = np.arange(b)[:, None] * (width * dim) + np.arange(dim)
        flat = dh.reshape(-1)
        flat[base + trace.max_rows * dim] += dmax
        if cfg.readout_mode == "max_plus_min":
            flat[base + trace.min_rows * dim] += dfused

        # Padding rows of dh start at zero and stay zero, because the
        # operator's padding rows are zero, so they add nothing to any
        # gradient. dh is this function's own buffer: each layer turns it into
        # the gradient of its pre-activation in place.
        dh = dh.reshape(b * width, dim)
        for k in range(cfg.layer_count - 1, -1, -1):
            dh *= dact(trace.pre[k], trace.hidden[k + 1].reshape(dh.shape))
            grads.layer_weights[k][:] = trace.propagated[k].reshape(b * width, -1).T @ dh
            grads.layer_biases[k][:] = dh.sum(axis=0)
            if k > 0:
                # The operator is symmetric, so A_hat.T @ x == A_hat @ x.
                back = (dh @ params.layer_weights[k].T).reshape(b, width, -1)
                dh = (batch.operator @ back).reshape(b * width, -1)
    return grads


def loss_and_gradients(
    params: ModelParameters, batch: GraphBatch, targets: np.ndarray, task: str
) -> tuple[float, ModelParameters]:
    trace = forward(batch, params)
    return loss(trace.y_pred, targets, task), backward(trace, targets, params, task)


# ---------------------------------------------------------------------------
# Targets, training, prediction
# ---------------------------------------------------------------------------

def label_matrix(dataset: MultiLabelDataset, instances: list[Instance] | None = None) -> np.ndarray:
    """Dense 0/1 (instances x labels) target matrix."""
    rows = dataset.instances if instances is None else instances
    out = np.zeros((len(rows), dataset.label_count), dtype=np.float64)
    for i, inst in enumerate(rows):
        for l in inst.labels:
            out[i, l] = 1.0
    return out


def regression_matrix(dataset: MultiLabelDataset, instances: list[Instance] | None = None) -> np.ndarray:
    """Stacked regression targets; every instance must carry them."""
    rows = dataset.instances if instances is None else instances
    if dataset.regression_width == 0:
        raise ValueError("dataset declares no regression targets")
    stacked = []
    for inst in rows:
        if inst.regression_targets is None:
            raise ValueError(f"instance {inst.id!r} has no regression targets")
        stacked.append(inst.regression_targets)
    return np.stack(stacked)


@dataclass(frozen=True)
class TrainConfig:
    task: str
    epochs: int = 400
    learning_rate: float = 0.05
    momentum: float = 0.0
    batch_size: int | None = None  # None = full batch
    seed: int = 0

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when given")


def _training_targets(dataset: MultiLabelDataset, net: NetworkConfig, task: str) -> np.ndarray:
    if task == "multilabel":
        if net.output_dim != dataset.label_count:
            raise ValueError(
                f"output_dim {net.output_dim} does not match label count {dataset.label_count}"
            )
        return label_matrix(dataset)
    if net.output_dim != dataset.regression_width:
        raise ValueError(
            f"output_dim {net.output_dim} does not match regression width {dataset.regression_width}"
        )
    return regression_matrix(dataset)


def train(
    dataset: MultiLabelDataset, net: NetworkConfig, cfg: TrainConfig
) -> tuple[ModelParameters, list[float]]:
    """Gradient descent from a seeded init; returns params and the per-epoch
    training loss (loss at the parameters each epoch started from).

    Raises ValueError at the first non-finite loss, naming the epoch.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    targets = _training_targets(dataset, net, cfg.task)
    rng = np.random.default_rng(cfg.seed)
    params = init_parameters(net, rng)
    velocity = params.zeros_like() if cfg.momentum > 0 else None
    curve: list[float] = []

    # A diverging run overflows before its loss turns non-finite; the check
    # below reports that as one error instead of a stream of warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.batch_size is None or cfg.batch_size >= len(dataset):
            batch = build_batch(dataset.instances, net)
            for epoch in range(1, cfg.epochs + 1):
                value, grads = loss_and_gradients(params, batch, targets, cfg.task)
                curve.append(_finite_loss(value, epoch, cfg))
                _apply_update(params, grads, velocity, cfg)
            return params, curve

        indices = np.arange(len(dataset))
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(indices)
            epoch_sum = 0.0
            for lo in range(0, order.size, cfg.batch_size):
                chunk = order[lo : lo + cfg.batch_size]
                sub = [dataset.instances[i] for i in chunk]
                batch = build_batch(sub, net)
                value, grads = loss_and_gradients(params, batch, targets[chunk], cfg.task)
                epoch_sum += _finite_loss(value, epoch, cfg) * chunk.size
                _apply_update(params, grads, velocity, cfg)
            curve.append(epoch_sum / order.size)
    return params, curve


def _finite_loss(value: float, epoch: int, cfg: TrainConfig) -> float:
    if not math.isfinite(value):
        raise ValueError(
            f"training diverged: loss is {value!r} in epoch {epoch}; "
            f"try a lower --lr than {cfg.learning_rate!r}"
        )
    return value


def _apply_update(
    params: ModelParameters,
    grads: ModelParameters,
    velocity: ModelParameters | None,
    cfg: TrainConfig,
) -> None:
    if velocity is None:
        params.add_scaled(grads, -cfg.learning_rate)
        return
    for (_, v), (_, g) in zip(velocity.named_tensors(), grads.named_tensors()):
        v *= cfg.momentum
        v -= cfg.learning_rate * g
    params.add_scaled(velocity, 1.0)


def predict(instances: list[Instance], params: ModelParameters) -> np.ndarray:
    """Batched forward pass; rows follow instance order."""
    batch = build_batch(instances, params.config)
    return forward(batch, params).y_pred


# ---------------------------------------------------------------------------
# Checkpoints and curve export
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "hybridnet-checkpoint-v1"


def save_checkpoint(params: ModelParameters, destination: str | Path) -> None:
    """Single JSON document with the config and every named tensor."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(params.config),
        "tensors": {
            name: {"shape": list(tensor.shape), "data": tensor.ravel().tolist()}
            for name, tensor in params.named_tensors()
        },
    }
    Path(destination).write_text(
        json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8"
    )


def load_checkpoint(source: str | Path) -> ModelParameters:
    doc = json.loads(Path(source).read_text(encoding="utf-8"))
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: format {doc.get('format')!r}")
    raw = dict(doc["config"])
    raw["hidden_dims"] = tuple(raw["hidden_dims"])
    config = NetworkConfig(**raw)
    params = init_parameters(config, 0)
    loaded = {name: np.asarray(t["data"], dtype=np.float64).reshape(t["shape"])
              for name, t in doc["tensors"].items()}
    for name, tensor in params.named_tensors():
        if name not in loaded:
            raise ValueError(f"checkpoint is missing tensor {name!r}")
        if loaded[name].shape != tensor.shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {loaded[name].shape}, expected {tensor.shape}"
            )
        tensor[:] = loaded[name]
    return params


def loss_curve_csv(curve: list[float]) -> str:
    lines = ["epoch,loss"]
    lines.extend(f"{epoch},{value!r}" for epoch, value in enumerate(curve, start=1))
    return "\n".join(lines) + "\n"
