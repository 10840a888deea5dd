"""Hybrid graph/fingerprint network built from numpy, with analytic gradients.

Forward structure, all shapes row-major (instances/nodes in rows):

    H^(0) = X                       node features
    H^(k) = act(A_hat H^(k-1) W_k + b_k)   stacked graph layers
    h_G   = readout(H^(K))          per-graph pooling (permutation invariant)
    F*    = F W_p + c               dense fingerprint path
    Z     = (h_G + F*) W_q + d      additive fusion
    y     = head(Z W_r + e)         sigmoid (multilabel) or identity (multiregression)

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

Memory follows the batch, not the dataset: training builds each batch's
dense targets from its own rows, and prediction runs in row blocks written
into one output array. Multilabel targets are bool matrices, and a step
allocates few batch x labels arrays: the head overwrites the logits buffer,
and the clamped cross-entropy fills one buffer with log(y) or log(1 - y) by
target, which for 0/1 targets is the two-log form to the bit.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import operator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .data import Instance, MolecularGraph, MultiLabelDataset

__all__ = [
    "ACTIVATIONS",
    "READOUT_MODES",
    "HEAD_MODES",
    "ADJACENCY_MODES",
    "INPUT_MODES",
    "TASK_HEADS",
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
# The one head each task trains: the sigmoid head's clamped cross-entropy
# and the identity head's squared error are the only gradients backward has.
TASK_HEADS = {"multilabel": "sigmoid_multilabel", "multiregression": "linear_regression"}
TASKS = tuple(TASK_HEADS)
HEAD_MODES = tuple(TASK_HEADS.values())
ADJACENCY_MODES = ("literal", "self_loops", "normalized")
INPUT_MODES = ("hybrid", "graph", "fingerprint")
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


def _sigmoid(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic 1 / (1 + exp(-p)); exp overflowing to inf correctly gives 0.

    Writes into ``out`` when given (``out=p`` overwrites the input), else
    into a new array.
    """
    out = np.negative(p, out=out)
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
        for name in ("node_feature_dim", "fingerprint_width", "output_dim", "fuse_dim"):
            object.__setattr__(self, name, _dimension(name, getattr(self, name)))
        hidden = tuple(_dimension("hidden_dims", h) for h in self.hidden_dims)
        if not hidden:
            raise ValueError("hidden_dims must hold at least one width")
        object.__setattr__(self, "hidden_dims", hidden)
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
    def task(self) -> str:
        """The task the head trains for: its entry in TASK_HEADS."""
        return TASKS[HEAD_MODES.index(self.head_mode)]

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


def _dimension(name: str, value: object) -> int:
    """A positive int; numpy integers pass, floats are refused, not truncated."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _layout(config: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter tensor, in the order they lie in
    the parameter vector: graph layers, fingerprint path, fusion, head."""
    dims = (config.node_feature_dim,) + config.hidden_dims
    fusion = config.fusion_input_dim
    layers = []
    for k in range(config.layer_count):
        layers.append((f"layer_weights.{k}", (dims[k], dims[k + 1])))
        layers.append((f"layer_biases.{k}", (dims[k + 1],)))
    return layers + [
        ("fp_weight", (config.fingerprint_width, fusion)),
        ("fp_bias", (fusion,)),
        ("fuse_weight", (fusion, config.fuse_dim)),
        ("fuse_bias", (config.fuse_dim,)),
        ("head_weight", (config.fuse_dim, config.output_dim)),
        ("head_bias", (config.output_dim,)),
    ]


def _vector_size(config: NetworkConfig) -> int:
    return sum(math.prod(shape) for _, shape in _layout(config))


@dataclass
class ModelParameters:
    """The config plus one float64 vector holding every weight and bias.

    The tensor fields and ``named_tensors()`` are views into ``vector``,
    carved by ``_layout``: writing through them writes the vector, and a
    whole-model update or copy is one vector operation.
    """

    config: NetworkConfig
    vector: np.ndarray
    layer_weights: list[np.ndarray] = field(init=False, repr=False)
    layer_biases: list[np.ndarray] = field(init=False, repr=False)
    fp_weight: np.ndarray = field(init=False, repr=False)
    fp_bias: np.ndarray = field(init=False, repr=False)
    fuse_weight: np.ndarray = field(init=False, repr=False)
    fuse_bias: np.ndarray = field(init=False, repr=False)
    head_weight: np.ndarray = field(init=False, repr=False)
    head_bias: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        size = _vector_size(self.config)
        if self.vector.dtype != np.float64 or self.vector.shape != (size,):
            raise ValueError(f"parameter vector must be float64 of shape ({size},), "
                             f"got {self.vector.dtype} of shape {self.vector.shape}")
        self.layer_weights, self.layer_biases = [], []
        for name, view in self.named_tensors():
            field_name, layered, _ = name.partition(".")
            if layered:
                getattr(self, field_name).append(view)
            else:
                setattr(self, field_name, view)

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        layout = _layout(self.config)
        ends = np.cumsum([math.prod(shape) for _, shape in layout])
        pieces = np.split(self.vector, ends[:-1])
        return [(name, piece.reshape(shape)) for (name, shape), piece in zip(layout, pieces)]

    def copy(self) -> "ModelParameters":
        return ModelParameters(self.config, self.vector.copy())

    def zeros_like(self) -> "ModelParameters":
        return ModelParameters(self.config, np.zeros_like(self.vector))


def init_parameters(config: NetworkConfig, seed_or_rng: int | np.random.Generator) -> ModelParameters:
    """Uniform [-s, s] weights with s = sqrt(6/(fan_in+fan_out)), drawn in
    layout order; zero biases."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    params = ModelParameters(config, np.zeros(_vector_size(config)))
    for _, tensor in params.named_tensors():
        if tensor.ndim == 2:
            s = math.sqrt(6.0 / sum(tensor.shape))
            tensor[:] = rng.uniform(-s, s, size=tensor.shape)
    return params


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


def _require_graphs(instances: list[Instance], config: NetworkConfig) -> None:
    """Reject, in one line, instances without a graph under a graph input mode."""
    if config.input_mode == "fingerprint":
        return
    missing = [inst.id for inst in instances if inst.graph is None]
    if missing:
        raise ValueError(
            f"{len(missing)} of {len(instances)} instances have no graph (first {missing[0]!r}) "
            f"but input_mode={config.input_mode!r}; use --inputs fingerprint"
        )


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

    _require_graphs(instances, config)
    for inst in instances:
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
    logits = trace.z @ params.head_weight
    logits += params.head_bias
    trace.y_pred = _head(logits, cfg.head_mode)
    return trace


def loss(y_pred: np.ndarray, targets: np.ndarray, task: str) -> float:
    """Mean squared error (multiregression) or mean clamped binary
    cross-entropy (multilabel) over all outputs.

    Multilabel targets are 0/1 or bool; any other value raises ValueError.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    y = np.asarray(y_pred, dtype=np.float64)
    t = np.asarray(targets)
    if y.shape != t.shape:
        raise ValueError(f"shape mismatch: predictions {y.shape} vs targets {t.shape}")
    if task == "multiregression":
        d = y - t
        d *= d
        return float(np.mean(d))
    if t.dtype != bool and not ((t == 0) | (t == 1)).all():
        raise ValueError("multilabel targets must contain only 0/1 entries")
    # With 0/1 targets one log per entry is enough: log(yc) where t is 1 and
    # log(1 - yc) where it is 0. The term the two-log form multiplies by 0 is
    # an exact +-0.0 there, so both forms give the same value to the bit.
    w = np.clip(y, BCE_EPS, 1.0 - BCE_EPS)
    np.subtract(1.0, w, out=w, where=t == 0)
    np.log(w, out=w)
    return -float(np.mean(w))


def _require_task(config: NetworkConfig, task: str) -> None:
    if task != config.task:
        raise ValueError(
            f"head_mode {config.head_mode!r} trains task {config.task!r}, not {task!r}"
        )


def backward(
    trace: ForwardTrace, targets: np.ndarray, params: ModelParameters, task: str
) -> ModelParameters:
    """Gradients of loss(forward(batch), targets) for every parameter tensor.

    Raises ValueError when the config's head does not serve ``task``.
    """
    cfg = params.config
    _require_task(cfg, task)
    _, dact = ACTIVATIONS[cfg.activation]
    grads = params.zeros_like()
    batch = trace.batch

    y = trace.y_pred
    dlogits = np.subtract(y, targets)
    if task == "multilabel":
        # Through the sigmoid the clamped BCE gradient collapses to
        # (y - t) / n where the clamp is inactive, and 0 where it is active.
        dlogits /= y.size
        clamped = y <= BCE_EPS
        clamped |= y >= 1.0 - BCE_EPS
        dlogits[clamped] = 0.0
    else:
        # Through the identity head the squared error gives 2 (y - t) / n.
        dlogits *= 2.0
        dlogits /= y.size

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
    """Dense bool (instances x labels) target matrix, True where the label is
    present. loss, backward and the evaluation metrics take targets as 0/1
    numbers or bool, with the same results."""
    rows = dataset.instances if instances is None else instances
    out = np.zeros((len(rows), dataset.label_count), dtype=bool)
    for i, inst in enumerate(rows):
        for l in inst.labels:
            out[i, l] = True
    return out


def regression_matrix(dataset: MultiLabelDataset, instances: list[Instance] | None = None) -> np.ndarray:
    """Stacked regression targets. Raises ValueError, naming the first
    offending instance, when one lacks its targets or holds a non-finite one."""
    rows = dataset.instances if instances is None else instances
    if dataset.regression_width == 0:
        raise ValueError("dataset declares no regression targets")
    for inst in rows:
        if inst.regression_targets is None:
            raise ValueError(f"instance {inst.id!r} has no regression targets")
    out = np.stack([inst.regression_targets for inst in rows])
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        first = rows[int(finite.argmin())]
        raise ValueError(f"instance {first.id!r} has a non-finite regression target")
    return out


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
        if not (0.0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be positive and finite")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when given")


def _check_targets(dataset: MultiLabelDataset, net: NetworkConfig, task: str) -> None:
    """Fail, in one line, before training or evaluating when the head does
    not serve the task or the dataset cannot supply its targets."""
    _require_task(net, task)
    if task == "multilabel":
        if net.output_dim != dataset.label_count:
            raise ValueError(
                f"model predicts {net.output_dim} labels, dataset has {dataset.label_count}"
            )
        return
    if dataset.regression_width == 0:
        raise ValueError("dataset declares no regression targets")
    if net.output_dim != dataset.regression_width:
        raise ValueError(
            f"model predicts {net.output_dim} regression targets, "
            f"dataset has {dataset.regression_width}"
        )
    regression_matrix(dataset)


# (get, set) thread-count symbols of OpenBLAS builds; numpy's bundled build
# prefixes its names.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """Getter and setter of the thread count of the loaded OpenBLAS, found
    through the process's memory map; None for other BLAS libraries and on
    platforms without ``/proc``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            getter, setter = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextmanager
def _single_thread_blas() -> Iterator[None]:
    """Run OpenBLAS on one thread inside the block, then restore the
    caller's thread count.

    Threaded OpenBLAS splits a matrix product by thread count, and the split
    changes the last bits of some entries, so checkpoints and predictions
    would depend on the machine's core count. The setting is process-wide.
    Other BLAS libraries are left as they are.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def train(
    dataset: MultiLabelDataset, net: NetworkConfig, cfg: TrainConfig
) -> tuple[ModelParameters, list[float]]:
    """Gradient descent from a seeded init; returns params and the per-epoch
    training loss (loss at the parameters each epoch started from).

    Targets are built per batch, so a minibatch run holds batch_size x
    output_dim of them, never the whole dataset's. Raises ValueError before
    the first update when the head does not serve the task, the dataset
    cannot supply the task's targets or a graph input mode meets instances
    without a graph; at the first non-finite loss, naming the epoch; and
    when the last update leaves a parameter non-finite, so no caller saves a
    non-finite checkpoint.
    OpenBLAS runs on one thread meanwhile, so the result does not depend on
    the core count.
    """
    with _single_thread_blas():
        params, curve = _train(dataset, net, cfg)
    bad = int(np.count_nonzero(~np.isfinite(params.vector)))
    if bad:
        raise ValueError(
            f"training diverged: {bad} parameters are non-finite after epoch {cfg.epochs}; "
            f"try a lower --lr than {cfg.learning_rate!r}"
        )
    return params, curve


def _train(
    dataset: MultiLabelDataset, net: NetworkConfig, cfg: TrainConfig
) -> tuple[ModelParameters, list[float]]:
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    _check_targets(dataset, net, cfg.task)
    _require_graphs(dataset.instances, net)
    target_rows = label_matrix if cfg.task == "multilabel" else regression_matrix
    rng = np.random.default_rng(cfg.seed)
    params = init_parameters(net, rng)
    velocity = params.zeros_like() if cfg.momentum > 0 else None
    curve: list[float] = []

    # A diverging run overflows before its loss turns non-finite; the check
    # below reports that as one error instead of a stream of warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.batch_size is None or cfg.batch_size >= len(dataset):
            batch = build_batch(dataset.instances, net)
            targets = target_rows(dataset)
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
                value, grads = loss_and_gradients(params, batch, target_rows(dataset, sub), cfg.task)
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
        params.vector += -cfg.learning_rate * grads.vector
        return
    velocity.vector *= cfg.momentum
    velocity.vector -= cfg.learning_rate * grads.vector
    params.vector += velocity.vector


# predict splits its rows evenly into blocks of 256-511 rows, so its
# temporaries (padded graph tensors, a few block x output_dim arrays) stay the
# same size however many rows there are. On OpenBLAS, blocks of 64-1000 rows
# gave exactly the predictions of one full batch; only blocks of a few rows
# differed, in the last bits, and even splitting never makes blocks that small.
_PREDICT_BLOCK_ROWS = 256


def predict(instances: list[Instance], params: ModelParameters) -> np.ndarray:
    """Forward pass in row blocks written into one output; rows follow
    instance order, and fewer than 512 rows run as a single batch. OpenBLAS
    runs on one thread meanwhile, as in ``train``."""
    # Checked over all rows, so the error counts the whole input and comes
    # before any block runs.
    _require_graphs(instances, params.config)
    n = len(instances)
    blocks = max(1, n // _PREDICT_BLOCK_ROWS)
    edges = [n * k // blocks for k in range(blocks + 1)]
    out = np.empty((n, params.config.output_dim))
    with _single_thread_blas():
        for lo, hi in zip(edges, edges[1:]):
            out[lo:hi] = forward(build_batch(instances[lo:hi], params.config), params).y_pred
    return out


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
    """Read a checkpoint written by ``save_checkpoint``.

    Raises ValueError, in one line, on any other document: another format,
    a config with missing or unknown fields, a missing, malformed or
    misshapen tensor, or a value that is not finite.
    """
    doc = json.loads(Path(source).read_text(encoding="utf-8"))
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: format {found!r}")
    raw, tensors = doc.get("config"), doc.get("tensors")
    if not isinstance(raw, dict) or not isinstance(tensors, dict):
        raise ValueError("checkpoint needs a config object and a tensors object")
    expected = {f.name for f in fields(NetworkConfig)}
    missing, unknown = sorted(expected - raw.keys()), sorted(raw.keys() - expected)
    if missing or unknown:
        raise ValueError(
            f"checkpoint config has missing fields {missing} and unknown fields {unknown}"
        )
    try:
        config = NetworkConfig(**raw)
        params = ModelParameters(config, np.zeros(_vector_size(config)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint config is invalid: {exc}") from exc
    for name, tensor in params.named_tensors():
        entry = tensors.get(name)
        if not isinstance(entry, dict) or not {"shape", "data"} <= entry.keys():
            raise ValueError(f"checkpoint tensor {name!r} is missing or lacks its shape or data")
        try:
            loaded = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint tensor {name!r} is malformed: {exc}") from exc
        if loaded.shape != tensor.shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {loaded.shape}, expected {tensor.shape}"
            )
        tensor[:] = loaded
    bad = int(np.count_nonzero(~np.isfinite(params.vector)))
    if bad:
        raise ValueError(f"checkpoint holds {bad} non-finite parameter values")
    return params


def loss_curve_csv(curve: list[float]) -> str:
    lines = ["epoch,loss"]
    lines.extend(f"{epoch},{value!r}" for epoch, value in enumerate(curve, start=1))
    return "\n".join(lines) + "\n"
