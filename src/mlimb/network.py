"""Hybrid graph/fingerprint network built from numpy, with analytic gradients.

A forward pass runs these stages, shapes row-major (instances/nodes in rows):

    H^(0) = X                      node features
    per graph layer k = 1..K:
      M     = A_hat H^(k-1)        propagate         _propagate
      P     = M W_k + b_k          transform         _transform
      H^(k) = act(P)               activate          _activate
    h_G = readout(H^(K))           readout           _readout, as READOUTS says
    F*  = F W_p + c                fingerprint path  _fingerprint_path
    Z   = (h_G + F*) W_q + d       fusion            _fuse
    y   = head(Z W_r + e)          head              _head: sigmoid or identity

Backward runs them in reverse from the head's loss gradient: _head_backward,
_fuse_backward, _fingerprint_backward, _readout_backward, then per layer
from K down to 1 _activate_backward (times act'(P), which _derivative writes
from H^(k)), _transform_backward and _propagate, its own backward since
A_hat is symmetric. forward and backward call each stage by its name.

The adjacency operator A_hat is configurable: the literal adjacency, with
self-loops, or symmetric degree-normalized with self-loops (default, the
operator of Kipf & Welling, ICLR 2017). Input modes zero the unused path:
graph-only forces F* = 0, fingerprint-only forces h_G = 0, so the hybrid
model with a zeroed fingerprint path equals the graph-only model exactly.

Training is plain (optionally momentum) gradient descent, full-batch by
default. A batch pads every graph to the batch's largest node count: node
features are one (B, Nmax, F) tensor and the operators one (B, Nmax, Nmax)
tensor whose padding rows and columns are zero, so padding never mixes
into real nodes, and readouts mask it out. Gradients are exact.

Memory follows the batch, not the dataset: training builds each batch's
targets (bool for multilabel) from its own rows, and prediction runs in row
blocks. Every (B, Nmax, D) node tensor lives in a workspace that ``train``
and ``predict`` allocate once per call: one buffer per layer, where H^(k)
overwrites its pre-activation, and one scratch tensor. Backward recomputes
A_hat H^(k-1) with the same product on the same operands rather than keep
it, and writes each node gradient over an activation it has finished reading.

``train`` and ``predict`` use at most two threads, with OpenBLAS on one
thread in each. Their workspace keeps one worker thread, which runs the
fingerprint path beside the graph layers and the readout, the fingerprint
backward beside the graph layers' backward, and the loss beside backward;
``train`` and ``predict`` join it before they return. A job writes only
arrays its caller allocated and reads nothing the caller writes meanwhile,
so every output keeps the bytes of the same stages run on one thread, as
they are when ``forward``, ``backward`` or ``loss_and_gradients`` is
called without such a workspace.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import json
import math
import threading
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

# _openblas_threads is imported for callers that read network._openblas_threads.
from .data import (Instance, MolecularGraph, MultiLabelDataset, _check_seed, _integer,
                   _openblas_threads, _single_thread_blas, _unpacked_rows)

__all__ = [
    "ACTIVATIONS",
    "READOUTS",
    "READOUT_MODES",
    "HEAD_MODES",
    "ADJACENCY_MODES",
    "INPUT_MODES",
    "TASK_HEADS",
    "TASKS",
    "NetworkConfig",
    "ModelParameters",
    "init_parameters",
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

# The one head each task trains: the sigmoid head's clamped cross-entropy
# and the identity head's squared error are the only gradients backward has.
TASK_HEADS = {"multilabel": "sigmoid_multilabel", "multiregression": "linear_regression"}
TASKS = tuple(TASK_HEADS)
HEAD_MODES = tuple(TASK_HEADS.values())
ADJACENCY_MODES = ("literal", "self_loops", "normalized")
INPUT_MODES = ("hybrid", "graph", "fingerprint")
BCE_EPS = 1e-7


def _dtanh(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.multiply(h, h, out=out)
    return np.subtract(1.0, out, out=out)


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


def _dsigmoid(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.subtract(1.0, h, out=out)
    out *= h
    return out


def _fill_ones(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    out.fill(1.0)
    return out


# Each activation overwrites its input and returns it; each derivative is
# written into ``out`` from the activation's output alone (relu's h > 0 is
# p > 0), so the forward pass keeps no pre-activations.
ACTIVATIONS = {
    "tanh": (lambda p: np.tanh(p, out=p), _dtanh),
    "relu": (lambda p: np.maximum(p, 0.0, out=p), lambda h, out: np.greater(h, 0.0, out=out)),
    "identity": (lambda p: p, _fill_ones),
    "sigmoid": (lambda p: _sigmoid(p, out=p), _dsigmoid),
}


READOUTS = {
    "max_plus_mean": (("max", "mean"),),
    "max_plus_min": (("max", "min"),),
    "concat_mean_max": (("mean",), ("max",)),
}
"""Each readout mode as the blocks of h_G, which concatenates them: a block
adds its pools, each the mean, maximum or minimum of a graph's real nodes
per column of H^(K). So ``max_plus_mean`` is max + mean, ``max_plus_min``
max + min, and ``concat_mean_max`` [mean, max], two embeddings wide, as F*
must be. Backward hands each block its slice of h_G's gradient and each of
its pools all of that slice: the mean spreads it evenly over the real nodes,
max and min send it to the first real node that attained the extreme."""
READOUT_MODES = tuple(READOUTS)


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
    def readout(self) -> tuple[tuple[str, ...], ...]:
        return READOUTS[self.readout_mode]

    @property
    def fusion_input_dim(self) -> int:
        """Width of h_G, which the dense fingerprint path must match."""
        return len(self.readout) * self.embedding_dim


def _dimension(name: str, value: object) -> int:
    """A positive int; numpy integers pass, floats are refused, not truncated."""
    value = _integer(name, value)
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
    """Reject, in one line, instances without a decoded graph under a graph
    input mode."""
    if config.input_mode == "fingerprint":
        return
    unread = [inst for inst in instances if not isinstance(inst.graph, MolecularGraph)]
    if not unread:
        return
    missing = [inst.id for inst in unread if inst.graph is None]
    if missing:
        raise ValueError(
            f"{len(missing)} of {len(instances)} instances have no graph (first {missing[0]!r}) "
            f"but input_mode={config.input_mode!r}; use --inputs fingerprint"
        )
    raise ValueError(
        f"instance {unread[0].id!r} holds its graph as undecoded text but "
        f"input_mode={config.input_mode!r}; load the dataset with decode_graphs=True"
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
    fingerprints = _unpacked_rows([inst.fingerprint.packed for inst in instances],
                                  config.fingerprint_width).astype(np.float64)
    if config.input_mode == "fingerprint":
        return GraphBatch(instance_count=len(instances), fingerprints=fingerprints)

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
    ends = np.concatenate([inst.graph.edges for inst in instances])
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
    return GraphBatch(count, fingerprints, nodes, operator, mask, sizes)


def _buffer(workspace: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The float64 buffer ``name`` of a workspace as a contiguous (shape)
    view of its first elements, for the caller to overwrite. A buffer grows
    to the largest size it has served and is kept for the next request."""
    size = math.prod(shape)
    held = workspace.get(name)
    if held is None or held.size < size:
        held = workspace[name] = np.empty(size)
    return held[:size].reshape(shape)


class _Workspace(dict):
    """A workspace whose ``with`` block keeps one worker thread, which runs
    the jobs ``_beside`` hands it, in the order handed, while the caller runs
    the rest of the step. Leaving the block runs the jobs still queued, then
    stops and joins the thread, so no thread outlives ``train`` or ``predict``.

    A job writes only what its caller allocated for it and reads only what
    nothing writes until its result is taken, so the step's operations, and
    their bytes, are those of the same jobs run inline.
    """

    def __enter__(self) -> "_Workspace":
        self._jobs, self._posted = collections.deque(), threading.Semaphore(0)
        self._thread = threading.Thread(target=self._serve, name="mlimb-step", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.post(None)
        self._thread.join()

    def post(self, job: "_Job | None") -> None:
        self._jobs.append(job)
        self._posted.release()

    def _serve(self) -> None:
        while True:
            self._posted.acquire()
            job = self._jobs.popleft()
            if job is None:
                return
            job.run()


class _Job:
    """A call the worker runs once; ``result`` waits for it and returns its
    value or raises its exception."""

    __slots__ = ("_call", "_value", "_error", "_finished")

    def __init__(self, call) -> None:
        self._call, self._value, self._error = call, None, None
        self._finished = threading.Lock()
        self._finished.acquire()

    def run(self) -> None:
        try:
            self._value = self._call()
        except BaseException as exc:  # raised again in the caller, by result()
            self._error = exc
        self._finished.release()

    def result(self):
        self._finished.acquire()
        if self._error is not None:
            raise self._error
        return self._value


def _done(value):
    return lambda: value


def _beside(workspace: dict, job, *args):
    """Start ``job(*args)`` on the workspace's worker thread and return a
    call that waits for its result; without a worker it runs here and now."""
    if not isinstance(workspace, _Workspace):
        return _done(job(*args))
    # The job runs in a copy of the caller's context, which holds numpy's errstate.
    posted = _Job(functools.partial(contextvars.copy_context().run, job, *args))
    workspace.post(posted)
    return posted.result


@dataclass
class ForwardTrace:
    """What backward reads of one forward pass. Each activation H^(k) is a
    view into the pass's workspace, valid until ``backward`` (which writes
    node gradients over it) or the next ``forward`` on it. Under the mean
    readouts H^(K)'s padding rows are zero, not act(bias).
    """

    batch: GraphBatch
    hidden: list[np.ndarray] = field(default_factory=list)  # [H^(0)=X, ..., H^(K)], (B, Nmax, .)
    extremes: dict[str, np.ndarray] = field(default_factory=dict)  # pool -> (B, D) extreme nodes
    fused: np.ndarray | None = None
    z: np.ndarray | None = None
    y_pred: np.ndarray | None = None


def _propagate(operator: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A_hat H into ``out``; A_hat is symmetric, so this is its own backward."""
    return np.matmul(operator, h, out=out)


def _transform(m: np.ndarray, params: ModelParameters, k: int, out: np.ndarray) -> np.ndarray:
    """M W_k + b_k over every node row, into ``out``."""
    rows = m.shape[0] * m.shape[1]
    np.matmul(m.reshape(rows, -1), params.layer_weights[k], out=out.reshape(rows, -1))
    out += params.layer_biases[k]
    return out


def _activate(activation: str, p: np.ndarray) -> np.ndarray:
    return ACTIVATIONS[activation][0](p)


# Each extreme pool, the fill hiding padding from its search, and the search.
_EXTREMES = (("max", -np.inf, np.argmax), ("min", np.inf, np.argmin))


def _readout(h: np.ndarray, batch: GraphBatch, readout: tuple, workspace: dict) -> tuple:
    """h_G as READOUTS says, and per extreme pool the node each (graph, column) took."""
    pools, pooled = [pool for block in readout for pool in block], {}
    if "mean" in pools:
        # Padding rows hold act(bias): zero them in H^(K) itself, then sum
        # along the nodes in node order. Backward gives them zero gradient.
        np.copyto(h, 0.0, where=~batch.mask[:, :, None])
        pooled["mean"] = h.sum(axis=1) / batch.sizes[:, None]
    # Each search runs along the last, contiguous axis of one (B, D, Nmax)
    # masked copy, so numpy copies nothing more; it returns the first extreme.
    b, width, dim = h.shape
    padding = ~batch.mask[:, None, :]
    masked = _buffer(workspace, "scratch", (b, dim, width))
    np.copyto(masked, h.transpose(0, 2, 1))
    extremes = {}
    for pool, fill, search in _EXTREMES:
        if pool in pools:
            np.copyto(masked, fill, where=padding)
            rows = extremes[pool] = search(masked, axis=2)
            pooled[pool] = np.take_along_axis(h, rows[:, None, :], axis=1)[:, 0, :]
    blocks = [functools.reduce(np.add, (pooled[pool] for pool in block)) for block in readout]
    return (blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)), extremes


def _fingerprint_path(fingerprints: np.ndarray, params: ModelParameters,
                      out: np.ndarray) -> np.ndarray:
    """F* = F W_p + c into ``out``."""
    np.matmul(fingerprints, params.fp_weight, out=out)
    out += params.fp_bias
    return out


def _fuse(h_g: np.ndarray, f_star: np.ndarray, params: ModelParameters) -> tuple:
    """h_G + F*, which the fusion's weight gradient reads, and Z."""
    fused = h_g + f_star
    z = fused @ params.fuse_weight
    z += params.fuse_bias
    return fused, z


def _head(z: np.ndarray, params: ModelParameters) -> np.ndarray:
    """The sigmoid head overwrites the logits; the identity head is the logits."""
    logits = z @ params.head_weight
    logits += params.head_bias
    if params.config.head_mode == "sigmoid_multilabel":
        _sigmoid(logits, out=logits)
    return logits


def forward(batch: GraphBatch, params: ModelParameters,
            workspace: dict[str, np.ndarray] | None = None) -> ForwardTrace:
    """One pass through the stages, its node tensors in ``workspace`` (a fresh one when None).

    The fingerprint path runs on the workspace's worker, if it has one,
    beside the graph layers and the readout.
    """
    workspace = {} if workspace is None else workspace
    cfg = params.config
    trace = ForwardTrace(batch=batch)
    branch = (batch.instance_count, cfg.fusion_input_dim)
    f_star = np.zeros(branch) if cfg.input_mode == "graph" else np.empty(branch)
    if cfg.input_mode == "fingerprint":
        _fingerprint_path(batch.fingerprints, params, f_star)
        h_g = np.zeros(branch)
    else:
        fingerprints = (_done(None) if cfg.input_mode == "graph" else
                        _beside(workspace, _fingerprint_path, batch.fingerprints, params, f_star))
        h = batch.nodes
        trace.hidden.append(h)
        for k, width in enumerate(cfg.hidden_dims):
            m = _propagate(batch.operator, h, _buffer(workspace, "scratch", h.shape))
            p = _transform(m, params, k, _buffer(workspace, f"hidden{k}", h.shape[:2] + (width,)))
            h = _activate(cfg.activation, p)
            trace.hidden.append(h)
        h_g, trace.extremes = _readout(h, batch, cfg.readout, workspace)
        fingerprints()
    trace.fused, trace.z = _fuse(h_g, f_star, params)
    trace.y_pred = _head(trace.z, params)
    return trace


def loss(y_pred: np.ndarray, targets: np.ndarray, task: str) -> float:
    """Mean squared error (multiregression) or mean clamped binary
    cross-entropy (multilabel) over all outputs.

    Multilabel targets are 0/1 or bool; any other value raises ValueError.
    """
    y, t = _loss_operands(y_pred, targets, task)
    return _loss(y, t, task, np.empty(y.shape))


def _loss_operands(y_pred: np.ndarray, targets: np.ndarray, task: str) -> tuple:
    """Predictions as float64 and targets checked for the task; multilabel
    targets come back as bool."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    y = np.asarray(y_pred, dtype=np.float64)
    t = np.asarray(targets)
    if y.shape != t.shape:
        raise ValueError(f"shape mismatch: predictions {y.shape} vs targets {t.shape}")
    if task == "multiregression" or t.dtype == bool:
        return y, t
    positive = t == 1
    if not (positive | (t == 0)).all():
        raise ValueError("multilabel targets must contain only 0/1 entries")
    return y, positive


def _loss(y: np.ndarray, t: np.ndarray, task: str, out: np.ndarray) -> float:
    """The loss of ``_loss_operands``' operands, computed in ``out`` (y's
    shape), the one output-sized array it writes."""
    if task == "multiregression":
        np.subtract(y, t, out=out)
        out *= out
        return float(np.mean(out))
    # With 0/1 targets one log per entry is enough: log(yc) where t is 1 and
    # log(1 - yc) where it is 0. The term the two-log form multiplies by 0 is
    # an exact +-0.0 there, so both forms give the same value to the bit.
    # 1 - yc is written everywhere and yc again where t is 1, so no mask of
    # the negatives is allocated.
    np.clip(y, BCE_EPS, 1.0 - BCE_EPS, out=out)
    np.subtract(1.0, out, out=out)
    np.clip(y, BCE_EPS, 1.0 - BCE_EPS, out=out, where=t)
    np.log(out, out=out)
    return -float(np.mean(out))


def _head_backward(trace: ForwardTrace, targets: np.ndarray, params: ModelParameters,
                   grads: ModelParameters) -> np.ndarray:
    """The loss gradient through the head, the head's gradients, and dZ."""
    y = trace.y_pred
    dlogits = np.subtract(y, targets)
    if params.config.task == "multilabel":
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
    return dlogits @ params.head_weight.T


def _fuse_backward(trace: ForwardTrace, dz: np.ndarray, params: ModelParameters,
                   grads: ModelParameters) -> np.ndarray:
    """The fusion's gradients, and the gradient of h_G + F*."""
    grads.fuse_weight[:] = trace.fused.T @ dz
    grads.fuse_bias[:] = dz.sum(axis=0)
    return dz @ params.fuse_weight.T


def _fingerprint_backward(fingerprints: np.ndarray, dfused: np.ndarray, grads: ModelParameters):
    np.matmul(fingerprints.T, dfused, out=grads.fp_weight)
    grads.fp_bias[:] = dfused.sum(axis=0)


def _readout_backward(dh_g: np.ndarray, trace: ForwardTrace, readout: tuple,
                      out: np.ndarray) -> np.ndarray:
    """dH^(K), routed from dh_G as READOUTS says, into ``out``."""
    batch = trace.batch
    b, width, dim = out.shape
    shares = {pool: part for block, part in zip(readout, np.split(dh_g, len(readout), axis=1))
              for pool in block}
    if "mean" in shares:
        per_node = (shares["mean"] / batch.sizes[:, None])[:, None, :]
        np.multiply(batch.mask[:, :, None], per_node, out=out)
    else:
        out.fill(0.0)
    # Flat offset of node row 0 for each (graph, column). A column has one
    # extreme row per graph, so no element is hit twice by one += below.
    base = np.arange(b)[:, None] * (width * dim) + np.arange(dim)
    flat = out.reshape(-1)
    for pool, rows in trace.extremes.items():
        flat[base + rows * dim] += shares[pool]
    return out


def _derivative(activation: str, h: np.ndarray, workspace: dict) -> np.ndarray:
    """act'(P) from the activation's output H alone, one row per node, in scratch."""
    rows = h.reshape(-1, h.shape[-1])
    return ACTIVATIONS[activation][1](rows, _buffer(workspace, "scratch", rows.shape))


def _activate_backward(dh: np.ndarray, derivative: np.ndarray) -> np.ndarray:
    """dP = dH act'(P), written over dH, one row per node."""
    dh = dh.reshape(derivative.shape)
    dh *= derivative
    return dh


def _transform_backward(m: np.ndarray, dp: np.ndarray, params: ModelParameters,
                        grads: ModelParameters, k: int, out: np.ndarray | None) -> None:
    """The gradients of W_k and b_k, then dM into ``out`` (may be M's memory) if given."""
    rows = m.shape[0] * m.shape[1]
    grads.layer_weights[k][:] = m.reshape(rows, -1).T @ dp
    grads.layer_biases[k][:] = dp.sum(axis=0)
    if out is not None:
        np.matmul(dp, params.layer_weights[k].T, out=out.reshape(rows, -1))


def backward(trace: ForwardTrace, targets: np.ndarray, params: ModelParameters,
             workspace: dict[str, np.ndarray] | None = None) -> ModelParameters:
    """Gradients of loss(forward(batch), targets, task) for every parameter
    tensor, where the task is the one the config's head trains, with scratch
    tensors in ``workspace`` (a fresh one when None): forward's stages in
    reverse. The fingerprint backward runs on the workspace's worker, if it
    has one, beside the graph layers' backward."""
    workspace = {} if workspace is None else workspace
    cfg = params.config
    grads = params.zeros_like()
    batch = trace.batch
    dfused = _fuse_backward(trace, _head_backward(trace, targets, params, grads), params, grads)
    if cfg.input_mode == "fingerprint":
        _fingerprint_backward(batch.fingerprints, dfused, grads)
        return grads
    fingerprints = (_done(None) if cfg.input_mode == "graph" else
                    _beside(workspace, _fingerprint_backward, batch.fingerprints, dfused, grads))

    # H^(K) is read once, for its derivative; dh then takes its buffer, and
    # each next dh the buffer of H^(k+1), dead since its derivative. Padding
    # rows of dh stay zero, as the operator's are, so add to no gradient.
    top = trace.hidden[-1]
    derivative = _derivative(cfg.activation, top, workspace)
    dh = _readout_backward(dfused, trace, cfg.readout,
                           _buffer(workspace, f"hidden{cfg.layer_count - 1}", top.shape))
    for k in range(cfg.layer_count - 1, -1, -1):
        dp = _activate_backward(dh, derivative)
        below = trace.hidden[k]
        m = _propagate(batch.operator, below, _buffer(workspace, "scratch", below.shape))
        dm = _buffer(workspace, "scratch", below.shape) if k else None
        _transform_backward(m, dp, params, grads, k, dm)
        if k:
            dh = _propagate(batch.operator, dm, _buffer(workspace, f"hidden{k}", below.shape))
            derivative = _derivative(cfg.activation, below, workspace)
    fingerprints()
    return grads


def loss_and_gradients(
    params: ModelParameters, batch: GraphBatch, targets: np.ndarray,
    workspace: dict[str, np.ndarray] | None = None,
) -> tuple[float, ModelParameters]:
    """Loss and gradients of one step on ``batch``, for the task the
    config's head trains. The loss runs on the workspace's worker, if it has
    one, beside ``backward``."""
    workspace = {} if workspace is None else workspace
    trace = forward(batch, params, workspace)
    task = params.config.task
    y, t = _loss_operands(trace.y_pred, targets, task)
    value = _beside(workspace, _loss, y, t, task, np.empty(y.shape))
    grads = backward(trace, targets, params, workspace)
    return value(), grads


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
        object.__setattr__(self, "epochs", _integer("epochs", self.epochs))
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not (0.0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be positive and finite")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size is not None:
            object.__setattr__(self, "batch_size", _integer("batch_size", self.batch_size))
            if self.batch_size < 1:
                raise ValueError("batch_size must be positive when given")
        _check_seed(self.seed)


def _check_targets(dataset: MultiLabelDataset, net: NetworkConfig) -> None:
    """Fail, in one line, before training or evaluating when the dataset
    cannot supply the targets of the task the head trains."""
    if net.task == "multilabel":
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


def train(
    dataset: MultiLabelDataset, net: NetworkConfig, cfg: TrainConfig
) -> tuple[ModelParameters, list[float]]:
    """Gradient descent from a seeded init; returns params and the per-epoch
    training loss (loss at the parameters each epoch started from).

    Targets are built per batch, so a minibatch run holds batch_size x
    output_dim of them, never the whole dataset's. Each step reads its task
    from ``net``, whose head must serve ``cfg.task``. Raises ValueError
    before the first update when it does not, the dataset cannot supply the
    task's targets or a graph input mode meets instances without a graph; at
    the first non-finite loss, naming the epoch; and when the last update
    leaves a parameter non-finite, so no caller saves a non-finite checkpoint.
    OpenBLAS runs on one thread meanwhile, so the result does not depend on
    the core count, and one worker thread runs the fingerprint path and the
    loss beside each step's graph layers and backward (see the module
    docstring); it is joined before ``train`` returns or raises.
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
    if cfg.task != net.task:
        raise ValueError(f"head_mode {net.head_mode!r} trains task {net.task!r}, not {cfg.task!r}")
    _check_targets(dataset, net)
    _require_graphs(dataset.instances, net)
    target_rows = label_matrix if cfg.task == "multilabel" else regression_matrix
    rng = np.random.default_rng(cfg.seed)
    params = init_parameters(net, rng)
    velocity = params.zeros_like() if cfg.momentum > 0 else None
    curve: list[float] = []

    # A diverging run overflows before its loss turns non-finite; the check
    # below reports that as one error instead of a stream of warnings.
    with np.errstate(over="ignore", invalid="ignore"), _Workspace() as workspace:
        if cfg.batch_size is None or cfg.batch_size >= len(dataset):
            batch = build_batch(dataset.instances, net)
            targets = target_rows(dataset)
            for epoch in range(1, cfg.epochs + 1):
                value, grads = loss_and_gradients(params, batch, targets, workspace)
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
                value, grads = loss_and_gradients(
                    params, batch, target_rows(dataset, sub), workspace)
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
    runs on one thread meanwhile, and a worker thread runs the fingerprint
    path beside the graph layers, as in ``train``.

    Raises ValueError, in one line, when a prediction is not finite.
    """
    # Checked over all rows, so the error counts the whole input and comes
    # before any block runs.
    _require_graphs(instances, params.config)
    n = len(instances)
    out = np.empty((n, params.config.output_dim))
    if not n:
        return out
    blocks = max(1, n // _PREDICT_BLOCK_ROWS)
    bounds = [n * k // blocks for k in range(blocks + 1)]
    # An overflowing model is reported below as one error, not as warnings.
    with _single_thread_blas(), np.errstate(over="ignore", invalid="ignore"), \
            _Workspace() as workspace:
        for lo, hi in zip(bounds, bounds[1:]):
            batch = build_batch(instances[lo:hi], params.config)
            out[lo:hi] = forward(batch, params, workspace).y_pred
    bad = out.size - int(np.count_nonzero(np.isfinite(out)))
    if bad:
        raise ValueError(
            f"{bad} of {out.size} predictions are non-finite; retrain the model with a lower --lr"
        )
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
