"""Dataset model and line-delimited file format for multilabel molecular data.

Storage. A ``MultiLabelDataset`` keeps its rows once, as the list of
``Instance`` objects in ``instances``, beside one table of the distinct label
sets, in order of first appearance, with one integer set id per row.
Statistics that depend on a row only through its label set read the table
and the per-set multiplicities (``set_counts``), so their cost follows the
number of distinct sets, not of rows. A fingerprint is held packed, 8 bits
to a byte; code that computes with bits unpacks a block of rows at once
(``_unpacked_rows``). A graph's edges are one read-only (E, 2) int64 array,
from the parser or the generator to the network's batches.

A dataset made from another (a split or an oversampling result) builds its
label-set table and set ids at once, and its row list when ``instances`` is
first read: a split gathers its source's own ``Instance`` objects; an
oversampling result is its input's rows followed by new rows that share
their source's fingerprint, graph and targets, their ids minted then
(``_mint_ids``). So statistics over a result build no row object. Neither
revalidates its rows: a split's are its source's, and the resampling methods
make only rows that hold. The list is read-only by convention: build a new
dataset with ``with_instances`` instead of mutating it.

A dataset loaded with ``decode_graphs=False`` holds the graph of each record
written in mlimb's own form as its text (``_GraphText``), which proposed
copies share.
That text is checked only for that form: a JSON object of ``nodes``
(non-empty rows of numbers) and ``edges`` (integer pairs), with no space.
Ragged rows, the feature width, edge endpoints and self-edges are checked by
the eager parse (the default) alone. ``write_dataset`` writes such a graph as
it was read, and the network, the only reader of graphs, refuses it.

File format. A dataset file is one JSON document per line: a header carrying
the dataset-level dimensions, followed by one record per instance. A line of
it or of its vocabulary (``index<TAB>name``) ends at "\\n", "\\r\\n" or "\\r"
only, which no JSON string or label name holds raw. Label sets are stored as
sparse index arrays and fingerprints as hex strings, so files stay compact
even with thousands of mostly-absent labels. Serialization is canonical (fixed
key order, compact separators): rewrites of a parsed file are byte-identical.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter, index
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

__all__ = [
    "DatasetError",
    "FormatError",
    "ValidationError",
    "LabelVocabulary",
    "Fingerprint",
    "MolecularGraph",
    "Instance",
    "MultiLabelDataset",
    "parse_vocabulary",
    "format_vocabulary",
    "parse_dataset",
    "write_dataset",
    "load_dataset",
    "save_dataset",
    "default_vocabulary_path",
    "split_dataset",
]

HEADER_KEYS = ("fingerprint_width", "node_feature_dim", "label_count", "regression_width")
RECORD_KEYS = ("id", "fp", "labels", "graph", "reg", "origin")
_RECORD_FIELDS = frozenset(RECORD_KEYS)


class DatasetError(ValueError):
    """Base class for dataset parsing and validation failures."""


class FormatError(DatasetError):
    """A line could not be decoded as a dataset header or record."""


class ValidationError(DatasetError):
    """A decoded value violates a dataset-level invariant."""


@dataclass(frozen=True)
class LabelVocabulary:
    """Ordered label names; the position of a name is its label index."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if any(not isinstance(n, str) or not n for n in names):
            raise ValidationError("label names must be non-empty strings")
        if any("\t" in n or "\n" in n or "\r" in n for n in names):
            raise ValidationError("label names must not hold a tab, \\n or \\r")
        for n in names:
            try:
                n.encode("utf-8")
            except UnicodeEncodeError:
                raise ValidationError(f"label name {n!r} does not encode as UTF-8") from None
        if len(set(names)) != len(names):
            raise ValidationError("label names must be unique")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __len__(self) -> int:
        return len(self.names)

    @property
    def entries(self) -> list[tuple[int, str]]:
        return list(enumerate(self.names))

    def name_of(self, index: int) -> str:
        return self.names[index]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"unknown label name {name!r}") from None


class Fingerprint:
    """Fixed-width binary feature vector, held packed: ``packed`` is one bytes
    of ceil(width / 8) bytes in ``np.packbits`` order (most significant bit
    first, pad bits 0). ``bits`` unpacks it into a new read-only 0/1 array."""

    __slots__ = ("packed", "width")

    def __init__(self, bits) -> None:
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("fingerprint must be a non-empty bit vector")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValidationError("fingerprint bits must be 0 or 1")
        self.packed, self.width = np.packbits(arr != 0).tobytes(), arr.size

    @classmethod
    def _trusted(cls, packed: bytes, width: int) -> "Fingerprint":
        """Fingerprint kept as given: ``packed`` and ``width`` already agree."""
        fingerprint = object.__new__(cls)
        fingerprint.packed, fingerprint.width = packed, width
        return fingerprint

    @property
    def bits(self) -> np.ndarray:
        return _readonly(np.unpackbits(np.frombuffer(self.packed, np.uint8), count=self.width))

    def to_hex(self) -> str:
        """Hex encoding of the bit vector, most-significant-bit-first."""
        return self.packed.hex()

    @classmethod
    def from_hex(cls, text: str, width: int) -> "Fingerprint":
        expected_chars = 2 * ((width + 7) // 8)
        if len(text) != expected_chars:
            raise FormatError(
                f"fingerprint hex has {len(text)} characters, expected {expected_chars} for width {width}"
            )
        try:
            raw = bytes.fromhex(text)
        except ValueError:
            raw = b""
        if not raw or 2 * len(raw) != expected_chars:  # fromhex skips whitespace
            raise FormatError(f"invalid fingerprint hex string {text!r}")
        if raw[-1] & ((1 << (-width % 8)) - 1):
            raise FormatError("fingerprint has bits set beyond the declared width")
        return cls._trusted(raw, width)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return self.width == other.width and self.packed == other.packed

    def __reduce__(self):
        return Fingerprint._trusted, (self.packed, self.width)


@dataclass(eq=False, slots=True)
class MolecularGraph:
    """Undirected molecular graph: per-node feature rows plus an edge list,
    ``edges``, a read-only (E, 2) int64 array that the constructor copies from
    any sequence of integer pairs. Self-edges are rejected; the network layer
    decides whether to add self-loops when it builds its adjacency operator.
    """

    node_features: np.ndarray
    edges: np.ndarray = ()

    def __post_init__(self) -> None:
        feats = np.asarray(self.node_features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValidationError("graph node features must be a non-empty 2-D matrix")
        edges = _edge_array(self.edges)
        if edges is None:
            raise ValidationError("graph edges must be (u, v) integer pairs")
        n = feats.shape[0]
        bad = (edges[:, 0] == edges[:, 1]) | ((edges < 0) | (edges >= n)).any(axis=1)
        if bad.any():
            u, v = map(int, edges[bad.argmax()])
            if u == v:
                raise ValidationError(f"self-edge ({u}, {v}) is not allowed")
            raise ValidationError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        self.node_features, self.edges = feats, _readonly(edges.astype(np.int64))

    @classmethod
    def _trusted(cls, node_features: np.ndarray, edges: np.ndarray) -> "MolecularGraph":
        """Graph kept as given: a non-empty float64 matrix and a read-only
        (E, 2) int64 array, each row in range and no self-edge."""
        graph = object.__new__(cls)
        graph.node_features, graph.edges = node_features, edges
        return graph

    @property
    def node_count(self) -> int:
        return int(self.node_features.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.node_features.shape[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MolecularGraph):
            return NotImplemented
        return (np.array_equal(self.node_features, other.node_features, equal_nan=True)
                and np.array_equal(self.edges, other.edges))

    def __reduce__(self):  # rebuilt by the constructor: the edges stay read-only
        return MolecularGraph, (self.node_features, self.edges)


def _edge_array(edges: object) -> np.ndarray | None:
    """``edges`` as an (E, 2) integer array, or None when it is not a sequence
    of integer pairs. Pairs numpy reads as another kind (bools, integers
    beyond int64) come back as an object array of the given values."""
    try:
        array = np.asarray(edges)
    except ValueError:  # pairs of unequal lengths
        return None
    if array.shape == (0,):
        return np.empty((0, 2), np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        return None
    if array.dtype.kind not in "iu":
        array = np.array(edges, dtype=object)
        if not all(isinstance(x, (int, np.integer)) for x in array.flat):
            return None
    return array


class _GraphText(str):
    """A record's graph value as the file held it, undecoded: one JSON object
    that matches ``_GRAPH``. It equals only the same text, never a decoded
    graph."""

    __slots__ = ()


@dataclass(eq=False, slots=True)
class Instance:
    """One dataset row: fingerprint, optional graph, sparse label set. The
    graph is a ``MolecularGraph``, or its undecoded text when the dataset was
    loaded with ``decode_graphs=False``.

    ``origin`` is empty for original instances and carries the source
    instance id for rows created by a resampling method.
    """

    id: str
    fingerprint: Fingerprint
    labels: tuple[int, ...]
    graph: MolecularGraph | _GraphText | None = None
    regression_targets: np.ndarray | None = None
    origin: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("instance id must be a non-empty string")
        labels = tuple(_label_index(self.id, l) for l in self.labels)
        if len(set(labels)) != len(labels):
            raise ValidationError(f"instance {self.id!r}: duplicate label index")
        if any(l < 0 for l in labels):
            raise ValidationError(f"instance {self.id!r}: negative label index")
        self.labels = tuple(sorted(labels))
        if self.regression_targets is not None:
            reg = np.asarray(self.regression_targets, dtype=np.float64)
            if reg.ndim != 1:
                raise ValidationError(f"instance {self.id!r}: regression targets must be a vector")
            self.regression_targets = reg

    @classmethod
    def _trusted(cls, id, fingerprint, labels, graph, regression_targets, origin) -> "Instance":
        """Row view of fields a dataset has already validated."""
        row = object.__new__(cls)
        row.id, row.fingerprint, row.labels = id, fingerprint, labels
        row.graph, row.regression_targets, row.origin = graph, regression_targets, origin
        return row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        if (self.id, self.labels, self.origin) != (other.id, other.labels, other.origin):
            return False
        if self.fingerprint != other.fingerprint or self.graph != other.graph:
            return False
        return _same_targets(self.regression_targets, other.regression_targets)


def _label_index(inst_id: str, label: object) -> int:
    """A label index; numpy integers pass, bools and other non-integers are
    refused, not converted."""
    if not isinstance(label, bool):
        try:
            return index(label)
        except TypeError:
            pass
    raise ValidationError(f"instance {inst_id!r}: label {label!r} is not an integer")


def _same_targets(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b, equal_nan=True)


class _SetIndex(dict):
    """Label set -> set id, in order of first appearance; looking up an
    unseen set adds it under the next id."""

    def __missing__(self, labels: tuple[int, ...]) -> int:
        self[labels] = set_id = len(self)
        return set_id

    def ids_of(self, label_sets: Iterable[tuple[int, ...]]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, label_sets), dtype=np.intp)


def _mint_ids(origins: list[str], tag: str, taken: frozenset[str]) -> list[str]:
    """One new id per id of ``origins``, in order: ``<origin>::<tag><j>``, j
    the origin's next serial, counting from 1 along the list, whose id
    ``taken`` does not hold. The same list always mints the same ids, and
    they are new and distinct: the suffix after the last ``::`` holds no
    colon, so two origins never mint the same id."""
    serials: dict[str, int] = {}
    minted = []
    for origin in origins:
        j = serials.get(origin, 0) + 1
        while f"{origin}::{tag}{j}" in taken:
            j += 1
        serials[origin] = j
        minted.append(f"{origin}::{tag}{j}")
    return minted


def _integer(name: str, value: object) -> int:
    """An int; numpy integers pass, floats are refused, not truncated."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_seed(seed: object) -> None:
    """Refuse, naming the value, a seed numpy's generators would not take."""
    try:
        valid = index(seed) >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _packed_rows(matrix: np.ndarray) -> list[bytes]:
    """Each row of the 0/1 matrix as ``np.packbits`` packs it, one bytes each."""
    packed = np.packbits(matrix, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()


def _unpacked_rows(rows: list[bytes], width: int) -> np.ndarray:
    """The (len(rows), width) 0/1 uint8 matrix of rows as ``_packed_rows`` packs them."""
    packed = np.frombuffer(b"".join(rows), np.uint8).reshape(-1, -(-width // 8))
    return np.unpackbits(packed, axis=1, count=width)


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
    changes the last bits of some entries, so checkpoints, predictions and
    correlations would depend on the machine's core count. The setting is
    process-wide.
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


@dataclass(eq=False)
class MultiLabelDataset:
    """Validated, immutable-by-convention collection of instances.

    All fingerprints share ``fingerprint_width``, all graphs share
    ``node_feature_dim``, and regression targets (when present) share
    ``regression_width``. ``meta`` holds extra header fields (for example the
    generator configuration echoed by synthetic datasets) and survives
    round-trips through the file format. ``instances`` is the only per-row
    store (see the module docstring).
    """

    vocabulary: LabelVocabulary
    instances: list[Instance]
    fingerprint_width: int
    node_feature_dim: int
    regression_width: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.fingerprint_width < 1:
            raise ValidationError("fingerprint_width must be positive")
        if self.node_feature_dim < 1:
            raise ValidationError("node_feature_dim must be positive")
        if self.regression_width < 0:
            raise ValidationError("regression_width must be non-negative")
        rows = self.instances
        ids, labels = (tuple(map(attrgetter(name), rows)) for name in ("id", "labels"))
        held = frozenset(ids)
        if len(held) != len(ids):
            seen: set[str] = set()
            for inst_id in ids:
                if inst_id in seen:
                    raise ValidationError(f"instance {inst_id!r}: duplicate instance id")
                seen.add(inst_id)
        index = _SetIndex()
        set_ids = index.ids_of(labels)
        self._store(tuple(index), set_ids)
        self._id_set = held
        label_count, width, node_dim, reg_width = (len(self.vocabulary), self.fingerprint_width,
                                                   self.node_feature_dim, self.regression_width)
        for inst_id, labels, fingerprint, graph, reg in zip(ids, labels, *(
            map(attrgetter(name), rows) for name in ("fingerprint", "graph", "regression_targets"))
        ):
            if labels and labels[-1] >= label_count:
                raise ValidationError(
                    f"instance {inst_id!r}: label index {labels[-1]} outside vocabulary of size {label_count}"
                )
            if fingerprint.width != width:
                raise ValidationError(
                    f"instance {inst_id!r}: fingerprint width {fingerprint.width} != declared {width}"
                )
            if isinstance(graph, MolecularGraph) and graph.feature_dim != node_dim:
                raise ValidationError(
                    f"instance {inst_id!r}: node feature dim {graph.feature_dim} != declared {node_dim}"
                )
            if reg is not None:
                if reg_width == 0:
                    raise ValidationError(
                        f"instance {inst_id!r}: regression targets present but regression_width is 0"
                    )
                if reg.size != reg_width:
                    raise ValidationError(
                        f"instance {inst_id!r}: regression width {reg.size} != declared {reg_width}"
                    )

    def _store(self, label_sets, set_ids) -> None:
        """Keep the label-set table and the set ids."""
        self._label_sets: tuple[tuple[int, ...], ...] = label_sets
        self._set_ids = _readonly(set_ids)
        self._id_set: frozenset[str] | None = None
        self._set_counts: np.ndarray | None = None
        self._set_members: tuple[np.ndarray, np.ndarray] | None = None

    def _derived(self, rows, label_sets, set_ids) -> "MultiLabelDataset":
        """Dataset with this one's vocabulary, dimensions and meta, the given
        label-set table and set ids, and the row list that ``rows()`` makes
        when ``instances`` is first read; made without the public
        constructor's validation."""
        out = object.__new__(MultiLabelDataset)
        out.vocabulary = self.vocabulary
        out.fingerprint_width = self.fingerprint_width
        out.node_feature_dim = self.node_feature_dim
        out.regression_width = self.regression_width
        out.meta = dict(self.meta)
        out._store(label_sets, set_ids)
        out._rows = rows
        return out

    def _take(self, rows: np.ndarray) -> "MultiLabelDataset":
        """This dataset's rows at positions ``rows``, in that order, as the
        same ``Instance`` objects; the label-set table keeps the sets they
        use, renumbered by first appearance."""
        rows = np.asarray(rows, dtype=np.intp)
        used, first, inverse = np.unique(self._set_ids[rows], return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        renumber = np.empty(used.size, dtype=np.intp)
        renumber[order] = np.arange(used.size)
        return self._derived(
            lambda: list(map(self.instances.__getitem__, rows.tolist())),
            tuple(self._label_sets[s] for s in used[order].tolist()),
            renumber[inverse],
        )

    def _new_ids(self, sources: np.ndarray, tag: str) -> tuple[list[str], list[str]]:
        """Ids and origins of new rows made from this dataset's rows
        ``sources``: the origins are the sources' ids, and the ids are minted
        from them with ``tag`` (``_mint_ids``)."""
        rows = self.instances
        origins = [rows[s].id for s in sources.tolist()]
        return _mint_ids(origins, tag, self.id_set), origins

    def _with_copies(self, rows: np.ndarray, tag: str) -> "MultiLabelDataset":
        """This dataset followed by copies of its rows ``rows``, each with its
        source's id as origin and an id minted with ``tag``. Copies share
        every object with their source and are not revalidated; they are
        built when ``instances`` is first read."""
        rows = np.asarray(rows, dtype=np.intp)

        def copied() -> list[Instance]:
            new_ids, origins = self._new_ids(rows, tag)
            held, pick = self.instances, rows.tolist()
            return held + [
                Instance._trusted(new_id, src.fingerprint, src.labels, src.graph,
                                  src.regression_targets, origin)
                for new_id, origin, src in zip(new_ids, origins, map(held.__getitem__, pick))
            ]

        return self._derived(copied, self._label_sets,
                             np.concatenate([self._set_ids, self._set_ids[rows]]))

    def _append(self, fingerprints: list[Fingerprint], label_sets: list[tuple[int, ...]],
                sources: np.ndarray, repeats: np.ndarray, tag: str) -> "MultiLabelDataset":
        """This dataset followed by new rows without graph or regression
        targets: row i has ``fingerprints[i]`` and ``label_sets[i]`` and the id
        of row ``sources[i]`` of this dataset as origin; then, for each j in
        turn, row ``repeats[j]`` of them again. The new rows' ids are minted
        with ``tag``, all in one call.

        The rows are not validated: each fingerprint must have this dataset's
        width, and each label set must be sorted, free of repeats and within
        the vocabulary. The rows are built when ``instances`` is first read."""
        picks = np.concatenate([np.arange(len(fingerprints)), repeats]).astype(np.intp)
        row_sources = np.asarray(sources, dtype=np.intp)[picks]
        index = _SetIndex(zip(self._label_sets, range(len(self._label_sets))))
        set_ids = index.ids_of(label_sets)

        def appended() -> list[Instance]:
            new_ids, origins = self._new_ids(row_sources, tag)
            pick = picks.tolist()
            return self.instances + list(map(
                Instance._trusted, new_ids, map(fingerprints.__getitem__, pick),
                map(label_sets.__getitem__, pick), repeat(None), repeat(None), origins))

        return self._derived(appended, tuple(index),
                             np.concatenate([self._set_ids, set_ids[picks]]))

    def __getattr__(self, name: str):
        # Reached only for attributes never set: a dataset made by
        # ``_derived`` builds its row list when ``instances`` is first read,
        # keeps it, and drops the recipe.
        if name != "instances" or "_rows" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.instances = self._rows()
        del self._rows
        return self.instances

    def __getstate__(self) -> dict:
        # A pickle holds the rows, not the recipe that builds them, which may
        # be a local function.
        self.instances
        return self.__dict__

    def __len__(self) -> int:
        return self._set_ids.size

    @property
    def label_count(self) -> int:
        return len(self.vocabulary)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(map(attrgetter("id"), self.instances))

    @property
    def id_set(self) -> frozenset[str]:
        """The ids of all rows, for membership tests; built once."""
        if self._id_set is None:
            self._id_set = frozenset(map(attrgetter("id"), self.instances))
        return self._id_set

    @property
    def label_sets(self) -> tuple[tuple[int, ...], ...]:
        """The distinct label sets, in order of first appearance."""
        return self._label_sets

    @property
    def set_ids(self) -> np.ndarray:
        """Per row, the position of its label set in ``label_sets`` (read-only)."""
        return self._set_ids

    @property
    def set_counts(self) -> np.ndarray:
        """Rows carrying each label set (read-only)."""
        if self._set_counts is None:
            self._set_counts = _readonly(
                np.bincount(self._set_ids, minlength=len(self._label_sets)))
        return self._set_counts

    @property
    def set_members(self) -> tuple[np.ndarray, np.ndarray]:
        """One (set, label) pair per label of each set of ``label_sets``, set
        by set: the set positions and the labels (both read-only)."""
        if self._set_members is None:
            sets = self._label_sets
            owners = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
            labels = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=owners.size)
            self._set_members = (_readonly(owners), _readonly(labels))
        return self._set_members

    def with_instances(self, instances: list[Instance]) -> "MultiLabelDataset":
        """New dataset sharing vocabulary, dimensions, and meta."""
        return MultiLabelDataset(
            vocabulary=self.vocabulary,
            instances=instances,
            fingerprint_width=self.fingerprint_width,
            node_feature_dim=self.node_feature_dim,
            regression_width=self.regression_width,
            meta=dict(self.meta),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiLabelDataset):
            return NotImplemented
        # Both tables list their sets by first appearance, so datasets whose
        # rows are equal have equal tables and set ids: those are compared
        # first, since they need no row list.
        return (
            self.vocabulary.names == other.vocabulary.names
            and self.fingerprint_width == other.fingerprint_width
            and self.node_feature_dim == other.node_feature_dim
            and self.regression_width == other.regression_width
            and self.meta == other.meta
            and self._label_sets == other._label_sets
            and np.array_equal(self._set_ids, other._set_ids)
            and self.instances == other.instances
        )


# ---------------------------------------------------------------------------
# Vocabulary file: one "index<TAB>name" per line
# ---------------------------------------------------------------------------

def _lines(text: str) -> list[str]:
    """``text`` cut at each "\\n", "\\r\\n" and "\\r", as ``str.split`` cuts."""
    if "\r" in text:  # only then: replacing "\r\n" costs more than the split
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def parse_vocabulary(text: str) -> LabelVocabulary:
    pairs: list[tuple[int, str]] = []
    for lineno, line in enumerate(_lines(text), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"vocabulary line {lineno}: expected 'index<TAB>name'")
        try:
            index = int(parts[0])
        except ValueError:
            raise FormatError(f"vocabulary line {lineno}: non-integer index {parts[0]!r}") from None
        pairs.append((index, parts[1]))
    if sorted(i for i, _ in pairs) != list(range(len(pairs))):
        raise FormatError("vocabulary indices must be exactly 0..N-1 with no gaps or duplicates")
    return LabelVocabulary(tuple(name for _, name in sorted(pairs)))


def format_vocabulary(vocabulary: LabelVocabulary) -> str:
    return "".join(f"{i}\t{name}\n" for i, name in vocabulary.entries)


# ---------------------------------------------------------------------------
# Record stream
# ---------------------------------------------------------------------------

# A graph as ``_format_record`` writes it, with no space: rows of JSON
# numbers (``json`` writes a non-finite float as NaN, Infinity or -Infinity)
# and pairs of JSON integers. It holds no '}' but its last character. No
# number holds ',' or ']', so backtracking stays within one number. An empty
# alternative runs faster than an optional group.
_NUMBER = r"(?:-?(?:0|[1-9][0-9]*)(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|)|NaN|-?Infinity)"
_ROW = rf"\[{_NUMBER}(?:,{_NUMBER})*\]"
_PAIR = r"\[-?(?:0|[1-9][0-9]*),-?(?:0|[1-9][0-9]*)\]"
_GRAPH = re.compile(
    rf'\{{"nodes":\[{_ROW}(?:,{_ROW})*\],"edges":\[(?:{_PAIR}(?:,{_PAIR})*)?\]\}}')
_GRAPH_KEY = ',"graph":'


def _format_header(dataset: MultiLabelDataset) -> str:
    header = {key: getattr(dataset, key) for key in HEADER_KEYS}
    for key in sorted(dataset.meta):
        if key in HEADER_KEYS:
            raise ValidationError(f"meta key {key!r} collides with a reserved header field")
        header[key] = dataset.meta[key]
    return json.dumps(header, separators=(",", ":"))


def _format_record(inst: Instance) -> str:
    record: dict = {"id": inst.id, "fp": inst.fingerprint.to_hex(), "labels": list(inst.labels)}
    graph = inst.graph
    if isinstance(graph, MolecularGraph):
        record["graph"] = {"nodes": graph.node_features.tolist(), "edges": graph.edges.tolist()}
    elif graph is not None:
        record["graph"] = None  # its place, filled below with the text as read
    if inst.regression_targets is not None:
        record["reg"] = inst.regression_targets.tolist()
    if inst.origin is not None:
        record["origin"] = inst.origin
    line = json.dumps(record, separators=(",", ":"))
    if isinstance(graph, _GraphText):
        # Each quote inside a JSON string is escaped, so this is the key's place.
        line = line.replace(f'{_GRAPH_KEY}null', _GRAPH_KEY + graph, 1)
    return line


def _json_object(line: str, lineno: int, kind: str) -> dict:
    try:
        obj = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise FormatError(f"line {lineno}: invalid {kind} JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(obj, dict):
        raise FormatError(f"line {lineno}: {kind} must be a JSON object")
    return obj


def _parse_header(line: str, lineno: int) -> tuple[dict, dict]:
    obj = _json_object(line, lineno, "header")
    for key in HEADER_KEYS:
        if key not in obj:
            raise FormatError(f"line {lineno}: header missing field {key!r}")
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise FormatError(f"line {lineno}: header field {key!r} must be an integer")
    return obj, {k: v for k, v in obj.items() if k not in HEADER_KEYS}


def _parse_record(line: str, lineno: int, fingerprint_width: int) -> Instance:
    obj = _json_object(line, lineno, "record")
    if not _RECORD_FIELDS.issuperset(obj):
        unknown = set(obj) - _RECORD_FIELDS
        raise FormatError(f"line {lineno}: unknown record field {sorted(unknown)[0]!r}")
    for key in ("id", "fp", "labels"):
        if key not in obj:
            raise FormatError(f"line {lineno}: record missing field {key!r}")
    inst_id = obj["id"]
    if not isinstance(inst_id, str) or not inst_id:
        raise FormatError(f"line {lineno}: record id must be a non-empty string")

    def fail(message: str) -> FormatError:
        return FormatError(f"line {lineno} (instance {inst_id!r}): {message}")

    if not isinstance(obj["fp"], str):
        raise fail("field 'fp' must be a hex string")
    if not isinstance(obj["labels"], list) or not all(
        isinstance(l, int) and not isinstance(l, bool) for l in obj["labels"]
    ):
        raise fail("field 'labels' must be an array of integers")

    try:
        fingerprint = Fingerprint.from_hex(obj["fp"], fingerprint_width)
    except FormatError as exc:
        raise fail(str(exc)) from None

    graph = None
    if "graph" in obj:
        g = obj["graph"]
        if not isinstance(g, dict) or set(g) != {"nodes", "edges"}:
            raise fail("field 'graph' must be an object with 'nodes' and 'edges'")
        try:
            feats = np.asarray(g["nodes"])
        except ValueError:  # rows of unequal lengths, or an array among the numbers
            feats = None
        if feats is None or feats.ndim != 2 or not len(feats):
            raise fail("graph nodes must be a non-empty list of equal-length feature rows")
        if feats.dtype == object and all(isinstance(x, (int, float)) for x in feats.flat):
            feats = feats.astype(np.float64)  # integers beyond int64 beside other numbers
        if feats.dtype.kind not in "biuf":
            raise fail("graph node features must be numbers")
        edges = _edge_array(g["edges"])
        if edges is None:
            raise fail("graph edges must be a list of [u, v] integer pairs")
        try:
            graph = MolecularGraph(node_features=feats, edges=edges)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno} (instance {inst_id!r}): {exc}") from None

    reg = None
    if "reg" in obj:
        if not isinstance(obj["reg"], list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj["reg"]
        ):
            raise fail("field 'reg' must be an array of numbers")
        reg = np.asarray(obj["reg"], dtype=np.float64)

    origin = None
    if "origin" in obj:
        if not isinstance(obj["origin"], str) or not obj["origin"]:
            raise fail("field 'origin' must be a non-empty string")
        origin = obj["origin"]

    try:
        return Instance(id=inst_id, fingerprint=fingerprint, labels=tuple(obj["labels"]),
                        graph=graph, regression_targets=reg, origin=origin)
    except ValidationError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from None


def _parse_record_keeping_graph(line: str, lineno: int, fingerprint_width: int) -> Instance:
    """The record on ``line``, its graph kept as text when the graph matches
    ``_GRAPH`` and ``_format_record`` writes the row back as ``line``. Every
    other record, and every fault, takes the eager parse, so each error reads
    as it does there."""
    start = line.find(_GRAPH_KEY + "{")
    begin, end = start + len(_GRAPH_KEY), line.find("}", start) + 1
    if start > 0 and _GRAPH.fullmatch(line, begin, end):
        try:
            row = _parse_record(line[:start] + line[end:], lineno, fingerprint_width)
            row.graph = _GraphText(line[begin:end])
        except DatasetError:
            row = None
        # The line as written also refuses a second graph field, and a key
        # found inside a string that invalid JSON left open.
        if row is not None and _format_record(row) == line:
            return row
    return _parse_record(line, lineno, fingerprint_width)


def parse_dataset(records: str, vocabulary: str, *,
                  decode_graphs: bool = True) -> MultiLabelDataset:
    """Parse the texts of a records file and its vocabulary into a dataset.

    An empty record stream yields an empty dataset with default dimensions.
    Diagnostics name the offending line number and instance id. With
    ``decode_graphs=False`` graphs are kept as text (see the module
    docstring), for callers that read none.
    """
    parse_record = _parse_record if decode_graphs else _parse_record_keeping_graph
    try:
        vocab = parse_vocabulary(vocabulary)
    except DatasetError as exc:
        exc.in_vocabulary = True  # the file ``load_dataset`` names
        raise
    lines = _lines(records)
    if not lines[-1]:
        lines.pop()  # the end of the last line
    if not lines:
        return MultiLabelDataset(
            vocabulary=vocab, instances=[], fingerprint_width=1, node_feature_dim=1
        )
    header, meta = _parse_header(lines[0], 1)
    if header["label_count"] != len(vocab):
        raise FormatError(
            f"line 1: header label_count {header['label_count']} != vocabulary size {len(vocab)}"
        )
    instances = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise FormatError(f"line {lineno}: blank line in record stream")
        instances.append(parse_record(line, lineno, header["fingerprint_width"]))
    return MultiLabelDataset(
        vocabulary=vocab,
        instances=instances,
        fingerprint_width=header["fingerprint_width"],
        node_feature_dim=header["node_feature_dim"],
        regression_width=header["regression_width"],
        meta=meta,
    )


def write_dataset(dataset: MultiLabelDataset, destination: TextIO | str | Path) -> None:
    """Serialize ``dataset`` records; output parses back to an equal dataset."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            write_dataset(dataset, fh)
        return
    destination.write(_format_header(dataset) + "\n")
    for inst in dataset.instances:
        destination.write(_format_record(inst) + "\n")


def default_vocabulary_path(records_path: str | Path) -> Path:
    """Sibling vocabulary file for a records file: data.jsonl -> data.labels.tsv."""
    path = Path(records_path)
    return path.with_name(path.stem + ".labels.tsv")


def load_dataset(records_path: str | Path, vocab_path: str | Path | None = None, *,
                 decode_graphs: bool = True) -> MultiLabelDataset:
    """Load a records file and its vocabulary (see ``parse_dataset``); each
    DatasetError begins with the path of the file it is about."""
    records_path = Path(records_path)
    vocab_path = Path(vocab_path) if vocab_path is not None else default_vocabulary_path(records_path)
    texts = []
    try:
        for path in (records_path, vocab_path):
            raw = path.read_bytes()
            texts.append(raw.decode("utf-8"))
        return parse_dataset(*texts, decode_graphs=decode_graphs)
    except UnicodeDecodeError as exc:
        fault = FormatError(f"line {len(_lines(raw[:exc.start].decode('utf-8')))}: not UTF-8 "
                            f"text (byte 0x{raw[exc.start]:02x} at offset {exc.start})")
    except DatasetError as exc:
        fault, path = exc, vocab_path if getattr(exc, "in_vocabulary", False) else records_path
    raise type(fault)(f"{path}: {fault}") from None


def save_dataset(
    dataset: MultiLabelDataset,
    records_path: str | Path,
    vocab_path: str | Path | None = None,
) -> None:
    records_path = Path(records_path)
    vocab_path = Path(vocab_path) if vocab_path is not None else default_vocabulary_path(records_path)
    write_dataset(dataset, records_path)
    vocab_path.write_text(format_vocabulary(dataset.vocabulary), encoding="utf-8")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def split_dataset(
    dataset: MultiLabelDataset, test_fraction: float, seed: int
) -> tuple[MultiLabelDataset, MultiLabelDataset]:
    """Deterministic disjoint train/test partition with |test| = round(f * |D|)."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    _check_seed(seed)
    n = len(dataset)
    if n < 2:
        raise ValueError("split requires at least 2 instances")
    n_test = int(math.floor(test_fraction * n + 0.5))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    in_test = np.zeros(n, dtype=bool)
    in_test[perm[:n_test]] = True
    # Both sides keep the original relative instance order.
    return dataset._take(np.flatnonzero(~in_test)), dataset._take(np.flatnonzero(in_test))
