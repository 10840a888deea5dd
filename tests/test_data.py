"""Dataset model, file format, and splitting."""

import gc
import io
import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mlimb.data import (
    Fingerprint,
    FormatError,
    Instance,
    LabelVocabulary,
    MolecularGraph,
    MultiLabelDataset,
    ValidationError,
    default_vocabulary_path,
    format_vocabulary,
    load_dataset,
    parse_dataset,
    parse_vocabulary,
    save_dataset,
    split_dataset,
    write_dataset,
    _GRAPH,
    _mint_ids,
    _unpacked_rows,
)
from mlimb.synth import SynthConfig, generate
from tests.conftest import FIXTURES, random_dataset

VOCAB3 = "0\tnausea\n1\trash\n2\theadache\n"
HEADER = '{"fingerprint_width":8,"node_feature_dim":2,"label_count":3,"regression_width":0}'


def roundtrip(dataset: MultiLabelDataset) -> MultiLabelDataset:
    buf = io.StringIO()
    write_dataset(dataset, buf)
    return parse_dataset(buf.getvalue(), format_vocabulary(dataset.vocabulary))


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

def test_vocabulary_roundtrip():
    vocab = parse_vocabulary(VOCAB3)
    assert vocab.names == ("nausea", "rash", "headache")
    assert vocab.index_of("rash") == 1
    assert format_vocabulary(vocab) == VOCAB3


def test_vocabulary_rejects_gaps_and_duplicates():
    with pytest.raises(FormatError):
        parse_vocabulary("0\ta\n2\tb\n")
    with pytest.raises(FormatError):
        parse_vocabulary("0\ta\n0\tb\n")
    with pytest.raises(ValidationError):
        parse_vocabulary("0\ta\n1\ta\n")
    with pytest.raises(FormatError):
        parse_vocabulary("0 a\n")


def test_vocabulary_out_of_order_lines_allowed():
    vocab = parse_vocabulary("1\tb\n0\ta\n")
    assert vocab.names == ("a", "b")


# ---------------------------------------------------------------------------
# Fingerprint hex codec
# ---------------------------------------------------------------------------

def test_fingerprint_hex_is_msb_first():
    fp = Fingerprint(np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
    assert fp.to_hex() == "80"
    assert Fingerprint.from_hex("80", 8) == fp


def test_fingerprint_pad_bits_must_be_zero():
    # Width 4 occupies the high nibble; a set low bit is out of range.
    assert Fingerprint.from_hex("a0", 4).bits.tolist() == [1, 0, 1, 0]
    with pytest.raises(FormatError):
        Fingerprint.from_hex("a1", 4)


def test_fingerprint_hex_length_checked():
    with pytest.raises(FormatError):
        Fingerprint.from_hex("8", 8)
    with pytest.raises(FormatError):
        Fingerprint.from_hex("zz", 8)


def test_fingerprint_rejects_non_binary():
    with pytest.raises(ValidationError):
        Fingerprint(np.array([0, 2], dtype=np.uint8))


@pytest.mark.parametrize("bits", [[256, 1], [0.5, 1.0], [-255, 0], [1.9, 0]])
def test_fingerprint_checks_bits_before_any_cast(bits):
    # Each of these reads as 0/1 once cast to uint8.
    with pytest.raises(ValidationError, match="fingerprint bits must be 0 or 1"):
        Fingerprint(bits)


@pytest.mark.parametrize("bits", [np.array([True, False]), [1, 0], np.array([1.0, 0.0])])
def test_fingerprint_takes_bools_and_0_1_numbers(bits):
    assert Fingerprint(bits) == Fingerprint(np.array([1, 0], dtype=np.uint8))


@pytest.mark.parametrize("text", [" 0a ", "0a\t\n", "\n0a "])
def test_fingerprint_hex_must_decode_to_the_declared_bytes(text):
    # bytes.fromhex skips whitespace, so these texts of the right length
    # would decode to one byte where width 12 needs two.
    with pytest.raises(FormatError, match="invalid fingerprint hex string"):
        Fingerprint.from_hex(text, 12)


def test_a_record_with_short_decoding_hex_fails_as_a_format_error_naming_its_line():
    header = HEADER.replace('"fingerprint_width":8', '"fingerprint_width":12')
    record = '{"id":"a","fp":" 0a ","labels":[0]}'
    with pytest.raises(FormatError, match=r"^line 2 \(instance 'a'\): invalid fingerprint hex"):
        parse_dataset(header + "\n" + record + "\n", VOCAB3)


@given(st.one_of(st.integers(1, 20), st.just(2048)).flatmap(
    lambda width: st.lists(st.integers(0, 1), min_size=width, max_size=width)))
@example([1] * 2048)
def test_fingerprint_packed_round_trips(bits):
    expected = np.array(bits, dtype=np.uint8)
    fp = Fingerprint(expected)
    assert type(fp.packed) is bytes and len(fp.packed) == -(-len(bits) // 8)
    assert fp.width == len(bits)
    assert np.array_equal(fp.bits, expected) and fp.bits.dtype == np.uint8
    assert not fp.bits.flags.writeable
    with pytest.raises(ValueError):
        fp.bits[0] = 1 - bits[0]
    back = Fingerprint.from_hex(fp.to_hex(), len(bits))
    assert back == fp and back.packed == fp.packed
    thawed = pickle.loads(pickle.dumps(fp))
    assert thawed == fp and thawed.packed == fp.packed


@pytest.mark.parametrize("width", [1, 8, 13, 64])
def test_unpacked_rows_read_back_each_fingerprint(width):
    rng = np.random.default_rng(width)
    fingerprints = [Fingerprint(rng.integers(0, 2, width)) for _ in range(5)]
    bits = _unpacked_rows([fp.packed for fp in fingerprints], width)
    assert bits.dtype == np.uint8 and bits.shape == (5, width)
    assert bits.tolist() == [fp.bits.tolist() for fp in fingerprints]
    assert _unpacked_rows([], width).shape == (0, width)


def test_fingerprints_of_equal_bytes_and_unequal_widths_differ():
    short, long = Fingerprint([1, 0, 1]), Fingerprint([1, 0, 1, 0])
    assert short.packed == long.packed
    assert short != long


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_empty_stream_gives_empty_dataset():
    dataset = parse_dataset("", VOCAB3)
    assert len(dataset) == 0
    assert dataset.label_count == 3


def test_duplicate_label_index_rejected():
    line = '{"id":"x","fp":"00","labels":[2,0,2]}'
    with pytest.raises(ValidationError, match="duplicate label"):
        parse_dataset(HEADER + "\n" + line, VOCAB3)


def test_label_out_of_range_names_instance():
    line = '{"id":"bad-one","fp":"00","labels":[3]}'
    with pytest.raises(ValidationError, match="bad-one"):
        parse_dataset(HEADER + "\n" + line, VOCAB3)


def test_malformed_line_reports_line_number():
    with pytest.raises(FormatError, match="line 2"):
        parse_dataset(HEADER + "\n" + "{not json", VOCAB3)


def test_wrong_fingerprint_width_rejected():
    line = '{"id":"x","fp":"0000","labels":[]}'
    with pytest.raises(FormatError, match="x"):
        parse_dataset(HEADER + "\n" + line, VOCAB3)


def test_edge_endpoint_out_of_range_rejected():
    line = '{"id":"x","fp":"00","labels":[],"graph":{"nodes":[[0.0,0.0]],"edges":[[0,1]]}}'
    with pytest.raises(ValidationError, match="x"):
        parse_dataset(HEADER + "\n" + line, VOCAB3)


def test_self_edge_rejected():
    line = '{"id":"x","fp":"00","labels":[],"graph":{"nodes":[[0.0,0.0],[1.0,1.0]],"edges":[[1,1]]}}'
    with pytest.raises(ValidationError, match="self-edge"):
        parse_dataset(HEADER + "\n" + line, VOCAB3)


RECORD = '{"id":"x","fp":"00","labels":[]%s}'

# Recorded before the readers took text only and cut lines by one rule: each
# fault fails with the same class and message as before.
MALFORMED_STREAMS = [
    ("", "x\tnausea\n", FormatError, "vocabulary line 1: non-integer index 'x'"),
    ("", "0\tnausea\n1\t\n2\theadache\n", ValidationError, "label names must be non-empty strings"),
    ("[1]", VOCAB3, FormatError, "line 1: header must be a JSON object"),
    ('"header"', VOCAB3, FormatError, "line 1: header must be a JSON object"),
    ('{"fingerprint_width":8,"node_feature_dim":2,"label_count":3}', VOCAB3, FormatError,
     "line 1: header missing field 'regression_width'"),
    (HEADER.replace(":8,", ":8.0,"), VOCAB3, FormatError,
     "line 1: header field 'fingerprint_width' must be an integer"),
    (HEADER.replace(":2,", ":true,"), VOCAB3, FormatError,
     "line 1: header field 'node_feature_dim' must be an integer"),
    (HEADER + '\n{"id":"x","fp":"00"}', VOCAB3, FormatError, "line 2: record missing field 'labels'"),
    (HEADER + '\n{"fp":"00","labels":[]}', VOCAB3, FormatError, "line 2: record missing field 'id'"),
    *((HEADER + '\n{"id":%s,"fp":"00","labels":[]}' % inst_id, VOCAB3, FormatError,
       "line 2: record id must be a non-empty string") for inst_id in ('""', "3")),
    (HEADER + '\n{"id":"x","fp":0,"labels":[]}', VOCAB3, FormatError,
     "line 2 (instance 'x'): field 'fp' must be a hex string"),
    *((HEADER + '\n{"id":"x","fp":"00","labels":%s}' % labels, VOCAB3, FormatError,
       "line 2 (instance 'x'): field 'labels' must be an array of integers")
      for labels in ("[1.0]", "[true]", '"0"')),
    *((HEADER + "\n" + RECORD % f',"reg":{reg}', VOCAB3, FormatError,
       "line 2 (instance 'x'): field 'reg' must be an array of numbers")
      for reg in ("1", "[true]", '["1"]')),
    *((HEADER + "\n" + RECORD % f',"origin":{origin}', VOCAB3, FormatError,
       "line 2 (instance 'x'): field 'origin' must be a non-empty string") for origin in ('""', "1")),
    (HEADER + "\n\n" + RECORD % "", VOCAB3, FormatError, "line 2: blank line in record stream"),
    (HEADER + "\n" + RECORD % "" + "\n \t\n", VOCAB3, FormatError,
     "line 3: blank line in record stream"),
    (HEADER + "\n" + RECORD % ',"graph":{"nodes":[[0.0,0.0,0.0]],"edges":[]}', VOCAB3,
     ValidationError, "instance 'x': node feature dim 3 != declared 2"),
    (HEADER + "\n" + RECORD % ',"reg":[1.0]', VOCAB3, ValidationError,
     "instance 'x': regression targets present but regression_width is 0"),
]


@pytest.mark.parametrize("records, vocabulary, error, message", MALFORMED_STREAMS)
def test_malformed_streams_fail_as_before(records, vocabulary, error, message):
    with pytest.raises(error) as caught:
        parse_dataset(records, vocabulary)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_a_meta_key_that_names_a_header_field_is_refused_on_write():
    dataset = parse_dataset(HEADER, VOCAB3)
    dataset.meta["label_count"] = 1
    with pytest.raises(ValidationError) as caught:
        write_dataset(dataset, io.StringIO())
    assert str(caught.value) == "meta key 'label_count' collides with a reserved header field"


GRAPH_LINE = '{"id":"x","fp":"00","labels":[],"graph":%s}'
TWO_NODES = '"nodes":[[0.0,0.0],[1.0,1.0]]'


# Recorded before graph edges became arrays: each malformed graph record
# fails with the same class and message as when edges were tuples.
MALFORMED_GRAPHS = [
    *(('{%s,"edges":%s}' % (TWO_NODES, edges), FormatError,
       "graph edges must be a list of [u, v] integer pairs")
      for edges in ("3", "null", "[[0]]", "[[0,1.5]]", '[[0,"1"]]', "[[0,1,2]]", "[[0,[1]]]",
                    "[[0,1],[2]]", "{}", '"ab"', "[[]]", "[0,1]")),
    *(('{%s,"edges":%s}' % (TWO_NODES, edges), ValidationError, message)
      for edges, message in (
          ("[[1,1]]", "self-edge (1, 1) is not allowed"),
          ("[[0,1],[1,1]]", "self-edge (1, 1) is not allowed"),
          ("[[0,1],[5,5]]", "self-edge (5, 5) is not allowed"),
          ("[[0,5]]", "edge (0, 5) has an endpoint outside 0..1"),
          ("[[0,-1]]", "edge (0, -1) has an endpoint outside 0..1"),
          (f"[[0,{10**30}]]", f"edge (0, {10**30}) has an endpoint outside 0..1"),
          (f"[[0,{2**63}]]", f"edge (0, {2**63}) has an endpoint outside 0..1"),
          (f"[[0,{-2**63}]]", f"edge (0, {-2**63}) has an endpoint outside 0..1"),
      )),
    ("3", FormatError, "field 'graph' must be an object with 'nodes' and 'edges'"),
    ('{"nodes":[[0.0,0.0]]}', FormatError, "field 'graph' must be an object with 'nodes' and 'edges'"),
    ('{%s,"edges":[],"x":1}' % TWO_NODES, FormatError,
     "field 'graph' must be an object with 'nodes' and 'edges'"),
    *(('{"nodes":%s,"edges":[]}' % nodes, FormatError,
       "graph nodes must be a non-empty list of equal-length feature rows")
      for nodes in ("[]", "3", "[[0.0],[1.0,2.0]]", "[1.0,2.0]")),
]


@pytest.mark.parametrize("graph, error, message", MALFORMED_GRAPHS)
def test_malformed_graph_records_fail_as_before(graph, error, message):
    with pytest.raises(error) as caught:
        parse_dataset(HEADER + "\n" + GRAPH_LINE % graph, VOCAB3)
    assert type(caught.value) is error
    assert str(caught.value) == f"line 2 (instance 'x'): {message}"


NOT_NUMBERS = [
    '[[{},1.0],[1.0,2.0]]',       # an object
    '[["abc",1.0],[1.0,2.0]]',    # a string
    '[["1.5",1.0],[1.0,2.0]]',    # a numeral string
    '[[null,1.0],[1.0,2.0]]',     # null, once read as NaN
    f'[[{10**30},null]]',          # null beside an integer beyond int64
    '[[true,"1"]]',               # a numeral string beside a bool
]


@pytest.mark.parametrize("nodes", NOT_NUMBERS)
def test_node_features_that_are_not_numbers_fail_as_format_errors(nodes):
    with pytest.raises(FormatError) as caught:
        parse_dataset(HEADER + "\n" + GRAPH_LINE % ('{"nodes":%s,"edges":[]}' % nodes), VOCAB3)
    assert str(caught.value) == "line 2 (instance 'x'): graph node features must be numbers"


ARRAYS_AMONG_NUMBERS = [
    '[[[1],1.0],[1.0,2.0]]',      # an array beside numbers
    '[[[0.0,0.0]],[[1.0,1.0]]]',  # arrays in place of numbers
]


@pytest.mark.parametrize("nodes", ARRAYS_AMONG_NUMBERS)
def test_node_features_that_are_arrays_fail_as_format_errors(nodes):
    with pytest.raises(FormatError) as caught:
        parse_dataset(HEADER + "\n" + GRAPH_LINE % ('{"nodes":%s,"edges":[]}' % nodes), VOCAB3)
    assert str(caught.value) == ("line 2 (instance 'x'): "
                                 "graph nodes must be a non-empty list of equal-length feature rows")


@pytest.mark.parametrize("nodes", [
    "[[0.5,-1],[NaN,Infinity]]", "[[1,2],[3,4]]", "[[true,1],[false,-Infinity]]",
    f"[[{10**30},5]]", f"[[{2**63},1.5]]", f"[[{10**30},0.25]]", "[[1e308,-0.0]]",
])
def test_numeric_node_rows_keep_their_float64_values(nodes):
    header = HEADER.replace('"node_feature_dim":2', '"node_feature_dim":%d' % len(json.loads(nodes)[0]))
    line = GRAPH_LINE % ('{"nodes":%s,"edges":[]}' % nodes)
    got = parse_dataset(header + "\n" + line, VOCAB3).instances[0].graph.node_features
    expected = np.asarray(json.loads(nodes), dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_read_only_edge_array(edges: np.ndarray) -> None:
    assert type(edges) is np.ndarray and edges.dtype == np.int64
    assert edges.ndim == 2 and edges.shape[1] == 2
    assert not edges.flags.writeable
    if edges.size:
        with pytest.raises(ValueError):
            edges[0, 0] = 0


def test_graph_edges_are_one_read_only_int64_array():
    feats = np.zeros((3, 2))
    graph = MolecularGraph(feats, edges=((0, 1),))
    assert_read_only_edge_array(graph.edges)
    assert graph.edges.tolist() == [[0, 1]]
    assert_read_only_edge_array(MolecularGraph(feats).edges)
    assert MolecularGraph(feats).edges.shape == (0, 2)
    given = np.array([[0, 1], [2, 1]], dtype=np.int32)
    copied = MolecularGraph(feats, edges=given)
    given[0, 0] = 2  # the graph keeps its own copy
    assert copied.edges.tolist() == [[0, 1], [2, 1]] and copied.edges.dtype == np.int64
    assert not hasattr(graph, "__dict__")

    parsed = roundtrip(random_dataset(np.random.default_rng(0), 12, graph_prob=1.0))
    generated = generate(SynthConfig(n_instances=12, n_labels=3, seed=4))
    for dataset in (parsed, generated):
        for inst in dataset.instances:
            assert_read_only_edge_array(inst.graph.edges)


@pytest.mark.parametrize("edges", [((0, 1), (1, 2)), ()])
def test_graph_equality_and_pickling_round_trip(edges):
    graph = MolecularGraph(np.arange(6.0).reshape(3, 2), edges=edges)
    thawed = pickle.loads(pickle.dumps(graph))
    assert thawed == graph and thawed is not graph
    assert_read_only_edge_array(thawed.edges)
    assert thawed.edges.tolist() == [list(e) for e in edges]
    assert graph != MolecularGraph(graph.node_features, edges=((0, 2),))
    assert graph != MolecularGraph(graph.node_features + 1, edges=edges)


@pytest.mark.parametrize("edges, message", [
    (((0, 1.5),), "graph edges must be (u, v) integer pairs"),
    (((0, 1, 2),), "graph edges must be (u, v) integer pairs"),
    (((0, 1), (2,)), "graph edges must be (u, v) integer pairs"),
    (((0, 1), (2, 2), (0, 9)), "self-edge (2, 2) is not allowed"),
    (((0, 1), (0, 9), (2, 2)), "edge (0, 9) has an endpoint outside 0..2"),
    (np.array([[1, 0], [0, 2**63]], dtype=np.uint64), f"edge (0, {2**63}) has an endpoint outside 0..2"),
])
def test_graph_constructor_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValidationError) as caught:
        MolecularGraph(np.zeros((3, 2)), edges=edges)
    assert str(caught.value) == message


def test_parsed_corpus_holds_its_edges_compactly():
    """2000 graphs retain 3.01 MB once parsed; as tuples of int tuples their
    edges took 1.15 MB more (4.16 MB). The bound lies halfway."""
    dataset = generate(SynthConfig(n_instances=2000, n_labels=50, zipf_exponent=1.2,
                                   cooccurrence_boost=0.3, seed=0))
    buf = io.StringIO()
    write_dataset(dataset, buf)
    text, vocab = buf.getvalue(), format_vocabulary(dataset.vocabulary)
    del dataset, buf
    gc.collect()
    tracemalloc.start()
    try:
        parsed = parse_dataset(text, vocab)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parsed) == 2000
    assert retained < 3.59e6, retained


def test_duplicate_instance_id_rejected():
    lines = '{"id":"x","fp":"00","labels":[]}\n{"id":"x","fp":"00","labels":[]}'
    with pytest.raises(ValidationError, match="duplicate instance id"):
        parse_dataset(HEADER + "\n" + lines, VOCAB3)


def test_header_label_count_must_match_vocabulary():
    header = '{"fingerprint_width":8,"node_feature_dim":2,"label_count":4,"regression_width":0}'
    with pytest.raises(FormatError, match="label_count"):
        parse_dataset(header, VOCAB3)


def test_unknown_record_field_rejected():
    line = '{"id":"x","fp":"00","labels":[],"bogus":1}'
    with pytest.raises(FormatError, match="bogus"):
        parse_dataset(HEADER + "\n" + line, VOCAB3)


def test_extra_header_fields_survive_as_meta():
    header = HEADER[:-1] + ',"note":{"k":1}}'
    dataset = parse_dataset(header, VOCAB3)
    assert dataset.meta == {"note": {"k": 1}}
    assert roundtrip(dataset).meta == {"note": {"k": 1}}


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

def test_tiny4_fixture_roundtrips_byte_identically(tiny4):
    records, vocab = tiny4
    dataset = parse_dataset(records, vocab)
    assert len(dataset) == 4
    assert dataset.instances[3].origin == "mol-b"
    buf = io.StringIO()
    write_dataset(dataset, buf)
    assert buf.getvalue() == records
    assert format_vocabulary(dataset.vocabulary) == vocab


def test_zero_instance_dataset_writes_header_only():
    dataset = parse_dataset("", VOCAB3)
    buf = io.StringIO()
    write_dataset(dataset, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith('{"fingerprint_width"')


def test_randomized_parse_write_identity():
    rng = np.random.default_rng(404)
    for trial in range(30):
        dataset = random_dataset(rng, reg_width=int(rng.integers(0, 3)))
        again = roundtrip(dataset)
        assert again == dataset, f"trial {trial} altered the dataset"


def test_labels_serialized_sorted_ascending():
    dataset = parse_dataset(HEADER + "\n" + '{"id":"x","fp":"00","labels":[2,0]}', VOCAB3)
    assert dataset.instances[0].labels == (0, 2)
    buf = io.StringIO()
    write_dataset(dataset, buf)
    assert '"labels":[0,2]' in buf.getvalue()


def test_default_vocabulary_path_is_sibling():
    assert str(default_vocabulary_path("/a/b/data.jsonl")).endswith("/a/b/data.labels.tsv")


# ---------------------------------------------------------------------------
# Dataset-level validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("labels", [
    (0.7, 2.9), (True, 2), ("3",), (1, np.float64(2.0)), (np.True_,),
], ids=["float", "bool", "str", "numpy-float", "numpy-bool"])
def test_instance_refuses_a_label_that_is_not_an_integer(labels):
    bad = next(l for l in labels if type(l) is not int)
    with pytest.raises(ValidationError,
                       match=f"^instance 'a': label {re.escape(repr(bad))} is not an integer$"):
        Instance(id="a", fingerprint=Fingerprint([1, 0]), labels=labels)


def test_instance_takes_numpy_integer_labels_as_ints():
    inst = Instance(id="a", fingerprint=Fingerprint([1, 0]), labels=(np.int64(3), np.uint8(1)))
    assert inst.labels == (1, 3)
    assert all(type(l) is int for l in inst.labels)


def test_dataset_rejects_mixed_fingerprint_widths():
    vocab = LabelVocabulary(("a",))
    good = Instance(id="x", fingerprint=Fingerprint(np.zeros(8, dtype=np.uint8)), labels=())
    bad = Instance(id="y", fingerprint=Fingerprint(np.zeros(4, dtype=np.uint8)), labels=())
    with pytest.raises(ValidationError, match="width"):
        MultiLabelDataset(vocabulary=vocab, instances=[good, bad],
                          fingerprint_width=8, node_feature_dim=1)


def test_dataset_rejects_wrong_regression_width():
    vocab = LabelVocabulary(("a",))
    inst = Instance(id="x", fingerprint=Fingerprint(np.zeros(4, dtype=np.uint8)),
                    labels=(), regression_targets=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError, match="regression"):
        MultiLabelDataset(vocabulary=vocab, instances=[inst],
                          fingerprint_width=4, node_feature_dim=1, regression_width=3)


# ---------------------------------------------------------------------------
# Graphs kept as text (decode_graphs=False)
# ---------------------------------------------------------------------------

def kept_graphs(dataset: MultiLabelDataset) -> list[bool]:
    """Per row with a graph, whether it is held undecoded."""
    return [not isinstance(inst.graph, MolecularGraph)
            for inst in dataset.instances if inst.graph is not None]


def written(dataset: MultiLabelDataset) -> str:
    buf = io.StringIO()
    write_dataset(dataset, buf)
    return buf.getvalue()


ID_CHARS = st.sampled_from('ab"\\}{[],: é€ \x1c\U0001f600')
FEATURES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e-05, 5e-324, 1.5e300])


@st.composite
def text_path_datasets(draw) -> MultiLabelDataset:
    """Datasets with non-finite node features, graphless rows, regression
    targets, origins, meta keys and ids that JSON must escape."""
    node_dim, reg_width = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=4), min_size=1, max_size=4,
                        unique=True))
    rows = []
    for inst_id in ids:
        graph = None
        if draw(st.booleans()):
            n = draw(st.integers(1, 3))
            feats = draw(st.lists(FEATURES, min_size=n * node_dim, max_size=n * node_dim))
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            edges = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
            graph = MolecularGraph(np.reshape(feats, (n, node_dim)), edges=edges)
        reg = draw(st.lists(FEATURES, min_size=reg_width, max_size=reg_width)) if reg_width else None
        bits = draw(st.integers(0, 511))
        rows.append(Instance(
            id=inst_id, fingerprint=Fingerprint([(bits >> k) & 1 for k in range(9)]),
            labels=tuple(draw(st.sets(st.integers(0, 2), max_size=3))), graph=graph,
            regression_targets=reg,
            origin=draw(st.none() | st.text(ID_CHARS, min_size=1, max_size=3))))
    meta = draw(st.dictionaries(st.text(ID_CHARS, max_size=3), st.integers() | st.text(max_size=3),
                                max_size=2))
    return MultiLabelDataset(vocabulary=parse_vocabulary(VOCAB3), instances=rows,
                             fingerprint_width=9, node_feature_dim=node_dim,
                             regression_width=reg_width, meta=meta)


# Drawing a dataset is slow by the health check's measure on a busy machine
# (one draw once took 1.1 s); that says nothing about the code under test.
@settings(suppress_health_check=[HealthCheck.too_slow])
@given(text_path_datasets())
def test_graphs_kept_as_text_write_back_what_was_read(dataset):
    text = written(dataset)
    kept = parse_dataset(text, VOCAB3, decode_graphs=False)
    assert all(kept_graphs(kept))
    assert written(kept) == text == written(parse_dataset(text, VOCAB3))


def test_a_graph_not_in_mlimbs_form_is_decoded():
    graph = '{"nodes":[[1.0,2.0]],"edges":[]}'
    for line in (GRAPH_LINE.replace(":%s", ": %s") % graph,        # a space after the key
                 GRAPH_LINE % graph.replace(",", ", "),              # spaces inside
                 GRAPH_LINE % '{"edges":[],"nodes":[[1.0,2.0]]}',   # its keys swapped
                 '{"id":"x","labels":[],"fp":"00","graph":%s}' % graph,   # fields reordered
                 '{"id":"x","fp":"00","labels":[1,0],"graph":%s}' % graph):  # labels unsorted
        kept = parse_dataset(HEADER + "\n" + line, VOCAB3, decode_graphs=False)
        assert kept_graphs(kept) == [False]
        assert kept == parse_dataset(HEADER + "\n" + line, VOCAB3)


def test_a_hand_written_graph_is_written_back_as_it_was_read():
    line = GRAPH_LINE % '{"nodes":[[1,2E+3],[NaN,-Infinity]],"edges":[[1,0]]}'
    kept = parse_dataset(HEADER + "\n" + line, VOCAB3, decode_graphs=False)
    assert kept_graphs(kept) == [True]
    assert written(kept) == HEADER + "\n" + line + "\n"
    assert written(parse_dataset(HEADER + "\n" + line, VOCAB3)) == HEADER + "\n" + (
        GRAPH_LINE % '{"nodes":[[1.0,2000.0],[NaN,-Infinity]],"edges":[[1,0]]}') + "\n"


def test_a_second_graph_field_takes_the_eager_parse():
    line = GRAPH_LINE % '{"nodes":[[1.0,2.0]],"edges":[]}'
    line = line[:-1] + ',"graph":{"nodes":[[3.0,4.0]],"edges":[]}}'
    kept = parse_dataset(HEADER + "\n" + line, VOCAB3, decode_graphs=False)
    assert kept == parse_dataset(HEADER + "\n" + line, VOCAB3)
    assert kept.instances[0].graph.node_features.tolist() == [[3.0, 4.0]]


def test_a_graph_key_inside_an_open_string_takes_the_eager_parse():
    # The id's closing quote is missing: what looks like the graph's key is
    # the end of the id string, and the line is not JSON.
    line = '{"id":"x],"graph":{"nodes":[[1.0,2.0]],"edges":[]}","fp":"00","labels":[]}'
    with pytest.raises(FormatError) as eager:
        parse_dataset(HEADER + "\n" + line, VOCAB3)
    with pytest.raises(FormatError) as kept:
        parse_dataset(HEADER + "\n" + line, VOCAB3, decode_graphs=False)
    assert str(kept.value) == str(eager.value)


def test_the_graph_pattern_needs_nothing_newer_than_python_3_10():
    # Atomic groups and possessive quantifiers came in Python 3.11; on 3.10
    # compiling them at import would break every use of the package.
    parser = pytest.importorskip("re._parser")  # 3.11 on, which parses both

    def newer(node) -> bool:
        if node is parser.ATOMIC_GROUP or node is parser.POSSESSIVE_REPEAT:
            return True
        if isinstance(node, parser.SubPattern):
            node = node.data
        return isinstance(node, (list, tuple)) and any(map(newer, node))

    assert newer(parser.parse("(?>a)")) and newer(parser.parse("a*+"))
    assert not newer(parser.parse(_GRAPH.pattern))


RAGGED = "[[0.0],[1.0,2.0]]"


@pytest.mark.parametrize("graph, error", [
    *((graph, error) for graph, error, _ in MALFORMED_GRAPHS),
    *(('{"nodes":%s,"edges":[]}' % nodes, FormatError)
      for nodes in NOT_NUMBERS + ARRAYS_AMONG_NUMBERS),
    *(('{"nodes":[[0.0,%s]],"edges":[]}' % number, FormatError)
      for number in ("1.0.0", ",1.0", "01", "-NaN", "1.", ".5", "+1", "1e", "Nan")),
    ('{"nodes":[[0.0,1.0]],"edges":[]', FormatError),  # the record's brace closes the graph
])
def test_a_graph_token_fault_reads_the_same_without_decoding(graph, error):
    text = HEADER + "\n" + GRAPH_LINE % graph
    with pytest.raises(error) as eager:
        parse_dataset(text, VOCAB3)
    if error is ValidationError or RAGGED in graph:  # number-only structure: not looked at
        assert kept_graphs(parse_dataset(text, VOCAB3, decode_graphs=False)) == [True]
        return
    with pytest.raises(error) as kept:
        parse_dataset(text, VOCAB3, decode_graphs=False)
    assert str(kept.value) == str(eager.value)


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    save_dataset(parse_dataset(HEADER + "\n" + '{"id":"x","fp":"00","labels":[]}', VOCAB3),
                 tmp_path / "d.jsonl")
    records, vocab = tmp_path / "d.jsonl", tmp_path / "d.labels.tsv"
    good = records.read_bytes()
    records.write_bytes(good + b'{"id":"\xff","fp":"00","labels":[]}\n')
    with pytest.raises(FormatError) as caught:
        load_dataset(records)
    offset = len(good) + 7
    assert str(caught.value) == f"{records}: line 3: not UTF-8 text (byte 0xff at offset {offset})"
    records.write_bytes(good)
    vocab.write_bytes(b"0\tnausea\n1\trash\n2\thead\xe9ache\n")
    with pytest.raises(FormatError) as caught:
        load_dataset(records, decode_graphs=False)
    assert str(caught.value) == f"{vocab}: line 3: not UTF-8 text (byte 0xe9 at offset 22)"


# The characters other than "\n" and "\r" at which ``str.splitlines`` breaks.
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("decode_graphs", [True, False], ids=["decoded", "kept"])
@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
def test_a_record_id_may_hold_a_raw_unicode_line_break(tmp_path, char, decode_graphs):
    # JSON allows these raw in a string; mlimb writes them escaped.
    line = GRAPH_LINE.replace('"x"', f'"a{char}b"') % '{"nodes":[[0.0,1.0]],"edges":[]}'
    (tmp_path / "d.jsonl").write_bytes(f"{HEADER}\n{line}\n".encode())
    (tmp_path / "d.labels.tsv").write_bytes(VOCAB3.encode())
    dataset = load_dataset(tmp_path / "d.jsonl", decode_graphs=decode_graphs)
    assert dataset.ids == (f"a{char}b",)


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "\r", "c\r\n"])
def test_a_label_name_holding_a_tab_or_line_end_is_refused(name):
    with pytest.raises(ValidationError) as caught:
        LabelVocabulary(("ok", name))
    assert str(caught.value) == "label names must not hold a tab, \\n or \\r"


@pytest.mark.parametrize("name", ["\ud800", "a\udfffb", "\ud83d\ude00"])
def test_a_label_name_that_does_not_encode_as_utf8_is_refused_before_any_file(tmp_path, name):
    # A lone surrogate (or a pair of them, which Python keeps as two) has no
    # UTF-8 form, so the vocabulary file could not be written.
    with pytest.raises(ValidationError) as caught:
        vocabulary = LabelVocabulary(("a", name))
        dataset = MultiLabelDataset(vocabulary=vocabulary, fingerprint_width=2,
                                    node_feature_dim=1, instances=[
                                        Instance(id="x", fingerprint=Fingerprint([1, 0]),
                                                 labels=(1,))])
        save_dataset(dataset, tmp_path / "d.jsonl")
    assert str(caught.value) == f"label name {name!r} does not encode as UTF-8"
    assert list(tmp_path.iterdir()) == []


@given(names=st.lists(st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"), min_size=1),
                      min_size=1, max_size=6, unique=True))
@example(names=["a\u2028b", "z"])
@example(names=[f"a{char}b" for char in SPLITLINES_ONLY] + list(SPLITLINES_ONLY))
def test_label_names_without_a_tab_or_line_end_round_trip(tmp_path_factory, names):
    vocabulary = LabelVocabulary(tuple(names))
    assert parse_vocabulary(format_vocabulary(vocabulary)) == vocabulary
    rows = [Instance(id=name, fingerprint=Fingerprint([1, 0]), labels=(i,))
            for i, name in enumerate(names)]
    dataset = MultiLabelDataset(vocabulary=vocabulary, instances=rows, fingerprint_width=2,
                                node_feature_dim=1)
    records = tmp_path_factory.mktemp("names") / "d.jsonl"
    save_dataset(dataset, records)
    assert load_dataset(records) == dataset


@pytest.mark.parametrize("decode_graphs", [True, False], ids=["decoded", "kept"])
def test_an_integer_past_pythons_digit_limit_is_a_format_error_naming_its_line(decode_graphs):
    line = '{"id":"x","fp":"00","labels":[%s]}' % ("1" * 5000)
    with pytest.raises(FormatError, match=r"^line 2: invalid record JSON \(Exceeds the limit"):
        parse_dataset(HEADER + "\n" + line, VOCAB3, decode_graphs=decode_graphs)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_files_read_as_lf_files(tmp_path, tiny4, end):
    records, vocab = tiny4
    path = tmp_path / "d.jsonl"
    (tmp_path / "d.labels.tsv").write_bytes(vocab.replace("\n", end).encode())
    path.write_bytes(records.replace("\n", end).encode())
    assert load_dataset(path) == parse_dataset(records, vocab)
    lines = records.splitlines()
    lines[2] = '{"id":"x","fp":"00"}'
    path.write_bytes(end.join(lines).encode())
    with pytest.raises(FormatError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}: line 3: record missing field 'labels'"
    path.write_bytes(end.join(lines[:2] + ['{"id":"\xff"}']).encode("latin-1"))
    with pytest.raises(FormatError) as caught:
        load_dataset(path)
    offset = len(end.join(lines[:2] + ['{"id":"']))
    assert str(caught.value) == f"{path}: line 3: not UTF-8 text (byte 0xff at offset {offset})"


def test_load_names_the_file_each_fault_is_in(tmp_path):
    records, vocab = tmp_path / "d.jsonl", tmp_path / "d.labels.tsv"
    records.write_text(HEADER + "\n" + RECORD % "", encoding="utf-8")
    for text, error, message in [
        ("0\tnausea\n1\tnausea\n", ValidationError, "label names must be unique"),
        ("0\tnausea\nrash\n", FormatError, "vocabulary line 2: expected 'index<TAB>name'"),
        ("0\tnausea\n2\trash\n", FormatError,
         "vocabulary indices must be exactly 0..N-1 with no gaps or duplicates"),
    ]:
        vocab.write_text(text, encoding="utf-8")
        with pytest.raises(error) as caught:
            load_dataset(records)
        assert (type(caught.value), str(caught.value)) == (error, f"{vocab}: {message}")
    vocab.write_text("0\tnausea\n1\trash\n", encoding="utf-8")
    with pytest.raises(FormatError) as caught:
        load_dataset(records)
    assert str(caught.value) == f"{records}: line 1: header label_count 3 != vocabulary size 2"


# ---------------------------------------------------------------------------
# Column storage: gathers and appends equal the public constructor
# ---------------------------------------------------------------------------

def rebuilt(dataset: MultiLabelDataset, rows) -> MultiLabelDataset:
    """The same rows through the public constructor, which validates them all."""
    return dataset.with_instances([dataset.instances[i] for i in rows])


def assert_same_dataset(got: MultiLabelDataset, expected: MultiLabelDataset) -> None:
    from mlimb.cooccurrence import cooccurrence
    from mlimb.metrics import imbalance_report, label_counts, positive_pair_count

    assert got == expected
    assert got.instances == expected.instances
    assert got.label_sets == expected.label_sets
    assert got.set_counts.tolist() == expected.set_counts.tolist()
    assert np.array_equal(label_counts(got), label_counts(expected))
    assert positive_pair_count(got) == positive_pair_count(expected)
    if len(got) and label_counts(got).any():
        assert imbalance_report(got).to_json() == imbalance_report(expected).to_json()
    subset = list(range(min(3, got.label_count)))
    assert cooccurrence(got, subset) == cooccurrence(expected, subset)
    buf_got, buf_expected = io.StringIO(), io.StringIO()
    write_dataset(got, buf_got)
    write_dataset(expected, buf_expected)
    assert buf_got.getvalue() == buf_expected.getvalue()


def test_gathered_rows_equal_constructed_rows():
    rng = np.random.default_rng(70)
    for _ in range(60):
        dataset = random_dataset(rng, max_instances=30, max_labels=6,
                                 reg_width=int(rng.integers(0, 3)))
        n = len(dataset)
        rows = rng.permutation(n)[: int(rng.integers(0, n + 1))]
        assert_same_dataset(dataset._take(rows), rebuilt(dataset, rows))
        copied = rng.integers(0, n, size=int(rng.integers(0, 2 * n + 1)))
        ids = [f"{dataset.ids[i]}::p{(copied[:j + 1] == i).sum()}" for j, i in enumerate(copied)]
        origins = [dataset.ids[i] for i in copied]
        expected = dataset.with_instances(list(dataset.instances) + [
            Instance(id=new_id, fingerprint=src.fingerprint, labels=src.labels, graph=src.graph,
                     regression_targets=src.regression_targets, origin=origin)
            for new_id, origin, src in zip(ids, origins, (dataset.instances[i] for i in copied))
        ])
        assert_same_dataset(dataset._with_copies(copied, "p"), expected)


def test_appended_rows_equal_constructed_rows():
    rng = np.random.default_rng(71)
    for _ in range(60):
        dataset = random_dataset(rng, max_instances=20, max_labels=6)
        new = [
            Instance(id=f"{dataset.ids[0]}::s{j + 1}",
                     fingerprint=Fingerprint(rng.integers(0, 2, dataset.fingerprint_width)),
                     labels=tuple(np.flatnonzero(rng.random(dataset.label_count) < 0.4).tolist()),
                     origin=dataset.ids[0])
            for j in range(int(rng.integers(0, 8)))
        ]
        repeats = rng.integers(0, max(len(new), 1), size=int(rng.integers(0, 8)) if new else 0)
        repeated = [Instance(id=f"{dataset.ids[0]}::s{len(new) + j + 1}",
                             fingerprint=new[r].fingerprint,
                             labels=new[r].labels, origin=new[r].origin)
                    for j, r in enumerate(repeats.tolist())]
        appended = dataset._append([i.fingerprint for i in new], [i.labels for i in new],
                                   np.zeros(len(new), dtype=np.intp), repeats, "s")
        assert_same_dataset(appended,
                            dataset.with_instances(list(dataset.instances) + new + repeated))


# Ids that already hold a minted suffix, so a new id can collide with one.
held_ids = st.lists(
    st.builds("".join, st.lists(st.sampled_from(["a", "b", ":", "::p1", "::s1", "::p2", "::s2"]),
                                min_size=1, max_size=4)),
    min_size=1, max_size=8, unique=True)


@given(held=held_ids, picks=st.lists(st.integers(0, 7), max_size=20),
       tag=st.sampled_from(["p", "s"]))
@example(held=["a", "a::p2", "a::p1", "a::p1::p1"], picks=[0, 0, 0, 2, 2], tag="p")
def test_minted_ids_are_new_distinct_and_count_up_per_source(held, picks, tag):
    origins = [held[i % len(held)] for i in picks]
    minted = _mint_ids(origins, tag, frozenset(held))
    assert len(set(minted)) == len(minted)
    assert not set(minted) & set(held)
    serials: dict[str, list[int]] = {}
    for origin, new_id in zip(origins, minted):
        prefix = f"{origin}::{tag}"
        assert new_id.startswith(prefix)
        serials.setdefault(origin, []).append(int(new_id[len(prefix):]))
    assert all(js == sorted(set(js)) and js[0] >= 1 for js in serials.values())
    assert _mint_ids(origins, tag, frozenset(held)) == minted


def test_oversampled_copies_share_their_source_objects():
    from mlimb.resampling import ResampleConfig, oversample

    rng = np.random.default_rng(72)
    dataset = random_dataset(rng, max_instances=40, max_labels=6, graph_prob=1.0,
                             reg_width=1, ensure_labeled=True)
    by_id = {inst.id: inst for inst in dataset.instances}
    out = oversample(dataset, ResampleConfig(method="proposed", p=1.0, r=2)).dataset
    assert len(out) > len(dataset)
    for copy in out.instances[len(dataset):]:
        source = by_id[copy.origin]
        assert copy.fingerprint is source.fingerprint
        assert copy.graph is source.graph
        assert copy.regression_targets is source.regression_targets
    # mlsmote replays share the objects of the round's synthetic they repeat.
    base = make_plain(6).with_instances(
        [Instance(id=f"m{i}", fingerprint=Fingerprint(np.array([i % 2, 1, 0, 0])), labels=labels)
         for i, labels in enumerate([(0,), (0,), (0,), (1,), (1,), (1,), (1,), (1,), (1,)])])
    out = oversample(base, ResampleConfig(method="mlsmote", p=1.0, k=2)).dataset
    synthetics = out.instances[len(base):]
    assert len(synthetics) == len(base)
    for j, replay in enumerate(synthetics[3:], start=3):
        assert replay.fingerprint is synthetics[j % 3].fingerprint
        assert replay.origin == synthetics[j % 3].origin


def test_oversampled_results_pickle_with_their_rows():
    import pickle

    from mlimb.resampling import ResampleConfig, oversample
    from mlimb.synth import SynthConfig, generate

    dataset = generate(SynthConfig(n_instances=120, n_labels=10, seed=5))
    for method in ("proposed", "mlsmote"):
        out = oversample(dataset, ResampleConfig(method=method, p=1.0, k=3)).dataset
        assert "instances" not in vars(out)  # rows not built yet
        back = pickle.loads(pickle.dumps(out))
        assert "instances" in vars(back) and "_rows" not in vars(back)
        assert_same_dataset(back, out)


def test_instances_view_is_built_once_and_kept():
    dataset = make_plain(5)
    assert dataset.instances is dataset.instances
    train, _ = split_dataset(dataset, 0.4, seed=1)
    rows = train.instances
    assert rows is train.instances
    assert [inst.id for inst in rows] == list(train.ids)


def test_split_rows_are_the_source_rows():
    from mlimb.synth import SynthConfig, generate

    dataset = generate(SynthConfig(n_instances=30, n_labels=5, regression_width=1, seed=3))
    position = {inst.id: j for j, inst in enumerate(dataset.instances)}
    for side in split_dataset(dataset, 0.3, seed=2):
        assert len(side) > 0
        for inst in side.instances:
            assert inst is dataset.instances[position[inst.id]]


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def make_plain(n: int) -> MultiLabelDataset:
    vocab = LabelVocabulary(("a", "b"))
    instances = [
        Instance(id=f"i{i}", fingerprint=Fingerprint(np.zeros(4, dtype=np.uint8)), labels=(0,))
        for i in range(n)
    ]
    return MultiLabelDataset(vocabulary=vocab, instances=instances,
                             fingerprint_width=4, node_feature_dim=1)


def test_split_sizes_and_determinism():
    dataset = make_plain(10)
    train_a, test_a = split_dataset(dataset, 0.2, seed=7)
    train_b, test_b = split_dataset(dataset, 0.2, seed=7)
    assert (len(train_a), len(test_a)) == (8, 2)
    assert [i.id for i in test_a.instances] == [i.id for i in test_b.instances]
    train_c, test_c = split_dataset(dataset, 0.2, seed=8)
    assert (len(train_c), len(test_c)) == (8, 2)


def test_split_partitions_ids():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dataset = random_dataset(rng, max_instances=30)
        if len(dataset) < 2:
            continue
        train, test = split_dataset(dataset, float(rng.uniform(0.1, 0.9)), int(rng.integers(1e6)))
        ids_train = {i.id for i in train.instances}
        ids_test = {i.id for i in test.instances}
        assert ids_train | ids_test == {i.id for i in dataset.instances}
        assert not (ids_train & ids_test)


def test_split_rejects_bad_fraction():
    dataset = make_plain(4)
    for frac in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            split_dataset(dataset, frac, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_split_refuses_a_seed_numpy_would_not_take(seed):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
        split_dataset(make_plain(10), 0.2, seed=seed)


def test_fixture_files_exist():
    assert (FIXTURES / "tiny4.jsonl").is_file()
    assert (FIXTURES / "tiny4.labels.tsv").is_file()
