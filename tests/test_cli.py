"""End-to-end command-line runs: outputs, determinism, error classes."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mlimb
from mlimb.cli import main
from mlimb.data import LabelVocabulary, load_dataset, save_dataset
from mlimb.metrics import imbalance_report
from mlimb.resampling import ResampleConfig, oversample
from tests.test_resampling import make_dataset

SYNTH = ["synth", "--n-instances", "40", "--n-labels", "6", "--fp-width", "16",
         "--signal-bits", "1", "--graph-nodes", "3,5", "--node-dim", "3",
         "--seed", "12"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def synth_dir(tmp_path, capsys):
    out = tmp_path / "base"
    code, _, _ = run(capsys, *SYNTH, "--out", str(out))
    assert code == 0
    return out


def test_metrics_matches_library(synth_dir, tmp_path, capsys):
    out = tmp_path / "metrics"
    code, stdout, _ = run(capsys, "metrics", "--data", str(synth_dir / "dataset.jsonl"),
                          "--out", str(out))
    assert code == 0
    assert "report.json" in stdout
    dataset = load_dataset(synth_dir / "dataset.jsonl")
    expected = imbalance_report(dataset).to_json(dataset.vocabulary.names) + "\n"
    assert (out / "report.json").read_text() == expected
    profile = (out / "profile.csv").read_text().splitlines()
    assert profile[0] == "rank,percent"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "metrics"
    assert set(manifest) >= {"configuration", "inputs", "outputs", "seed",
                             "version", "wall_time_seconds"}


def test_oversample_matches_library(synth_dir, tmp_path, capsys):
    out = tmp_path / "over"
    code, stdout, _ = run(capsys, "oversample", "--data", str(synth_dir / "dataset.jsonl"),
                          "--method", "proposed", "--p", "0.25", "--r", "2",
                          "--out", str(out))
    assert code == 0
    dataset = load_dataset(synth_dir / "dataset.jsonl")
    expected = oversample(dataset, ResampleConfig(method="proposed", p=0.25, r=2))
    got = load_dataset(out / "dataset.jsonl")
    assert got.instances == expected.dataset.instances
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["added_count"] == expected.added_count
    assert f"added {expected.added_count}" in stdout


def test_oversample_p_zero_is_identity_with_warning(synth_dir, tmp_path, capsys):
    out = tmp_path / "noop"
    code, _, stderr = run(capsys, "oversample", "--data", str(synth_dir / "dataset.jsonl"),
                          "--method", "proposed", "--p", "0", "--out", str(out))
    assert code == 0
    assert "warning" in stderr
    original = (synth_dir / "dataset.jsonl").read_text()
    assert (out / "dataset.jsonl").read_text() == original


@pytest.mark.parametrize("method", ["proposed", "mlsmote"])
def test_oversampling_oversampled_output_mints_fresh_ids(synth_dir, tmp_path, capsys, method):
    first, second = tmp_path / "first", tmp_path / "second"
    for source, out in ((synth_dir, first), (first, second)):
        code, _, stderr = run(capsys, "oversample", "--data", str(source / "dataset.jsonl"),
                              "--method", method, "--p", "0.5", "--out", str(out))
        assert code == 0, stderr
    before = load_dataset(first / "dataset.jsonl")
    after = load_dataset(second / "dataset.jsonl")
    ids = [inst.id for inst in after.instances]
    assert len(set(ids)) == len(ids)
    assert after.instances[: len(before)] == before.instances
    source_ids = {inst.id for inst in before.instances}
    added = after.instances[len(before):]
    assert added and all(inst.origin in source_ids for inst in added)
    assert all(inst.id.startswith(inst.origin + "::") for inst in added)


def test_rerun_primary_outputs_byte_identical(synth_dir, tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code, _, _ = run(capsys, "oversample", "--data", str(synth_dir / "dataset.jsonl"),
                         "--method", "mlsmote", "--p", "0.3", "--k", "3",
                         "--seed", "5", "--out", str(out))
        assert code == 0
        outs.append(out)
    for name in ("dataset.jsonl", "dataset.labels.tsv", "diagnostics.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cooccur_writes_chords_and_table(synth_dir, tmp_path, capsys):
    over = tmp_path / "over"
    run(capsys, "oversample", "--data", str(synth_dir / "dataset.jsonl"),
        "--method", "proposed", "--p", "0.5", "--out", str(over))
    out = tmp_path / "chords"
    code, _, _ = run(capsys, "cooccur",
                     "--data", f"base={synth_dir / 'dataset.jsonl'}",
                     "--data", f"over={over / 'dataset.jsonl'}",
                     "--random-labels", "3", "--seed", "2", "--out", str(out))
    assert code == 0
    chord = json.loads((out / "chord_base.json").read_text())
    assert chord["snapshot"] == "base"
    assert len(chord["arcs"]) == 3
    assert (out / "chord_over.json").exists()
    table = json.loads((out / "scumble_table.json").read_text())
    assert set(table["snapshots"]) == {"base", "over"}


def test_cooccur_label_flag_exclusivity_and_unknown_name(synth_dir, tmp_path, capsys):
    data = str(synth_dir / "dataset.jsonl")
    code, _, stderr = run(capsys, "cooccur", "--data", data,
                          "--out", str(tmp_path / "x"))
    assert code == 2 and stderr.startswith("config_error:")
    code, _, stderr = run(capsys, "cooccur", "--data", data, "--labels", "nope",
                          "--out", str(tmp_path / "y"))
    assert code == 2 and "unknown label" in stderr


@pytest.mark.parametrize("other_labels", [("x0", "x1", "x2", "x3", "x4", "x5"),
                                          ("c0000", "c0001", "c0002", "c0003")])
def test_cooccur_vocabulary_mismatch_fails_before_writing(
        synth_dir, tmp_path, capsys, other_labels):
    # Different label names, then a smaller vocabulary: either way one line
    # names the snapshot and --out is never created.
    other = tmp_path / "other"
    other.mkdir()
    snapshot = dataclasses.replace(make_dataset([(0,), (1, 2)], len(other_labels)),
                                   vocabulary=LabelVocabulary(other_labels))
    save_dataset(snapshot, other / "dataset.jsonl", other / "dataset.labels.tsv")
    out = tmp_path / "chords"
    code, _, stderr = run(capsys, "cooccur",
                          "--data", f"a={synth_dir / 'dataset.jsonl'}",
                          "--data", f"b={other / 'dataset.jsonl'}",
                          "--labels", "c0000,c0005", "--out", str(out))
    assert code == 2
    assert stderr == ("config_error: snapshot 'b' does not share the vocabulary "
                      "of snapshot 'a'\n")
    assert not out.exists()


def test_train_and_eval_multilabel(synth_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    code, stdout, _ = run(capsys, "train", "--data", str(synth_dir / "dataset.jsonl"),
                          "--task", "multilabel", "--epochs", "5", "--hidden", "4",
                          "--fuse-dim", "3", "--seed", "1", "--model-out", str(model))
    assert code == 0
    assert "trained 5 epochs" in stdout
    assert model.exists()
    curve = (tmp_path / "model.loss.csv").read_text().splitlines()
    assert curve[0] == "epoch,loss" and len(curve) == 6
    assert (tmp_path / "model.manifest.json").exists()

    report = tmp_path / "eval.json"
    code, _, _ = run(capsys, "eval", "--data", str(synth_dir / "dataset.jsonl"),
                     "--model", str(model), "--report", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert set(doc["f1"]) == {"micro", "macro", "samples"}
    assert doc["mae"] is None
    assert not (tmp_path / "eval.scatter.csv").exists()


def test_train_and_eval_regression_writes_scatter(tmp_path, capsys):
    base = tmp_path / "regdata"
    code, _, _ = run(capsys, "synth", "--n-instances", "30", "--n-labels", "4",
                     "--fp-width", "16", "--graph-nodes", "none", "--reg-width", "2",
                     "--seed", "3", "--out", str(base))
    assert code == 0
    model = tmp_path / "reg.json"
    code, _, _ = run(capsys, "train", "--data", str(base / "dataset.jsonl"),
                     "--task", "multiregression", "--inputs", "fingerprint",
                     "--epochs", "5", "--hidden", "4", "--fuse-dim", "3",
                     "--model-out", str(model))
    assert code == 0
    report = tmp_path / "reg_eval.json"
    code, _, _ = run(capsys, "eval", "--data", str(base / "dataset.jsonl"),
                     "--model", str(model), "--report", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["mae"] is not None and doc["f1"] is None
    scatter = (tmp_path / "reg_eval.scatter.csv").read_text().splitlines()
    assert scatter[0] == "target,prediction"
    assert len(scatter) == 1 + 30 * 2


def test_error_classes(tmp_path, capsys):
    code, _, stderr = run(capsys, "metrics", "--data", str(tmp_path / "missing.jsonl"),
                          "--out", str(tmp_path / "m"))
    assert code == 2 and stderr.startswith("io_error:")

    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    (tmp_path / "bad.labels.tsv").write_text("0\ta\n")
    code, _, stderr = run(capsys, "metrics", "--data", str(bad),
                          "--out", str(tmp_path / "m2"))
    assert code == 2 and stderr.startswith("parse_error:")

    dupes = tmp_path / "dupes.jsonl"
    d = make_dataset([(0,), (1,)], 2)
    save_dataset(d, dupes, tmp_path / "dupes.labels.tsv")
    lines = dupes.read_text().splitlines()
    dupes.write_text("\n".join([lines[0], lines[1], lines[1]]) + "\n")
    code, _, stderr = run(capsys, "metrics", "--data", str(dupes),
                          "--out", str(tmp_path / "m3"))
    assert code == 2 and stderr.startswith("validation_error:")


def test_a_file_that_is_not_utf8_is_a_parse_error_naming_it(synth_dir, tmp_path, capsys):
    data, vocab = tmp_path / "bad.jsonl", tmp_path / "bad.labels.tsv"
    data.write_bytes(b"\xff" + (synth_dir / "dataset.jsonl").read_bytes())
    vocab.write_bytes((synth_dir / "dataset.labels.tsv").read_bytes())
    for command in ("metrics", "oversample", "cooccur"):
        extra = ["--method", "proposed", "--p", "0.5"] if command == "oversample" else (
            ["--random-labels", "2"] if command == "cooccur" else [])
        code, stdout, stderr = run(capsys, command, "--data", str(data), *extra,
                                   "--out", str(tmp_path / command))
        assert (code, stdout) == (2, "")
        assert stderr == f"parse_error: {data}: line 1: not UTF-8 text (byte 0xff at offset 0)\n"
    data.write_bytes((synth_dir / "dataset.jsonl").read_bytes())
    vocab.write_bytes(b"0\tl0\n1\tl\xc31\n")
    code, _, stderr = run(capsys, "metrics", "--data", str(data), "--out", str(tmp_path / "v"))
    assert (code, stderr) == (
        2, f"parse_error: {vocab}: line 2: not UTF-8 text (byte 0xc3 at offset 8)\n")


@pytest.mark.parametrize("separators", [None, (",", ":")], ids=["spaced", "compact"])
@pytest.mark.parametrize("value", [{}, "abc", None])
def test_a_node_feature_that_is_not_a_number_is_one_parse_error(synth_dir, tmp_path, capsys, value,
                                                                 separators):
    lines = (synth_dir / "dataset.jsonl").read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    record["graph"]["nodes"][0][0] = value
    lines[2] = json.dumps(record, separators=separators) + "\n"
    (tmp_path / "bad.jsonl").write_text("".join(lines))
    (tmp_path / "bad.labels.tsv").write_text((synth_dir / "dataset.labels.tsv").read_text())
    code, stdout, stderr = run(capsys, "metrics", "--data", str(tmp_path / "bad.jsonl"),
                               "--out", str(tmp_path / "m"))
    assert (code, stdout) == (2, "")
    assert stderr == (f"parse_error: {tmp_path / 'bad.jsonl'}: line 3 (instance {record['id']!r}): "
                      "graph node features must be numbers\n")


def test_cooccur_names_the_snapshot_file_a_fault_is_in(synth_dir, tmp_path, capsys):
    lines = (synth_dir / "dataset.jsonl").read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    record["fp"] = 0
    lines[2] = json.dumps(record, separators=(",", ":")) + "\n"
    data, vocab = tmp_path / "bad.jsonl", tmp_path / "bad.labels.tsv"
    data.write_text("".join(lines))
    vocab.write_text((synth_dir / "dataset.labels.tsv").read_text())
    cooccur = ["cooccur", "--data", f"a={synth_dir / 'dataset.jsonl'}", "--data", f"b={data}",
               "--random-labels", "2", "--out", str(tmp_path / "c")]
    code, stdout, stderr = run(capsys, *cooccur)
    assert (code, stdout) == (2, "")
    assert stderr == (f"parse_error: {data}: line 3 (instance {record['id']!r}): "
                      "field 'fp' must be a hex string\n")
    data.write_text((synth_dir / "dataset.jsonl").read_text())
    vocab.write_text("0\tc0000\n1\tc0000\n")
    code, stdout, stderr = run(capsys, *cooccur)
    assert (code, stdout, stderr) == (2, "", f"validation_error: {vocab}: label names must be unique\n")


def test_only_a_model_that_reads_graphs_reports_a_self_edge(synth_dir, tmp_path, capsys):
    lines = (synth_dir / "dataset.jsonl").read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    record["graph"]["edges"][0] = [1, 1]
    lines[2] = json.dumps(record, separators=(",", ":")) + "\n"
    data = tmp_path / "bad.jsonl"
    data.write_text("".join(lines))
    (tmp_path / "bad.labels.tsv").write_text((synth_dir / "dataset.labels.tsv").read_text())
    message = (f"validation_error: {data}: line 3 (instance {record['id']!r}): "
               "self-edge (1, 1) is not allowed\n")
    train = ["train", "--task", "multilabel", "--epochs", "1", "--hidden", "4", "--fuse-dim", "3"]
    for inputs in ("hybrid", "fingerprint"):
        model = tmp_path / f"{inputs}.json"
        code, _, stderr = run(capsys, *train, "--data", str(synth_dir / "dataset.jsonl"),
                              "--inputs", inputs, "--model-out", str(model))
        assert code == 0, stderr
        code, _, stderr = run(capsys, "eval", "--data", str(data), "--model", str(model),
                              "--report", str(tmp_path / f"{inputs}_report.json"))
        assert (code, stderr) == ((2, message) if inputs == "hybrid" else (0, ""))
        code, _, stderr = run(capsys, *train, "--data", str(data), "--inputs", inputs,
                              "--model-out", str(tmp_path / "again.json"))
        assert (code, stderr) == ((2, message) if inputs == "hybrid" else (0, ""))
    # The commands that read no graph do not look for the fault.
    assert run(capsys, "metrics", "--data", str(data), "--out", str(tmp_path / "m"))[0] == 0
    code, _, _ = run(capsys, "oversample", "--data", str(data), "--method", "proposed",
                     "--p", "1", "--out", str(tmp_path / "o"))
    assert code == 0
    assert lines[2] in (tmp_path / "o" / "dataset.jsonl").read_text()


def test_bad_config_value(synth_dir, tmp_path, capsys):
    code, _, stderr = run(capsys, "oversample", "--data", str(synth_dir / "dataset.jsonl"),
                          "--method", "proposed", "--p", "1.5",
                          "--out", str(tmp_path / "o"))
    assert code == 2 and stderr.startswith("config_error:")


@pytest.mark.parametrize("flag, value, message", [
    ("--zipf", "nan", "zipf_exponent must be finite, got nan"),
    ("--card", "inf", "target_card must be finite, got inf"),
    ("--card", "1e300", "target_card * n_instances must be below 2**62, got 4e+301"),
    ("--boost", "nan", "cooccurrence_boost must be finite, got nan"),
], ids=["zipf-nan", "card-inf", "card-1e300", "boost-nan"])
def test_synth_refuses_non_finite_or_overflowing_rates(flag, value, message, tmp_path, capsys,
                                                       monkeypatch):
    # The config refuses these before anything is generated; a NaN Zipf
    # exponent used to send the count allocation into an endless loop.
    def generate(config):
        raise AssertionError(f"generate reached with {config}")

    monkeypatch.setattr("mlimb.cli.generate", generate)
    out = tmp_path / "corpus"
    code, stdout, stderr = run(capsys, *SYNTH, flag, value, "--out", str(out))
    assert (code, stdout, stderr) == (2, "", f"config_error: {message}\n")
    assert not out.exists()


def test_multiregression_without_targets_fails(synth_dir, tmp_path, capsys):
    code, _, stderr = run(capsys, "train", "--data", str(synth_dir / "dataset.jsonl"),
                          "--task", "multiregression", "--epochs", "1",
                          "--model-out", str(tmp_path / "m.json"))
    assert code == 2 and stderr == "config_error: dataset declares no regression targets\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("hidden", ["8,,8", "8,x", "8,0"])
def test_train_names_a_bad_hidden_list(hidden, synth_dir, tmp_path, capsys):
    code, stdout, stderr = run(capsys, "train", "--data", str(synth_dir / "dataset.jsonl"),
                               "--task", "multilabel", "--epochs", "1", "--hidden", hidden,
                               "--model-out", str(tmp_path / "m.json"))
    assert (code, stdout, stderr) == (2, "", "config_error: --hidden takes comma-separated "
                                      f"positive integer widths, got '{hidden}'\n")
    assert not (tmp_path / "m.json").exists()


def test_eval_label_count_mismatch(synth_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    run(capsys, "train", "--data", str(synth_dir / "dataset.jsonl"),
        "--task", "multilabel", "--epochs", "1", "--hidden", "4",
        "--fuse-dim", "3", "--model-out", str(model))
    other = tmp_path / "other"
    run(capsys, "synth", "--n-instances", "10", "--n-labels", "3",
        "--fp-width", "16", "--graph-nodes", "3,5", "--node-dim", "3",
        "--out", str(other))
    code, _, stderr = run(capsys, "eval", "--data", str(other / "dataset.jsonl"),
                          "--model", str(model),
                          "--report", str(tmp_path / "r" / "deep" / "report.json"))
    assert code == 2
    assert stderr == "config_error: model predicts 6 labels, dataset has 3\n"
    assert not (tmp_path / "r").exists()


def test_eval_refuses_an_empty_dataset(synth_dir, tmp_path, capsys, monkeypatch):
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, "train", "--data", str(synth_dir / "dataset.jsonl"),
                     "--task", "multilabel", "--epochs", "1", "--hidden", "4",
                     "--fuse-dim", "3", "--model-out", str(model))
    assert code == 0
    header = (synth_dir / "dataset.jsonl").read_text().splitlines(keepends=True)[0]
    (tmp_path / "empty.jsonl").write_text(header)
    (tmp_path / "empty.labels.tsv").write_text((synth_dir / "dataset.labels.tsv").read_text())
    monkeypatch.setattr("mlimb.cli.predict", pytest.fail)  # refused before predicting
    code, stdout, stderr = run(capsys, "eval", "--data", str(tmp_path / "empty.jsonl"),
                               "--model", str(model),
                               "--report", str(tmp_path / "r" / "report.json"))
    assert (code, stdout, stderr) == (2, "", "config_error: cannot evaluate an empty dataset\n")
    assert not (tmp_path / "r").exists()


def test_eval_regression_targets_checked_up_front(tmp_path, capsys):
    def synth(name, reg_width):
        out = tmp_path / name
        code, _, _ = run(capsys, "synth", "--n-instances", "20", "--n-labels", "4",
                         "--fp-width", "16", "--graph-nodes", "none",
                         "--reg-width", str(reg_width), "--out", str(out))
        assert code == 0
        return out / "dataset.jsonl"

    model = tmp_path / "reg.json"
    code, _, _ = run(capsys, "train", "--data", str(synth("reg2", 2)),
                     "--task", "multiregression", "--inputs", "fingerprint", "--epochs", "1",
                     "--hidden", "4", "--fuse-dim", "3", "--model-out", str(model))
    assert code == 0
    for data, message in (
        (synth("plain", 0), "dataset declares no regression targets"),
        (synth("reg3", 3), "model predicts 2 regression targets, dataset has 3"),
    ):
        code, _, stderr = run(capsys, "eval", "--data", str(data), "--model", str(model),
                              "--report", str(tmp_path / "r" / "deep" / "report.json"))
        assert code == 2
        assert stderr == f"config_error: {message}\n"
        assert not (tmp_path / "r").exists()


@pytest.fixture
def mlsmote_dir(tmp_path, capsys):
    base, out = tmp_path / "graphs", tmp_path / "mlsmote"
    code, _, _ = run(capsys, "synth", "--n-instances", "100", "--n-labels", "6",
                     "--fp-width", "16", "--graph-nodes", "3,5", "--node-dim", "3",
                     "--boost", "0.3", "--seed", "12", "--out", str(base))
    assert code == 0
    code, _, _ = run(capsys, "oversample", "--data", str(base / "dataset.jsonl"),
                     "--method", "mlsmote", "--p", "0.3", "--out", str(out))
    assert code == 0
    return out


GRAPHLESS = re.compile(r"config_error: 30 of 130 instances have no graph \(first '[^']+::s1'\) "
                       r"but input_mode='(hybrid|graph)'; use --inputs fingerprint\n")


@pytest.mark.parametrize("batch", [[], ["--batch-size", "64"]], ids=["full", "batch64"])
@pytest.mark.parametrize("inputs", ["hybrid", "graph", "fingerprint"])
def test_train_on_graphless_rows_fails_up_front(mlsmote_dir, tmp_path, capsys, inputs, batch):
    model = tmp_path / "m.json"
    code, _, stderr = run(capsys, "train", "--data", str(mlsmote_dir / "dataset.jsonl"),
                          "--task", "multilabel", "--inputs", inputs, "--epochs", "2",
                          "--hidden", "4", "--fuse-dim", "3", *batch, "--model-out", str(model))
    if inputs == "fingerprint":
        assert code == 0, stderr
        assert model.exists()
    else:
        assert code == 2
        assert GRAPHLESS.fullmatch(stderr), stderr
        assert not model.exists()


def test_multiregression_on_mlsmote_output_names_missing_targets_first(tmp_path, capsys):
    base, out = tmp_path / "reg", tmp_path / "mlsmote"
    run(capsys, "synth", "--n-instances", "60", "--n-labels", "6", "--fp-width", "16",
        "--graph-nodes", "3,5", "--node-dim", "3", "--reg-width", "2", "--boost", "0.3",
        "--seed", "3", "--out", str(base))
    run(capsys, "oversample", "--data", str(base / "dataset.jsonl"), "--method", "mlsmote",
        "--p", "0.3", "--out", str(out))
    # The graph hint would lead to this second error, so it is reported first.
    code, _, stderr = run(capsys, "train", "--data", str(out / "dataset.jsonl"),
                          "--task", "multiregression", "--inputs", "hybrid", "--epochs", "1",
                          "--model-out", str(tmp_path / "m.json"))
    assert code == 2
    assert re.fullmatch(r"config_error: instance '[^']+::s1' has no regression targets\n", stderr)


def test_eval_on_graphless_rows_names_the_fix(mlsmote_dir, tmp_path, capsys):
    model = tmp_path / "m.json"
    code, _, _ = run(capsys, "train", "--data", str(mlsmote_dir.parent / "graphs" / "dataset.jsonl"),
                     "--task", "multilabel", "--epochs", "1", "--hidden", "4",
                     "--fuse-dim", "3", "--model-out", str(model))
    assert code == 0
    code, _, stderr = run(capsys, "eval", "--data", str(mlsmote_dir / "dataset.jsonl"),
                          "--model", str(model), "--report", str(tmp_path / "r.json"))
    assert code == 2
    assert GRAPHLESS.fullmatch(stderr), stderr


def test_threads_flag_is_gone(synth_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads=2", "metrics", "--data", str(synth_dir / "dataset.jsonl"),
              "--out", str(tmp_path / "m")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads=2" in capsys.readouterr().err


def test_diverging_training_is_a_config_error(tmp_path, capsys):
    base = tmp_path / "regdata"
    code, _, _ = run(capsys, "synth", "--n-instances", "30", "--n-labels", "4",
                     "--fp-width", "16", "--graph-nodes", "3,5", "--node-dim", "3",
                     "--reg-width", "2", "--seed", "3", "--out", str(base))
    assert code == 0
    model = tmp_path / "reg.json"
    code, _, stderr = run(capsys, "train", "--data", str(base / "dataset.jsonl"),
                          "--task", "multiregression", "--epochs", "50", "--hidden", "4",
                          "--fuse-dim", "3", "--lr", "100", "--model-out", str(model))
    assert code == 2
    assert re.fullmatch(r"config_error: training diverged: loss is (inf|nan) in epoch \d+; "
                        r"try a lower --lr than 100\.0\n", stderr)
    assert not model.exists()


def test_train_and_eval_refuse_non_finite_values(tmp_path, capsys):
    base = tmp_path / "regdata"
    code, _, _ = run(capsys, "synth", "--n-instances", "30", "--n-labels", "4",
                     "--fp-width", "16", "--graph-nodes", "none", "--reg-width", "2",
                     "--seed", "3", "--out", str(base))
    assert code == 0
    model = tmp_path / "reg.json"

    def train_at(lr):
        return run(capsys, "train", "--data", str(base / "dataset.jsonl"),
                   "--task", "multiregression", "--inputs", "fingerprint", "--epochs", "1",
                   "--hidden", "4", "--fuse-dim", "3", "--lr", lr, "--model-out", str(model))

    code, _, stderr = train_at("nan")
    assert (code, stderr) == (2, "config_error: learning_rate must be positive and finite\n")
    assert not model.exists()
    # One step at this rate leaves finite weights whose predictions overflow.
    code, _, _ = train_at("1e300")
    assert code == 0
    report = tmp_path / "r" / "deep" / "report.json"
    code, _, stderr = run(capsys, "eval", "--data", str(base / "dataset.jsonl"),
                          "--model", str(model), "--report", str(report))
    assert code == 2
    assert stderr == ("config_error: 60 of 60 predictions are non-finite; "
                      "retrain the model with a lower --lr\n")
    assert not (tmp_path / "r").exists()


def test_train_and_eval_refuse_a_non_finite_regression_target(tmp_path, capsys):
    base = tmp_path / "regdata"
    code, _, _ = run(capsys, "synth", "--n-instances", "40", "--n-labels", "4",
                     "--fp-width", "16", "--graph-nodes", "none", "--reg-width", "2",
                     "--seed", "3", "--out", str(base))
    assert code == 0
    data = base / "dataset.jsonl"

    def train_to(model):
        return run(capsys, "train", "--data", str(data), "--task", "multiregression",
                   "--inputs", "fingerprint", "--epochs", "1", "--hidden", "4",
                   "--fuse-dim", "3", "--model-out", str(model))

    model = tmp_path / "reg.json"
    assert train_to(model)[0] == 0
    header, first, *rest = data.read_text().splitlines()
    record = json.loads(first)
    record["reg"] = [math.nan, 0.5]
    data.write_text("\n".join([header, json.dumps(record), *rest]) + "\n")
    message = f"config_error: instance {record['id']!r} has a non-finite regression target\n"

    code, _, stderr = train_to(tmp_path / "bad.json")
    assert (code, stderr) == (2, message)
    assert not (tmp_path / "bad.json").exists()
    report = tmp_path / "r" / "deep" / "report.json"
    code, _, stderr = run(capsys, "eval", "--data", str(data), "--model", str(model),
                          "--report", str(report))
    assert (code, stderr) == (2, message)
    assert not (tmp_path / "r").exists()


def test_eval_rejects_a_malformed_checkpoint_or_threshold(synth_dir, tmp_path, capsys):
    data = str(synth_dir / "dataset.jsonl")
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, "train", "--data", data, "--task", "multilabel", "--epochs", "1",
                     "--hidden", "4", "--fuse-dim", "3", "--model-out", str(model))
    assert code == 0
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([json.loads(model.read_text())]))
    report = tmp_path / "r" / "deep" / "report.json"
    for checkpoint, extra, message in (
        (listed, [], "not a model checkpoint: format None"),
        (model, ["--threshold", "nan"], "threshold must be finite, got nan"),
    ):
        code, _, stderr = run(capsys, "eval", "--data", data, "--model", str(checkpoint),
                              "--report", str(report), *extra)
        assert (code, stderr) == (2, f"config_error: {message}\n")
        assert not (tmp_path / "r").exists()


def _cli_env(**extra):
    """Environment for a child interpreter that imports this checkout's mlimb."""
    src = str(Path(mlimb.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **extra}


LIBRARY_RUN = """
import sys
from mlimb import network, synth

data = synth.generate(synth.SynthConfig(n_instances=600, n_labels=20, cooccurrence_boost=0.3,
                                        seed=5))
net = network.NetworkConfig(node_feature_dim=data.node_feature_dim,
                            fingerprint_width=data.fingerprint_width, output_dim=20,
                            hidden_dims=(32, 32), fuse_dim=32)
params, _ = network.train(data, net, network.TrainConfig(task="multilabel", epochs=20,
                                                         learning_rate=1.0))
network.save_checkpoint(params, sys.argv[1])
scores = network.predict(data.instances, params)
threads = network._openblas_threads()
print(scores.tobytes().hex(), threads[0]() if threads else "none")
"""


def test_library_train_and_predict_pin_blas_and_restore_the_callers_threads(tmp_path):
    outputs = {}
    for threads in ("1", "2"):
        model = tmp_path / f"model{threads}.json"
        out = subprocess.run([sys.executable, "-c", LIBRARY_RUN, str(model)],
                             env=_cli_env(OPENBLAS_NUM_THREADS=threads),
                             capture_output=True, text=True, check=True)
        scores, after = out.stdout.split()
        assert after in (threads, "none")  # the caller's count is back after the calls
        outputs[threads] = (model.read_bytes(), scores)
    assert outputs["1"] == outputs["2"]


def test_library_minibatch_training_keeps_its_bytes_across_blas_thread_counts(tmp_path):
    # Minibatch steps run the fingerprint path and the loss on train's worker
    # thread; its BLAS calls stay on one thread as the caller's do.
    minibatch = LIBRARY_RUN.replace("learning_rate=1.0)", "learning_rate=1.0, batch_size=64)")
    assert minibatch != LIBRARY_RUN
    outputs = {}
    for threads in ("1", "2"):
        model = tmp_path / f"model{threads}.json"
        out = subprocess.run([sys.executable, "-c", minibatch, str(model)],
                             env=_cli_env(OPENBLAS_NUM_THREADS=threads),
                             capture_output=True, text=True, check=True)
        scores, after = out.stdout.split()
        assert after in (threads, "none")
        outputs[threads] = (model.read_bytes(), scores)
    assert outputs["1"] == outputs["2"]


LIBRARY_EVALUATION = """
import numpy as np
from mlimb import evaluation, network

rng = np.random.default_rng(7)
targets = rng.normal(size=(400, 500))
report = evaluation.evaluate_regression(targets + rng.normal(size=(400, 500)), targets)
threads = network._openblas_threads()
print(report.to_json(), threads[0]() if threads else "none")
"""


def test_library_regression_evaluation_pins_blas_and_restores_the_callers_threads():
    # Pearson's sums are dot products, which threaded OpenBLAS splits by
    # thread count; with 2 threads r used to differ in its last bit.
    outputs = {}
    for threads in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", LIBRARY_EVALUATION],
                             env=_cli_env(OPENBLAS_NUM_THREADS=threads),
                             capture_output=True, text=True, check=True)
        outputs[threads], after = out.stdout.split()
        assert after in (threads, "none")
    assert outputs["1"] == outputs["2"]


def test_cli_import_does_not_load_scipy():
    probe = ("import sys, mlimb.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=_cli_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_train_and_eval_identical_across_blas_thread_counts(tmp_path, capsys):
    base = tmp_path / "base"
    code, _, _ = run(capsys, "synth", "--n-instances", "600", "--n-labels", "20",
                     "--boost", "0.3", "--seed", "5", "--out", str(base))
    assert code == 0
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = _cli_env(OPENBLAS_NUM_THREADS=threads)
        for argv in (
            ["train", "--data", str(base / "dataset.jsonl"), "--task", "multilabel",
             "--epochs", "20", "--lr", "1.0", "--hidden", "32,32", "--fuse-dim", "32",
             "--model-out", str(out / "model.json")],
            ["eval", "--data", str(base / "dataset.jsonl"), "--model", str(out / "model.json"),
             "--report", str(out / "report.json")],
        ):
            subprocess.run([sys.executable, "-m", "mlimb.cli", *argv], env=env,
                           capture_output=True, check=True)
        outputs[threads] = [(out / name).read_bytes() for name in ("model.json", "report.json")]
    assert outputs["1"] == outputs["2"]


def test_every_manifest_records_phases_peak_rss_sizes_and_numpy(synth_dir, tmp_path, capsys):
    import numpy as np

    data = str(synth_dir / "dataset.jsonl")
    model = tmp_path / "model.json"
    runs = {
        tmp_path / "m" / "manifest.json": ["metrics", "--data", data, "--out", str(tmp_path / "m")],
        tmp_path / "o" / "manifest.json": ["oversample", "--data", data, "--method", "proposed",
                                           "--p", "0.5", "--out", str(tmp_path / "o")],
        tmp_path / "c" / "manifest.json": ["cooccur", "--data", f"a={data}", "--data", f"b={data}",
                                           "--random-labels", "2", "--out", str(tmp_path / "c")],
        tmp_path / "model.manifest.json": ["train", "--data", data, "--task", "multilabel",
                                           "--epochs", "2", "--hidden", "4", "--fuse-dim", "3",
                                           "--model-out", str(model)],
        tmp_path / "report.manifest.json": ["eval", "--data", data, "--model", str(model),
                                            "--report", str(tmp_path / "report.json")],
        synth_dir / "manifest.json": None,  # written by the fixture
    }
    for manifest, argv in runs.items():
        if argv is not None:
            assert run(capsys, *argv)[0] == 0
        doc = json.loads(manifest.read_text())
        assert set(doc["phases"]) == {"load", "compute", "write"}
        assert all(seconds >= 0.0 for seconds in doc["phases"].values())
        assert sum(doc["phases"].values()) <= doc["wall_time_seconds"]
        assert doc["peak_rss_mb"] > 1.0
        rows = 80 if doc["subcommand"] == "cooccur" else 40
        assert doc["input_sizes"] == {"instances": rows, "labels": 6}
        assert doc["numpy_version"] == np.__version__
    assert json.loads((synth_dir / "manifest.json").read_text())["phases"]["load"] == 0.0


@pytest.mark.parametrize("command", ["synth", "oversample", "cooccur", "train"])
def test_negative_seed_is_refused_naming_the_flag(command, synth_dir, tmp_path, capsys):
    data = str(synth_dir / "dataset.jsonl")
    out = tmp_path / "out"
    argv = {
        "synth": [*SYNTH, "--out", str(out)],
        "oversample": ["oversample", "--data", data, "--method", "proposed", "--p", "0.5",
                       "--out", str(out)],
        "cooccur": ["cooccur", "--data", data, "--random-labels", "3", "--out", str(out)],
        "train": ["train", "--data", data, "--task", "multilabel", "--epochs", "1",
                  "--hidden", "4", "--fuse-dim", "4", "--model-out", str(out / "model.json")],
    }[command]
    code, stdout, stderr = run(capsys, *argv, "--seed", "-1")
    assert (code, stdout, stderr) == (
        2, "", "config_error: seed must be a non-negative integer, got -1\n")
    assert not out.exists()


# The README chain at a small size with a fingerprint-only train and eval,
# plus mlsmote on a corpus with regression targets (its synthetics have no
# graph) and proposed on that output. Every primary output is pinned;
# manifests are not (they hold timings). The digests were recorded when every
# command still decoded every graph.
def _readme_chain(root: Path) -> list[list[str]]:
    corpus, balanced = root / "corpus" / "dataset.jsonl", root / "balanced" / "dataset.jsonl"
    reg, smote, again = (root / name / "dataset.jsonl" for name in ("reg", "smote", "again"))
    model = ["--hidden", "8,8", "--fuse-dim", "8", "--lr", "1.0", "--model-out"]
    return [
        ["synth", "--n-instances", "150", "--n-labels", "12", "--zipf", "1.2", "--boost", "0.3",
         "--seed", "7", "--out", str(root / "corpus")],
        ["metrics", "--data", str(corpus), "--out", str(root / "metrics")],
        ["oversample", "--data", str(corpus), "--method", "proposed", "--p", "0.25", "--r", "2",
         "--out", str(root / "balanced")],
        ["cooccur", "--data", f"original={corpus}", "--data", f"balanced={balanced}",
         "--vocab", str(root / "corpus" / "dataset.labels.tsv"), "--random-labels", "4",
         "--seed", "7", "--out", str(root / "chords")],
        ["train", "--data", str(balanced), "--task", "multilabel", "--inputs", "hybrid",
         "--epochs", "3", *model, str(root / "model.json")],
        ["eval", "--data", str(corpus), "--model", str(root / "model.json"),
         "--report", str(root / "report.json")],
        ["train", "--data", str(balanced), "--task", "multilabel", "--inputs", "fingerprint",
         "--epochs", "3", *model, str(root / "fp.json")],
        ["eval", "--data", str(corpus), "--model", str(root / "fp.json"),
         "--report", str(root / "fp_report.json")],
        ["synth", "--n-instances", "80", "--n-labels", "8", "--graph-nodes", "3,6",
         "--node-dim", "4", "--reg-width", "2", "--boost", "0.3", "--seed", "3",
         "--out", str(root / "reg")],
        ["oversample", "--data", str(reg), "--method", "mlsmote", "--p", "0.5",
         "--out", str(root / "smote")],
        ["oversample", "--data", str(smote), "--method", "proposed", "--p", "0.5", "--r", "2",
         "--out", str(root / "again")],
        ["metrics", "--data", str(again), "--out", str(root / "again_metrics")],
        ["train", "--data", str(again), "--task", "multilabel", "--inputs", "fingerprint",
         "--epochs", "3", *model, str(root / "smote.json")],
        ["eval", "--data", str(smote), "--model", str(root / "smote.json"),
         "--report", str(root / "smote_report.json")],
    ]


README_CHAIN_PINS = {
    "again/dataset.jsonl":
        "ee0460585fff36cdbe654734abfc739fab4e99d599cd645a397b28f2d6a8fba5",
    "again/dataset.labels.tsv":
        "17d08c0e8c3a697752665d909ac2abf8cc275125fa7b9af7b17d8732c3e6d6ff",
    "again/diagnostics.json":
        "928ac65f6404c64ac20e50c52970a35dc8a16df2ce2c01ce838979b746c12e77",
    "again_metrics/profile.csv":
        "0f6c0d5278c2ae3f7b425b2b7dde6d66bd79449fdbc291264f003fddf5cd59fd",
    "again_metrics/report.json":
        "9db8a86a1f24f8a2473d91dc19a52100f519dad1d09cdfdef43010cffe35898d",
    "balanced/dataset.jsonl":
        "08432a244369bc61a1023fde8577086147d2ded72ac7535d69131d9eda277315",
    "balanced/dataset.labels.tsv":
        "e8c97525f8e8fb9bdc7f9d41451c96a2e256e30b3d2ad19df5db68c01cf77777",
    "balanced/diagnostics.json":
        "65513f1b488f3ab89f6928ae1f94cf2930676d68730219421225edbcc2f20cd1",
    "chords/chord_balanced.json":
        "f18d9fc6cb74a05c3e70ac6c55be884f337432a0a643b2ef33dc15255d516ea0",
    "chords/chord_original.json":
        "9ffd93aabc7e66e60e802ef0af89eeb7086aee580d99261af619231a17216421",
    "chords/scumble_table.json":
        "372ab18963755e4adb441433982350dccef7dfbdebe22e275bce1ab2091c2496",
    "corpus/dataset.jsonl":
        "e9010a7f660d6813fac9b50cd05e7269f0c3a818bc5decdf631528bab72118a5",
    "corpus/dataset.labels.tsv":
        "e8c97525f8e8fb9bdc7f9d41451c96a2e256e30b3d2ad19df5db68c01cf77777",
    "fp.json":
        "a3e6fb17e9db2316dcefa61822648f793f59b05e800bbfa87b5e82521d0ce667",
    "fp.loss.csv":
        "9b2e0c31d41a136998e274790eac74d11e15a97cdd986fbfd7f3e536f993bf90",
    "fp_report.json":
        "239860d3b56465d9e66106cd5a83951f73f2ab3a9a3b6ac9d11a68f0ed012ab6",
    "metrics/profile.csv":
        "404844edf30d3bc7e6dc8fedb77bf6e0877e80075dda50751e1364947c61d913",
    "metrics/report.json":
        "64f4d08304d472a72bdadbad77ff9f6903a1aa8d6127203fba5a0db8f09f5d81",
    "model.json":
        "76fe085e04a3f8170ce6d815cddfcfdb5da767e6702277115c469cf047f14dea",
    "model.loss.csv":
        "52fa53559b659b7317c190b146d06d95dac989095738ac50332857a27f8483fa",
    "reg/dataset.jsonl":
        "795a3e14278f9325f9a7be4c8c7bd46a14a27ab1f6bbefcda31daa2bd4c7b23b",
    "reg/dataset.labels.tsv":
        "17d08c0e8c3a697752665d909ac2abf8cc275125fa7b9af7b17d8732c3e6d6ff",
    "report.json":
        "0c94cbc9a9739a965ada4058d7c3c1feeb6b1d2f51117872179a3f70d612b9aa",
    "smote/dataset.jsonl":
        "afeef09f807ebc573a6d9a0e8d0a902b8870a07d601b6ffd8ead41f0d25a429c",
    "smote/dataset.labels.tsv":
        "17d08c0e8c3a697752665d909ac2abf8cc275125fa7b9af7b17d8732c3e6d6ff",
    "smote/diagnostics.json":
        "b34152eada7082bb3d02170755588cb22fb989ca2dd8df2c7799a2ace8e04460",
    "smote.json":
        "2e2f71660c4039d2161509fcfc24d6e8eb5c6acedcf1be701c2ff1615507c4de",
    "smote.loss.csv":
        "b130ab59b7c26680fc27eb695ebdcb2f40ff3821afe0e59a5ad1bb18e6b6c337",
    "smote_report.json":
        "9f2db60ceffb056603e4950fd6d5cd8b94f84d9065f9271568eaede3e239883b",
}


def test_readme_chain_outputs_pinned(tmp_path, capsys):
    for argv in _readme_chain(tmp_path):
        code, _, stderr = run(capsys, *argv)
        assert code == 0, (argv[0], stderr)
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and not path.name.endswith("manifest.json")
    }
    assert digests == README_CHAIN_PINS
