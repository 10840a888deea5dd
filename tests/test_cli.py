"""End-to-end command-line runs: outputs, determinism, error classes."""

import dataclasses
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


def test_bad_config_value(synth_dir, tmp_path, capsys):
    code, _, stderr = run(capsys, "oversample", "--data", str(synth_dir / "dataset.jsonl"),
                          "--method", "proposed", "--p", "1.5",
                          "--out", str(tmp_path / "o"))
    assert code == 2 and stderr.startswith("config_error:")


def test_multiregression_without_targets_fails(synth_dir, tmp_path, capsys):
    code, _, stderr = run(capsys, "train", "--data", str(synth_dir / "dataset.jsonl"),
                          "--task", "multiregression", "--epochs", "1",
                          "--model-out", str(tmp_path / "m.json"))
    assert code == 2 and stderr.startswith("config_error:")


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
