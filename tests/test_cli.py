"""End-to-end command-line runs: outputs, determinism, error classes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mlimb
from mlimb.cli import main
from mlimb.data import load_dataset, save_dataset
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
                          "--report", str(tmp_path / "r.json"))
    assert code == 2 and stderr.startswith("config_error:")


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


def _cli_env(**extra):
    """Environment for a child interpreter that imports this checkout's mlimb."""
    src = str(Path(mlimb.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **extra}


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
