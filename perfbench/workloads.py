"""The three workloads: set-up, one timed pass, and the checks on its outputs.

Each workload is a closed loop with one client: every call waits for the one
before it, and passes run one after another. A pass returns

    {"wall_s": ..., "ops": [{"op", "ok", "problems"}], "figures": {...}}

and a traced pass adds "layers", "spans" and "wrapped" (see spans.py).

Checks cover only what any correct optimisation keeps: exit codes and the
files each command documents, the documented oversampling budgets, finite
statistics, finite and falling losses, predictions in [0, 1], and a
samples-F1 floor where training is steady enough to have one.
A failed check marks its operation failed; nothing is retried.

Inputs come from the workload seed alone. The program is imported lazily so
the CLI workload's parent process stays small (see harness).
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spans as spanlib
from harness import run_child

SETUP_REPEATS = 5

# cli_quickstart: the README quick start, with the epoch count cut to fit a run.
CLI_INSTANCES = 2000
CLI_LABELS = 50
CLI_EPOCHS = 15
CLI_P, CLI_R = 0.25, 2
CLI_F1_FLOOR = 0.25  # 21 seeds gave 0.38-0.47

# rebalance_sweep
SWEEP_INSTANCES = 40_000
SWEEP_LABELS = 200
SWEEP_FP_WIDTH = 256
SWEEP_BOOST = 0.3
SWEEP_GRID = [("proposed", p) for p in (0.25, 0.5, 1.0)] + [("mlsmote", p) for p in (0.25, 0.5, 1.0)]
SWEEP_R, SWEEP_K = 2, 5
SWEEP_SUBSET = 8

# train_minibatch_wide
WIDE_INSTANCES = 10_000
WIDE_LABELS = 2000
WIDE_FP_WIDTH = 2048
WIDE_TEST_FRACTION = 0.2
WIDE_EPOCHS = 2
WIDE_LR = 20.0
WIDE_BATCH = 256
# After two epochs few scores reach the 0.5 threshold, so samples F1 ranges
# from 0 to 0.2 with the seed and has no floor. The guard here is that
# training at least halves the first epoch's mean loss.
WIDE_LOSS_DROP = 0.5


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _op(name: str, problems: list[str]) -> dict:
    return {"op": name, "ok": not problems, "problems": problems}


# ---------------------------------------------------------------------------
# cli_quickstart
# ---------------------------------------------------------------------------

@dataclass
class CliState:
    root: Path
    work: Path
    seed: int


CLI_STAGES = ("synth", "metrics", "oversample", "cooccur", "train", "eval")


def _cli_commands(work: Path, seed: int) -> list[list[str]]:
    corpus = work / "corpus" / "dataset.jsonl"
    balanced = work / "balanced" / "dataset.jsonl"
    return [
        ["synth", "--n-instances", str(CLI_INSTANCES), "--n-labels", str(CLI_LABELS),
         "--zipf", "1.2", "--boost", "0.3", "--seed", str(seed), "--out", str(work / "corpus")],
        ["metrics", "--data", str(corpus), "--out", str(work / "metrics")],
        ["oversample", "--data", str(corpus), "--method", "proposed", "--p", str(CLI_P),
         "--r", str(CLI_R), "--out", str(work / "balanced")],
        ["cooccur", "--data", f"original={corpus}", "--data", f"balanced={balanced}",
         "--vocab", str(work / "corpus" / "dataset.labels.tsv"), "--random-labels", "8",
         "--seed", str(seed), "--out", str(work / "chords")],
        ["train", "--data", str(balanced), "--task", "multilabel", "--inputs", "hybrid",
         "--epochs", str(CLI_EPOCHS), "--lr", "1.0", "--hidden", "32,32", "--fuse-dim", "32",
         "--model-out", str(work / "model.json")],
        ["eval", "--data", str(corpus), "--model", str(work / "model.json"),
         "--report", str(work / "report.json")],
    ]


# Files the README lists for each command, relative to the work directory.
CLI_OUTPUTS = {
    "synth": ["corpus/dataset.jsonl", "corpus/dataset.labels.tsv", "corpus/manifest.json"],
    "metrics": ["metrics/report.json", "metrics/profile.csv", "metrics/manifest.json"],
    "oversample": ["balanced/dataset.jsonl", "balanced/diagnostics.json",
                   "balanced/manifest.json"],
    "cooccur": ["chords/chord_original.json", "chords/chord_balanced.json",
                "chords/scumble_table.json", "chords/manifest.json"],
    "train": ["model.json", "model.loss.csv", "model.manifest.json"],
    "eval": ["report.json", "report.manifest.json"],
}


def cli_setup(root: Path, seed: int) -> CliState:
    """Warm the interpreter, the import cache and the file cache with one
    bare import of the CLI, as a user's earlier runs would have."""
    work = root / ".perfbench_runs" / "work" / "cli_quickstart"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    code, _, _ = run_child([sys.executable, "-c", "import mlimb.cli"], root, work / "warm.err")
    if code != 0:
        raise RuntimeError(f"importing mlimb.cli failed; see {work / 'warm.err'}")
    return CliState(root, work, seed)


def _cli_checks(work: Path, codes: dict[str, int]) -> list[dict]:
    ops = []
    for stage in CLI_STAGES:
        problems = [] if codes[stage] == 0 else [f"exit code {codes[stage]}"]
        problems += [f"missing {f}" for f in CLI_OUTPUTS[stage] if not (work / f).is_file()]
        if not problems:
            problems += _CLI_CONTENT_CHECKS.get(stage, lambda w: [])(work)
        ops.append(_op(f"cli.{stage}", problems))
    return ops


def _check_metrics_report(work: Path) -> list[str]:
    doc = json.loads((work / "metrics" / "report.json").read_text())
    values = [doc["mean_ir"], doc["card"], doc["scumble_mean"], *doc["scumble_per_label"]]
    values += [v for v in doc["irlbl"] if v is not None]
    return [] if _finite(values) else ["non-finite report statistic"]


def _check_diagnostics(work: Path) -> list[str]:
    doc = json.loads((work / "balanced" / "diagnostics.json").read_text())
    expected = CLI_R * math.floor((CLI_P / CLI_R) * CLI_INSTANCES)
    if doc["added_count"] != expected:
        return [f"added_count {doc['added_count']} != budget {expected}"]
    return []


def _check_scumble_table(work: Path) -> list[str]:
    doc = json.loads((work / "chords" / "scumble_table.json").read_text())
    values = [v for column in doc["scumble"].values() for v in column]
    return [] if _finite(values) else ["non-finite SCUMBLE value"]


def _check_loss_curve(work: Path) -> list[str]:
    rows = (work / "model.loss.csv").read_text().splitlines()[1:]
    losses = [float(row.split(",")[1]) for row in rows]
    if len(losses) != CLI_EPOCHS:
        return [f"{len(losses)} loss rows for {CLI_EPOCHS} epochs"]
    return [] if _finite(losses) else ["non-finite loss"]


def _check_eval_report(work: Path) -> list[str]:
    doc = json.loads((work / "report.json").read_text())
    values = [v for group in ("precision", "recall", "f1") for v in doc[group].values()]
    if not all(0.0 <= v <= 1.0 for v in values):
        return ["precision/recall/F1 outside [0, 1]"]
    if not doc["f1"]["samples"] >= CLI_F1_FLOOR:
        return [f"samples F1 {doc['f1']['samples']} below floor {CLI_F1_FLOOR}"]
    return []


_CLI_CONTENT_CHECKS: dict[str, Callable[[Path], list[str]]] = {
    "metrics": _check_metrics_report,
    "oversample": _check_diagnostics,
    "cooccur": _check_scumble_table,
    "train": _check_loss_curve,
    "eval": _check_eval_report,
}


def cli_pass(state: CliState, traced: bool) -> tuple[dict, float]:
    """Six CLI processes in sequence; returns the pass and the largest child peak RSS."""
    work = state.work
    for entry in work.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()
    codes: dict[str, int] = {}
    figures: dict[str, float] = {}
    peak = 0.0
    span_files = []
    started = time.perf_counter()
    for stage, args in zip(CLI_STAGES, _cli_commands(work, state.seed)):
        if traced:
            span_file = work / f"spans_{stage}.json"
            span_files.append(span_file)
            argv = [sys.executable, str(state.root / "perfbench" / "cli_child.py"),
                    str(span_file), *args]
        else:
            argv = [sys.executable, "-m", "mlimb.cli", *args]
        codes[stage], wall, rss = run_child(argv, state.root, work / f"{stage}.err")
        figures[f"stage.{stage}_s"] = wall
        peak = max(peak, rss)
    result = {"wall_s": time.perf_counter() - started, "ops": _cli_checks(work, codes)}
    if traced:
        docs = {f.stem.removeprefix("spans_"): json.loads(f.read_text())
                for f in span_files if f.is_file()}
        span_sets = [[spanlib.Span(**s) for s in doc["spans"]] for doc in docs.values()]
        result["layers"] = spanlib.layer_metrics(
            span_sets, [doc["counters"] for doc in docs.values()],
            [doc["import_s"] for doc in docs.values()])
        result["spans"] = {stage: doc["spans"] for stage, doc in docs.items()}
        result["wrapped"] = next(iter(docs.values()))["wrapped"] if docs else {}
    figures.update(_cli_training_figures(work, result.get("layers")))
    result["figures"] = figures
    return result, peak


def _cli_training_figures(work: Path, layers: dict[str, float] | None) -> dict[str, float]:
    """Quality of the train and eval commands, where they ran, and on a traced
    pass their throughput over the time spent inside ``train`` and ``predict``
    (the process wall time would add interpreter start, imports and parsing)."""
    out = {}
    diagnostics = work / "balanced" / "diagnostics.json"
    curve = work / "model.loss.csv"
    if diagnostics.is_file() and curve.is_file():
        out["final_loss"] = float(curve.read_text().splitlines()[-1].split(",")[1])
        if layers and layers["network.train.s"] > 0:
            trained = CLI_INSTANCES + json.loads(diagnostics.read_text())["added_count"]
            out["train_instance_epochs_per_s"] = trained * CLI_EPOCHS / layers["network.train.s"]
    report = work / "report.json"
    if report.is_file():
        out["samples_f1"] = json.loads(report.read_text())["f1"]["samples"]
        if layers and layers["network.predict.s"] > 0:
            out["predict_instances_per_s"] = CLI_INSTANCES / layers["network.predict.s"]
    return out


# ---------------------------------------------------------------------------
# rebalance_sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepState:
    corpus: object
    subset: tuple[int, ...]
    seed: int


def sweep_setup(root: Path, seed: int) -> SweepState:
    """Corpus and label subset. No graphs: nothing in this workload reads them."""
    from mlimb import cooccurrence, synth

    corpus = synth.generate(synth.SynthConfig(
        n_instances=SWEEP_INSTANCES, n_labels=SWEEP_LABELS, fingerprint_width=SWEEP_FP_WIDTH,
        graph_nodes_range=None, cooccurrence_boost=SWEEP_BOOST, seed=seed,
    ))
    subset = cooccurrence.random_label_subset(corpus.vocabulary, SWEEP_SUBSET, seed)
    return SweepState(corpus, subset, seed)


def _report_problems(report) -> list[str]:
    values = [report.mean_ir, report.card, report.scumble_mean, *report.scumble_per_label]
    values += [v for v, c in zip(report.irlbl, report.label_counts) if c > 0]
    return [] if _finite(values) else ["non-finite report statistic"]


def sweep_pass(state: SweepState) -> dict:
    from mlimb import cooccurrence, metrics, resampling

    corpus, subset = state.corpus, state.subset
    n = len(corpus)
    runs = []
    started = time.perf_counter()
    for method, p in SWEEP_GRID:
        config = resampling.ResampleConfig(method=method, p=p, r=SWEEP_R, k=SWEEP_K,
                                           seed=state.seed)
        outcome = resampling.oversample(corpus, config)
        runs.append((f"{method}_p{p}", method, p, outcome,
                     metrics.imbalance_report(outcome.dataset)))
    snapshots = {name: outcome.dataset for name, _, _, outcome, _ in runs}
    comparison = cooccurrence.compare_snapshots(corpus, snapshots, subset)
    summaries = [cooccurrence.cooccurrence(ds, subset, snapshot_name=name)
                 for name, ds in [("original", corpus), *snapshots.items()]]
    ended = time.perf_counter()

    ops = []
    for name, method, p, outcome, report in runs:
        budget = (SWEEP_R * math.floor((p / SWEEP_R) * n) if method == "proposed"
                  else math.floor(p * n))
        problems = _report_problems(report)
        if outcome.added_count != budget:
            problems.append(f"added_count {outcome.added_count} != budget {budget}")
        ops.append(_op(f"oversample.{name}", problems))
    counts = {"original": _label_counts(corpus, subset)}
    for name, _, _, _, report in runs:
        counts[name] = [report.label_counts[l] for l in subset]
    problems = [] if _finite(v for col in comparison.scumble.values() for v in col) \
        else ["non-finite SCUMBLE value"]
    problems += [f"{name}: counts differ from the imbalance report"
                 for name, column in comparison.counts.items() if list(column) != counts[name]]
    ops.append(_op("compare_snapshots", problems))
    for summary in summaries:
        same = list(summary.arc_sizes) == counts[summary.snapshot_name]
        ops.append(_op(f"cooccurrence.{summary.snapshot_name}",
                       [] if same else ["arc sizes differ from label counts"]))
    return {"wall_s": ended - started, "figures": {}, "ops": ops}


def _label_counts(dataset, subset) -> list[int]:
    tally = dict.fromkeys(subset, 0)
    for inst in dataset.instances:
        for l in inst.labels:
            if l in tally:
                tally[l] += 1
    return [tally[l] for l in subset]


# ---------------------------------------------------------------------------
# train_minibatch_wide
# ---------------------------------------------------------------------------

@dataclass
class WideState:
    train: object
    test: object
    checkpoint: Path
    seed: int


def wide_setup(root: Path, seed: int) -> WideState:
    from mlimb import data, resampling, synth

    corpus = synth.generate(synth.SynthConfig(
        n_instances=WIDE_INSTANCES, n_labels=WIDE_LABELS, fingerprint_width=WIDE_FP_WIDTH,
        graph_nodes_range=(6, 12), seed=seed,
    ))
    train, test = data.split_dataset(corpus, WIDE_TEST_FRACTION, seed)
    balanced = resampling.oversample(train, resampling.ResampleConfig(method="proposed", p=0.25,
                                                                      r=2)).dataset
    work = root / ".perfbench_runs" / "work" / "train_minibatch_wide"
    work.mkdir(parents=True, exist_ok=True)
    return WideState(balanced, test, work / "model.json", seed)


def wide_pass(state: WideState) -> dict:
    import numpy as np
    from mlimb import evaluation, network

    net = network.NetworkConfig(
        node_feature_dim=state.train.node_feature_dim, fingerprint_width=WIDE_FP_WIDTH,
        output_dim=WIDE_LABELS, hidden_dims=(32, 32), fuse_dim=32, input_mode="hybrid",
    )
    cfg = network.TrainConfig(task="multilabel", epochs=WIDE_EPOCHS, learning_rate=WIDE_LR,
                              batch_size=WIDE_BATCH, seed=state.seed)
    t0 = time.perf_counter()
    params, curve = network.train(state.train, net, cfg)
    t1 = time.perf_counter()
    network.save_checkpoint(params, state.checkpoint)
    loaded = network.load_checkpoint(state.checkpoint)
    t2 = time.perf_counter()
    scores = network.predict(state.test.instances, loaded)
    t3 = time.perf_counter()
    report = evaluation.evaluate_multilabel(scores, network.label_matrix(state.test))
    ended = time.perf_counter()

    if len(curve) != WIDE_EPOCHS or not _finite(curve):
        problems = ["loss curve not finite or of the wrong length"]
    elif not curve[-1] < WIDE_LOSS_DROP * curve[0]:
        problems = [f"final loss {curve[-1]} not below {WIDE_LOSS_DROP} x first {curve[0]}"]
    else:
        problems = []
    ops = [_op("train", problems)]
    same = all(np.array_equal(a, b) for (_, a), (_, b)
               in zip(params.named_tensors(), loaded.named_tensors()))
    ops.append(_op("checkpoint", [] if same else ["checkpoint round trip changed a tensor"]))
    problems = []
    if scores.shape != (len(state.test), WIDE_LABELS):
        problems.append(f"prediction shape {scores.shape}")
    elif not (np.isfinite(scores).all() and scores.min() >= 0.0 and scores.max() <= 1.0):
        problems.append("predictions not finite or outside [0, 1]")
    ops.append(_op("predict", problems))
    values = [v for group in (report.precision, report.recall, report.f1) for v in group.values()]
    problems = [] if all(0.0 <= v <= 1.0 for v in values) else ["P/R/F1 outside [0, 1]"]
    ops.append(_op("evaluate", problems))

    figures = {
        "train_instance_epochs_per_s": len(state.train) * WIDE_EPOCHS / (t1 - t0),
        "predict_instances_per_s": len(state.test) / (t3 - t2),
        "final_loss": curve[-1] if curve else float("nan"),
        "samples_f1": report.f1["samples"],
    }
    return {"wall_s": ended - t0, "figures": figures, "ops": ops}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """``setup(root, seed)`` builds the inputs. An in-process workload's
    ``run_pass(state)`` runs in a forked child, which the caller traces; the
    CLI workload's ``run_pass(state, traced)`` starts its own processes and
    returns the pass with their peak RSS. ``modules`` are imported before
    set-up is timed, so that ``setup_s`` leaves out the one-time import."""

    name: str
    setup: Callable
    run_pass: Callable
    in_process: bool
    modules: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w for w in (
        Workload("cli_quickstart", cli_setup, cli_pass, in_process=False),
        Workload("rebalance_sweep", sweep_setup, sweep_pass, in_process=True,
                 modules=("mlimb.cooccurrence", "mlimb.metrics", "mlimb.resampling",
                          "mlimb.synth")),
        Workload("train_minibatch_wide", wide_setup, wide_pass, in_process=True,
                 modules=("mlimb.data", "mlimb.evaluation", "mlimb.network",
                          "mlimb.resampling", "mlimb.synth", "numpy")),
    )
}
