"""Command-line entry point: profile, oversample, compare, synthesize, train,
evaluate.

Every subcommand is a thin wrapper over one library call. A run writes its
primary outputs plus a manifest (subcommand, configuration, paths, seed,
version, wall-time, seconds per phase, peak RSS, input sizes, numpy version)
next to them; primary outputs are byte-identical across reruns with
identical flags, the manifest is not (it records timings).
Failures exit nonzero with a single line `<error_class>: <message>` on
stderr, where the class is one of parse_error, validation_error, io_error,
config_error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

try:
    import resource
except ImportError:  # not available on Windows; manifests then record no peak RSS
    resource = None

import numpy as np

from . import __version__
from .cooccurrence import chord_document, compare_snapshots, cooccurrence, random_label_subset
from .data import (
    FormatError,
    MultiLabelDataset,
    ValidationError,
    _single_thread_blas,
    load_dataset,
    save_dataset,
)
from .evaluation import evaluate_multilabel, evaluate_regression, scatter_csv
from .metrics import imbalance_report, profile_csv
from .network import (
    ACTIVATIONS,
    ADJACENCY_MODES,
    INPUT_MODES,
    READOUT_MODES,
    TASK_HEADS,
    TASKS,
    NetworkConfig,
    TrainConfig,
    _check_targets,
    label_matrix,
    load_checkpoint,
    loss_curve_csv,
    predict,
    regression_matrix,
    save_checkpoint,
    train,
)
from .resampling import METHODS, ResampleConfig, oversample
from .synth import SynthConfig, generate

__all__ = ["main", "build_parser"]


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


class _Phases:
    """Seconds a command spends loading its inputs, computing, and writing
    its primary outputs: ``with phases("load"): ...``."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.seconds = {"load": 0.0, "compute": 0.0, "write": 0.0}

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        begin = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - begin


def _peak_rss_mb() -> float | None:
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # bytes there, KiB here


def _write_manifest(path: Path, subcommand: str, args: argparse.Namespace,
                    outputs: list[Path], phases: _Phases,
                    inputs: list[MultiLabelDataset]) -> None:
    skip = {"func"}
    config = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in skip
    }
    doc = {
        "subcommand": subcommand,
        "configuration": config,
        "inputs": [config[k] for k in ("data", "model") if config.get(k)],
        "outputs": [str(p) for p in outputs],
        "seed": config.get("seed"),
        "version": __version__,
        "wall_time_seconds": time.perf_counter() - phases.started,
        "phases": phases.seconds,
        "peak_rss_mb": _peak_rss_mb(),
        "input_sizes": {
            "instances": sum(len(ds) for ds in inputs),
            "labels": inputs[0].label_count,
        },
        "numpy_version": np.__version__,
    }
    path.write_text(_canonical_json(doc), encoding="utf-8")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_metrics(args: argparse.Namespace) -> int:
    phases = _Phases()
    with phases("load"):
        dataset = load_dataset(args.data, args.vocab, decode_graphs=False)
    with phases("compute"):
        report = imbalance_report(dataset)
    with phases("write"):
        out = _out_dir(args)
        report_path = out / "report.json"
        profile_path = out / "profile.csv"
        report_path.write_text(report.to_json(dataset.vocabulary.names) + "\n", encoding="utf-8")
        profile_path.write_text(profile_csv(report), encoding="utf-8")
    _write_manifest(out / "manifest.json", "metrics", args, [report_path, profile_path],
                    phases, [dataset])
    print(f"wrote {report_path} and {profile_path}")
    return 0


def cmd_oversample(args: argparse.Namespace) -> int:
    phases = _Phases()
    with phases("load"):
        # Graphs are written back as they were read.
        dataset = load_dataset(args.data, args.vocab, decode_graphs=False)
    with phases("compute"):
        config = ResampleConfig(method=args.method, p=args.p, r=args.r, k=args.k, seed=args.seed)
        outcome = oversample(dataset, config)
    with phases("write"):
        out = _out_dir(args)
        data_path = out / "dataset.jsonl"
        vocab_path = out / "dataset.labels.tsv"
        diag_path = out / "diagnostics.json"
        save_dataset(outcome.dataset, data_path, vocab_path)
        diag_path.write_text(_canonical_json(outcome.diagnostics_document(config)),
                             encoding="utf-8")
    _write_manifest(out / "manifest.json", "oversample", args,
                    [data_path, vocab_path, diag_path], phases, [dataset])
    for warning in outcome.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"added {outcome.added_count} instances -> {data_path}")
    return 0


def _parse_snapshots(entries: list[str], vocab: str | None) -> list[tuple[str, MultiLabelDataset]]:
    snapshots = []
    seen: set[str] = set()
    for entry in entries:
        name, sep, path = entry.partition("=")
        if not sep:
            name, path = Path(entry).stem, entry
        if name in seen:
            raise ValueError(f"duplicate snapshot name {name!r}")
        seen.add(name)
        snapshots.append((name, load_dataset(path, vocab, decode_graphs=False)))
    return snapshots


def cmd_cooccur(args: argparse.Namespace) -> int:
    phases = _Phases()
    if (args.labels is None) == (args.random_labels is None):
        raise ValueError("exactly one of --labels and --random-labels is required")
    with phases("load"):
        snapshots = _parse_snapshots(args.data, args.vocab)
    with phases("compute"):
        reference = snapshots[0][1]
        if args.labels is not None:
            subset = []
            for name in args.labels.split(","):
                try:
                    subset.append(reference.vocabulary.index_of(name.strip()))
                except KeyError:
                    raise ValueError(f"unknown label name {name.strip()!r}") from None
        else:
            subset = list(random_label_subset(reference.vocabulary, args.random_labels, args.seed))
        # Compared first: it rejects a snapshot whose vocabulary differs before
        # anything is written.
        comparison = compare_snapshots(
            reference, dict(snapshots[1:]), subset, original_name=snapshots[0][0]
        )
        summaries = [cooccurrence(ds, subset, snapshot_name=name) for name, ds in snapshots]
    with phases("write"):
        out = _out_dir(args)
        outputs = []
        for summary in summaries:
            chord_path = out / f"chord_{summary.snapshot_name}.json"
            chord_path.write_text(
                _canonical_json(chord_document(summary, reference.vocabulary)), encoding="utf-8"
            )
            outputs.append(chord_path)
        table_path = out / "scumble_table.json"
        table_path.write_text(comparison.to_json() + "\n", encoding="utf-8")
        outputs.append(table_path)
    _write_manifest(out / "manifest.json", "cooccur", args, outputs, phases,
                    [ds for _, ds in snapshots])
    print(f"wrote {len(outputs)} documents to {out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    phases = _Phases()
    if args.graph_nodes.lower() == "none":
        nodes_range = None
    else:
        try:
            lo, hi = (int(x) for x in args.graph_nodes.split(","))
        except ValueError:
            raise ValueError(
                f"--graph-nodes must be 'MIN,MAX' or 'none', got {args.graph_nodes!r}"
            ) from None
        nodes_range = (lo, hi)
    config = SynthConfig(
        n_instances=args.n_instances,
        n_labels=args.n_labels,
        zipf_exponent=args.zipf,
        target_card=args.card,
        fingerprint_width=args.fp_width,
        signal_bits_per_label=args.signal_bits,
        noise_flip_prob=args.noise,
        graph_nodes_range=nodes_range,
        node_feature_dim=args.node_dim,
        regression_width=args.reg_width,
        cooccurrence_boost=args.boost,
        seed=args.seed,
    )
    with phases("compute"):
        dataset = generate(config)
    with phases("write"):
        out = _out_dir(args)
        data_path = out / "dataset.jsonl"
        vocab_path = out / "dataset.labels.tsv"
        save_dataset(dataset, data_path, vocab_path)
    # synth reads no dataset; its sizes are those of the one it generates.
    _write_manifest(out / "manifest.json", "synth", args, [data_path, vocab_path], phases,
                    [dataset])
    print(f"generated {len(dataset)} instances -> {data_path}")
    return 0


def _network_config(args: argparse.Namespace, dataset: MultiLabelDataset) -> NetworkConfig:
    if args.task == "multilabel":
        output_dim = dataset.label_count
    else:
        # A dataset without regression targets still gets a valid config;
        # train's target gate then rejects it, in eval's words.
        output_dim = max(dataset.regression_width, 1)
    widths = args.hidden.split(",")
    if not all(w.strip().isdecimal() and int(w) > 0 for w in widths):
        raise ValueError(
            f"--hidden takes comma-separated positive integer widths, got {args.hidden!r}")
    return NetworkConfig(
        node_feature_dim=dataset.node_feature_dim,
        fingerprint_width=dataset.fingerprint_width,
        output_dim=output_dim,
        hidden_dims=tuple(map(int, widths)),
        fuse_dim=args.fuse_dim,
        activation=args.activation,
        readout_mode=args.readout,
        head_mode=TASK_HEADS[args.task],
        adjacency_mode=args.adjacency,
        input_mode=args.inputs,
    )


def cmd_train(args: argparse.Namespace) -> int:
    phases = _Phases()
    with phases("load"):
        dataset = load_dataset(args.data, args.vocab, decode_graphs=args.inputs != "fingerprint")
    with phases("compute"):
        net = _network_config(args, dataset)
        cfg = TrainConfig(
            task=args.task,
            epochs=args.epochs,
            learning_rate=args.lr,
            momentum=args.momentum,
            batch_size=args.batch_size,
            seed=args.seed,
        )
        params, curve = train(dataset, net, cfg)
    with phases("write"):
        model_path = Path(args.model_out)
        model_path.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(params, model_path)
        curve_path = model_path.with_name(model_path.stem + ".loss.csv")
        curve_path.write_text(loss_curve_csv(curve), encoding="utf-8")
    manifest_path = model_path.with_name(model_path.stem + ".manifest.json")
    _write_manifest(manifest_path, "train", args, [model_path, curve_path], phases, [dataset])
    final = f"{curve[-1]!r}" if curve else "n/a"
    print(f"trained {cfg.epochs} epochs (final loss {final}) -> {model_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    phases = _Phases()
    with phases("load"):
        params = load_checkpoint(args.model)
        dataset = load_dataset(args.data, args.vocab,
                               decode_graphs=params.config.input_mode != "fingerprint")
    with phases("compute"):
        if len(dataset) == 0:
            raise ValueError("cannot evaluate an empty dataset")
        task = params.config.task
        _check_targets(dataset, params.config)
        targets = label_matrix(dataset) if task == "multilabel" else regression_matrix(dataset)
        scores = predict(dataset.instances, params)
        if task == "multilabel":
            report = evaluate_multilabel(scores, targets, threshold=args.threshold)
        else:
            report = evaluate_regression(scores, targets)
    with phases("write"):
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        outputs = [report_path]
        if task == "multiregression":
            scatter_path = report_path.with_name(report_path.stem + ".scatter.csv")
            scatter_path.write_text(scatter_csv(scores, targets), encoding="utf-8")
            outputs.append(scatter_path)
        report_path.write_text(report.to_json() + "\n", encoding="utf-8")
    manifest_path = report_path.with_name(report_path.stem + ".manifest.json")
    _write_manifest(manifest_path, "eval", args, outputs, phases, [dataset])
    print(f"wrote {report_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlimb",
        description="Multilabel imbalance profiling, oversampling, and hybrid "
        "graph/fingerprint model training.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_data(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data", required=True, help="dataset records file")
        p.add_argument("--vocab", default=None,
                       help="label vocabulary file (default: sibling .labels.tsv)")

    p = sub.add_parser("metrics", help="imbalance report and frequency profile")
    add_data(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("oversample", help="rebalance a dataset by oversampling")
    add_data(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--p", type=float, required=True, help="oversampling fraction in [0,1]")
    p.add_argument("--r", type=int, default=2, help="replication count (proposed)")
    p.add_argument("--k", type=int, default=5, help="neighbor count (mlsmote)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_oversample)

    p = sub.add_parser("cooccur", help="chord-diagram data and SCUMBLE comparison")
    p.add_argument("--data", action="append", required=True, metavar="[NAME=]PATH",
                   help="dataset snapshot, repeatable; first one is the reference")
    p.add_argument("--vocab", default=None,
                   help="label vocabulary file (default: per-snapshot sibling .labels.tsv)")
    p.add_argument("--labels", default=None, help="comma-separated label names")
    p.add_argument("--random-labels", type=int, default=None, metavar="N",
                   help="pick N random labels instead of --labels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_cooccur)

    p = sub.add_parser("synth", help="generate a synthetic skewed dataset")
    p.add_argument("--n-instances", type=int, required=True)
    p.add_argument("--n-labels", type=int, required=True)
    p.add_argument("--zipf", type=float, default=1.1, help="Zipf exponent of label ranks")
    p.add_argument("--card", type=float, default=2.0, help="target mean labels per instance")
    p.add_argument("--fp-width", type=int, default=128)
    p.add_argument("--signal-bits", type=int, default=1, help="dedicated bits per label")
    p.add_argument("--noise", type=float, default=0.01, help="per-bit flip probability")
    p.add_argument("--graph-nodes", default="6,12", metavar="MIN,MAX",
                   help="graph size range, or 'none' for no graphs")
    p.add_argument("--node-dim", type=int, default=9)
    p.add_argument("--reg-width", type=int, default=0)
    p.add_argument("--boost", type=float, default=0.0,
                   help="probability that each instance of the k = min(8, populated/2) "
                        "rarest populated labels also gets its paired label among the k "
                        "commonest (values above 1 act as 1); mean SCUMBLE moves by under "
                        "0.004 from boost 0 to 1 at 1200 x 40, zipf 1.2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a hybrid/graph/fingerprint model")
    add_data(p)
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--inputs", default="hybrid", choices=INPUT_MODES)
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.0)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--hidden", default="64,64", help="comma-separated hidden widths")
    p.add_argument("--fuse-dim", type=int, default=64)
    p.add_argument("--activation", default="tanh", choices=tuple(ACTIVATIONS))
    p.add_argument("--readout", default="max_plus_mean", choices=READOUT_MODES)
    p.add_argument("--adjacency", default="normalized", choices=ADJACENCY_MODES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-out", required=True, help="checkpoint file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    add_data(p)
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="binarization threshold (multilabel)")
    p.add_argument("--report", required=True, help="report file to write")
    p.set_defaults(func=cmd_eval)

    return parser


def _fail(error_class: str, exc: BaseException) -> int:
    message = " ".join(str(exc).split())
    print(f"{error_class}: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _single_thread_blas():
            return args.func(args)
    except FormatError as exc:
        return _fail("parse_error", exc)
    except ValidationError as exc:
        return _fail("validation_error", exc)
    except OSError as exc:
        return _fail("io_error", exc)
    except ValueError as exc:
        return _fail("config_error", exc)


if __name__ == "__main__":
    sys.exit(main())
