"""Seeded benchmark of the mlimb toolkit: three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports the program from
``src/`` and refuses to run without it. Workloads (see perfbench/README.md):

    cli_quickstart        the README quick start as six ``mlimb`` processes
    rebalance_sweep       oversampling, imbalance reports and co-occurrence in process
    train_minibatch_wide  minibatch training on a wide label space, then scoring

The run sets up its inputs from ``--seed`` a few times (``setup_s`` is the
median), then repeats passes of the workload, one at a time, for about
``--seconds`` seconds. With ``--trace 0`` it reports the end-to-end metrics
as medians over passes. With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, plus the
tracing overhead. Every output is checked; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Records and spans go to ``.perfbench_runs/`` in the checkout.
"""

import os
import sys

# Fixed BLAS thread count for this process and every child, set before numpy
# loads, so results do not depend on the caller's environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# End-to-end figures that exist only on some workloads. They are printed on
# every run and reported with the per-layer metrics (0 where they do not apply).
FIGURE_UNITS = {
    **{f"stage.{stage}_s": "s" for stage in workloads.CLI_STAGES},
    "train_instance_epochs_per_s": "1/s",
    "predict_instances_per_s": "1/s",
    "final_loss": "nats",
    "samples_f1": "ratio",
}

PER_LAYER_UNITS = {**spans.LAYER_UNITS, "trace.overhead_s": "s", **FIGURE_UNITS}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="mlimb benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def locate_program(root: Path) -> None:
    """Import the program from the checkout's ``src/`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "mlimb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {root / 'src' / 'mlimb'}; "
                 "run from the root of an mlimb checkout")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)
    # find_spec locates the package without importing it, so the parent of
    # the CLI workload stays small (see harness).
    origin = importlib.util.find_spec("mlimb").origin
    if not Path(origin).resolve().is_relative_to(src):
        sys.exit(f"perfbench: would import mlimb from {origin}, not from {src}")


def one_pass(workload: workloads.Workload, state, traced: bool) -> dict:
    gc.collect()  # so no pass inherits the collector's debt from the one before
    if not workload.in_process:
        result, peak = workload.run_pass(state, traced)
    else:
        def body() -> dict:
            if not traced:
                return workload.run_pass(state)
            recorder = spans.Recorder()
            undo, wrapped = spans.install(recorder)
            try:
                result = workload.run_pass(state)
            finally:
                spans.restore(undo)
            result["layers"] = spans.layer_metrics([recorder.spans], [recorder.counters])
            result["spans"] = [dataclasses.asdict(s) for s in recorder.spans]
            result["wrapped"] = wrapped
            return result

        result, peak = harness.run_forked(body)
    result["peak_rss_mb"] = peak
    result["traced"] = traced
    return result


def measure(workload: workloads.Workload, state, seconds: float, trace: bool) -> list[dict]:
    """Passes one after another until the next would end past the deadline.

    At least one untraced pass runs, and with tracing at least one traced
    pass; traced and untraced passes alternate. A pass that raises ends the
    measurement: the next one would only fail the same way.
    """
    passes: list[dict] = []
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and sum(p["traced"] for p in passes) < sum(not p["traced"] for p in passes)
        started = time.perf_counter()
        passes.append(one_pass(workload, state, traced))
        durations.append(time.perf_counter() - started)
        if "error" in passes[-1]:
            return passes
        kinds = {p["traced"] for p in passes}
        if kinds == ({False, True} if trace else {False}) \
                and time.perf_counter() + statistics.median(durations) > deadline:
            return passes


def _median_of(passes: list[dict], key: str, names) -> dict[str, float]:
    return {name: statistics.median(p[key].get(name, 0.0) for p in passes) for name in names}


def _figures(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Median of each figure over the untraced passes that report it, or over
    the traced ones for a figure only tracing gives (CLI throughput)."""
    out = {}
    for name in FIGURE_UNITS:
        source = [p for p in untraced if name in p["figures"]] \
            or [p for p in traced if name in p["figures"]]
        if source:
            out[name] = statistics.median(p["figures"][name] for p in source)
    return out


def summarize(passes: list[dict], setup_times: list[float], trace: bool) -> tuple[dict, dict]:
    """(metrics for the result line, every figure for the printout and record)."""
    good = [p for p in passes if "error" not in p]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    if not untraced or (trace and not traced):
        errors = [p["error"] for p in passes if "error" in p]
        raise RuntimeError("no pass of the needed kind completed" + "".join(errors[:1]))
    figures = _figures(untraced, traced)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    if not trace:
        return e2e, {**e2e, **figures}
    layers = _median_of(traced, "layers", spans.LAYER_UNITS)
    layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - e2e["wall_s"]
    per_layer = {**layers, **dict.fromkeys(FIGURE_UNITS, 0.0), **figures}
    return per_layer, {**e2e, **per_layer}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    locate_program(root)
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    out_dir = root / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    load = harness.LoadProbe()

    for module in workload.modules:
        importlib.import_module(module)
    setup_times = []
    state = None
    for _ in range(workloads.SETUP_REPEATS):
        state = None
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(root, args.seed)
        setup_times.append(time.perf_counter() - started)

    passes = measure(workload, state, args.seconds, trace)
    reported, everything = summarize(passes, setup_times, trace)
    ops = [op for p in passes for op in p.get("ops", [])]
    errors = [p["error"] for p in passes if "error" in p]
    attempted = len(ops) + len(errors)
    failed = sum(not op["ok"] for op in ops) + len(errors)
    units = E2E_UNITS if not trace else PER_LAYER_UNITS

    record = harness.run_record(root, args.workload, args.seed, trace, BLAS_THREADS,
                                load.finish())
    traced_walls = [p["wall_s"] for p in passes if p["traced"] and "error" not in p]
    untraced_walls = [p["wall_s"] for p in passes if not p["traced"] and "error" not in p]
    wrapped = next((p["wrapped"] for p in passes if p.get("wrapped")), None)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({
        "record": record,
        "seconds": args.seconds,
        "setup_times_s": setup_times,
        "passes": [{key: p.get(key) for key in ("traced", "wall_s", "peak_rss_mb", "figures")}
                   for p in passes],
        "figures": everything,
        "failures": [op for op in ops if not op["ok"]] + [{"error": e} for e in errors],
        "wrapped": wrapped,
    }, indent=1))
    if trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(
            [p.get("spans") for p in passes if p["traced"]]))

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced_walls)} untraced and {len(traced_walls)} traced passes, "
          f"{attempted} operations, {failed} failed")
    for name, value in everything.items():
        unit = E2E_UNITS.get(name) or PER_LAYER_UNITS[name]
        print(f"  {name:42s} {value!r} {unit}")
    q1, _, q3 = harness.quartiles(untraced_walls)
    print(f"  {'wall_s quartiles':42s} {q1!r} to {q3!r} s over {len(untraced_walls)} passes")
    print(f"  {'failed_share':42s} {failed / attempted!r} ratio")
    for failure in [op for op in ops if not op["ok"]][:10] + [{"error": e} for e in errors[:3]]:
        print(f"  FAILED {failure}", file=sys.stderr)
    if wrapped:
        print("wrapped: " + json.dumps(wrapped, sort_keys=True))
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
