"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_recorder_nests_spans_by_call_order():
    rec = spans.Recorder(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))
    rec.enter("outer")       # 0
    rec.enter("a")           # 1
    rec.exit()               # 2
    rec.enter("b")           # 3
    rec.enter("c")           # 4
    rec.exit()               # 5
    rec.exit()               # 6
    rec.exit()               # 7
    by_name = {s.name: s for s in rec.spans}
    assert by_name["outer"].parent is None
    assert by_name["a"].parent == by_name["outer"].id
    assert by_name["b"].parent == by_name["outer"].id
    assert by_name["c"].parent == by_name["b"].id
    assert (by_name["outer"].start, by_name["outer"].end) == (0.0, 7.0)
    assert (by_name["c"].start, by_name["c"].end) == (4.0, 5.0)


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([], 0.0, 10.0) == 0.0
    assert spans.covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert spans.covered_length([(1, 2), (2, 3)], 0, 10) == 2
    assert spans.covered_length([(-5, 1), (11, 12)], 0, 10) == 1
    assert spans.covered_length([(2, 3), (1, 5)], 0, 10) == 4


def test_self_time_is_duration_minus_union_of_children():
    recorded = [
        Span(0, "p", None, 0.0, 10.0),
        Span(1, "c", 0, 1.0, 4.0),
        Span(2, "c", 0, 3.0, 6.0),   # overlaps its sibling: counted once
        Span(3, "g", 1, 2.0, 3.0),   # grandchild: inside c, not subtracted from p again
    ]
    own = spans.self_times(recorded)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_summarize_counts_a_reentrant_function_once():
    recorded = [
        Span(0, "data.write_dataset", None, 0.0, 4.0),
        Span(1, "data.write_dataset", 0, 1.0, 3.0),
        Span(2, "network.forward", None, 5.0, 6.0),
        Span(3, "network.forward", None, 7.0, 9.0),
    ]
    out = spans.summarize(recorded)
    assert out["data.write_dataset.s"] == pytest.approx(4.0)
    assert out["data.write_dataset.calls"] == 1
    assert out["data.write_dataset.self_s"] == pytest.approx(2.0 + 2.0)
    assert out["network.forward.s"] == pytest.approx(3.0)
    assert out["network.forward.calls"] == 2
    assert out["network.backward.calls"] == 0


def test_layer_metrics_add_processes_and_derive_ratios():
    first = [Span(0, "network.forward", None, 0.0, 1.0)]
    second = [Span(0, "network.forward", None, 0.0, 2.0)]
    out = spans.layer_metrics(
        [first, second],
        [{"data.records": 10.0, "resampling.mlsmote.made": 8.0,
          "resampling.mlsmote.distinct": 2.0},
         {"data.records": 5.0}],
        [0.5, 1.5],
    )
    assert out["network.forward.s"] == pytest.approx(3.0)
    assert out["network.forward.calls"] == 2
    assert out["data.records"] == 15.0
    assert out["resampling.mlsmote.unique_share"] == pytest.approx(0.25)
    assert out["cli.import_s"] == pytest.approx(1.0)
    assert set(out) == set(spans.LAYER_UNITS)


def test_quartile_summary_matches_statistics_quantiles():
    values = [float(v) for v in range(1, 11)]
    assert harness.quartiles(values) == (2.75, 5.5, 8.25)
    assert harness.relative_spread(values) == pytest.approx(5.5 / 5.5)
    assert harness.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert harness.relative_spread([2.0, 2.0, 2.0, 2.0]) == 0.0
    with pytest.raises(ValueError):
        harness.quartiles([])


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    from mlimb import cooccurrence, metrics, resampling, synth

    original = metrics.label_counts
    rec = spans.Recorder()
    undo, bound = spans.install(rec)
    try:
        assert set(bound["metrics.label_counts"]) >= {
            "mlimb.metrics", "mlimb.resampling", "mlimb.cooccurrence"}
        assert resampling.label_counts is not original
        dataset = synth.generate(synth.SynthConfig(n_instances=40, n_labels=6, seed=1))
        cooccurrence.compare_snapshots(dataset, {}, [0, 1])
    finally:
        spans.restore(undo)
    assert metrics.label_counts is original
    assert resampling.label_counts is original
    assert cooccurrence.label_counts is original
    names = [s.name for s in rec.spans]
    assert names.count("synth.generate") == 1
    assert "metrics.label_counts" in names
    compare = next(s for s in rec.spans if s.name == "cooccurrence.compare_snapshots")
    children = [s for s in rec.spans if s.parent == compare.id]
    assert {s.name for s in children} == {"metrics.label_counts", "metrics.scumble_label"}


def test_benchmark_json_lists_what_the_runner_reports():
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.workloads.WORKLOADS)


def test_figures_prefer_untraced_passes_and_fall_back_to_traced_ones():
    import run

    untraced = [{"figures": {"stage.train_s": v, "samples_f1": 0.5}} for v in (1.0, 3.0, 2.0)]
    traced = [{"figures": {"stage.train_s": 9.0, "train_instance_epochs_per_s": v}}
              for v in (10.0, 30.0)]
    out = run._figures(untraced, traced)
    assert out == {"stage.train_s": 2.0, "samples_f1": 0.5,
                   "train_instance_epochs_per_s": 20.0}
