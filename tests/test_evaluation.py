"""Classification and regression metrics against naive enumerating oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mlimb.evaluation import (
    EvalReport,
    binarize,
    evaluate_multilabel,
    evaluate_regression,
    mae,
    pearson,
    prf,
    scatter_csv,
)


def naive_prf(p, t, averaging):
    """Cell-by-cell counting, no vectorization."""
    n, m = p.shape

    def ratio(a, b):
        return a / b if b else 0.0

    def triple(tp, pp, ap):
        pr, rc = ratio(tp, pp), ratio(tp, ap)
        return pr, rc, ratio(2 * pr * rc, pr + rc)

    if averaging == "micro":
        tp = sum(1 for i in range(n) for j in range(m) if p[i, j] and t[i, j])
        return triple(tp, int(p.sum()), int(t.sum()))
    if averaging == "macro":
        trips = []
        for j in range(m):
            pp = sum(int(p[i, j]) for i in range(n))
            ap = sum(int(t[i, j]) for i in range(n))
            if pp + ap == 0:
                continue
            tp = sum(1 for i in range(n) if p[i, j] and t[i, j])
            trips.append(triple(tp, pp, ap))
        if not trips:
            return 0.0, 0.0, 0.0
        return tuple(sum(vals) / len(trips) for vals in zip(*trips))
    trips = []
    for i in range(n):
        pp = sum(int(p[i, j]) for j in range(m))
        ap = sum(int(t[i, j]) for j in range(m))
        tp = sum(1 for j in range(m) if p[i, j] and t[i, j])
        trips.append(triple(tp, pp, ap))
    return tuple(sum(vals) / len(trips) for vals in zip(*trips))


# ---------------------------------------------------------------------------
# Thresholding
# ---------------------------------------------------------------------------

def test_binarize_is_inclusive_at_the_boundary():
    scores = np.array([[0.49, 0.5, 0.51]])
    assert binarize(scores, 0.5).tolist() == [[0, 1, 1]]
    assert binarize(scores, 1.1).tolist() == [[0, 0, 0]]
    assert binarize(scores, 0.0).tolist() == [[1, 1, 1]]


# ---------------------------------------------------------------------------
# Precision / recall / F1
# ---------------------------------------------------------------------------

def test_perfect_predictions_score_one():
    t = np.array([[1, 0, 1], [0, 1, 0]])
    for averaging in ("micro", "macro", "samples"):
        assert prf(t, t, averaging) == (1.0, 1.0, 1.0)


def test_complement_predictions_score_zero():
    t = np.array([[1, 0], [0, 1]])
    for averaging in ("micro", "macro", "samples"):
        assert prf(1 - t, t, averaging) == (0.0, 0.0, 0.0)


def test_hand_confusion_counts_3x4():
    p = np.array([[1, 1, 0, 0],
                  [0, 1, 1, 0],
                  [1, 0, 0, 0]])
    t = np.array([[1, 0, 0, 0],
                  [0, 1, 1, 1],
                  [0, 0, 1, 0]])
    # micro: tp=3, predicted positives=5, actual positives=5
    pr, rc, f1 = prf(p, t, "micro")
    assert pr == 3 / 5 and rc == 3 / 5
    assert math.isclose(f1, 3 / 5)
    assert prf(p, t, "micro") == naive_prf(p, t, "micro")
    assert prf(p, t, "macro") == pytest.approx(naive_prf(p, t, "macro"))
    assert prf(p, t, "samples") == pytest.approx(naive_prf(p, t, "samples"))


def test_macro_skips_labels_absent_on_both_sides():
    p = np.array([[1, 0], [1, 0]])
    t = np.array([[1, 0], [0, 0]])
    # Label 1 never appears: macro averages over label 0 only.
    pr, rc, f1 = prf(p, t, "macro")
    assert pr == 0.5 and rc == 1.0
    assert math.isclose(f1, 2 / 3)


def test_zero_over_zero_contributes_zero_not_nan():
    p = np.zeros((2, 2), dtype=int)
    t = np.array([[1, 0], [0, 0]])
    pr, rc, f1 = prf(p, t, "micro")
    assert (pr, f1) == (0.0, 0.0) and rc == 0.0
    pr, rc, f1 = prf(p, t, "samples")
    assert pr == 0.0 and rc == 0.0 and f1 == 0.0


def test_micro_f1_harmonic_identity():
    rng = np.random.default_rng(5)
    p = rng.integers(0, 2, size=(20, 6))
    t = rng.integers(0, 2, size=(20, 6))
    pr, rc, f1 = prf(p, t, "micro")
    tp = int((p * t).sum())
    assert math.isclose(f1, 2 * tp / (int(p.sum()) + int(t.sum())))


def test_prf_rejects_bad_input():
    ok = np.zeros((2, 2), dtype=int)
    with pytest.raises(ValueError):
        prf(ok, np.zeros((2, 3), dtype=int), "micro")
    with pytest.raises(ValueError):
        prf(np.array([[0.5, 0]]), np.array([[1, 0]]), "micro")
    with pytest.raises(ValueError):
        prf(ok, ok, "weighted")
    with pytest.raises(ValueError):
        prf(np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int), "samples")


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(np.int8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
               elements=st.integers(0, 1)),
    st.sampled_from(["micro", "macro", "samples"]),
    st.integers(0, 2**31 - 1),
)
def test_prf_matches_naive_oracle(t, averaging, seed):
    p = np.random.default_rng(seed).integers(0, 2, size=t.shape)
    got = prf(p, t, averaging)
    want = naive_prf(p, t, averaging)
    assert got == pytest.approx(want, abs=1e-12)
    assert all(0.0 <= v <= 1.0 for v in got)


# ---------------------------------------------------------------------------
# Regression metrics
# ---------------------------------------------------------------------------

def test_mae_constant_offset():
    rng = np.random.default_rng(9)
    t = rng.normal(size=(6, 3))
    assert math.isclose(mae(t + 0.75, t), 0.75)
    assert mae(t, t) == 0.0
    with pytest.raises(ValueError):
        mae(np.zeros((0, 2)), np.zeros((0, 2)))


def test_pearson_perfect_and_inverted():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    r, r2 = pearson(t, t)
    assert math.isclose(r, 1.0) and math.isclose(r2, 1.0)
    r, _ = pearson(-t, t)
    assert math.isclose(r, -1.0)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(13)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    r1, _ = pearson(x, y)
    r2, _ = pearson(3.0 * x + 7.0, y)
    assert math.isclose(r1, r2, rel_tol=1e-12)


def test_pearson_zero_variance_raises():
    with pytest.raises(ValueError, match="variance"):
        pearson(np.ones(5), np.arange(5.0))
    with pytest.raises(ValueError):
        pearson(np.arange(2.0), np.arange(2.0)[:1])
    with pytest.raises(ValueError):
        pearson(np.ones(1), np.ones(1))


def test_r2_is_square_of_r():
    rng = np.random.default_rng(17)
    x, y = rng.normal(size=30), rng.normal(size=30)
    r, r2 = pearson(x, y)
    assert math.isclose(r2, r * r)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_multilabel_report_structure():
    scores = np.array([[0.9, 0.2], [0.4, 0.7]])
    t = np.array([[1, 0], [0, 1]])
    report = evaluate_multilabel(scores, t, threshold=0.5)
    assert report.f1 == {"micro": 1.0, "macro": 1.0, "samples": 1.0}
    assert report.threshold == 0.5
    assert report.mae is None and report.pearson_r is None
    doc = report.to_document()
    assert doc["precision"]["micro"] == 1.0
    report.to_json()


@pytest.mark.parametrize("dtype", [np.float64, np.int64, bool])
def test_multilabel_report_equals_prf_of_binarized_scores(dtype):
    rng = np.random.default_rng(23)
    scores = rng.random((30, 7))
    scores[0, :3] = [0.5, np.nextafter(0.5, 0.0), np.nan]  # inclusive threshold; NaN is negative
    t = (rng.random((30, 7)) < 0.3).astype(dtype)
    report = evaluate_multilabel(scores, t, threshold=0.5)
    for averaging in ("micro", "macro", "samples"):
        want = prf(binarize(scores, 0.5), t, averaging)
        got = (report.precision[averaging], report.recall[averaging], report.f1[averaging])
        assert got == want


def test_multilabel_report_rejects_what_prf_rejects():
    scores = np.full((2, 2), 0.75)
    with pytest.raises(ValueError, match="targets must contain only 0/1 entries"):
        evaluate_multilabel(scores, np.array([[0.5, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="shape mismatch"):
        evaluate_multilabel(scores, np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError, match="samples averaging over an empty"):
        evaluate_multilabel(np.zeros((0, 2)), np.zeros((0, 2), dtype=bool))


def test_regression_report_and_undefined_pearson():
    t = np.array([[1.0], [2.0], [3.0]])
    report = evaluate_regression(t + 0.5, t)
    assert math.isclose(report.mae, 0.5)
    assert math.isclose(report.pearson_r, 1.0)
    assert report.precision is None and report.threshold is None
    flat = evaluate_regression(np.ones((3, 1)), t)
    assert flat.pearson_r is None and flat.pearson_r2 is None
    assert math.isclose(flat.mae, 1.0)


def test_scatter_csv_layout():
    text = scatter_csv(np.array([0.25, 1.0]), np.array([0.5, -2.0]))
    lines = text.strip().split("\n")
    assert lines[0] == "target,prediction"
    assert lines[1] == "0.5,0.25"
    assert lines[2] == "-2.0,1.0"
    with pytest.raises(ValueError):
        scatter_csv(np.zeros(2), np.zeros(3))
