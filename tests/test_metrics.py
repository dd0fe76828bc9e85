import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grngc.cli import write_outputs
from grngc.metrics import (EdgeScorePairs, MetricError, auprc, auroc,
                           evaluate, flatten)


def auroc_pairwise(scores, labels):
    """Brute-force Mann-Whitney probability over all positive/negative pairs."""
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auprc_stepwise(scores, labels):
    """Step through distinct thresholds, summing precision * recall increments."""
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    n_pos = labels.sum()
    area = tp = fp = 0.0
    prev_recall = 0.0
    for thresh in sorted(set(scores), reverse=True):
        sel = scores == thresh
        tp += labels[sel].sum()
        fp += (~labels[sel]).sum()
        recall = tp / n_pos
        area += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
    return area


@st.composite
def leveled_pairs(draw, both_classes):
    """(scores, labels) over 2-60 edges whose scores take one of 1-60 levels,
    so ties range from none to all; at least one positive, and a negative
    too if `both_classes`."""
    n = draw(st.integers(2, 60))
    levels = draw(st.integers(1, 60))
    scores = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(
        lambda ls: any(ls) and (not both_classes or not all(ls))))
    return np.array(scores) / levels, np.array(labels)


class TestAuroc:
    def test_worked_example(self):
        pairs = EdgeScorePairs(np.array([0.8, 0.6, 0.6, 0.2]),
                               np.array([1, 1, 0, 0], dtype=bool))
        assert auroc(pairs) == 0.875

    def test_perfect_ranking(self):
        pairs = EdgeScorePairs(np.array([0.9, 0.8, 0.2, 0.1]),
                               np.array([1, 1, 0, 0], dtype=bool))
        assert auroc(pairs) == 1.0

    def test_labels_as_scores(self):
        labels = np.array([1, 0, 1, 0, 0, 1], dtype=bool)
        assert auroc(EdgeScorePairs(labels.astype(float), labels)) == 1.0

    def test_all_scores_equal(self):
        pairs = EdgeScorePairs(np.full(6, 0.3), np.array([1, 0, 1, 0, 0, 1], dtype=bool))
        assert auroc(pairs) == 0.5

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 15))
        scores = rng.choice([0.1, 0.2, 0.5, 0.7, 0.9], n)
        labels = rng.integers(0, 2, n).astype(bool)
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        pairs = EdgeScorePairs(scores, labels)
        assert abs(auroc(pairs) - auroc_pairwise(scores, labels)) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(pairs=leveled_pairs(both_classes=True))
    def test_matches_pairwise_oracle_over_tie_levels(self, pairs):
        scores, labels = pairs
        assert abs(auroc(EdgeScorePairs(scores, labels)) - auroc_pairwise(scores, labels)) < 1e-12

    def test_single_class_raises(self):
        with pytest.raises(MetricError):
            auroc(EdgeScorePairs(np.array([0.1, 0.2]), np.array([1, 1], dtype=bool)))


class TestAuprc:
    def test_worked_example(self):
        pairs = EdgeScorePairs(np.array([0.9, 0.7, 0.5]),
                               np.array([1, 0, 1], dtype=bool))
        # precision 1 at recall 1/2, precision 2/3 at recall 1
        assert auprc(pairs) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_perfect_ranking(self):
        pairs = EdgeScorePairs(np.array([0.9, 0.8, 0.2, 0.1]),
                               np.array([1, 1, 0, 0], dtype=bool))
        assert auprc(pairs) == 1.0

    def test_all_equal_scores_equals_prevalence(self):
        labels = np.array([1, 0, 0, 1], dtype=bool)
        pairs = EdgeScorePairs(np.full(4, 2.0), labels)
        assert auprc(pairs) == 0.5

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_stepwise_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 15))
        scores = rng.choice([0.1, 0.2, 0.5, 0.7, 0.9], n)
        labels = rng.integers(0, 2, n).astype(bool)
        if not labels.any():
            labels[0] = True
        pairs = EdgeScorePairs(scores, labels)
        assert abs(auprc(pairs) - auprc_stepwise(scores, labels)) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(pairs=leveled_pairs(both_classes=False))
    def test_matches_stepwise_oracle_over_tie_levels(self, pairs):
        scores, labels = pairs
        assert abs(auprc(EdgeScorePairs(scores, labels)) - auprc_stepwise(scores, labels)) < 1e-12

    def test_no_positives_raises(self):
        with pytest.raises(MetricError):
            auprc(EdgeScorePairs(np.array([0.1, 0.2]), np.zeros(2, dtype=bool)))


# strictly increasing on the scores' range (integers in [-40, 40], scaled by
# at most 10 and shifted by at most 10), and distinct floats stay distinct
TRANSFORMS = [lambda s: s, lambda s: np.exp(s / 100.0), lambda s: s ** 3, np.arctan]


@st.composite
def scored_labels(draw, unique=False):
    """(scores, labels) with both classes present; integer-valued scores, so
    ties occur unless `unique`."""
    n = draw(st.integers(2, 40))
    scores = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=unique))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n)
                  .filter(lambda ls: 0 < sum(ls) < len(ls)))
    return np.array(scores, dtype=np.float64), np.array(labels)


class TestInvariances:
    @pytest.mark.parametrize("metric", [auroc, auprc])
    def test_permutation_invariant(self, metric):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, 30).astype(bool)
        perm = rng.permutation(30)
        a = metric(EdgeScorePairs(scores, labels))
        b = metric(EdgeScorePairs(scores[perm], labels[perm]))
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("metric", [auroc, auprc])
    @settings(max_examples=200, deadline=None)
    @given(pairs=scored_labels(), transform=st.sampled_from(TRANSFORMS),
           slope=st.floats(0.1, 10.0), offset=st.floats(-10.0, 10.0))
    def test_monotone_transform_invariant(self, metric, pairs, transform, slope, offset):
        scores, labels = pairs
        a = metric(EdgeScorePairs(scores, labels))
        b = metric(EdgeScorePairs(transform(slope * scores + offset), labels))
        assert a == pytest.approx(b, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(pairs=scored_labels(unique=True))
    def test_negated_scores_complement_auroc(self, pairs):
        scores, labels = pairs
        a = auroc(EdgeScorePairs(scores, labels))
        b = auroc(EdgeScorePairs(-scores, labels))
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestFlatten:
    def test_full_mode_size(self):
        pairs = flatten(np.ones((3, 3)), np.eye(3, dtype=bool))
        assert pairs.scores.size == 9

    def test_off_diagonal_drops_self_edges(self):
        scores = np.arange(9.0).reshape(3, 3)
        truth = np.zeros((3, 3), dtype=bool)
        truth[0, 1] = True
        pairs = flatten(scores, truth, mode="off_diagonal")
        assert pairs.scores.size == 6
        assert set(pairs.scores) == {1, 2, 3, 5, 6, 7}

    def test_orientation_preserved(self):
        # cell [j, i] of scores must pair with cell [j, i] of truth
        scores = np.array([[0.0, 0.9], [0.1, 0.0]])
        truth = np.array([[0, 1], [0, 0]], dtype=bool)
        pairs = flatten(scores, truth)
        assert pairs.scores[pairs.labels] == [0.9]

    def test_shape_mismatch(self):
        with pytest.raises(MetricError):
            flatten(np.ones((3, 3)), np.zeros((2, 2), dtype=bool))

    def test_nan_score_raises(self):
        with pytest.raises(MetricError, match="NaN"):
            flatten(np.array([[0.5, np.nan], [0.1, 0.2]]), np.eye(2, dtype=bool))

    def test_unknown_mode(self):
        with pytest.raises(MetricError):
            flatten(np.ones((2, 2)), np.eye(2, dtype=bool), mode="upper")


class TestEvaluate:
    def test_perfect_scores(self):
        truth = np.array([[1, 0], [1, 1]], dtype=bool)
        out = evaluate(truth.astype(float), truth)
        assert out["auroc"] == 1.0 and out["auprc"] == 1.0
        assert out["n_edges"] == 4 and out["mode"] == "full"

    def test_constant_scores_chance_level(self):
        truth = np.array([[0, 1], [0, 0]], dtype=bool)
        out = evaluate(np.zeros((2, 2)), truth, mode="off_diagonal")
        assert out["auroc"] == 0.5
        assert out["n_edges"] == 2

    def test_write_roundtrip(self, tmp_path):
        out = evaluate(np.array([[0.9, 0.1], [0.2, 0.8]]), np.eye(2, dtype=bool))
        path = tmp_path / "metrics.json"
        write_outputs(tmp_path, metrics=out)
        assert json.loads(path.read_text()) == out
