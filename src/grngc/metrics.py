"""Threshold-free evaluation of a causal score matrix against ground truth.
Both metrics are read off one table, the positive and negative counts of
each group of tied scores, highest score first: AUROC is the Mann-Whitney
probability with a tie counted as half a win, and AUPRC is the average
precision with each tie group one threshold step."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FULL = "full"
OFF_DIAGONAL = "off_diagonal"
MODES = (FULL, OFF_DIAGONAL)


class MetricError(Exception):
    pass


@dataclass
class EdgeScorePairs:
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=bool)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1 or self.scores.size < 1:
            raise MetricError(f"scores/labels must be equal-length vectors, got "
                              f"{self.scores.shape} and {self.labels.shape}")
        if np.isnan(self.scores).any():
            raise MetricError("scores contain NaN, which has no rank")


def flatten(gc_scores: np.ndarray, truth: np.ndarray, mode: str = FULL) -> EdgeScorePairs:
    """Pair up matrix cells with truth labels; both in (target, source)
    orientation. off_diagonal drops self-edges."""
    gc_scores = np.asarray(gc_scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    if gc_scores.shape != truth.shape or gc_scores.ndim != 2 \
            or gc_scores.shape[0] != gc_scores.shape[1]:
        raise MetricError(f"shape mismatch: scores {gc_scores.shape}, truth {truth.shape}")
    if mode not in MODES:
        raise MetricError(f"unknown mode {mode!r}")
    if mode == OFF_DIAGONAL:
        keep = ~np.eye(gc_scores.shape[0], dtype=bool)
        return EdgeScorePairs(gc_scores[keep], truth[keep])
    return EdgeScorePairs(gc_scores.reshape(-1), truth.reshape(-1))


def _tie_groups(pairs: EdgeScorePairs) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative counts of each group of equal scores, highest
    score first."""
    _, group = np.unique(-pairs.scores, return_inverse=True)
    total = np.bincount(group)
    pos = np.bincount(group[pairs.labels], minlength=total.size)
    return pos, total - pos


def auroc(pairs: EdgeScorePairs) -> float:
    pos, neg = _tie_groups(pairs)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError(f"AUROC needs both classes, got {n_pos} positives, {n_neg} negatives")
    below = n_neg - np.cumsum(neg)  # negatives scored lower than the group
    return float((pos * below + 0.5 * pos * neg).sum() / (n_pos * n_neg))


def auprc(pairs: EdgeScorePairs) -> float:
    pos, neg = _tie_groups(pairs)
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise MetricError("AUPRC needs at least one positive label")
    tp = np.cumsum(pos)
    recall = tp / n_pos
    precision = tp / (tp + np.cumsum(neg))
    # a running sum in threshold order (np.sum would add pairwise)
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def evaluate(gc_scores: np.ndarray, truth: np.ndarray, mode: str = FULL) -> dict:
    pairs = flatten(gc_scores, truth, mode)
    return {
        "auroc": auroc(pairs),
        "auprc": auprc(pairs),
        "n_edges": int(pairs.scores.size),
        "mode": mode,
    }
