"""Scalar metrics and curves for confidence evaluation.

AUROC here is the exact Mann-Whitney statistic (all-pairs win rate, ties count
half) computed by rank-sum in O(n log n); no ROC binning is involved, so the
value is exact up to float rounding. Risk-coverage machinery accepts a sample
when its confidence is >= the threshold.
"""

from __future__ import annotations

import numpy as np


def _tied_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, ties sharing the mean of the ranks they span."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate([[True], xs[1:] != xs[:-1]]))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(pos_scores, neg_scores) -> float:
    """P(random positive score > random negative score), ties counted 0.5.

    Equals the normalized Mann-Whitney U: with R = sum of the (tie-averaged)
    ranks of the positives in the pooled sample,
    U = R - n_pos(n_pos+1)/2 and AUROC = U / (n_pos * n_neg).
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUROC undefined: one side is empty")
    ranks = _tied_ranks(np.concatenate([pos, neg]))
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def delta_conf(pos_scores, neg_scores) -> float:
    """Mean(pos) - mean(neg), in percentage points; may be negative."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("delta_conf undefined: one side is empty")
    return float(100.0 * (pos.mean() - neg.mean()))


def _split_by_correctness(log):
    conf = np.asarray(log.confidence, dtype=np.float64)
    correct = np.asarray(log.correct, dtype=np.int64)
    return conf[correct == 1], conf[correct == 0]


def auroc_risk(log) -> float:
    """1 - AUROC(correct confidences, wrong confidences); lower is better."""
    pos, neg = _split_by_correctness(log)
    return 1.0 - auroc(pos, neg)


def log_auroc_dconf(log) -> tuple[float | None, float | None]:
    """AUROC and confidence gap of the log's right over its wrong predictions;
    (None, None) when one of the two groups is empty."""
    pos, neg = _split_by_correctness(log)
    if pos.size == 0 or neg.size == 0:
        return None, None
    return auroc(pos, neg), delta_conf(pos, neg)


def _sweep(log) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thresholds with a non-empty accepted set, with the coverage and risk
    there, from one sort and suffix counts."""
    conf = np.asarray(log.confidence, dtype=np.float64)
    correct = np.asarray(log.correct, dtype=np.int64)
    if conf.size == 0:
        raise ValueError("empty log")
    order = np.argsort(conf, kind="stable")
    thresholds = np.unique(np.concatenate([conf, [0.0, 1.0]]))
    # The accepted set at t is the sorted suffix from the first value >= t.
    first = np.searchsorted(conf[order], thresholds, side="left")
    thresholds, first = thresholds[first < conf.size], first[first < conf.size]
    n = conf.size - first
    right = np.concatenate([[0], np.cumsum(correct[order][::-1])])[n]
    return thresholds, n / conf.size, 1.0 - right / n


def risk_coverage(log) -> list[tuple[float, float, float]]:
    """(threshold, coverage, risk) at every swept threshold.

    At threshold t the accepted set is {confidence >= t}; coverage is its
    fraction of the log and risk its error rate. Thresholds whose accepted set
    is empty are omitted. Coverage is non-increasing in the threshold.
    """
    return list(zip(*(a.tolist() for a in _sweep(log))))


def coverage_at_risk(log, target_accuracy: float) -> float | None:
    """Maximum coverage whose accepted-set accuracy is >= the target, or None
    when no swept threshold qualifies."""
    if not 0.0 < target_accuracy <= 1.0:
        raise ValueError("target_accuracy must be in (0, 1]")
    _, coverage, risk = _sweep(log)
    ok = 1.0 - risk >= target_accuracy
    return float(coverage[ok].max()) if ok.any() else None


def accuracy_coverage_curve(log) -> list[tuple[float, float, float]]:
    """(threshold, coverage, accuracy) over the swept thresholds; the accepted
    set is {confidence >= t} as everywhere else."""
    thresholds, coverage, risk = _sweep(log)
    return list(zip(thresholds.tolist(), coverage.tolist(), (1.0 - risk).tolist()))


def detection_f1(id_scores, adv_scores, threshold):
    """Macro-F1 of flagging scores below the threshold as adversarial, at one
    threshold (a float) or at each of an array of thresholds (an array).

    Per-class F1 is defined as 0 when precision + recall is 0. The counts at
    every threshold come from one sort of each side.
    """
    id_sorted = np.sort(np.asarray(id_scores, dtype=np.float64))
    adv_sorted = np.sort(np.asarray(adv_scores, dtype=np.float64))
    if id_sorted.size == 0 or adv_sorted.size == 0:
        raise ValueError("detection_f1 undefined: one side is empty")
    t = np.asarray(threshold, dtype=np.float64)
    # Positive class "adversarial": predicted when score < threshold.
    tp_adv = np.searchsorted(adv_sorted, t, side="left")
    fp_adv = np.searchsorted(id_sorted, t, side="left")
    fn_adv = adv_sorted.size - tp_adv
    # Positive class "in-distribution": predicted when score >= threshold.
    tp_id = id_sorted.size - fp_adv
    # 2tp + fp + fn is at least the class size, so no denominator is 0.
    f1 = (2 * tp_adv / (2 * tp_adv + fp_adv + fn_adv)
          + 2 * tp_id / (2 * tp_id + fn_adv + fp_adv)) / 2.0
    return float(f1) if f1.ndim == 0 else f1


DEFAULT_THRESHOLD_GRID = np.round(np.linspace(0.0, 1.0, 101), 2)


def cascade_curve(small_log, large_correct, thresholds=None
                  ) -> tuple[list[tuple[float, float, float]], float]:
    """Accuracy of a two-model cascade as the routing threshold varies.

    A sample is answered by the small model when its small-model confidence is
    >= t, and routed to the large model otherwise. Returns the (threshold,
    accuracy, routed fraction) points and the area score: the normalized
    trapezoid of accuracy over the threshold grid, which must be strictly
    increasing (the default grid is [0, 1] in steps of 0.01).
    """
    small_conf = np.asarray(small_log.confidence, dtype=np.float64)
    small_correct = np.asarray(small_log.correct, dtype=np.int64)
    large_correct = np.asarray(large_correct, dtype=np.int64)
    if small_conf.shape != large_correct.shape:
        raise ValueError("small log and large predictions are misaligned")
    if small_conf.size == 0:
        raise ValueError("empty log")
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLD_GRID
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if not np.all(np.diff(thresholds) > 0):
        raise ValueError("cascade thresholds must be strictly increasing")

    # Routed at t: the prefix of the sorted confidences that are < t.
    order = np.argsort(small_conf, kind="stable")
    routed = np.searchsorted(small_conf[order], thresholds, side="left")
    large_right = np.concatenate([[0], np.cumsum(large_correct[order])])
    small_right = np.concatenate([[0], np.cumsum(small_correct[order])])
    accs = (large_right[routed] + small_right[-1] - small_right[routed]) / small_conf.size
    points = list(zip(thresholds.tolist(), accs.tolist(),
                      (routed / small_conf.size).tolist()))
    if thresholds.size > 1:
        # np.trapezoid's formula, which NumPy < 2.0 does not have.
        trapezoid = (np.diff(thresholds) * (accs[1:] + accs[:-1]) / 2.0).sum()
        area = float(trapezoid / (thresholds[-1] - thresholds[0]))
    else:
        area = float(accs[0])
    return points, area
