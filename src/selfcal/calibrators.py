"""A uniform confidence-scoring interface over the four methods compared here:
vanilla max-probability, temperature scaling, label smoothing, and the
self-calibration head trained by the pipeline.

Temperature scaling and label smoothing differ from vanilla only in state
(a fitted T) or in how the bound model was trained; the self-calibration
method reads its confidence from the binary correctness head instead of the
main softmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Dataset, split_folds, write_csv
from .model import (
    FeatureMatrix,
    ModelParameters,
    featurize_batch,
    softmax,
    train_main,
)

METHODS = ("vanilla", "temperature", "label_smoothing", "toast")


@dataclass(frozen=True)
class ConfidenceLog:
    """Parallel arrays of (confidence, correctness, prediction, group tag)."""

    confidence: np.ndarray
    correct: np.ndarray
    pred: np.ndarray
    group: tuple[str, ...]

    def __post_init__(self):
        n = len(self.confidence)
        if not (len(self.correct) == len(self.pred) == len(self.group) == n):
            raise ValueError("log columns have mismatched lengths")
        if n and not np.all(np.isfinite(self.confidence)):
            raise ValueError("non-finite confidence values")

    def __len__(self) -> int:
        return len(self.confidence)

    def to_csv(self, path) -> Path:
        return write_csv(path, ("confidence", "correct", "pred", "group"),
                         ([repr(float(c)), int(ok), int(y), g] for c, ok, y, g in
                          zip(self.confidence, self.correct, self.pred, self.group)))


class Calibrator:
    """A scoring method bound to model parameters (plus a fitted temperature
    for the "temperature" method). It scores through the model's ``Scorer``,
    which every calibrator of the same parameters shares, and which freezes
    them."""

    def __init__(self, method: str, params: ModelParameters,
                 temperature: float | None = None):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        if temperature is not None and temperature <= 0:
            raise ValueError("temperature must be positive")
        self.method = method
        self.params = params
        self.scorer = params.scorer()
        self.temperature = temperature

    def score(self, sample) -> tuple[int, float]:
        """(predicted label, confidence in it). The label always comes from the
        main head; only the confidence definition varies by method."""
        labels, conf = self.score_batch(
            featurize_batch((sample.text_a,), (sample.text_b,), self.scorer.features))
        return labels.item(), conf.item()

    def score_batch(self, m: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Predicted labels and confidences of every row of a feature matrix."""
        labels, max_prob, logits, sample = self.scorer.predict(m)
        if self.method in ("vanilla", "label_smoothing"):
            return labels, max_prob
        if self.method == "temperature":
            if self.temperature is None:
                raise ValueError("temperature calibrator is not fitted")
            # Scaling by T > 0 keeps the arg max, so its probability is the top one.
            return labels, softmax(logits / self.temperature).max(axis=1)
        # Self-calibration: P(true) from the correctness head, conditioned on
        # the main head's prediction.
        return labels, softmax(self.scorer.calib_logits(sample, labels))[:, 1]

    def build_log(self, d: Dataset, group: str) -> ConfidenceLog:
        """Score every sample, in dataset order, under one group tag."""
        preds, conf = self.score_batch(d.features(self.scorer.features))
        correct = (preds == d.labels()).astype(np.int64)
        return ConfidenceLog(conf, correct, preds, (group,) * len(d))


# ---------------------------------------------------------------------------
# Temperature fitting
# ---------------------------------------------------------------------------

def fit_temperature(logits, labels) -> float:
    """T in [0.01, 100] minimizing the mean NLL of softmax(logits / T).

    The mean NLL is convex in 1/T, and its derivative in 1/T is the mean
    softmax-weighted logit minus the mean gold logit. Bisection on the sign
    of that derivative halves [0.01, 100] until the midpoint equals an end,
    at adjacent floats (about 60 steps). An optimum outside the range ends
    at the nearer bound. Deterministic.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or len(logits) != len(labels):
        raise ValueError("need one logit row per label")
    if len(labels) < 2 or len(np.unique(labels)) < 2:
        raise ValueError("temperature fitting needs >= 2 records with >= 2 distinct labels")

    gold = logits[np.arange(len(labels)), labels].mean()
    lo, hi = 0.01, 100.0
    while (mid := (lo + hi) / 2) not in (lo, hi):
        # A positive derivative at 1/mid puts the optimum at a larger T.
        if (softmax(logits / mid) * logits).sum(1).mean() > gold:
            lo = mid
        else:
            hi = mid
    return mid


def baseline_split(train: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """The baselines' split of the training set: a seed-deterministic
    stratified tenth held out for the temperature, and the other nine tenths
    that every baseline model trains on."""
    folds = split_folds(train, 10, seed)
    return train.subset(folds[0]), train.subset(np.concatenate(folds[1:]))


def train_with_temperature(train: Dataset, cfg) -> tuple[ModelParameters, float]:
    """Train a plain model on the nine tenths of ``baseline_split`` and fit T
    on the held-out tenth.

    Fitting T on data the model trained on degenerates (the memorized slice
    pushes T toward 0 and the scaled confidences saturate), so the slice must
    stay out of training. The returned model backs both the vanilla and the
    temperature calibrator, which keeps their scores directly comparable.
    """
    train.features(cfg.features)  # hashed once; both parts take its rows
    holdout, rest = baseline_split(train, cfg.seed)
    params, _ = train_main(rest, cfg)
    # Through the model's Scorer, which freezes params; its calibrators share it.
    logits = params.scorer().predict(holdout.features(params.features))[2]
    t = fit_temperature(logits, holdout.labels())
    return params, t
