"""Three-stage training pipeline that makes one model solve the task and score
its own predictions.

Stage 1 generates correctness labels by K-fold cross-annotation (train on K-1
folds, annotate the held-out fold, rotate), so no model ever labels data it
trained on. Stage 2 rebalances the annotations by down-sampling the majority
correctness class and augments the minority (wrong-prediction) records with
textual transforms. Stage 3 trains a fresh model on the joint objective

    total = main_task_ce + calibration_ce + alpha * consistency_kl

where the consistency term is the KL divergence between the calibration head's
output on a clean record and on its augmented variant.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .augment import SynonymLexicon, TransformKind, random_transform
from .corpus import CalibrationRecord, Dataset, split_folds
from .model import (
    ModelParameters,
    TrainConfig,
    apply_grads,
    calib_batch_grads,
    consistency_batch_grads,
    featurize_batch,
    init_parameters,
    main_batch_grads,
    predict_batch,
    train_main,
)


@dataclass(frozen=True)
class ToastConfig:
    """Pipeline knobs. ``train`` drives stage 3 (multi-task, 8 epochs by
    default); annotator models in stage 1 use ``annotator_train`` (same
    settings but 5 epochs unless given explicitly)."""

    k: int = 2
    alpha: float = 0.1
    augment_per_negative: int = 1
    rate: float = 0.1
    no_cross_annotation: bool = False
    no_downsample: bool = False
    no_augment: bool = False
    no_alpha_decay: bool = False
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=8))
    annotator_train: TrainConfig | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.augment_per_negative < 1:
            raise ValueError("augment_per_negative must be >= 1")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")

    @property
    def annotator_config(self) -> TrainConfig:
        if self.annotator_train is not None:
            return self.annotator_train
        return replace(self.train, epochs=5)

    @property
    def effective_alpha(self) -> float:
        return 1.0 if self.no_alpha_decay else self.alpha


@dataclass(frozen=True)
class AugmentedRecord:
    """A wrong-prediction record paired with a transformed copy of its text."""

    sample_id: str
    text_a: str
    text_b: str | None
    augmented_text: str
    predicted_label: int
    transform: TransformKind


@dataclass(frozen=True)
class AnnotationRound:
    round_index: int
    seed: int
    train_ids: tuple[str, ...]
    heldout_ids: tuple[str, ...]


@dataclass(frozen=True)
class CrossAnnotation:
    records: tuple[CalibrationRecord, ...]
    rounds: tuple[AnnotationRound, ...]


def annotate_with_model(params: ModelParameters, d: Dataset) -> list[CalibrationRecord]:
    """Label each sample with the model's prediction and whether it was right."""
    preds = predict_batch(params, d.features(params.features))[0]
    return [CalibrationRecord(sample_id=s.id, text_a=s.text_a, text_b=s.text_b,
                              predicted_label=int(y_star), correctness=int(y_star == s.label))
            for s, y_star in zip(d.samples, preds)]


def cross_annotate(d: Dataset, cfg: ToastConfig) -> CrossAnnotation:
    """K rounds of leave-one-fold-out annotation; under ``no_cross_annotation``
    (the ablation) only round 0 of a ten-fold split, so the calibration set is
    a tenth of the training data.

    No record was annotated by a model that saw it in training, and without
    the ablation there is exactly one record per input sample. Round ``i``
    trains with seed ``annotator seed + i`` so the rounds are independent but
    reproducible. Only the records outlive a round, so one annotator encoder
    is in memory at a time.
    """
    ablated = cfg.no_cross_annotation
    folds = split_folds(d, 10 if ablated else cfg.k, cfg.train.seed)
    base = cfg.annotator_config
    d.features(base.features)  # hashed once; every fold takes its rows
    records: list[CalibrationRecord] = []
    rounds: list[AnnotationRound] = []
    for i in range(1 if ablated else len(folds)):
        # The other folds in fold order, which train_main's shuffle depends on.
        train_part = d.subset(np.concatenate(folds[:i] + folds[i + 1:]))
        heldout = d.subset(folds[i])
        round_cfg = replace(base, seed=base.seed + i)
        # The annotator is a temporary: it is freed once it has annotated,
        # before the next round initialises its own encoder.
        records.extend(annotate_with_model(train_main(train_part, round_cfg)[0], heldout))
        rounds.append(AnnotationRound(
            round_index=i, seed=round_cfg.seed,
            train_ids=tuple(train_part.ids()), heldout_ids=tuple(heldout.ids())))
    return CrossAnnotation(tuple(records), tuple(rounds))


def downsample_balance(records, rng: np.random.Generator) -> list[CalibrationRecord]:
    """Down-sample the majority correctness class to the exact minority count.

    Majority members are chosen uniformly without replacement; the minority is
    untouched; the surviving records keep their input order.
    """
    records = list(records)
    if not records:
        raise ValueError("no calibration records")
    neg = [i for i, r in enumerate(records) if r.correctness == 0]
    pos = [i for i, r in enumerate(records) if r.correctness == 1]
    if not neg or not pos:
        raise ValueError(
            "calibration classes degenerate; annotator is perfectly right or wrong")
    minority, majority = (neg, pos) if len(neg) <= len(pos) else (pos, neg)
    chosen = rng.choice(len(majority), size=len(minority), replace=False)
    keep = set(minority) | {majority[int(i)] for i in chosen}
    return [r for i, r in enumerate(records) if i in keep]


def build_augment_set(records, lexicon: SynonymLexicon, cfg: ToastConfig,
                      rng: np.random.Generator) -> list[AugmentedRecord]:
    """One transformed variant per wrong-prediction record (``augment_per_negative``
    of them). Only correctness-0 records are used; pair tasks transform the
    first segment and carry the second through unchanged."""
    out: list[AugmentedRecord] = []
    for r in records:
        if r.correctness != 0:
            continue
        for _ in range(cfg.augment_per_negative):
            kind, text = random_transform(r.text_a, cfg.rate, lexicon, rng)
            out.append(AugmentedRecord(
                sample_id=r.sample_id, text_a=r.text_a, text_b=r.text_b,
                augmented_text=text, predicted_label=r.predicted_label,
                transform=kind))
    return out


# ---------------------------------------------------------------------------
# Stage 3: multi-task training
# ---------------------------------------------------------------------------

def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Endless shuffled batches over one collection of ``n`` items, with a
    private rng stream so adding or removing another collection never
    perturbs this one. Each pass is a fresh permutation; its tail shorter
    than a batch is dropped."""
    size = min(batch_size, n)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - size + 1, size):
            yield order[start:start + size]


def train_multitask(d: Dataset, dstar, daug, cfg: ToastConfig,
                    feature_mode: str = "all"
                    ) -> tuple[ModelParameters, list[dict]]:
    """Train a fresh model on the joint objective for ``cfg.train.epochs``.

    Every step draws one batch from each of the task data, the calibration
    records, and (if present) the augmented pairs; smaller collections cycle.
    The returned trace has one row per step with the three component losses
    and their weighted total.
    """
    if len(d) == 0:
        raise ValueError("empty task dataset")
    dstar = list(dstar)
    daug = list(daug)
    if not dstar:
        raise ValueError("empty calibration set")
    if cfg.no_augment:
        daug = []

    tc = cfg.train
    params = init_parameters(d.num_classes, tc)
    alpha = cfg.effective_alpha

    d_feats = d.features(tc.features)
    d_labels = d.labels()
    c_feats = featurize_batch([r.text_a for r in dstar], [r.text_b for r in dstar],
                              tc.features)
    c_ystars = np.array([r.predicted_label for r in dstar])
    c_targets = np.array([r.correctness for r in dstar])
    a_text_b = [r.text_b for r in daug]
    a_clean = featurize_batch([r.text_a for r in daug], a_text_b, tc.features)
    a_aug = featurize_batch([r.augmented_text for r in daug], a_text_b, tc.features)
    a_ystars = np.array([r.predicted_label for r in daug])

    main_cycle = _batches(len(d), tc.batch_size, np.random.default_rng((tc.seed, 2)))
    calib_cycle = _batches(len(dstar), tc.batch_size, np.random.default_rng((tc.seed, 3)))
    aug_cycle = (_batches(len(daug), tc.batch_size, np.random.default_rng((tc.seed, 4)))
                 if daug else None)

    steps_per_epoch = -(-len(d) // tc.batch_size)
    trace: list[dict] = []
    eps = tc.label_smoothing_epsilon
    for epoch in range(tc.epochs):
        for step in range(steps_per_epoch):
            b = next(main_cycle)
            l_main, g = main_batch_grads(params, d_feats.take(b), d_labels[b], eps)

            b = next(calib_cycle)
            l_calib, gc = calib_batch_grads(
                params, c_feats.take(b), c_ystars[b], c_targets[b], eps, feature_mode)
            g = g.add(gc)

            l_cons = 0.0
            if aug_cycle is not None:
                b = next(aug_cycle)
                l_cons, ga = consistency_batch_grads(
                    params, a_clean.take(b), a_aug.take(b), a_ystars[b], feature_mode)
                g = g.add(ga.scaled(alpha))

            apply_grads(params, g, tc.learning_rate)
            trace.append({
                "step": epoch * steps_per_epoch + step,
                "l_main": l_main,
                "l_calib": l_calib,
                "l_consistency": l_cons,
                "l_total": l_main + l_calib + alpha * l_cons,
            })
    return params, trace


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------

@dataclass
class ToastArtifacts:
    """Everything needed to audit a pipeline run."""

    dstar: list[CalibrationRecord]
    daug: list[AugmentedRecord]
    losses: list[dict]
    meta: dict

    def save(self, out_dir) -> list[Path]:
        """Write the bundle under ``out_dir``; returns the paths written."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "dstar.jsonl", "w", encoding="utf-8") as fh:
            for r in self.dstar:
                obj = {"sample_id": r.sample_id, "text": r.text_a,
                       "predicted_label": r.predicted_label,
                       "correctness": r.correctness}
                if r.text_b is not None:
                    obj["text_pair"] = r.text_b
                fh.write(json.dumps(obj) + "\n")
        with open(out / "daug.jsonl", "w", encoding="utf-8") as fh:
            for a in self.daug:
                obj = {"sample_id": a.sample_id, "text": a.text_a,
                       "augmented_text": a.augmented_text,
                       "predicted_label": a.predicted_label,
                       "transform": a.transform.value}
                if a.text_b is not None:
                    obj["text_pair"] = a.text_b
                fh.write(json.dumps(obj) + "\n")
        with open(out / "losses.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["step", "l_main", "l_calib", "l_consistency", "l_total"])
            writer.writeheader()
            writer.writerows(self.losses)
        with open(out / "meta.json", "w", encoding="utf-8") as fh:
            json.dump(self.meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [out / name for name in ("dstar.jsonl", "daug.jsonl", "losses.csv", "meta.json")]


def run_toast(d: Dataset, cfg: ToastConfig, lexicon: SynonymLexicon
              ) -> tuple[ModelParameters, ToastArtifacts]:
    """Run the three stages, honoring the ablation flags, and return the
    trained model plus the audit bundle."""
    seed = cfg.train.seed
    annotation = cross_annotate(d, cfg)
    raw = list(annotation.records)
    raw_neg = sum(1 for r in raw if r.correctness == 0)

    if cfg.no_downsample:
        dstar = raw
    else:
        dstar = downsample_balance(raw, np.random.default_rng((seed, 5)))

    if cfg.no_augment:
        daug: list[AugmentedRecord] = []
    else:
        daug = build_augment_set(dstar, lexicon, cfg, np.random.default_rng((seed, 6)))

    params, trace = train_multitask(d, dstar, daug, cfg)

    meta = {
        "k": cfg.k,
        "alpha": cfg.alpha,
        "alpha_effective": cfg.effective_alpha,
        "rate": cfg.rate,
        "augment_per_negative": cfg.augment_per_negative,
        "flags": {
            "no_cross_annotation": cfg.no_cross_annotation,
            "no_downsample": cfg.no_downsample,
            "no_augment": cfg.no_augment,
            "no_alpha_decay": cfg.no_alpha_decay,
        },
        "seed": seed,
        "annotator_seeds": [r.seed for r in annotation.rounds],
        "rounds": [
            {"round": r.round_index,
             "train_ids": list(r.train_ids),
             "heldout_ids": list(r.heldout_ids)}
            for r in annotation.rounds
        ],
        "counts": {
            "input": len(d),
            "annotated": len(raw),
            "annotated_negatives": raw_neg,
            "annotated_positives": len(raw) - raw_neg,
            "dstar": len(dstar),
            "daug": len(daug),
        },
    }
    return params, ToastArtifacts(dstar=dstar, daug=daug, losses=trace, meta=meta)
