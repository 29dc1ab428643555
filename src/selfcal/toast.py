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
from .corpus import Annotations, CalibrationRecord, Dataset, split_folds
from .model import (
    ModelParameters,
    TrainConfig,
    apply_grads,
    calib_batch_grads,
    consistency_batch_grads,
    featurize_batch,
    init_parameters,
    main_batch_grads,
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


@dataclass(frozen=True, eq=False)
class AugmentSet:
    """Transformed copies of wrong-prediction rows: positions into the
    calibration set, each row's augmented first segment, and its transform."""

    rows: np.ndarray
    texts: list[str]
    kinds: list[TransformKind]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class AnnotationRound:
    round_index: int
    seed: int
    train_ids: tuple[str, ...]
    heldout_ids: tuple[str, ...]


@dataclass(frozen=True)
class CrossAnnotation:
    annotations: Annotations
    rounds: tuple[AnnotationRound, ...]


def annotate_with_model(params: ModelParameters, d: Dataset) -> Annotations:
    """Every row of ``d`` with the model's prediction and whether it was right,
    through the model's ``Scorer`` (which freezes ``params``)."""
    preds = params.scorer().predict(d.features(params.features))[0]
    return Annotations(d, preds, preds == d.labels())


def cross_annotate(d: Dataset, cfg: ToastConfig) -> CrossAnnotation:
    """K rounds of leave-one-fold-out annotation; under ``no_cross_annotation``
    (the ablation) only round 0 of a ten-fold split, so the calibration set is
    a tenth of the training data.

    The annotations are the held-out rows in round order: none was annotated
    by a model that saw it in training, and without the ablation each input
    row is annotated once. Round ``i`` trains with seed ``annotator seed + i``.
    Only the predictions outlive a round, so one annotator encoder is in
    memory at a time.
    """
    ablated = cfg.no_cross_annotation
    folds = split_folds(d, 10 if ablated else cfg.k, cfg.train.seed)
    base = cfg.annotator_config
    d.features(base.features)  # hashed once; every fold takes its rows
    done, rounds = [], []
    for i in range(1 if ablated else len(folds)):
        # The other folds in fold order, which train_main's shuffle depends on.
        train_part = d.subset(np.concatenate(folds[:i] + folds[i + 1:]))
        heldout = d.subset(folds[i])
        round_cfg = replace(base, seed=base.seed + i)
        # The annotator is a temporary: it is freed once it has annotated,
        # before the next round initialises its own encoder.
        done.append(annotate_with_model(train_main(train_part, round_cfg)[0], heldout))
        rounds.append(AnnotationRound(
            round_index=i, seed=round_cfg.seed,
            train_ids=tuple(train_part.ids()), heldout_ids=tuple(heldout.ids())))
    held = d.subset(np.concatenate(folds[:len(done)]))  # the held-out rows, in round order
    predicted = np.concatenate([a.predicted for a in done])
    return CrossAnnotation(Annotations(held, predicted, predicted == held.labels()), tuple(rounds))


def downsample_balance(correct, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions that keep every row of the minority correctness class
    and as many rows of the majority, chosen uniformly without replacement."""
    correct = np.asarray(correct)
    if not len(correct):
        raise ValueError("no calibration records")
    neg, pos = np.flatnonzero(correct == 0), np.flatnonzero(correct == 1)
    if not len(neg) or not len(pos):
        raise ValueError(
            "calibration classes degenerate; annotator is perfectly right or wrong")
    minority, majority = (neg, pos) if len(neg) <= len(pos) else (pos, neg)
    chosen = rng.choice(len(majority), size=len(minority), replace=False)
    return np.sort(np.concatenate([minority, majority[chosen]]))


def build_augment_set(dstar: Annotations, lexicon: SynonymLexicon, cfg: ToastConfig,
                      rng: np.random.Generator) -> AugmentSet:
    """``augment_per_negative`` transformed variants of each wrong-prediction
    row of ``dstar``, in row order. Pair tasks transform the first segment
    and carry the second through unchanged."""
    rows, texts, kinds = [], [], []
    for i in np.flatnonzero(dstar.correct == 0).tolist():
        for _ in range(cfg.augment_per_negative):
            kind, text = random_transform(dstar.data.samples[i].text_a, cfg.rate, lexicon, rng)
            rows.append(i)
            texts.append(text)
            kinds.append(kind)
    return AugmentSet(np.array(rows, dtype=np.int64), texts, kinds)


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


def train_multitask(d: Dataset, dstar: Annotations, daug: AugmentSet | None,
                    cfg: ToastConfig, feature_mode: str = "all"
                    ) -> tuple[ModelParameters, list[dict]]:
    """Train a fresh model on the joint objective for ``cfg.train.epochs``.

    Every step draws one batch from each of the task data, the calibration
    rows, and (if present) the augmented pairs; smaller collections cycle.
    Both take rows of ``dstar``'s feature matrix; only the augmented texts
    are hashed here. The returned trace has one row per step with the three
    component losses and their weighted total.
    """
    if len(d) == 0:
        raise ValueError("empty task dataset")
    if not len(dstar):
        raise ValueError("empty calibration set")

    tc = cfg.train
    params = init_parameters(d.num_classes, tc)
    alpha = cfg.effective_alpha

    d_feats = d.features(tc.features)
    d_labels = d.labels()
    c_feats = dstar.data.features(tc.features)
    main_cycle = _batches(len(d), tc.batch_size, np.random.default_rng((tc.seed, 2)))
    calib_cycle = _batches(len(dstar), tc.batch_size, np.random.default_rng((tc.seed, 3)))
    aug_cycle = None
    if daug and not cfg.no_augment:
        # A take, not a subset: a row repeats under augment_per_negative > 1.
        a_clean = c_feats.take(daug.rows)
        a_aug = featurize_batch(daug.texts, [dstar.data.samples[i].text_b for i in daug.rows],
                                tc.features)
        a_ystars = dstar.predicted[daug.rows]
        aug_cycle = _batches(len(daug), tc.batch_size, np.random.default_rng((tc.seed, 4)))

    steps_per_epoch = -(-len(d) // tc.batch_size)
    trace: list[dict] = []
    eps = tc.label_smoothing_epsilon
    for epoch in range(tc.epochs):
        for step in range(steps_per_epoch):
            b = next(main_cycle)
            l_main, g = main_batch_grads(params, d_feats.take(b), d_labels[b], eps)

            b = next(calib_cycle)
            l_calib, gc = calib_batch_grads(
                params, c_feats.take(b), dstar.predicted[b], dstar.correct[b], eps, feature_mode)
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
    daug: AugmentSet | None
    losses: list[dict]
    meta: dict

    def save(self, out_dir) -> list[Path]:
        """Write the bundle under ``out_dir``; returns the paths written."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # A line holds a record's id and text, its fields, then a pair's second text.
        aug = zip(self.daug.rows.tolist(), self.daug.texts, self.daug.kinds) if self.daug else ()
        for name, rows in (
                ("dstar.jsonl", [(r, {"predicted_label": r.predicted_label,
                                      "correctness": r.correctness}) for r in self.dstar]),
                ("daug.jsonl", [(self.dstar[i], {"augmented_text": text,
                                                 "predicted_label": self.dstar[i].predicted_label,
                                                 "transform": kind.value})
                                for i, text, kind in aug])):
            with open(out / name, "w", encoding="utf-8") as fh:
                for r, fields in rows:
                    obj = {"sample_id": r.sample_id, "text": r.text_a, **fields}
                    if r.text_b is not None:
                        obj["text_pair"] = r.text_b
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
    d.features(cfg.train.features)  # before any subset, so dstar carries stage 3's rows
    annotation = cross_annotate(d, cfg)
    raw = annotation.annotations
    raw_neg = int(np.count_nonzero(raw.correct == 0))

    dstar = raw if cfg.no_downsample else raw.take(
        downsample_balance(raw.correct, np.random.default_rng((seed, 5))))
    daug = None if cfg.no_augment else build_augment_set(
        dstar, lexicon, cfg, np.random.default_rng((seed, 6)))

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
            "daug": len(daug) if daug else 0,
        },
    }
    records = [CalibrationRecord(s.id, s.text_a, s.text_b, y, c) for s, y, c in
               zip(dstar.data.samples, dstar.predicted.tolist(), dstar.correct.tolist())]
    return params, ToastArtifacts(dstar=records, daug=daug, losses=trace, meta=meta)
