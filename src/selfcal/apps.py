"""Downstream evaluations of confidence scores: selective classification,
adversarial-sample detection, model cascading, and the pilot sweeps that
quantify what drives the self-calibration task (calibration-set size, class
imbalance, input features, and the number of annotation folds).

All evaluators are deterministic given (calibrator, datasets, seed) and return
plain dicts ready for JSON/CSV serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .augment import SynonymLexicon
from .calibrators import Calibrator
from .corpus import Annotations, Dataset
from .metrics import (
    DEFAULT_THRESHOLD_GRID,
    accuracy_coverage_curve,
    auroc,
    auroc_risk,
    cascade_curve,
    coverage_at_risk,
    delta_conf,
    detection_f1,
    log_auroc_dconf,
    risk_coverage,
)
from .model import FEATURE_MODES, ModelParameters, train_main
from .toast import ToastConfig, annotate_with_model, downsample_balance, run_toast, train_multitask

# The downstream applications, in the order runs evaluate and report them:
# the report keys that metrics.json keeps, and each curve CSV as
# (file stem, report key, columns).
APPLICATIONS = {
    "selective": (
        ("auroc_risk", "coverage_at_risk"),
        (("selective_risk_coverage", "risk_coverage", ("threshold", "coverage", "risk")),
         ("selective_accuracy_coverage", "accuracy_coverage",
          ("threshold", "coverage", "accuracy")))),
    "adversarial": (
        ("auroc", "delta_conf", "n_id", "n_adv"),
        (("adversarial_f1", "detection_f1", ("threshold", "macro_f1")),)),
    "cascade": (
        ("area", "small_accuracy", "large_accuracy"),
        (("cascade", "curve", ("threshold", "accuracy", "routed_fraction")),)),
}


# ---------------------------------------------------------------------------
# Selective classification
# ---------------------------------------------------------------------------

def selective_eval(calibrator: Calibrator, d: Dataset, targets) -> dict:
    """Risk-coverage behaviour of one calibrator on one dataset.

    Reports the area-style risk score, the best coverage at each target
    accuracy, and the full curves. The risk score is None when the log is
    degenerate (no correct or no wrong predictions to rank).
    """
    log = calibrator.build_log(d, group="id")
    try:
        risk_score = auroc_risk(log)
    except ValueError:
        risk_score = None
    return {
        "method": calibrator.method,
        "auroc_risk": risk_score,
        "coverage_at_risk": {f"{t:g}": coverage_at_risk(log, float(t)) for t in targets},
        "risk_coverage": risk_coverage(log),
        "accuracy_coverage": accuracy_coverage_curve(log),
        "log": log,
    }


# ---------------------------------------------------------------------------
# Adversarial-sample detection
# ---------------------------------------------------------------------------

def adversarial_eval(calibrator: Calibrator, id_samples: Dataset,
                     adv_samples: Dataset, max_id: int = 1000,
                     seed: int = 0) -> dict:
    """Score a mix of in-distribution and adversarial samples.

    At most ``max_id`` ID samples are drawn (seed-deterministic, without
    replacement) and compared against all adversarial samples: AUROC and the
    confidence gap of ID over adversarial, plus macro-F1 of the rule "flag
    confidence < t as adversarial" over the 0.01 threshold grid.
    """
    if len(adv_samples) == 0:
        raise ValueError("empty adversarial set")
    if len(id_samples) > max_id:
        rng = np.random.default_rng((seed, 7))
        picked = np.sort(rng.choice(len(id_samples), size=max_id, replace=False))
        id_samples = id_samples.subset(picked)
    id_scores = calibrator.build_log(id_samples, "id").confidence
    adv_scores = calibrator.build_log(adv_samples, "adv").confidence
    return {
        "method": calibrator.method,
        "auroc": auroc(id_scores, adv_scores),
        "delta_conf": delta_conf(id_scores, adv_scores),
        "detection_f1": list(zip(
            DEFAULT_THRESHOLD_GRID.tolist(),
            detection_f1(id_scores, adv_scores, DEFAULT_THRESHOLD_GRID).tolist())),
        "id_scores": id_scores,
        "adv_scores": adv_scores,
        "n_id": len(id_samples),
        "n_adv": len(adv_samples),
    }


# ---------------------------------------------------------------------------
# Model cascading
# ---------------------------------------------------------------------------

def cascade_eval(small: Calibrator, large_params: ModelParameters, d: Dataset) -> dict:
    """Accuracy of routing low-confidence samples from the small model to the
    large one, swept over the 0.01 threshold grid, plus the area score.
    ``curve`` holds (threshold, accuracy, routed fraction) rows."""
    small_log = small.build_log(d, group="id")
    large_pred = large_params.scorer().predict(d.features(large_params.features))[0]
    large_correct = (large_pred == d.labels()).astype(np.int64)
    curve, area = cascade_curve(small_log, large_correct)
    return {
        "method": small.method,
        "area": area,
        "curve": curve,
        "small_accuracy": float(small_log.correct.mean()),
        "large_accuracy": float(large_correct.mean()),
    }


# ---------------------------------------------------------------------------
# Pilot sweeps
# ---------------------------------------------------------------------------

SWEEP_KINDS = ("size", "imbalance", "features", "k")


@dataclass(frozen=True)
class PilotSweepConfig:
    """The pilot sweeps: ``toast``, the pipeline that every grid point runs
    with one setting changed, the sweep seeds, and the grids. A ``k`` point
    runs the whole pipeline with its own ``k``; a point of another kind takes
    its calibration rows from the pool that ``toast``'s annotator config
    labels, and trains stage 3 on them without augmentation."""

    toast: ToastConfig
    seeds: tuple[int, ...] = (0, 1, 2)
    sizes: tuple[int, ...] = (30, 120, 480)
    ratios: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    fixed_factors: tuple[int, ...] = (1, 2, 4, 8)
    ks: tuple[int, ...] = (2, 3, 4, 5)

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds is empty: a sweep needs at least one seed")
        for name, least in (("sizes", 1), ("fixed_factors", 1), ("ks", 2)):
            if any(v < least for v in getattr(self, name)):
                raise ValueError(f"{name} must be >= {least}")
        if not all(0.0 < r < 1.0 for r in self.ratios):
            raise ValueError("ratios must be in (0, 1)")
        for name in ("seeds", "sizes", "ratios", "fixed_factors", "ks"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f"{name} repeats an entry")


def _seeded(cfg: PilotSweepConfig, seed: int) -> ToastConfig:
    """The pipeline of sweep seed ``seed``: stage 3 and the annotators each
    seeded ``seed`` past ``cfg.toast``'s."""
    t = cfg.toast
    return replace(t, train=replace(t.train, seed=t.train.seed + seed),
                   annotator_train=replace(t.annotator_config, seed=t.annotator_config.seed + seed))


def _head_scores(params: ModelParameters, test: Dataset) -> tuple[float | None, float | None]:
    """AUROC and confidence gap of the model's correctness head on the test
    split. A seed's model is passed straight from its training call, so it is
    freed on return, before the next seed's model trains."""
    return log_auroc_dconf(Calibrator("toast", params).build_log(test, "id"))


def _row(point: dict, per_seed, reason: str) -> dict:
    """The sweep row of ``point``: the mean and std over the seeds whose
    results are not None, or, when there is none, None values and ``reason``
    under ``skipped``."""
    aurocs = [a for a, _ in per_seed if a is not None]
    dconfs = [c for _, c in per_seed if c is not None]
    row = {**point, "n_seeds": len(aurocs), "skipped": "" if aurocs else reason}
    for name, values in (("auroc", aurocs), ("dconf", dconfs)):
        row[f"{name}_mean"] = float(np.mean(values)) if aurocs else None
        row[f"{name}_std"] = float(np.std(values)) if aurocs else None
    return row


def seed_annotations(train: Dataset, pool: Dataset, cfg: PilotSweepConfig
                     ) -> dict[int, Annotations]:
    """One annotation of the pool per sweep seed (the expensive shared step;
    every grid point takes its rows). Each annotator is freed once it has
    annotated, so one encoder is in memory at a time."""
    return {seed: annotate_with_model(
                train_main(train, _seeded(cfg, seed).annotator_config)[0], pool)
            for seed in cfg.seeds}


def grid_points(kind: str, cfg: PilotSweepConfig) -> list[dict]:
    """The canonical, ordered grid for one sweep kind. Each point is a spec
    dict with a stable ``point_id``."""
    if kind == "size":
        return [{"kind": "size", "point_id": f"size={n}", "size": n}
                for n in sorted(cfg.sizes)]
    if kind == "imbalance":
        points = [{"kind": "imbalance", "point_id": f"ratio={r:g}",
                   "mode": "ratio", "ratio": r} for r in sorted(cfg.ratios)]
        for mode in ("fixed_negative", "fixed_positive"):
            points += [{"kind": "imbalance", "point_id": f"{mode}_x{f}",
                        "mode": mode, "factor": f} for f in sorted(cfg.fixed_factors)]
        return points
    if kind == "features":
        return [{"kind": "features", "point_id": f"features={m}", "feature_mode": m}
                for m in FEATURE_MODES]
    if kind == "k":
        return [{"kind": "k", "point_id": f"k={k}", "k": k} for k in sorted(cfg.ks)]
    raise ValueError(f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}")


def evaluate_point(point: dict, train: Dataset, test: Dataset,
                   cfg: PilotSweepConfig, annotations, lexicon=None) -> dict:
    """Run one grid point across all seeds and aggregate. Seeds for which the
    point is infeasible are dropped; a point infeasible everywhere comes back
    as a skipped row with the reason."""
    kind = point["kind"]
    per_seed: list[tuple[float | None, float | None]] = []
    reasons: list[str] = []
    for seed in cfg.seeds:
        seeded = _seeded(cfg, seed)
        if kind == "k":
            per_seed.append(_head_scores(
                run_toast(train, replace(seeded, k=point["k"]), lexicon)[0], test))
            continue
        annotated = annotations[seed]
        mode = "all"
        if kind == "size":
            n = point["size"]
            if n > len(annotated):
                reasons.append(f"seed {seed}: pool has {len(annotated)} < {n} records")
                continue
            rows = np.random.default_rng((seeded.train.seed, 8)).permutation(len(annotated))[:n]
        elif kind == "features":
            mode = point["feature_mode"]
            rows = downsample_balance(
                annotated.correct, np.random.default_rng((seeded.train.seed, 10)))
        else:  # imbalance
            rng = np.random.default_rng((seeded.train.seed, 9))
            neg, pos = (rng.permutation(np.flatnonzero(annotated.correct == c)) for c in (0, 1))
            if point["mode"] == "ratio":
                max_side = max(max(cfg.ratios), 1.0 - min(cfg.ratios))
                total = int(min(len(neg), len(pos)) / max_side)
                n_neg = round(point["ratio"] * total)
                n_pos = total - n_neg
                if n_neg < 1 or n_pos < 1 or n_neg > len(neg) or n_pos > len(pos):
                    reasons.append(
                        f"seed {seed}: cannot draw {n_neg}/{n_pos} from "
                        f"{len(neg)} negatives / {len(pos)} positives")
                    continue
                rows = np.concatenate([neg[:n_neg], pos[:n_pos]])
            else:
                # `base` rows of the fixed class against factor x base of
                # the other one.
                factor = point["factor"]
                fixed, other = (neg, pos) if point["mode"] == "fixed_negative" else (pos, neg)
                base = min(len(fixed), len(other) // max(cfg.fixed_factors))
                if base < 1 or base * factor > len(other):
                    reasons.append(
                        f"seed {seed}: class too small for factor {factor} "
                        f"({len(neg)} negatives / {len(pos)} positives)")
                    continue
                rows = np.concatenate([fixed[:base], other[:base * factor]])
        # Stage 3 on the point's rows alone, with no augmented pairs.
        per_seed.append(_head_scores(
            train_multitask(train, annotated.take(rows), None, seeded, mode)[0], test))

    if per_seed:
        return _row(point, per_seed, "degenerate evaluation (single correctness class)")
    return _row(point, per_seed, "; ".join(reasons) or "infeasible")


def pilot_sweeps(train: Dataset, pool: Dataset, test: Dataset, kind: str,
                 cfg: PilotSweepConfig, lexicon: SynonymLexicon | None = None
                 ) -> list[dict]:
    """Run one sweep kind over its canonical grid.

    Rows carry per-point mean/std over the seeds plus a ``skipped`` reason for
    infeasible points.
    """
    points = grid_points(kind, cfg)
    if kind == "k" and lexicon is None and not cfg.toast.no_augment:
        raise ValueError("the k sweep needs a synonym lexicon unless toast.no_augment is set")
    annotations = None if kind == "k" else seed_annotations(train, pool, cfg)
    return [evaluate_point(p, train, test, cfg, annotations, lexicon) for p in points]
