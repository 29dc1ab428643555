"""selfcal: train a text classifier that scores its own predictions.

The package splits into data handling (:mod:`selfcal.corpus`), the hashed
linear two-head model (:mod:`selfcal.model`), textual transforms and attacks
(:mod:`selfcal.augment`), the three-stage self-calibration pipeline
(:mod:`selfcal.toast`), scoring methods (:mod:`selfcal.calibrators`),
evaluation metrics (:mod:`selfcal.metrics`), and the downstream applications
and pilot sweeps (:mod:`selfcal.apps`). ``selfcal.cli`` wires it all behind a
config-driven command line.
"""

from .augment import SynonymLexicon, TransformKind, apply_transform, greedy_attack, random_transform
from .calibrators import Calibrator, ConfidenceLog, fit_temperature
from .corpus import (
    Annotations,
    CalibrationRecord,
    Dataset,
    Sample,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_folds,
)
from .metrics import auroc, auroc_risk, cascade_curve, coverage_at_risk, delta_conf, detection_f1, risk_coverage
from .model import (
    FeatureMatrix,
    FeaturizerConfig,
    ModelParameters,
    TrainConfig,
    featurize_batch,
    train_main,
)
from .toast import (
    AugmentSet,
    ToastConfig,
    build_augment_set,
    cross_annotate,
    downsample_balance,
    run_toast,
    train_multitask,
)

__version__ = "0.1.0"

__all__ = [
    "Annotations",
    "AugmentSet",
    "CalibrationRecord",
    "Calibrator",
    "ConfidenceLog",
    "Dataset",
    "FeatureMatrix",
    "FeaturizerConfig",
    "ModelParameters",
    "Sample",
    "SynonymLexicon",
    "SynthConfig",
    "ToastConfig",
    "TrainConfig",
    "TransformKind",
    "apply_transform",
    "auroc",
    "auroc_risk",
    "build_augment_set",
    "cascade_curve",
    "coverage_at_risk",
    "cross_annotate",
    "delta_conf",
    "detection_f1",
    "downsample_balance",
    "featurize_batch",
    "fit_temperature",
    "generate_synthetic",
    "greedy_attack",
    "load_dataset",
    "random_transform",
    "risk_coverage",
    "run_toast",
    "save_dataset",
    "split_folds",
    "train_main",
    "train_multitask",
]
