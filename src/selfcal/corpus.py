"""Data model, JSONL ingestion, deterministic splitting, and a synthetic generator.

Datasets are immutable after construction: every operation here is a pure
function of its inputs and an explicit seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import FeatureMatrix, FeaturizerConfig, _row_positions, featurize_batch

TASK_KINDS = ("single", "pair")


@dataclass(frozen=True)
class Sample:
    """One text record: a single segment or a pair, plus an integer class label."""

    id: str
    text_a: str
    text_b: str | None = None
    label: int = 0

    def __post_init__(self):
        if not self.text_a.split():
            raise ValueError(f"sample {self.id!r}: text_a has no tokens")
        if self.label < 0:
            raise ValueError(f"sample {self.id!r}: negative label {self.label}")


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of samples with named labels."""

    samples: tuple[Sample, ...]
    label_names: tuple[str, ...]
    task_kind: str = "single"
    _features: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        object.__setattr__(self, "label_names", tuple(self.label_names))
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task_kind {self.task_kind!r}")
        if len(self.label_names) < 2:
            raise ValueError("a dataset needs at least 2 label names")
        if len(set(self.label_names)) < len(self.label_names):
            raise ValueError(f"duplicate label names in {list(self.label_names)}")
        seen: set[str] = set()
        for s in self.samples:
            if s.id in seen:
                raise ValueError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)
            if s.label >= len(self.label_names):
                raise ValueError(
                    f"sample {s.id!r}: label {s.label} out of range for "
                    f"{len(self.label_names)} classes"
                )

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def ids(self) -> list[str]:
        return [s.id for s in self.samples]

    def features(self, cfg: FeaturizerConfig) -> FeatureMatrix:
        """The samples' hashed feature matrix under ``cfg``, built on first use
        and kept, read-only, for as long as the dataset lives."""
        m = self._features.get(cfg)
        if m is None:
            m = featurize_batch([s.text_a for s in self.samples],
                                [s.text_b for s in self.samples], cfg)
            self._features[cfg] = m
        return m

    def subset(self, rows) -> "Dataset":
        """New dataset of the samples at ``rows``, in that order, holding those
        rows, read-only, of each feature matrix built here: it hashes no text.
        ``rows`` are resolved as ``FeatureMatrix.take`` resolves them."""
        rows = _row_positions(rows, len(self))
        child = Dataset(tuple(self.samples[i] for i in rows.tolist()),
                        self.label_names, self.task_kind)
        for cfg, m in self._features.items():
            child._features[cfg] = m.take(rows)
        return child


@dataclass(frozen=True, eq=False)
class Annotations:
    """Rows of an annotated dataset, each with a model's predicted label and
    whether it was right. ``data`` is the dataset that was annotated, not a
    copy, and ``rows`` are int64 positions into it, so the annotations take
    their feature rows from ``data``'s matrices."""

    data: Dataset
    rows: np.ndarray
    predicted: np.ndarray
    correct: np.ndarray

    def __post_init__(self):
        for name in ("rows", "predicted", "correct"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if not len(self.rows) == len(self.predicted) == len(self.correct):
            raise ValueError(f"annotations not aligned: {len(self.rows)} rows, "
                             f"{len(self.predicted)} predictions, {len(self.correct)} correctness")
        if np.any((self.rows < 0) | (self.rows >= len(self.data))):
            raise ValueError(f"annotated rows must be in [0, {len(self.data)})")
        if np.any((self.correct != 0) & (self.correct != 1)):
            raise ValueError("correctness must be 0 or 1")
        if np.any((self.predicted < 0) | (self.predicted >= self.data.num_classes)):
            raise ValueError(f"predicted labels must be in [0, {self.data.num_classes})")

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, rows) -> "Annotations":
        """The annotations at ``rows``, in that order, over the same ``data``.
        ``rows`` are resolved as ``FeatureMatrix.take`` resolves them."""
        rows = _row_positions(rows, len(self))
        return Annotations(self.data, self.rows[rows], self.predicted[rows], self.correct[rows])


@dataclass(frozen=True)
class CalibrationRecord:
    """One annotated row, as the audit bundle writes it."""

    sample_id: str
    text_a: str
    text_b: str | None
    predicted_label: int
    correctness: int


# ---------------------------------------------------------------------------
# JSONL ingestion
# ---------------------------------------------------------------------------

def load_dataset(path, task_kind: str = "single") -> Dataset:
    """Load a JSONL dataset: one ``{"text": ..., "label": ...}`` object per line.

    Pair tasks carry a ``text_pair`` key. An optional first line holding
    ``label_names`` (and optionally ``task_kind``) fixes the label set; without
    it labels are indexed in first-seen order. Objects may carry an ``id``;
    otherwise line numbers are used.
    """
    path = Path(path)
    if task_kind not in TASK_KINDS:
        raise ValueError(f"unknown task_kind {task_kind!r}")

    label_names: list[str] | None = None
    fixed_labels = False
    samples: list[Sample] = []
    ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, "
                                 f"got {type(obj).__name__}")
            if lineno == 1 and "label_names" in obj:
                if not isinstance(obj["label_names"], list):
                    raise ValueError(f"{path}:{lineno}: label_names must be a list, "
                                     f"got {type(obj['label_names']).__name__}")
                label_names = [str(n) for n in obj["label_names"]]
                fixed_labels = True
                task_kind = obj.get("task_kind", task_kind)
                try:  # the header alone must make a valid (empty) dataset
                    Dataset((), label_names, task_kind)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                continue
            if "text" not in obj or "label" not in obj:
                raise ValueError(f"{path}:{lineno}: missing 'text' or 'label' key")
            raw_label = str(obj["label"])
            if label_names is None:
                label_names = []
            if raw_label not in label_names:
                if fixed_labels:
                    raise ValueError(
                        f"{path}:{lineno}: unknown label {raw_label!r} "
                        f"(label_names fixed to {label_names})"
                    )
                label_names.append(raw_label)
            text_b = obj.get("text_pair")
            if task_kind == "pair" and text_b is None:
                raise ValueError(f"{path}:{lineno}: pair task but no 'text_pair' key")
            sample_id = str(obj.get("id", lineno))
            if sample_id in ids:
                raise ValueError(f"{path}:{lineno}: duplicate sample id {sample_id!r}")
            ids.add(sample_id)
            try:
                samples.append(Sample(
                    id=sample_id,
                    text_a=str(obj["text"]),
                    text_b=None if text_b is None else str(text_b),
                    label=label_names.index(raw_label),
                ))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not samples:
        raise ValueError(f"{path}: no samples")
    if label_names is None or len(label_names) < 2:
        raise ValueError(f"{path}: fewer than 2 distinct labels")
    return Dataset(tuple(samples), tuple(label_names), task_kind)


def save_dataset(d: Dataset, path, origins=None) -> None:
    """Write ``d`` as JSONL with a header line, so load_dataset round-trips it.
    ``origins``, one sample id per sample, adds an ``origin_id`` key per
    record: the sample an adversarial one was made from."""
    if origins is not None and len(origins) != len(d):
        raise ValueError("origins not aligned with adversarial samples")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"label_names": list(d.label_names), "task_kind": d.task_kind}) + "\n")
        for i, s in enumerate(d.samples):
            obj = {"id": s.id, "text": s.text_a, "label": d.label_names[s.label]}
            if origins is not None:
                obj["origin_id"] = origins[i]
            if s.text_b is not None:
                obj["text_pair"] = s.text_b
            fh.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def split_folds(d: Dataset, k: int, seed: int) -> list[np.ndarray]:
    """Split the rows of ``d`` into ``k`` disjoint, label-stratified folds:
    sorted int64 arrays of row positions, which ``d.subset`` takes.

    Fold sizes differ by at most one, both overall and per class. The split is
    a pure function of (dataset order, k, seed).
    """
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    if k > len(d):
        raise ValueError(f"cannot split {len(d)} samples into {k} folds")

    rng = np.random.default_rng(seed)
    labels = d.labels()
    # Deal the shuffled rows class by class round the folds, so remainders rotate
    # across folds instead of piling up on fold 0; folds keep dataset order.
    dealt = np.concatenate([rng.permutation(np.flatnonzero(labels == cls))
                            for cls in range(d.num_classes)], dtype=np.int64)
    return [np.sort(dealt[f::k]) for f in range(k)]


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the seeded synthetic generator.

    A ``hardness_fraction`` of samples are generated "hard": their
    class-indicative tokens are diluted to a single one and their label is
    flipped with probability ``hard_flip_prob``. Hard samples are what give a
    trained model something to be wrong about, i.e. a calibration signal.
    """

    num_classes: int = 2
    vocab_size: int = 400
    samples_per_class: int = 300
    hardness_fraction: float = 0.3
    hard_flip_prob: float = 0.5
    seed: int = 0
    tokens_per_sample: int = 12
    indicative_per_class: int = 20
    test_samples_per_class: int | None = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        for name in ("vocab_size", "samples_per_class", "indicative_per_class"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # An easy sample holds at least two class-indicative tokens.
        if self.tokens_per_sample < 2:
            raise ValueError("tokens_per_sample must be >= 2")
        if self.test_samples_per_class is not None and self.test_samples_per_class < 1:
            raise ValueError("test_samples_per_class must be None or >= 1")
        for name in ("hardness_fraction", "hard_flip_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.num_classes * self.indicative_per_class >= self.vocab_size:
            raise ValueError("vocab_size too small for the indicative token blocks")


@dataclass(frozen=True)
class SyntheticData:
    """Generator output: train/test splits plus the per-sample hardness flags."""

    train: Dataset
    test: Dataset
    train_hard: tuple[bool, ...]
    test_hard: tuple[bool, ...]


def vocabulary(cfg: SynthConfig) -> list[str]:
    """The generator's token inventory; class ``c`` owns the c-th leading block."""
    return [f"w{i:04d}" for i in range(cfg.vocab_size)]


def class_tokens(cfg: SynthConfig, cls: int) -> list[str]:
    vocab = vocabulary(cfg)
    lo = cls * cfg.indicative_per_class
    return vocab[lo:lo + cfg.indicative_per_class]


def noise_tokens(cfg: SynthConfig) -> list[str]:
    return vocabulary(cfg)[cfg.num_classes * cfg.indicative_per_class:]


def _make_split(cfg: SynthConfig, per_class: int, rng, prefix: str):
    noise = noise_tokens(cfg)
    samples: list[Sample] = []
    hard_flags: list[bool] = []
    counter = 0
    for cls in range(cfg.num_classes):
        indic = class_tokens(cfg, cls)
        for _ in range(per_class):
            hard = bool(rng.random() < cfg.hardness_fraction)
            n = cfg.tokens_per_sample
            if hard:
                n_indic = 1
            else:
                n_indic = max(2, n // 2)
            toks = [indic[int(i)] for i in rng.integers(0, len(indic), size=n_indic)]
            toks += [noise[int(i)] for i in rng.integers(0, len(noise), size=n - n_indic)]
            rng.shuffle(toks)
            label = cls
            if hard and rng.random() < cfg.hard_flip_prob:
                others = [c for c in range(cfg.num_classes) if c != cls]
                label = int(others[int(rng.integers(0, len(others)))])
            samples.append(Sample(id=f"{prefix}{counter:05d}", text_a=" ".join(toks), label=label))
            hard_flags.append(hard)
            counter += 1
    # Interleave classes so prefixes of the split stay roughly balanced.
    order = rng.permutation(len(samples))
    samples = [samples[int(i)] for i in order]
    hard_flags = [hard_flags[int(i)] for i in order]
    return samples, hard_flags


def generate_synthetic(cfg: SynthConfig) -> SyntheticData:
    """Generate a (train, test) pair of datasets; a pure function of ``cfg``."""
    label_names = tuple(f"class_{c}" for c in range(cfg.num_classes))
    test_per_class = cfg.test_samples_per_class
    if test_per_class is None:
        test_per_class = max(1, cfg.samples_per_class // 2)

    train_rng = np.random.default_rng((cfg.seed, 1))
    test_rng = np.random.default_rng((cfg.seed, 2))
    train_samples, train_hard = _make_split(cfg, cfg.samples_per_class, train_rng, "tr")
    test_samples, test_hard = _make_split(cfg, test_per_class, test_rng, "te")
    return SyntheticData(
        train=Dataset(tuple(train_samples), label_names, "single"),
        test=Dataset(tuple(test_samples), label_names, "single"),
        train_hard=tuple(train_hard),
        test_hard=tuple(test_hard),
    )


def save_hardness(d: Dataset, hard: tuple[bool, ...], path) -> None:
    """Sidecar JSONL of per-sample hardness flags, aligned by id."""
    if len(hard) != len(d):
        raise ValueError("hardness flags not aligned with dataset")
    with open(path, "w", encoding="utf-8") as fh:
        for s, h in zip(d.samples, hard):
            fh.write(json.dumps({"id": s.id, "hard": bool(h)}) + "\n")


def load_hardness(path) -> dict[str, bool]:
    flags: dict[str, bool] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                obj = json.loads(line)
                flags[str(obj["id"])] = bool(obj["hard"])
    return flags
