"""Deterministic desk-scale classifier with a built-in correctness head.

A hashed bag-of-n-grams featurizer feeds a shared linear encoder with two
heads: a main head over the task classes and a binary head that predicts
whether the main prediction is right, given the sample features and the
predicted label (as a one-hot block appended to the encoder output).

Everything is numpy + plain SGD; training is a pure function of
(dataset order, TrainConfig).
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from zlib import crc32

import numpy as np

LOG_FLOOR = 1e-12

# Calibration-head input masks: "no_sample" zeroes the encoder block,
# "no_prediction" zeroes the predicted-label one-hot block.
FEATURE_MODES = ("all", "no_prediction", "no_sample")

_SEGMENT_B_MARK = "\x02"


@dataclass(frozen=True)
class FeaturizerConfig:
    lowercase: bool = True
    ngram_max: int = 2
    hash_dim: int = 2 ** 18
    segment_tagging: bool = True

    def __post_init__(self):
        if self.ngram_max < 1:
            raise ValueError("ngram_max must be >= 1")
        if self.hash_dim < 2 or self.hash_dim & (self.hash_dim - 1):
            raise ValueError(f"hash_dim must be a power of two, got {self.hash_dim}")


def _tokens(text: str, lowercase: bool) -> list[str]:
    return text.lower().split() if lowercase else text.split()


def _ngram_keys(tokens: list[str], ngram_max: int) -> list[str]:
    keys = list(tokens)
    for n in range(2, ngram_max + 1):
        keys += map(" ".join, zip(*(tokens[i:] for i in range(n))))
    return keys


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Hashed counts of a batch of texts in CSR form.

    Row ``i`` holds the sorted unique bucket indices
    ``indices[indptr[i]:indptr[i + 1]]`` and their counts in ``values``.
    Buckets fit in uint32 and integer counts are exact in float32. The arrays
    are read-only, so one matrix can be shared by every scorer of a dataset.
    """

    indptr: np.ndarray     # int64, rows + 1
    indices: np.ndarray    # uint32
    values: np.ndarray     # float32
    dim: int

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows) -> "FeatureMatrix":
        """The rows at positions ``rows``, in that order, as a new matrix."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # Source position of every output nonzero: its row's start plus its
        # offset within the row.
        src = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return FeatureMatrix(indptr, self.indices[src], self.values[src], self.dim)


def featurize_batch(texts_a, texts_b=None,
                    cfg: FeaturizerConfig = FeaturizerConfig()) -> FeatureMatrix:
    """Hash unigrams..ngram_max of each text (pair) into ``cfg.hash_dim``
    count buckets, one matrix row per text.

    Deterministic (crc32-based, unsalted). When a ``texts_b`` entry is present
    and segment tagging is on, its tokens carry a marker so "x" in segment a
    and "x" in segment b land in different buckets.
    """
    mask = cfg.hash_dim - 1
    indptr, indices, counts = array("q", [0]), array("I"), array("I")
    pairs = (zip(texts_a, repeat(None)) if texts_b is None
             else zip(texts_a, texts_b, strict=True))
    for text_a, text_b in pairs:
        toks = _tokens(text_a, cfg.lowercase)
        if not toks:
            raise ValueError("text_a has no tokens")
        keys = _ngram_keys(toks, cfg.ngram_max)
        if text_b is not None:
            toks_b = _tokens(text_b, cfg.lowercase)
            if cfg.segment_tagging:
                toks_b = [_SEGMENT_B_MARK + t for t in toks_b]
            keys += _ngram_keys(toks_b, cfg.ngram_max)
        row = Counter(map(mask.__and__, map(crc32, map(str.encode, keys))))
        buckets = sorted(row)
        indices.fromlist(buckets)
        counts.extend(map(row.__getitem__, buckets))
        indptr.append(len(indices))
    values = np.frombuffer(counts, dtype=np.uint32).astype(np.float32)
    values.setflags(write=False)
    # Arrays over immutable bytes are read-only.
    return FeatureMatrix(np.frombuffer(indptr.tobytes(), dtype=np.int64),
                         np.frombuffer(indices.tobytes(), dtype=np.uint32),
                         values, cfg.hash_dim)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 5
    batch_size: int = 32
    seed: int = 0
    label_smoothing_epsilon: float = 0.0
    hidden_dim: int = 64
    features: FeaturizerConfig = field(default_factory=FeaturizerConfig)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.label_smoothing_epsilon < 1.0:
            raise ValueError("label_smoothing_epsilon must be in [0, 1)")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")


@dataclass
class ModelParameters:
    """Shared encoder plus the two heads. Mutated in place during training."""

    encoder: np.ndarray        # hash_dim x H
    w_main: np.ndarray         # H x C
    b_main: np.ndarray         # C
    w_calib: np.ndarray        # (H + C) x 2
    b_calib: np.ndarray        # 2
    features: FeaturizerConfig
    num_classes: int
    hidden_dim: int
    seed: int | None = None

    def validate(self):
        h, c = self.hidden_dim, self.num_classes
        if self.encoder.shape != (self.features.hash_dim, h):
            raise ValueError("encoder shape inconsistent with config")
        if self.w_main.shape != (h, c) or self.b_main.shape != (c,):
            raise ValueError("main head shape inconsistent with config")
        if self.w_calib.shape != (h + c, 2) or self.b_calib.shape != (2,):
            raise ValueError("calibration head shape inconsistent with config")
        for a in (self.encoder, self.w_main, self.b_main, self.w_calib, self.b_calib):
            if not np.all(np.isfinite(a)):
                raise ValueError("non-finite model parameters")


def init_parameters(num_classes: int, cfg: TrainConfig) -> ModelParameters:
    """Encoder ~ U(-0.01, 0.01) from the seed; heads zero, so the untrained
    model outputs exactly uniform distributions."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng((cfg.seed, 0))
    h = cfg.hidden_dim
    return ModelParameters(
        encoder=rng.uniform(-0.01, 0.01, size=(cfg.features.hash_dim, h)),
        w_main=np.zeros((h, num_classes)),
        b_main=np.zeros(num_classes),
        w_calib=np.zeros((h + num_classes, 2)),
        b_calib=np.zeros(2),
        features=cfg.features,
        num_classes=num_classes,
        hidden_dim=h,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

# Nonzeros gathered per step of the batched encoder, so that the
# (nonzeros x hidden) temporary stays a few MiB however large the batch.
ENCODE_CHUNK = 4096


def _exp_and_sum(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e, np.add.reduce(e, axis=-1, keepdims=True)


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: one distribution per row of a matrix."""
    e, s = _exp_and_sum(z)
    return e / s


def top_prob(z: np.ndarray) -> np.ndarray:
    """``softmax(z).max(axis=-1)``, one reduction cheaper: the largest term of
    ``exp(z - max z)`` is exp(0) = 1, so the largest probability is exactly
    1 / (sum of the terms)."""
    return 1.0 / _exp_and_sum(z)[1][..., 0]


def _check_dim(p: ModelParameters, dim: int) -> None:
    if dim != p.features.hash_dim:
        raise ValueError(f"feature dim {dim} != model hash_dim {p.features.hash_dim}")


def _check_labels(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    # Python's min and max of a list cost less than two numpy reductions on a
    # one-text request, and little next to featurizing on a large batch.
    flat = labels.ravel().tolist()
    if flat and not (0 <= min(flat) and max(flat) < num_classes):
        bad = next(y for y in flat if not 0 <= y < num_classes)
        raise ValueError(f"label {bad} out of range for {num_classes} classes")
    return labels


def encode(p: ModelParameters, m: FeatureMatrix) -> np.ndarray:
    """Encoder output of every row of ``m`` (rows x hidden): the count-weighted
    sum of the row's encoder rows, gathered ``ENCODE_CHUNK`` nonzeros at a time."""
    _check_dim(p, m.dim)
    indptr = m.indptr
    if len(m.indices) <= ENCODE_CHUNK:
        return _encode_chunk(p.encoder, m.indices, m.values, indptr[:-1])
    out = np.empty((len(m), p.hidden_dim))
    start = 0
    while start < len(m):
        lo = indptr[start]
        stop = max(start + 1, int(np.searchsorted(indptr, lo + ENCODE_CHUNK, "right")) - 1)
        hi = indptr[stop]
        out[start:stop] = _encode_chunk(p.encoder, m.indices[lo:hi], m.values[lo:hi],
                                        indptr[start:stop] - lo)
        start = stop
    return out


def _encode_chunk(encoder: np.ndarray, indices: np.ndarray, values: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    rows = encoder.take(indices, axis=0)
    return np.add.reduceat(rows * values[:, None], starts, axis=0)


def _rowwise_matmul(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``h @ w`` as one vector-matrix product per row of ``h``. A matrix-matrix
    product may round a row differently depending on the rows around it; this
    way a text scores the same alone and in any batch."""
    return (h[:, None, :] @ w)[:, 0, :]


def main_head(p: ModelParameters, h: np.ndarray) -> np.ndarray:
    """Main-head logits of every row of the encoder output ``h``."""
    return _rowwise_matmul(h, p.w_main) + p.b_main


def calib_head(p: ModelParameters, h: np.ndarray, y_star,
               feature_mode: str = "all") -> np.ndarray:
    """Correctness-head logits of ``[h, one_hot(y_star)] @ w_calib + b_calib``
    for every row of the encoder output ``h`` and its label in ``y_star``,
    with the block that ``feature_mode`` masks left out."""
    if feature_mode not in FEATURE_MODES:
        raise ValueError(f"unknown feature_mode {feature_mode!r}")
    _check_labels(y_star, p.num_classes)
    hd = p.hidden_dim
    z = p.b_calib
    if feature_mode != "no_sample":
        z = _rowwise_matmul(h, p.w_calib[:hd]) + z
    if feature_mode != "no_prediction":
        z = z + p.w_calib[hd:][y_star]
    return z


def predict_batch(p: ModelParameters, m: FeatureMatrix
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``m``: the predicted label (ties go to the lowest index), its
    probability, the main logits and the encoder output."""
    h = encode(p, m)
    z = main_head(p, h)
    e, s = _exp_and_sum(z)
    # Dividing by s cannot reorder e, so e's arg max is the predicted label,
    # and as in top_prob its probability is 1 / s.
    return e.argmax(axis=1), 1.0 / s[:, 0], z, h


def predict(p: ModelParameters, sample) -> tuple[int, float, np.ndarray]:
    """(predicted label, its probability, full logits) of one sample."""
    labels, conf, z, _ = predict_batch(
        p, featurize_batch((sample.text_a,), (sample.text_b,), p.features))
    return int(labels[0]), float(conf[0]), z[0]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _safe_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, LOG_FLOOR))


def smooth_target(labels, num_classes: int, epsilon: float) -> np.ndarray:
    """Target distribution of each label (one row per label of an array, or a
    single vector for one label): 1-eps on the label, eps/(C-1) spread over
    the rest."""
    labels = _check_labels(labels, num_classes)
    t = np.full(labels.shape + (num_classes,), epsilon / (num_classes - 1))
    np.put_along_axis(t, labels[..., None], 1.0 - epsilon, axis=-1)
    return t


def loss_ce(probs: np.ndarray, label: int, epsilon: float = 0.0) -> float:
    """Cross-entropy against the (optionally smoothed) target, log-floored at 1e-12."""
    t = smooth_target(label, len(probs), epsilon)
    return float(-(t * _safe_log(probs)).sum())


def loss_kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) with 1e-12 floors inside the logs; >= 0, and 0 iff p == q."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return float((p * (_safe_log(p) - _safe_log(q))).sum())


# ---------------------------------------------------------------------------
# Gradients (analytic; checked against finite differences in the tests)
# ---------------------------------------------------------------------------

@dataclass
class Grads:
    """Batch-mean gradients. The encoder gradient stays sparse and split by loss
    part: ``enc_parts`` holds one ``(buckets, vals)`` pair per part, each adding
    row ``vals[i]`` to encoder row ``buckets[i]`` (buckets may repeat within and
    across parts; accumulation happens at update time, in part order)."""

    w_main: np.ndarray
    b_main: np.ndarray
    w_calib: np.ndarray
    b_calib: np.ndarray
    enc_parts: list[tuple[np.ndarray, np.ndarray]]

    @classmethod
    def zeros(cls, p: ModelParameters) -> "Grads":
        return cls(
            w_main=np.zeros_like(p.w_main),
            b_main=np.zeros_like(p.b_main),
            w_calib=np.zeros_like(p.w_calib),
            b_calib=np.zeros_like(p.b_calib),
            enc_parts=[],
        )

    def add(self, other: "Grads") -> "Grads":
        return Grads(
            w_main=self.w_main + other.w_main,
            b_main=self.b_main + other.b_main,
            w_calib=self.w_calib + other.w_calib,
            b_calib=self.b_calib + other.b_calib,
            enc_parts=self.enc_parts + other.enc_parts,
        )

    def scaled(self, a: float) -> "Grads":
        return Grads(self.w_main * a, self.b_main * a, self.w_calib * a,
                     self.b_calib * a, [(b, v * a) for b, v in self.enc_parts])


def _flat_index(buckets: np.ndarray, hidden: int) -> np.ndarray:
    """Positions in the flattened encoder of every element of rows ``buckets``,
    row by row (int64, so bucket * hidden cannot wrap for uint32 buckets)."""
    return (buckets.astype(np.int64)[:, None] * hidden + np.arange(hidden)).ravel()


def apply_grads(p: ModelParameters, g: Grads, lr: float) -> None:
    """One SGD update. Each encoder part is one 1-D ``np.subtract.at`` on the
    flattened encoder: every element receives the same subtractions in the same
    order as one 2-D row scatter of all parts concatenated, so the result is
    bit-identical, without copying the parts together."""
    if not p.encoder.flags.c_contiguous:
        raise ValueError("encoder must be a C-contiguous array to be updated in place")
    p.w_main -= lr * g.w_main
    p.b_main -= lr * g.b_main
    p.w_calib -= lr * g.w_calib
    p.b_calib -= lr * g.b_calib
    flat = p.encoder.reshape(-1)
    for buckets, vals in g.enc_parts:
        np.subtract.at(flat, _flat_index(buckets, p.hidden_dim), (lr * vals).ravel())


def _encoder_grads(m: FeatureMatrix, dh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sparse encoder gradient of the rows of ``m``, given the gradient ``dh``
    of the loss with respect to each row's encoder output: every nonzero adds
    its count times its row's ``dh`` to its bucket's encoder row."""
    row_of_nnz = np.repeat(np.arange(len(m)), np.diff(m.indptr))
    return m.indices, m.values[:, None] * dh[row_of_nnz]


def main_batch_grads(p: ModelParameters, m: FeatureMatrix, labels,
                     epsilon: float = 0.0) -> tuple[float, Grads]:
    """Mean cross-entropy of the main head over a batch, with its gradients."""
    n = len(m)
    h = encode(p, m)
    probs = softmax(main_head(p, h))
    t = smooth_target(labels, p.num_classes, epsilon)
    loss = -(t * _safe_log(probs)).sum() / n
    dz = (probs - t) / n
    g = Grads.zeros(p)
    g.w_main = h.T @ dz
    g.b_main = dz.sum(0)
    g.enc_parts = [_encoder_grads(m, dz @ p.w_main.T)]
    return loss, g


def _calib_grads(p: ModelParameters, m: FeatureMatrix, h: np.ndarray, y_stars,
                 dz: np.ndarray, feature_mode: str) -> Grads:
    """Gradients of the calibration head's logits, given the gradient ``dz`` of
    the loss with respect to them, for the rows of ``m`` (encoder output ``h``)."""
    hd = p.hidden_dim
    g = Grads.zeros(p)
    g.b_calib = dz.sum(0)
    if feature_mode != "no_prediction":
        np.add.at(g.w_calib[hd:], y_stars, dz)
    if feature_mode != "no_sample":
        g.w_calib[:hd] = h.T @ dz
        g.enc_parts = [_encoder_grads(m, dz @ p.w_calib[:hd].T)]
    return g


def calib_batch_grads(p: ModelParameters, m: FeatureMatrix, y_stars, cs,
                      epsilon: float = 0.0,
                      feature_mode: str = "all") -> tuple[float, Grads]:
    """Mean cross-entropy of the calibration head over (x, y*, c) triples."""
    n = len(m)
    h = encode(p, m)
    probs = softmax(calib_head(p, h, y_stars, feature_mode))
    t = smooth_target(cs, 2, epsilon)
    loss = -(t * _safe_log(probs)).sum() / n
    return loss, _calib_grads(p, m, h, y_stars, (probs - t) / n, feature_mode)


def consistency_batch_grads(p: ModelParameters, clean: FeatureMatrix,
                            aug: FeatureMatrix, y_stars,
                            feature_mode: str = "all") -> tuple[float, Grads]:
    """Mean KL(calib(x, y*) || calib(x*, y*)) over a batch of augmented pairs.

    Gradients flow through both branches: for r = softmax(z_clean) and
    s = softmax(z_aug), dKL/dz_clean = r*log(r/s) - KL*r and dKL/dz_aug = s - r.
    """
    n = len(clean)
    hc = encode(p, clean)
    ha = encode(p, aug)
    r = softmax(calib_head(p, hc, y_stars, feature_mode))
    s = softmax(calib_head(p, ha, y_stars, feature_mode))
    log_ratio = _safe_log(r) - _safe_log(s)
    kl = (r * log_ratio).sum(1, keepdims=True)
    g = _calib_grads(p, clean, hc, y_stars, (r * log_ratio - kl * r) / n, feature_mode)
    return kl.sum() / n, g.add(_calib_grads(p, aug, ha, y_stars, (s - r) / n, feature_mode))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_main(d, cfg: TrainConfig) -> tuple[ModelParameters, list[float]]:
    """Shuffled mini-batch SGD on the mean main-task cross-entropy.

    Returns the parameters and the per-step training-loss trace. Deterministic
    given (dataset order, cfg).
    """
    if len(d) == 0:
        raise ValueError("empty dataset")
    p = init_parameters(d.num_classes, cfg)
    m = d.features(cfg.features)
    labels = d.labels()
    rng = np.random.default_rng((cfg.seed, 1))
    trace: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(d))
        for start in range(0, len(d), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, g = main_batch_grads(p, m.take(batch), labels[batch],
                                       cfg.label_smoothing_epsilon)
            apply_grads(p, g, cfg.learning_rate)
            trace.append(loss)
    return p, trace


# ---------------------------------------------------------------------------
# Flattening and serialization
# ---------------------------------------------------------------------------

_TENSOR_ORDER = ("encoder", "w_main", "b_main", "w_calib", "b_calib")


def get_flat_params(p: ModelParameters) -> np.ndarray:
    return np.concatenate([getattr(p, name).ravel() for name in _TENSOR_ORDER])


def set_flat_params(p: ModelParameters, flat: np.ndarray) -> None:
    pos = 0
    for name in _TENSOR_ORDER:
        arr = getattr(p, name)
        nxt = pos + arr.size
        arr[...] = flat[pos:nxt].reshape(arr.shape)
        pos = nxt
    if pos != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, expected {pos}")


def save_parameters(p: ModelParameters, path) -> None:
    """One file: a JSON header line (dims, featurizer config, seed) followed by
    the raw little-endian float64 tensors in a fixed order."""
    p.validate()
    header = {
        "format": "selfcal-model-v1",
        "num_classes": p.num_classes,
        "hidden_dim": p.hidden_dim,
        "seed": p.seed,
        "features": {
            "lowercase": p.features.lowercase,
            "ngram_max": p.features.ngram_max,
            "hash_dim": p.features.hash_dim,
            "segment_tagging": p.features.segment_tagging,
        },
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in _TENSOR_ORDER:
            fh.write(np.ascontiguousarray(getattr(p, name), dtype="<f8").tobytes())


def load_parameters(path) -> ModelParameters:
    with open(Path(path), "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format") != "selfcal-model-v1":
            raise ValueError(f"{path}: not a selfcal model file")
        feats = FeaturizerConfig(**header["features"])
        c, h = header["num_classes"], header["hidden_dim"]
        p = ModelParameters(
            encoder=np.zeros((feats.hash_dim, h)),
            w_main=np.zeros((h, c)),
            b_main=np.zeros(c),
            w_calib=np.zeros((h + c, 2)),
            b_calib=np.zeros(2),
            features=feats,
            num_classes=c,
            hidden_dim=h,
            seed=header.get("seed"),
        )
        for name in _TENSOR_ORDER:
            arr = getattr(p, name)
            buf = fh.read(arr.size * 8)
            if len(buf) != arr.size * 8:
                raise ValueError(f"{path}: truncated tensor {name}")
            arr[...] = np.frombuffer(buf, dtype="<f8").reshape(arr.shape)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last tensor")
    p.validate()
    return p


def clone_parameters(p: ModelParameters) -> ModelParameters:
    return replace(
        p,
        encoder=p.encoder.copy(),
        w_main=p.w_main.copy(),
        b_main=p.b_main.copy(),
        w_calib=p.w_calib.copy(),
        b_calib=p.b_calib.copy(),
    )
