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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, count
from pathlib import Path
from zlib import crc32

import numpy as np

LOG_FLOOR = 1e-12

# The block of w_calib that calibration training under each mode leaves at its
# zero start, so the head does not read that input: "no_sample" the encoder
# block w_calib[:H], "no_prediction" the predicted-label block w_calib[H:].
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


def _buckets(keys: list[str], mask: int):
    return map(mask.__and__, map(crc32, map(str.encode, keys)))


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Hashed counts of a batch of texts in CSR form.

    Row ``i`` holds the sorted unique bucket indices
    ``indices[indptr[i]:indptr[i + 1]]`` and their counts in ``values``.
    Buckets fit in uint32 and integer counts are exact in float32. The arrays
    are made read-only here, so one matrix can be shared by every scorer of a
    dataset.
    """

    indptr: np.ndarray     # int64, rows + 1
    indices: np.ndarray    # uint32
    values: np.ndarray     # float32
    dim: int

    def __post_init__(self):
        for a in (self.indptr, self.indices, self.values):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows) -> "FeatureMatrix":
        """The rows at positions ``rows``, in that order, as a new matrix.
        Rows are indexed as numpy indexes an array of ``len(self)``
        (``_row_positions``): a negative row counts from the end, and one out
        of range raises ``IndexError``."""
        rows = _row_positions(rows, len(self))
        starts = self.indptr[:-1][rows]
        lengths = self.indptr[1:][rows] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # Source position of every output nonzero: its row's start plus its
        # offset within the row.
        src = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return FeatureMatrix(indptr, self.indices[src], self.values[src], self.dim)


def _row_positions(rows, n: int) -> np.ndarray:
    """``rows`` as int64 positions, resolved as numpy indexes ``np.arange(n)``:
    a boolean mask selects, an empty sequence (float64 to numpy) takes
    nothing, and any other non-integer index raises ``IndexError``."""
    rows = np.asarray(rows)
    if rows.dtype.kind in "iu" or (rows.size == 0 and rows.dtype != bool):
        return rows.astype(np.int64, copy=False)
    return np.arange(n)[rows]


# Tokens per chunk of the token-id core: the chunk's per-occurrence crc32s,
# gather offsets and keys are a few int64 arrays of about this length, so the
# core's temporaries stay under 1 MiB whatever the size of the call. On 8000
# texts of 8/32/128 tokens the whole call as one chunk peaked at 18x the
# returned matrix's bytes, against 2x with chunks of 1024 to 16384 tokens.
# There, chunks of 1024 and 2048 tokens were 47% and 18% slower than 4096,
# and 8192 and 16384 4-6% faster, within the spread of runs.
CHUNK_TOKENS = 4096


def featurize_batch(texts_a: Sequence[str], texts_b: Sequence[str | None] | None = None,
                    cfg: FeaturizerConfig = FeaturizerConfig()) -> FeatureMatrix:
    """Hash unigrams..ngram_max of each text (pair) into ``cfg.hash_dim``
    count buckets, one matrix row per text.

    Deterministic (crc32-based, unsalted): an n-gram's bucket is the crc32 of
    its words joined by spaces, masked to ``hash_dim``. When a ``texts_b``
    entry is present and segment tagging is on, its tokens carry a marker so
    "x" in segment a and "x" in segment b land in different buckets; no
    n-gram spans the two segments.

    A single text (a request) is hashed with one ``Counter`` (``_hash_text``):
    the core's fixed numpy cost, about 0.1 ms a chunk, is more than a text of
    up to a few hundred tokens costs that way. Any other call, the empty one
    included, goes through the token-id core in chunks of about
    ``CHUNK_TOKENS`` tokens, which chains every n-gram's crc32 from its
    prefix's in numpy (see ``_hash_chunk``). Both give the same
    rows, byte for byte, so a text hashes the same alone and in any batch.
    """
    if texts_b is None:
        texts_b = [None] * len(texts_a)
    if len(texts_a) == 1 == len(texts_b):
        return _hash_text(texts_a[0], texts_b[0], cfg)
    return _hash_chunks((_tokenize(a, b, cfg) for a, b in zip(texts_a, texts_b, strict=True)),
                        cfg, CHUNK_TOKENS)


def _tokenize(text_a: str, text_b: str | None, cfg: FeaturizerConfig):
    """A text (pair)'s tokens: ``(tokens_a, tokens_b)``, where ``tokens_b``
    is None for a missing second segment and carries the segment-b marker
    under segment tagging."""
    toks = _tokens(text_a, cfg.lowercase)
    if not toks:
        raise ValueError("text_a has no tokens")
    toks_b = None
    if text_b is not None:
        toks_b = _tokens(text_b, cfg.lowercase)
        if cfg.segment_tagging:
            toks_b = [_SEGMENT_B_MARK + t for t in toks_b]
    return toks, toks_b


def _hash_text(text_a: str, text_b: str | None, cfg: FeaturizerConfig) -> FeatureMatrix:
    """The one-row matrix of a text (pair), from one ``Counter`` of its n-gram
    buckets. A single request hashes in about 15 us, so each call layer is a
    few percent of it: the row's buckets and counts go through ``array``
    buffers, which numpy reads without converting a list."""
    toks, toks_b = _tokenize(text_a, text_b, cfg)
    keys = _ngram_keys(toks, cfg.ngram_max)
    if toks_b is not None:
        keys += _ngram_keys(toks_b, cfg.ngram_max)
    row = Counter(_buckets(keys, cfg.hash_dim - 1))
    buckets = sorted(row)
    indices = np.frombuffer(array("I", buckets), dtype=np.uint32)
    counts = np.frombuffer(array("I", map(row.__getitem__, buckets)), dtype=np.uint32)
    return FeatureMatrix(np.array([0, len(buckets)], dtype=np.int64), indices,
                         counts.astype(np.float32), cfg.hash_dim)


def _hash_chunks(texts, cfg: FeaturizerConfig, chunk_tokens: int) -> FeatureMatrix:
    """The matrix of tokenized texts through the token-id core, a chunk of at
    least ``chunk_tokens`` tokens (the last chunk may hold fewer) at a time.
    Each word's crc32, the crc32 of ``b" " + word`` and the offset of the
    shift table for that byte length are computed once per call."""
    words: dict[str, tuple[int, int, int]] = {}
    shifts: dict[int, int] = {}    # byte length -> offset of its shift table
    parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32),
              np.empty(0, dtype=np.float32))]
    chunk, size = [], 0
    for text in texts:
        chunk.append(text)
        size += len(text[0]) + len(text[1] or ())
        if size >= chunk_tokens:
            parts.append(_hash_chunk(chunk, cfg, words, shifts))
            chunk, size = [], 0
    if chunk:
        parts.append(_hash_chunk(chunk, cfg, words, shifts))
    lengths, indices, values = map(np.concatenate, zip(*parts))
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return FeatureMatrix(indptr, indices, values, cfg.hash_dim)


@lru_cache(maxsize=256)
def _shift_table(n: int) -> np.ndarray:
    """The map ``c -> crc32(s, c) ^ crc32(s)`` for every ``n``-byte ``s``, as
    4 x 256 int64 entries, one block per byte of ``c``. The map is linear over
    GF(2) and depends only on ``n``, so it is built from the 32 bits of ``c``
    shifted through ``n`` zero bytes, and
    ``crc32(s, c) == T[c & 255] ^ T[256 + (c >> 8 & 255)]
    ^ T[512 + (c >> 16 & 255)] ^ T[768 + (c >> 24)] ^ crc32(s)``."""
    zeros = bytes(n)
    base = crc32(zeros)
    table = np.zeros((4, 256), dtype=np.int64)
    for bit in range(32):
        byte, j = divmod(bit, 8)
        table[byte, 1 << j:2 << j] = table[byte, :1 << j] ^ (crc32(zeros, 1 << bit) ^ base)
    table = table.ravel()
    table.setflags(write=False)
    return table


def _hash_chunk(chunk: list, cfg: FeaturizerConfig, words: dict, shifts: dict
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The token-id core on one chunk of tokenized texts: per row, its number
    of distinct buckets, then the sorted buckets of all rows (uint32) and
    their counts (float32).

    The chunk's T tokens, every segment end to end, become word ids. Level 1
    is each token's word crc32. Level n extends the crc32 of every (n-1)-gram
    whose segment still holds n tokens from its start by its next word,
    ``crc32(prefix + b" " + word) == crc32(b" " + word, crc32(prefix))``,
    for all of them at once in numpy: the crc32 of ``b" " + word`` XOR the
    prefix's crc32 sent through the shift table of that byte length (see
    ``_shift_table``). One ``np.unique`` of ``(row << 32) | bucket`` over every
    occurrence then gives each row's sorted buckets and their counts."""
    mask = min(cfg.hash_dim, 2 ** 32) - 1   # a crc32 is below 2 ** 32
    toks, seg_lengths, seg_rows = [], [], []
    for row, (toks_a, toks_b) in enumerate(chunk):
        toks += toks_a
        seg_lengths.append(len(toks_a))
        seg_rows.append(row)
        if toks_b:
            toks += toks_b
            seg_lengths.append(len(toks_b))
            seg_rows.append(row)
    # A word's id is the position of its first occurrence in the chunk.
    n_toks, first = len(toks), {}
    ids = np.fromiter(map(first.setdefault, toks, count()), dtype=np.int64, count=n_toks)
    for w in [w for w in first if w not in words]:
        b = w.encode()
        words[w] = (crc32(b), crc32(b" " + b), shifts.setdefault(len(b) + 1, 1024 * len(shifts)))
    per_word = np.zeros((n_toks, 3), dtype=np.int64)
    per_word[np.fromiter(first.values(), dtype=np.int64, count=len(first))] = np.fromiter(
        chain.from_iterable(map(words.__getitem__, first)), dtype=np.int64,
        count=3 * len(first)).reshape(-1, 3)
    word_crcs, spaced_crcs, offsets = per_word.T
    shift = np.concatenate(list(map(_shift_table, shifts)))
    seg_lengths = np.array(seg_lengths, dtype=np.int64)
    row_of_tok = np.repeat(np.array(seg_rows, dtype=np.int64), seg_lengths)
    # Tokens from each position to the end of its segment.
    left = np.repeat(np.cumsum(seg_lengths), seg_lengths) - np.arange(n_toks)

    starts, crcs = np.arange(n_toks), word_crcs[ids]
    keys = [(row_of_tok << 32) | (crcs & mask)]
    for n in range(2, cfg.ngram_max + 1):
        keep = left[starts] >= n
        starts, crcs = starts[keep], crcs[keep]
        if not len(starts):
            break
        last = ids[starts + (n - 1)]
        at = offsets[last]
        crcs = (shift[at + (crcs & 255)] ^ shift[at + 256 + (crcs >> 8 & 255)]
                ^ shift[at + 512 + (crcs >> 16 & 255)] ^ shift[at + 768 + (crcs >> 24)]
                ^ spaced_crcs[last])
        keys.append((row_of_tok[starts] << 32) | (crcs & mask))
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    row_lengths = np.bincount(keys >> 32, minlength=len(chunk))
    return row_lengths, (keys & 0xFFFFFFFF).astype(np.uint32), counts.astype(np.float32)


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
    """Shared encoder plus the two heads. Mutated in place during training,
    and read-only from the first call of ``scorer`` on."""

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

    def scorer(self) -> "Scorer":
        """The model's ``Scorer``, built on the first call and kept. From then
        on every array of the parameters is read-only, so the kept table
        cannot go stale; a model that is to train further must be copied."""
        s = self.__dict__.get("_scorer")
        if s is None:
            s = Scorer(self)
            for name in _TENSOR_ORDER:
                getattr(self, name).setflags(write=False)
            self.__dict__["_scorer"] = s
        return s

    def __setattr__(self, name, value):
        # A tensor swapped in after scoring is not in the kept table.
        self.__dict__.pop("_scorer", None)
        object.__setattr__(self, name, value)

    def __getstate__(self):
        # A copy's arrays are writable again, so it gets a Scorer of its own.
        return {k: v for k, v in self.__dict__.items() if k != "_scorer"}


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

# Bytes of float64 (nonzeros x width) temporary that _gather takes per block,
# from the encoder (width hidden) or a Scorer's table (width classes + 2):
# 2 ** 20 // (8 * width) nonzeros, never splitting a row.
# 1 MiB is half of a 2 MiB L2, so the gathered rows are still in cache when
# reduceat sums them. A fixed 4096 nonzeros per block made it 2 MiB at hidden
# 64 and 4 MiB at hidden 128: on 8000 texts of 8/32/128 tokens (hash 2 ** 14,
# Xeon with 2 MiB L2, numpy 2.4) encode took 1.5x and 2.5x as long as with
# 1 MiB blocks, and blocks of 256 KiB to 1 MiB were equally fast at every width.
ENCODE_BLOCK_BYTES = 2 ** 20

# Bytes of float64 (nonzeros x hidden) gradient rows that apply_grads forms per
# block of an encoder-gradient part: 2 ** 18 // (8 * hidden) nonzeros, 512 at
# hidden 64. With the int64 flat index of the same size, a block's temporaries
# stay small enough for glibc to reuse from step to step instead of returning
# them to the OS and faulting them in again. On run_toast with perfbench's
# toast_train data (1200 x 24-token texts, 2 ** 18 x 64 encoder; Xeon with
# 2 MiB L2, numpy 2.4), minor page faults per run were 140-163k with whole
# materialised parts, 158-188k with 1 MiB blocks and 2-3k with 256 KiB blocks;
# 64 KiB blocks faulted as little but ran slower for their extra ufunc.at calls.
GRAD_BLOCK_BYTES = 2 ** 18


def _exp_and_sum(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e, np.add.reduce(e, axis=-1, keepdims=True)


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: one distribution per row of a matrix."""
    e, s = _exp_and_sum(z)
    return e / s


def _check_dim(hash_dim: int, dim: int) -> None:
    if dim != hash_dim:
        raise ValueError(f"feature dim {dim} != model hash_dim {hash_dim}")


def _check_labels(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    # Python's min and max of a list cost less than two numpy reductions on a
    # one-text request, and little next to featurizing on a large batch.
    flat = labels.ravel().tolist()
    if flat and not (0 <= min(flat) and max(flat) < num_classes):
        bad = next(y for y in flat if not 0 <= y < num_classes)
        raise ValueError(f"label {bad} out of range for {num_classes} classes")
    return labels


def _gather(table: np.ndarray, m: FeatureMatrix) -> np.ndarray:
    """The count-weighted sum of ``table``'s rows at every row of ``m``'s
    buckets (rows x table width).

    The rows are gathered in blocks of whole rows, each about
    ``ENCODE_BLOCK_BYTES`` (1 MiB) of float64 temporary, so that the block
    stays in L2 while ``reduceat`` sums it (a row longer than a block is a
    block of its own). Every row is summed by one ``reduceat`` in any case, so
    the output does not depend on the block size."""
    indptr, width = m.indptr, table.shape[1]
    block = max(1, ENCODE_BLOCK_BYTES // (8 * width))
    if len(m.indices) <= block:
        return _gather_block(table, m.indices, m.values, indptr[:-1])
    out = np.empty((len(m), width))
    start = 0
    while start < len(m):
        lo = indptr[start]
        stop = max(start + 1, int(np.searchsorted(indptr, lo + block, "right")) - 1)
        hi = indptr[stop]
        out[start:stop] = _gather_block(table, m.indices[lo:hi], m.values[lo:hi],
                                        indptr[start:stop] - lo)
        start = stop
    return out


def _gather_block(table: np.ndarray, indices: np.ndarray, values: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    rows = table.take(indices, axis=0)
    rows *= values[:, None]
    return np.add.reduceat(rows, starts, axis=0)


def encode(p: ModelParameters, m: FeatureMatrix) -> np.ndarray:
    """Encoder output of every row of ``m`` (rows x hidden): the count-weighted
    sum of the row's encoder rows, gathered as ``_gather`` does."""
    _check_dim(p.features.hash_dim, m.dim)
    return _gather(p.encoder, m)


def _rowwise_matmul(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``h @ w`` as one vector-matrix product per row of ``h``. A matrix-matrix
    product may round a row differently depending on the rows around it; this
    way a text scores the same alone and in any batch."""
    return (h[:, None, :] @ w)[:, 0, :]


def main_head(p: ModelParameters, h: np.ndarray) -> np.ndarray:
    """Main-head logits of every row of the encoder output ``h``."""
    return _rowwise_matmul(h, p.w_main) + p.b_main


def _calib_logits(sample: np.ndarray, w_label: np.ndarray, b_calib: np.ndarray,
                  y_star) -> np.ndarray:
    """Correctness-head logits ``(sample + b_calib) + w_label[y_star]``.
    ``sample`` is the rows' encoder block already multiplied by
    ``w_calib[:H]``, and ``w_label`` the head's rows of the predicted-label
    one-hot, ``w_calib[H:]``."""
    _check_labels(y_star, len(w_label))
    return (sample + b_calib) + w_label[y_star]


def calib_head(p: ModelParameters, h: np.ndarray, y_star) -> np.ndarray:
    """Correctness-head logits of ``[h, one_hot(y_star)] @ w_calib + b_calib``
    for every row of the encoder output ``h`` and its label in ``y_star``."""
    hd = p.hidden_dim
    return _calib_logits(_rowwise_matmul(h, p.w_calib[:hd]), p.w_calib[hd:], p.b_calib, y_star)


class Scorer:
    """A trained model frozen for inference, built by ``ModelParameters.scorer``.

    The model is linear up to its softmaxes: a row's main logits are
    ``sum_j x_j (E @ w_main)[j] + b_main`` over its nonzeros ``x_j``, and the
    correctness head's sample block is the same sum over ``E @ w_calib[:H]``.
    So the scorer keeps the table ``T = E @ [w_main | w_calib[:H]]``
    (hash_dim x (C + 2)) and scores a row by gathering C + 2 columns per
    nonzero instead of the hidden width. ``T`` is built in one product, a
    vector-matrix product per encoder row, so the build allocates the table
    alone; ``_gather`` then sums each text with one ``reduceat``, so a text
    scores the same alone and in any batch. The scorer holds copies of the
    heads' biases and label rows, and no encoder."""

    def __init__(self, p: ModelParameters):
        c, hd = p.num_classes, p.hidden_dim
        table = _rowwise_matmul(p.encoder, np.concatenate([p.w_main, p.w_calib[:hd]], axis=1))
        table.setflags(write=False)
        self.table, self.b_main, self.b_calib = table, p.b_main.copy(), p.b_calib.copy()
        self.w_label = p.w_calib[hd:].copy()
        self.features, self.num_classes = p.features, c

    def predict(self, m: FeatureMatrix
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per row of ``m``: the predicted label (ties go to the lowest index),
        its probability, the main logits and the correctness head's sample
        block (rows x 2) for ``calib_logits``."""
        _check_dim(self.features.hash_dim, m.dim)
        sums = _gather(self.table, m)
        c = self.num_classes
        z = sums[:, :c] + self.b_main
        e, s = _exp_and_sum(z)
        # Dividing by s cannot reorder e, so e's arg max is the predicted label;
        # its term is exp(0) = 1, so its probability is exactly 1 / s.
        return e.argmax(axis=1), 1.0 / s[:, 0], z, sums[:, c:]

    def calib_logits(self, sample: np.ndarray, y_star) -> np.ndarray:
        """Correctness-head logits of the rows whose sample block ``predict``
        returned, given their labels ``y_star``; the same arithmetic as
        ``calib_head``."""
        return _calib_logits(sample, self.w_label, self.b_calib, y_star)


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


# ---------------------------------------------------------------------------
# Gradients (analytic; checked against finite differences in the tests)
# ---------------------------------------------------------------------------

@dataclass
class Grads:
    """Batch-mean gradients of the heads a loss part touches (the others are
    None). The encoder gradient stays sparse, factored and split by loss part:
    ``enc_parts`` holds one ``(m, dh, scale)`` triple per part, where ``m`` is
    the part's ``FeatureMatrix`` rows, ``dh`` (rows x hidden) the gradient of
    the loss with respect to each row's encoder output and ``scale`` the
    weight the part was added with. Every nonzero of row ``i`` adds its count
    times ``dh[i]`` times ``scale`` to its bucket's encoder row (buckets may
    repeat within and across parts); ``apply_grads`` forms these rows a block
    at a time, in part order."""

    w_main: np.ndarray | None = None
    b_main: np.ndarray | None = None
    w_calib: np.ndarray | None = None
    b_calib: np.ndarray | None = None
    enc_parts: list[tuple[FeatureMatrix, np.ndarray, float]] = field(default_factory=list)

    def add(self, other: "Grads", weight: float = 1.0) -> "Grads":
        """Add ``weight`` times ``other`` to these gradients in place; returns
        self."""
        for name in _TENSOR_ORDER[1:]:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is None:
                setattr(self, name, None if theirs is None else theirs * weight)
            elif theirs is not None:
                mine += theirs * weight
        self.enc_parts += [(m, dh, scale * weight) for m, dh, scale in other.enc_parts]
        return self


def _flat_index(buckets: np.ndarray, hidden: int) -> np.ndarray:
    """Positions in the flattened encoder of every element of rows ``buckets``,
    row by row (int64, so bucket * hidden cannot wrap for uint32 buckets)."""
    return (buckets.astype(np.int64)[:, None] * hidden + np.arange(hidden)).ravel()


def apply_grads(p: ModelParameters, g: Grads, lr: float) -> None:
    """One SGD update. The rows of each encoder part are formed
    ``GRAD_BLOCK_BYTES`` of nonzeros at a time (a block may end inside a text's
    row): ``dh`` of the nonzero's row, times its count, times its part's scale,
    times ``lr``. Each block is then one 1-D ``np.subtract.at`` on the flattened
    encoder. Every element receives the same products, subtracted in the same
    order, as in one 2-D row scatter of all parts materialised and
    concatenated, so the result is bit-identical, and no nonzeros x hidden
    array outlives its block."""
    if not p.encoder.flags.c_contiguous:
        raise ValueError("encoder must be a C-contiguous array to be updated in place")
    if not all(getattr(p, name).flags.writeable for name in _TENSOR_ORDER):
        raise ValueError("model parameters are read-only: the model has been scored "
                         "(ModelParameters.scorer); train a copy instead")
    for name in _TENSOR_ORDER[1:]:
        if (grad := getattr(g, name)) is not None:
            np.subtract(getattr(p, name), lr * grad, out=getattr(p, name))
    flat = p.encoder.reshape(-1)
    block = max(1, GRAD_BLOCK_BYTES // (8 * p.hidden_dim))
    for m, dh, scale in g.enc_parts:
        row_of_nnz = np.repeat(np.arange(len(m)), np.diff(m.indptr))
        for lo in range(0, len(row_of_nnz), block):
            nz = slice(lo, lo + block)
            vals = dh[row_of_nnz[nz]]
            vals *= m.values[nz, None]
            if scale != 1.0:  # x * 1.0 is exact: skip the pass
                vals *= scale
            vals *= lr
            np.subtract.at(flat, _flat_index(m.indices[nz], p.hidden_dim), vals.ravel())


def main_batch_grads(p: ModelParameters, m: FeatureMatrix, labels,
                     epsilon: float = 0.0) -> tuple[float, Grads]:
    """Mean cross-entropy of the main head over a batch, with its gradients."""
    n = len(m)
    h = encode(p, m)
    probs = softmax(main_head(p, h))
    t = smooth_target(labels, p.num_classes, epsilon)
    loss = -(t * _safe_log(probs)).sum() / n
    dz = (probs - t) / n
    return loss, Grads(w_main=h.T @ dz, b_main=dz.sum(0),
                       enc_parts=[(m, dz @ p.w_main.T, 1.0)])


def _calib_grads(p: ModelParameters, m: FeatureMatrix, h: np.ndarray, y_stars,
                 dz: np.ndarray, feature_mode: str) -> Grads:
    """Gradients of the calibration head's logits, given the gradient ``dz`` of
    the loss with respect to them, for the rows of ``m`` (encoder output ``h``).
    The block of ``w_calib`` that ``feature_mode`` freezes gets none, and must
    be zero: only then does it add nothing to the logits, and the encoder
    nothing through it under "no_sample"."""
    hd = p.hidden_dim
    frozen = {"all": slice(0), "no_prediction": slice(hd, None), "no_sample": slice(hd)}
    if feature_mode not in frozen:
        raise ValueError(f"unknown feature_mode {feature_mode!r}")
    if p.w_calib[frozen[feature_mode]].any():
        raise ValueError(f"feature_mode {feature_mode!r} needs its block of w_calib at zero")
    g = Grads(w_calib=np.zeros_like(p.w_calib), b_calib=dz.sum(0))
    if feature_mode != "no_prediction":
        np.add.at(g.w_calib[hd:], y_stars, dz)
    if feature_mode != "no_sample":
        g.w_calib[:hd] = h.T @ dz
        g.enc_parts = [(m, dz @ p.w_calib[:hd].T, 1.0)]
    return g


def calib_batch_grads(p: ModelParameters, m: FeatureMatrix, y_stars, cs,
                      epsilon: float = 0.0,
                      feature_mode: str = "all") -> tuple[float, Grads]:
    """Mean cross-entropy of the calibration head over (x, y*, c) triples."""
    n = len(m)
    h = encode(p, m)
    probs = softmax(calib_head(p, h, y_stars))
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
    r = softmax(calib_head(p, hc, y_stars))
    s = softmax(calib_head(p, ha, y_stars))
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
# Serialization
# ---------------------------------------------------------------------------

_TENSOR_ORDER = ("encoder", "w_main", "b_main", "w_calib", "b_calib")


def save_parameters(p: ModelParameters, path) -> None:
    """One file: a JSON header line (dims, featurizer config, seed) followed by
    the raw little-endian float64 tensors in a fixed order. Each tensor is
    written from its own buffer, without a bytes copy."""
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
            fh.write(memoryview(np.ascontiguousarray(getattr(p, name), dtype="<f8")))


def load_parameters(path) -> ModelParameters:
    """The model that ``save_parameters`` wrote; each tensor is read straight
    into its array."""
    with open(Path(path), "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError:  # UnicodeDecodeError or JSONDecodeError
            raise ValueError(f"{path}: model header is not UTF-8 JSON (truncated?)") from None
        if not isinstance(header, dict) or header.get("format") != "selfcal-model-v1":
            raise ValueError(f"{path}: not a selfcal model file")
        for key in ("features", "num_classes", "hidden_dim"):
            if key not in header:
                raise ValueError(f"{path}: model header lacks key {key!r}")
        c, h, feats = header["num_classes"], header["hidden_dim"], header["features"]
        for key, value, least in (("num_classes", c, 2), ("hidden_dim", h, 1)):
            if type(value) is not int or value < least:
                raise ValueError(f"{path}: model header {key} must be an int >= {least}, "
                                 f"got {value!r}")
        try:
            # TypeError: not a mapping, or a key that is not a field.
            feats = FeaturizerConfig(**feats)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: model header features: {exc}") from None
        shapes = {"encoder": (feats.hash_dim, h), "w_main": (h, c), "b_main": (c,),
                  "w_calib": (h + c, 2), "b_calib": (2,)}
        tensors = {}
        for name in _TENSOR_ORDER:
            arr = np.empty(shapes[name], dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"{path}: truncated tensor {name}")
            # A no-op on little-endian machines; a byte swap elsewhere.
            tensors[name] = arr.astype(np.float64, copy=False)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last tensor")
    p = ModelParameters(**tensors, features=feats, num_classes=c, hidden_dim=h,
                        seed=header.get("seed"))
    p.validate()
    return p
