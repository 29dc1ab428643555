"""Textual transforms for augmentation and a greedy word-substitution attacker.

Four transforms on whitespace tokens: synonym substitution, random insertion,
adjacent swap, and random deletion. All of them preserve at least one token.
The attacker greedily substitutes synonyms to flip a model's prediction.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path
from zlib import crc32

import numpy as np

from .corpus import Dataset, Sample, SynthConfig, class_tokens, noise_tokens
from .model import (
    FeatureMatrix,
    FeaturizerConfig,
    ModelParameters,
    _tokens,
    featurize_batch,
    predict_batch,
    softmax,
)


class TransformKind(Enum):
    SYNONYM_SUBSTITUTION = "synonym_substitution"
    RANDOM_INSERTION = "random_insertion"
    RANDOM_SWAP = "random_swap"
    RANDOM_DELETION = "random_deletion"


class SynonymLexicon:
    """Case-normalized token -> synonyms map. No token maps to an empty list,
    every synonym has at least one token, and every entry survives
    ``to_tsv`` + ``from_tsv``: no word or synonym holds a comma, a tab or a
    line break, or starts or ends with whitespace."""

    def __init__(self, entries: dict[str, list[str]]):
        self._entries: dict[str, list[str]] = {}
        for word, syns in entries.items():
            if not syns:
                raise ValueError(f"lexicon entry {word!r} has no synonyms")
            if not all(map(str.split, syns)):
                raise ValueError(f"lexicon entry {word!r} has a synonym with no tokens")
            for text in (word, *syns):
                if text != text.strip() or any(c in text for c in ",\t\n\r"):
                    raise ValueError(f"lexicon entry {word!r}: {text!r} has a comma, tab, "
                                     "line break or surrounding whitespace")
            self._entries[word.lower()] = list(syns)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self._entries

    def synonyms(self, token: str) -> list[str]:
        return self._entries.get(token.lower(), [])

    @classmethod
    def from_tsv(cls, path) -> "SynonymLexicon":
        """Load ``word<TAB>syn1,syn2,...`` lines."""
        entries: dict[str, list[str]] = {}
        with open(Path(path), encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'word<TAB>synonyms'")
                syns = [s.strip() for s in parts[1].split(",") if s.strip()]
                if not syns:
                    raise ValueError(f"{path}:{lineno}: no synonyms for {parts[0]!r}")
                entries[parts[0].strip()] = syns
        return cls(entries)

    def to_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for word in sorted(self._entries):
                fh.write(f"{word}\t{','.join(self._entries[word])}\n")


def synthetic_lexicon(cfg: SynthConfig) -> SynonymLexicon:
    """Default lexicon over the synthetic vocabulary.

    Tokens that play the same role (same class block, or both noise) form
    synsets of four. Class-indicative tokens additionally get two generic noise
    tokens as looser synonyms — the analogue of a real lexicon offering a
    blander word that drops the nuance, which is what gives substitution its
    bite for both augmentation and attacks.
    """
    entries: dict[str, list[str]] = {}
    noise = noise_tokens(cfg)

    def _add_groups(tokens: list[str], extras: bool):
        for start in range(0, len(tokens), 4):
            group = tokens[start:start + 4]
            for j, t in enumerate(group):
                syns = [s for s in group if s != t]
                if extras:
                    k = (start + j) * 2
                    syns += [noise[k % len(noise)], noise[(k + 1) % len(noise)]]
                if syns:
                    entries[t] = syns

    for cls in range(cfg.num_classes):
        _add_groups(class_tokens(cfg, cls), extras=True)
    _add_groups(noise, extras=False)
    return SynonymLexicon(entries)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def _edit_count(rate: float, n: int) -> int:
    return max(1, math.ceil(rate * n))


def apply_transform(kind: TransformKind, text: str, rate: float,
                    lexicon: SynonymLexicon, rng: np.random.Generator) -> str:
    """Apply one transform at intensity ``rate`` in (0, 1]. The output always
    has at least one token; no-op results are legal (e.g. swapping a 1-token
    text, or substituting when nothing has a lexicon entry)."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    tokens = text.split()
    if not tokens:
        raise ValueError("text has no tokens")
    n = len(tokens)

    if kind is TransformKind.SYNONYM_SUBSTITUTION:
        k = min(_edit_count(rate, n), n)
        positions = rng.choice(n, size=k, replace=False)
        for pos in sorted(int(i) for i in positions):
            syns = lexicon.synonyms(tokens[pos])
            if syns:
                tokens[pos] = syns[int(rng.integers(0, len(syns)))]

    elif kind is TransformKind.RANDOM_INSERTION:
        for _ in range(_edit_count(rate, n)):
            src = tokens[int(rng.integers(0, len(tokens)))]
            syns = lexicon.synonyms(src)
            if syns and rng.random() < 0.5:
                new = syns[int(rng.integers(0, len(syns)))]
            else:
                new = src  # repeat an existing word
            tokens.insert(int(rng.integers(0, len(tokens) + 1)), new)

    elif kind is TransformKind.RANDOM_SWAP:
        if n >= 2:
            for _ in range(_edit_count(rate, n)):
                i = int(rng.integers(0, len(tokens) - 1))
                tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]

    elif kind is TransformKind.RANDOM_DELETION:
        kept = [t for t in tokens if rng.random() >= rate]
        if not kept:
            kept = [tokens[int(rng.integers(0, len(tokens)))]]
        tokens = kept

    else:
        raise ValueError(f"unknown transform kind {kind!r}")

    return " ".join(tokens)


def random_transform(text: str, rate: float, lexicon: SynonymLexicon,
                     rng: np.random.Generator) -> tuple[TransformKind, str]:
    """Pick one of the four transforms uniformly and apply it."""
    kinds = list(TransformKind)
    kind = kinds[int(rng.integers(0, len(kinds)))]
    return kind, apply_transform(kind, text, rate, lexicon, rng)


# ---------------------------------------------------------------------------
# Greedy substitution attack
# ---------------------------------------------------------------------------

# Samples attacked in lockstep: each greedy step scores the candidates of a
# whole group as one matrix, so a step's memory grows with the group. On
# configs/default.ini's test split (200 successes; 2-core Xeon, numpy 2.4) the
# attack took the same time with groups of 8 to 64 and with the whole split as
# one group, while its tracemalloc peak was 2.0 MiB with 16, 3.7 MiB with 32,
# 7.2 MiB with 64 and 21 MiB with the whole split.
ATTACK_GROUP = 16


def greedy_attack(p: ModelParameters, s: Sample, lexicon: SynonymLexicon,
                  budget: int) -> Sample | None:
    """Flip the model's prediction by substituting synonyms, one position per
    step, always taking the substitution that most lowers the gold-class
    probability (the first one on ties). Returns the adversarial sample on a
    prediction flip, or None once the budget is exhausted (or no substitution
    lowers the probability).

    Only correctly classified samples may be attacked. This is
    ``attack_dataset``'s attack on a group of one sample.
    """
    m = featurize_batch([s.text_a], [s.text_b], p.features)
    labels, _, z, _ = predict_batch(p, m)
    if labels[0] != s.label:
        raise ValueError("attack requires a correctly classified input")
    return _attack_group(p, [s], m, softmax(z)[:, s.label], lexicon, budget, {})[0]


def _attack_group(p: ModelParameters, samples: list[Sample], rows: FeatureMatrix,
                  current: np.ndarray, lexicon: SynonymLexicon, budget: int,
                  words: dict) -> list[Sample | None]:
    """``greedy_attack`` of every sample in ``samples``, in lockstep. ``rows``
    holds their feature rows and ``current`` their gold-class probabilities;
    ``words`` memoises each token's words for ``_position_deltas``.

    Each step scores the candidates of every sample still under attack as one
    batch, whose rows are the sample's current row plus each substitution's
    count delta (no candidate text is hashed in full). Scoring is row by row,
    so a sample's candidates score the same in any group. A position's deltas
    are kept until a substitution within ``ngram_max - 1`` tokens of it
    changes its n-grams.
    """
    reach = p.features.ngram_max - 1
    gold = np.array([s.label for s in samples])
    current = current.copy()
    tokens = [s.text_a.split() for s in samples]
    # Per sample, position -> (its candidates, their delta spans and buckets).
    caches: list[dict[int, tuple]] = [{} for _ in samples]
    results: list[Sample | None] = [None] * len(samples)
    live = list(range(len(samples)))   # rows[i] is the current row of samples[live[i]]
    for _ in range(budget):
        # One flat list of (position, synonym) candidates for the group, and
        # the flat spans and buckets of their deltas.
        candidates, spans, buckets, sizes = [], [], [], []
        for k in live:
            toks, cache = tokens[k], caches[k]
            before = len(candidates)
            for pos, tok in enumerate(toks):
                entry = cache.get(pos)
                if entry is None:
                    syns = [syn for syn in lexicon.synonyms(tok) if syn != tok]
                    entry = cache[pos] = ([(pos, syn) for syn in syns],
                                          *_position_deltas(toks, pos, syns, p.features, words))
                candidates += entry[0]
                spans += entry[1]
                buckets += entry[2]
            sizes.append(len(candidates) - before)
        sizes = np.array(sizes, dtype=np.int64)
        if not sizes.all():   # no substitution left: those samples give up
            live = [k for k, n in zip(live, sizes) if n]
            rows = rows.take(np.flatnonzero(sizes))
            sizes = sizes[sizes > 0]
        if not live:
            break
        m = _candidate_rows(rows, sizes, spans, buckets)
        labels, _, z, _ = predict_batch(p, m)
        owner = np.repeat(np.arange(len(live)), sizes)
        probs = softmax(z)[np.arange(len(m)), gold[live][owner]]
        # Each sample's first candidate of least gold probability, as argmin
        # would pick it from the sample's own batch.
        starts = np.cumsum(sizes) - sizes
        lowest = np.minimum.reduceat(probs, starts)
        hits = np.flatnonzero(probs == lowest[owner])
        best = hits[np.searchsorted(hits, starts)]
        still, kept = [], []
        for k, low, b in zip(live, lowest, best.tolist()):
            if not low < current[k]:
                continue
            current[k] = low
            pos, syn = candidates[b]
            tokens[k][pos] = syn
            if labels[b] != gold[k]:
                s = samples[k]
                results[k] = Sample(id=f"{s.id}#adv", text_a=" ".join(tokens[k]),
                                    text_b=s.text_b, label=s.label)
                continue
            still.append(k)
            kept.append(b)
            for stale in range(pos - reach, pos + reach + 1):
                caches[k].pop(stale, None)
        live = still
        rows = m.take(kept)
    return results


def _word_hashes(token: str, lowercase: bool, words: dict) -> tuple:
    """``token``'s featurizer words, each as (b" " + word, crc32(word)),
    memoised in ``words`` (one memo per featurizer config)."""
    got = words.get(token)
    if got is None:
        got = words[token] = tuple((b" " + w, crc32(w))
                                   for w in map(str.encode, _tokens(token, lowercase)))
    return got


def _position_deltas(tokens: list[str], pos: int, replacements: list[str],
                     cfg: FeaturizerConfig, words: dict) -> tuple[list[int], list[int]]:
    """The count delta of replacing ``tokens[pos]`` by each of ``replacements``
    in the text ``" ".join(tokens)``, as flat spans and buckets: per
    replacement, a span of the buckets of the n-grams that overlap the old
    token (-1 each), then a span of those of the new text that overlap the
    replacement (+1 each).

    Tokens and replacements may hold several words, split the way
    ``featurize_batch`` splits the joined text, and hold at least one
    (``SynonymLexicon`` rejects a synonym without one). So the n-grams that
    overlap ``pos`` lie within ``ngram_max - 1`` tokens of it. An n-gram's
    bucket is the crc32 of its words joined by spaces, chained word by word,
    ``crc32(b" " + b, crc32(a)) == crc32(a + b" " + b)``, so no n-gram string
    is built.
    """
    n, lowercase, mask = cfg.ngram_max, cfg.lowercase, cfg.hash_dim - 1
    left = [w for t in tokens[max(0, pos - n + 1):pos]
            for w in _word_hashes(t, lowercase, words)]
    left = left[max(0, len(left) - n + 1):]
    right = tuple(w for t in tokens[pos + 1:pos + n]
                  for w in _word_hashes(t, lowercase, words))[:n - 1]
    # The crc32 of each run of left words that ends at the token, and its
    # length in words.
    heads = []
    for i in range(len(left)):
        c = left[i][1]
        for spaced, _ in left[i + 1:]:
            c = crc32(spaced, c)
        heads.append((c, len(left) - i))

    def overlapping(token: str) -> list[int]:
        middle = _word_hashes(token, lowercase, words)
        seq = middle + right
        out = []
        for c, k in heads:
            for spaced, _ in seq[:n - k]:
                c = crc32(spaced, c)
                out.append(c & mask)
        for b in range(len(middle)):
            c = seq[b][1]
            out.append(c & mask)
            for spaced, _ in seq[b + 1:b + n]:
                c = crc32(spaced, c)
                out.append(c & mask)
        return out

    removed = overlapping(tokens[pos])
    spans, buckets = [], []
    for rep in replacements:
        added = overlapping(rep)
        spans += (len(removed), len(added))
        buckets += removed
        buckets += added
    return spans, buckets


def _candidate_rows(rows: FeatureMatrix, sizes: np.ndarray, spans: list[int],
                    buckets: list[int]) -> FeatureMatrix:
    """Row ``i`` of ``rows`` repeated ``sizes[i]`` times, repeat ``j`` minus
    one count for each of its delta's first ``spans[2 * j]`` flat ``buckets``
    and plus one for each of the next ``spans[2 * j + 1]``, without the buckets
    whose count falls to zero.

    Counts are small integers, exact in float64, so each row is equal, down
    to dtypes and bytes, to ``featurize_batch`` of the text the delta leads to.
    """
    tiled = rows.take(np.repeat(np.arange(len(rows)), sizes))
    k, dim = len(tiled), rows.dim
    halves = np.arange(2 * k, dtype=np.int64)
    delta_keys = np.repeat(halves // 2, spans) * dim + np.array(buckets, dtype=np.int64)
    keys = np.concatenate([np.repeat(halves[:k], np.diff(tiled.indptr)) * dim + tiled.indices,
                           delta_keys])
    weights = np.concatenate([tiled.values, np.repeat(halves % 2 * 2.0 - 1.0, spans)])
    keys, inverse = np.unique(keys, return_inverse=True)
    counts = np.bincount(inverse, weights, minlength=len(keys))
    keep = counts != 0
    keys = keys[keep]
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // dim, minlength=k), out=indptr[1:])
    return FeatureMatrix(indptr, (keys % dim).astype(np.uint32),
                         counts[keep].astype(np.float32), dim)


def check_attack_limits(budget: int, max_successes: int | None) -> None:
    """Raise a one-line ValueError unless an attack with these limits can
    succeed: at least one substitution, and room for at least one success
    (``max_successes=None`` means no limit)."""
    if budget < 1:
        raise ValueError(f"attack budget must be >= 1, got {budget}")
    if max_successes is not None and max_successes < 1:
        raise ValueError(f"attack max_successes must be >= 1 or None, got {max_successes}")


def attack_dataset(p: ModelParameters, d: Dataset, lexicon: SynonymLexicon,
                   budget: int, max_successes: int | None = None
                   ) -> tuple[Dataset, list[str]]:
    """Attack every correctly classified sample until ``max_successes`` hits.

    Returns the successful adversarial samples as a dataset (gold labels kept)
    plus the originating sample ids, aligned. ``max_successes=None`` means no
    limit. The samples are attacked in order, ``ATTACK_GROUP`` at a time in
    lockstep, and a group never holds more samples than successes are still
    wanted, so the result is that of attacking them one by one.
    """
    check_attack_limits(budget, max_successes)
    m = d.features(p.features)
    labels, _, z, _ = predict_batch(p, m)
    gold = d.labels()
    correct = np.flatnonzero(labels == gold)
    probs = softmax(z)[correct, gold[correct]]
    words: dict = {}
    adv_samples: list[Sample] = []
    origins: list[str] = []
    wanted = len(correct) if max_successes is None else max_successes
    start = 0
    while start < len(correct) and len(adv_samples) < wanted:
        group = correct[start:start + min(ATTACK_GROUP, wanted - len(adv_samples))]
        samples = [d.samples[i] for i in group]
        advs = _attack_group(p, samples, m.take(group), probs[start:start + len(group)],
                             lexicon, budget, words)
        for s, adv in zip(samples, advs):
            if adv is not None:
                adv_samples.append(adv)
                origins.append(s.id)
        start += len(group)
    return Dataset(tuple(adv_samples), d.label_names, d.task_kind), origins
