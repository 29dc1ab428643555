"""Textual transforms for augmentation and a greedy word-substitution attacker.

Four transforms on whitespace tokens: synonym substitution, random insertion,
adjacent swap, and random deletion. All of them preserve at least one token.
The attacker greedily substitutes synonyms to flip a model's prediction.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path

import numpy as np

from .corpus import Dataset, Sample, SynthConfig, class_tokens, noise_tokens
from .model import ModelParameters, Scorer, featurize_batch, softmax


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
# attack took about the same time (0.19-0.23 s) with groups of 8 to 64 and
# with the whole split as one group, while its tracemalloc peak was 1.6 MiB
# with 16, 1.9 MiB with 32, 2.7 MiB with 64 and 5.7 MiB with the whole split.
ATTACK_GROUP = 16


def greedy_attack(p: ModelParameters, s: Sample, lexicon: SynonymLexicon,
                  budget: int) -> Sample | None:
    """Flip the model's prediction by substituting synonyms, one position per
    step, always taking the substitution that most lowers the gold-class
    probability (the first one on ties). Returns the adversarial sample on a
    prediction flip, or None once the budget is exhausted (or no substitution
    lowers the probability).

    Only correctly classified samples may be attacked, with a budget >= 1.
    This is ``attack_dataset``'s attack on a group of one sample.
    """
    check_attack_limits(budget, None)
    scorer = p.scorer()
    labels, _, z, _ = scorer.predict(featurize_batch([s.text_a], [s.text_b], scorer.features))
    if labels[0] != s.label:
        raise ValueError("attack requires a correctly classified input")
    return _attack_group(scorer, [s], softmax(z)[:, s.label], lexicon, budget)[0]


def _attack_group(scorer: Scorer, samples: list[Sample], current: np.ndarray,
                  lexicon: SynonymLexicon, budget: int) -> list[Sample | None]:
    """``greedy_attack`` of every sample in ``samples``, in lockstep, from
    their gold-class probabilities ``current``.

    Each step builds the candidate texts of every sample still under attack:
    the sample's current tokens with one position replaced by a synonym,
    joined by spaces, plus the sample's ``text_b``. One ``featurize_batch``
    and one ``Scorer.predict`` score them all. Both work row by row, so a
    sample's candidates score the same in any group.
    """
    gold = np.array([s.label for s in samples])
    current = current.copy()
    tokens = [s.text_a.split() for s in samples]
    results: list[Sample | None] = [None] * len(samples)
    live = list(range(len(samples)))
    for _ in range(budget):
        # One flat list of (position, synonym) candidates for the group, and
        # their texts.
        candidates, texts, texts_b, sizes = [], [], [], []
        for k in live:
            toks = tokens[k]
            before = len(candidates)
            for pos, tok in enumerate(toks):
                # Each synonym in turn takes the position, which gets its
                # token back after.
                for syn in lexicon.synonyms(tok):
                    if syn != tok:
                        candidates.append((pos, syn))
                        toks[pos] = syn
                        texts.append(" ".join(toks))
                toks[pos] = tok
            sizes.append(len(candidates) - before)
            texts_b += [samples[k].text_b] * sizes[-1]
        sizes = np.array(sizes, dtype=np.int64)
        live = [k for k, n in zip(live, sizes) if n]   # no substitution left: give up
        sizes = sizes[sizes > 0]
        if not live:
            break
        labels, _, z, _ = scorer.predict(featurize_batch(texts, texts_b, scorer.features))
        owner = np.repeat(np.arange(len(live)), sizes)
        probs = softmax(z)[np.arange(len(texts)), gold[live][owner]]
        # Each sample's first candidate of least gold probability, as argmin
        # would pick it from the sample's own batch.
        starts = np.cumsum(sizes) - sizes
        lowest = np.minimum.reduceat(probs, starts)
        hits = np.flatnonzero(probs == lowest[owner])
        best = hits[np.searchsorted(hits, starts)]
        still = []
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
        live = still
    return results


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
    scorer = p.scorer()
    labels, _, z, _ = scorer.predict(d.features(scorer.features))
    gold = d.labels()
    correct = np.flatnonzero(labels == gold)
    probs = softmax(z)[correct, gold[correct]]
    adv_samples: list[Sample] = []
    origins: list[str] = []
    wanted = len(correct) if max_successes is None else max_successes
    start = 0
    while start < len(correct) and len(adv_samples) < wanted:
        group = correct[start:start + min(ATTACK_GROUP, wanted - len(adv_samples))]
        samples = [d.samples[i] for i in group]
        advs = _attack_group(scorer, samples, probs[start:start + len(group)], lexicon, budget)
        for s, adv in zip(samples, advs):
            if adv is not None:
                adv_samples.append(adv)
                origins.append(s.id)
        start += len(group)
    return Dataset(tuple(adv_samples), d.label_names, d.task_kind), origins
