"""The batched numeric path against per-sample reference implementations.

The references below are the per-sample featurizer, forward pass, training
gradients, greedy attacks (per candidate, and per sample with one batch of
candidate texts a step), O(n^2) risk-coverage sweep, per-threshold detection
and cascade loops and the batch cycler that the batched code replaced. Feature
rows, curve points, batches and attack results must match them exactly;
batched confidences, losses and gradients may differ from the per-sample ones
only in summation order, by at most 1e-12. The encoder update, in blocks of
any size, must match one 2-D row scatter of all gradient parts, materialised,
bit for bit.
"""

import copy
import itertools
import os
import subprocess
import sys
import zlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FEATS, correct_mask, get_flat_params, grads_to_flat, part_rows
from selfcal import augment, calibrators, corpus, model, toast
from selfcal.apps import PilotSweepConfig, cascade_eval, pilot_sweeps, score_with_calibration_head
from selfcal.augment import SynonymLexicon, greedy_attack
from selfcal.calibrators import METHODS, Calibrator, ConfidenceLog, train_with_temperature
from selfcal.corpus import Dataset, Sample, generate_synthetic, vocabulary
from selfcal.metrics import (
    DEFAULT_THRESHOLD_GRID,
    _tied_ranks,
    accuracy_coverage_curve,
    auroc,
    cascade_curve,
    coverage_at_risk,
    detection_f1,
    risk_coverage,
)
from selfcal.model import (
    ENCODE_BLOCK_BYTES,
    FEATURE_MODES,
    FeatureMatrix,
    FeaturizerConfig,
    Grads,
    TrainConfig,
    _flat_index,
    apply_grads,
    calib_batch_grads,
    calib_head,
    consistency_batch_grads,
    encode,
    featurize_batch,
    init_parameters,
    main_batch_grads,
    main_head,
    smooth_target,
    softmax,
    train_main,
)
from selfcal.toast import ToastConfig, _batches, downsample_balance, run_toast

TOL = 1e-12


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------

def ref_featurize(text_a, text_b, cfg):
    """Per-text featurizer: sorted bucket indices and their counts."""
    def tokens(text):
        return text.lower().split() if cfg.lowercase else text.split()

    def ngram_keys(toks):
        return [" ".join(toks[i:i + n]) for n in range(1, cfg.ngram_max + 1)
                for i in range(len(toks) - n + 1)]

    keys = ngram_keys(tokens(text_a))
    if text_b is not None:
        toks_b = tokens(text_b)
        if cfg.segment_tagging:
            toks_b = ["\x02" + t for t in toks_b]
        keys += ngram_keys(toks_b)
    counts = {}
    for k in keys:
        idx = zlib.crc32(k.encode("utf-8")) & (cfg.hash_dim - 1)
        counts[idx] = counts.get(idx, 0.0) + 1.0
    indices = np.array(sorted(counts), dtype=np.int64)
    return indices, np.array([counts[i] for i in indices], dtype=np.float64)


def ref_softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def ref_score(method, params, sample, temperature=None, feature_mode="all"):
    """(label, confidence) of one sample through the per-sample forward pass."""
    indices, values = ref_featurize(sample.text_a, sample.text_b, params.features)
    h = values @ params.encoder[indices]
    z = h @ params.w_main + params.b_main
    probs = ref_softmax(z)
    label = int(np.argmax(probs))
    if method in ("vanilla", "label_smoothing"):
        return label, float(probs[label])
    if method == "temperature":
        return label, float(ref_softmax(z / temperature)[label])
    u = np.zeros(params.hidden_dim + params.num_classes)
    if feature_mode != "no_sample":
        u[:params.hidden_dim] = h
    if feature_mode != "no_prediction":
        u[params.hidden_dim + label] = 1.0
    return label, float(ref_softmax(u @ params.w_calib + params.b_calib)[1])


def ref_risk_coverage(log):
    conf = np.asarray(log.confidence, dtype=np.float64)
    correct = np.asarray(log.correct, dtype=np.int64)
    points = []
    for t in np.unique(np.concatenate([conf, [0.0, 1.0]])):
        accepted = conf >= t
        n = int(accepted.sum())
        if n == 0:
            continue
        points.append((float(t), n / conf.size, float(1.0 - correct[accepted].mean())))
    return points


def ref_coverage_at_risk(log, target):
    best = None
    for _, coverage, risk in ref_risk_coverage(log):
        if 1.0 - risk >= target and (best is None or coverage > best):
            best = coverage
    return best


# ---------------------------------------------------------------------------
# Featurizer
# ---------------------------------------------------------------------------

TEXTS = [("The cat sat on the mat", None), ("the the THE cat", "Cat cat mat"),
         ("x", "x"), ("a b c d e f g h", "h g f e d c b a")]


def assert_rows_match(m, pairs, cfg):
    assert len(m) == len(pairs)
    assert m.indptr.dtype == np.int64
    assert m.indices.dtype == np.uint32 and m.values.dtype == np.float32
    for i, (a, b) in enumerate(pairs):
        indices, values = ref_featurize(a, b, cfg)
        lo, hi = m.indptr[i], m.indptr[i + 1]
        assert np.array_equal(m.indices[lo:hi].astype(np.int64), indices)
        assert np.array_equal(m.values[lo:hi].astype(np.float64), values)


@pytest.mark.parametrize("ngram_max", [1, 2, 3])
@pytest.mark.parametrize("lowercase", [True, False])
@pytest.mark.parametrize("segment_tagging", [True, False])
def test_featurize_batch_rows_match_reference(ngram_max, lowercase, segment_tagging):
    cfg = FeaturizerConfig(lowercase=lowercase, ngram_max=ngram_max, hash_dim=256,
                           segment_tagging=segment_tagging)
    m = featurize_batch([a for a, _ in TEXTS], [b for _, b in TEXTS], cfg)
    assert_rows_match(m, TEXTS, cfg)
    singles = [(a, None) for a, _ in TEXTS]
    assert_rows_match(featurize_batch([a for a, _ in singles], cfg=cfg), singles, cfg)


def test_featurize_is_the_reference_row():
    cfg = FeaturizerConfig(hash_dim=1024)
    for a, b in TEXTS:
        assert_rows_match(featurize_batch([a], [b], cfg), [(a, b)], cfg)


def assert_same_matrix(got, want):
    assert got.dim == want.dim and len(got) == len(want)
    for name in ("indptr", "indices", "values"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("seed", range(6))
def test_take_equals_featurizing_the_rows(seed):
    rng = np.random.default_rng(seed)
    d = random_dataset(seed, 60)
    m = d.features(FEATS)
    for rows in (rng.choice(len(d), size=int(rng.integers(1, 80))),   # repeats
                 rng.permutation(len(d)), np.arange(len(d))[::-1], [], [7]):
        picked = [d.samples[int(i)] for i in rows]
        assert_same_matrix(m.take(rows), featurize_batch(
            [s.text_a for s in picked], [s.text_b for s in picked], FEATS))


SUBSET_CONFIGS = (FeaturizerConfig(hash_dim=1024), FeaturizerConfig(
    lowercase=False, ngram_max=3, hash_dim=64, segment_tagging=False))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 30), pair=st.booleans(),
       data=st.data())
def test_subset_matrices_equal_featurizing_the_rows(seed, n, pair, data):
    d = random_dataset(seed, n)
    if pair:  # every sample has a second segment, tagged under one config
        d = Dataset([replace(s, text_b=f"{s.text_a} b{i % 4}") for i, s in enumerate(d)],
                    d.label_names, "pair")
    for cfg in SUBSET_CONFIGS:
        d.features(cfg)
    perm = np.random.default_rng(seed).permutation(n)
    drawn = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    for rows in (drawn, [], (), np.arange(n)[::-1], perm, perm[: n // 2], tuple(perm - n)):
        sub = d.subset(rows)
        picked = [d.samples[int(i)] for i in rows]
        assert sub.samples == tuple(picked) and sub.task_kind == d.task_kind
        for cfg in SUBSET_CONFIGS:
            m = sub.features(cfg)
            assert_same_matrix(m, featurize_batch(
                [s.text_a for s in picked], [s.text_b for s in picked], cfg))
            assert not any(a.flags.writeable for a in (m.indptr, m.indices, m.values))


def test_featurize_batch_rejects_empty_text():
    with pytest.raises(ValueError, match="no tokens"):
        featurize_batch(["fine", "  "])


def test_empty_batch():
    m = featurize_batch([])
    assert len(m) == 0 and m.indptr.tolist() == [0]
    p = init_parameters(2, TrainConfig(hidden_dim=4, features=FeaturizerConfig()))
    assert encode(p, m).shape == (0, 4)


WORDS = st.text(alphabet="abAB\x02é", min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(st.tuples(st.lists(WORDS, min_size=1, max_size=8),
                                st.one_of(st.none(), st.lists(WORDS, max_size=5))),
                      max_size=8),
       ngram_max=st.integers(1, 4), hash_dim=st.sampled_from([2, 64, 2 ** 32]),
       lowercase=st.booleans(), tagging=st.booleans(), chunk_tokens=st.integers(1, 12))
# A text_a token that starts with the segment-b marker, next to a tagged
# text_b: both are the same word, in one chunk.
@example(texts=[(["\x02a", "b"], ["a", "b"])], ngram_max=2, hash_dim=2 ** 32,
         lowercase=True, tagging=True, chunk_tokens=12)
# An empty text_b (no tokens) next to a missing one.
@example(texts=[(["a"], []), (["b", "a"], None), (["a"], [])], ngram_max=3, hash_dim=64,
         lowercase=False, tagging=True, chunk_tokens=2)
# A chunk tail of one token.
@example(texts=[(["a", "b", "a"], None), (["b"], None)], ngram_max=4, hash_dim=64,
         lowercase=True, tagging=False, chunk_tokens=3)
@example(texts=[], ngram_max=2, hash_dim=64, lowercase=True, tagging=True, chunk_tokens=1)
def test_featurize_batch_property(texts, ngram_max, hash_dim, lowercase, tagging,
                                  chunk_tokens):
    cfg = FeaturizerConfig(lowercase=lowercase, ngram_max=ngram_max, hash_dim=hash_dim,
                           segment_tagging=tagging)
    pairs = [(" ".join(a), None if b is None else " ".join(b)) for a, b in texts]
    texts_a, texts_b = [a for a, _ in pairs], [b for _, b in pairs]
    # featurize_batch's two paths: one Counter for a lone text, and the
    # token-id core, here in chunks of chunk_tokens, for any other call.
    with mock.patch.object(model, "CHUNK_TOKENS", chunk_tokens):
        m = featurize_batch(texts_a, texts_b, cfg)
    id_core = model._hash_chunks((model._tokenize(a, b, cfg) for a, b in pairs), cfg,
                                 chunk_tokens)
    assert_rows_match(m, pairs, cfg)
    assert_same_matrix(id_core, m)
    for i, (a, b) in enumerate(pairs):
        assert_same_matrix(model._hash_text(a, b, cfg), m.take([i]))


def test_featurize_batch_picks_its_path_by_text_count(monkeypatch):
    # A lone text, however long, goes through _hash_text; the empty call and
    # every call of two or more texts through the id core, here chunked
    # mid-batch every 3 tokens.
    monkeypatch.setattr(model, "CHUNK_TOKENS", 3)
    paths = []
    for name in ("_hash_text", "_hash_chunks", "_hash_chunk"):
        monkeypatch.setattr(model, name, lambda *args, _f=getattr(model, name), _n=name:
                            paths.append(_n) or _f(*args))
    cfg = FeaturizerConfig(ngram_max=3, hash_dim=64)
    long_text = " ".join(f"w{i % 50}" for i in range(600))
    for pairs, want in (([], ["_hash_chunks"]),
                        ([("a b", "c")], ["_hash_text"]),
                        ([(long_text, None)], ["_hash_text"]),
                        ([("a", None), ("b", None)], ["_hash_chunks", "_hash_chunk"]),
                        ([("a b", "c"), ("d e f", None), ("g h", "i"), ("j", None)],
                         ["_hash_chunks"] + 4 * ["_hash_chunk"])):
        paths.clear()
        m = featurize_batch([a for a, _ in pairs], [b for _, b in pairs], cfg)
        assert paths == want
        assert_rows_match(m, pairs, cfg)
    # A text with no tokens fails the same way on both paths.
    for texts in ([" "], ["a b", "\t"]):
        with pytest.raises(ValueError, match="^text_a has no tokens$"):
            featurize_batch(texts, cfg=cfg)


def test_every_feature_matrix_is_read_only():
    d = random_dataset(3, 12)
    m = d.features(FEATS)
    for got in (featurize_batch(["one text"]), featurize_batch(["a", "b c"]),
                featurize_batch([]), m, m.take([4, 1, 4]), m.take([]),
                d.subset([2, 0]).features(FEATS)):
        assert not any(a.flags.writeable for a in (got.indptr, got.indices, got.values))


# ---------------------------------------------------------------------------
# Encoder and scoring
# ---------------------------------------------------------------------------

def random_params(seed, hidden=8, num_classes=3, feats=FEATS):
    rng = np.random.default_rng(seed)
    p = init_parameters(num_classes, TrainConfig(hidden_dim=hidden, seed=seed, features=feats))
    p.encoder[:] = rng.normal(scale=0.3, size=p.encoder.shape)
    for name in ("w_main", "b_main", "w_calib", "b_calib"):
        getattr(p, name)[:] = rng.normal(size=getattr(p, name).shape)
    return p


def random_dataset(seed, n, max_len=40, num_classes=3):
    rng = np.random.default_rng(seed)
    samples = tuple(
        Sample(id=f"r{i}", text_a=" ".join(f"w{int(j)}" for j in rng.integers(0, 300, size=L)),
               text_b=None if i % 3 else "pair text", label=int(rng.integers(num_classes)))
        for i, L in enumerate(rng.integers(1, max_len, size=n)))
    return Dataset(samples, tuple(f"c{k}" for k in range(num_classes)))


def test_chunked_encode_matches_one_row_at_a_time(monkeypatch):
    d = random_dataset(1, 400, max_len=60)
    for hidden in (16, 64, 128):
        # Buckets enough for one row longer than a block even at hidden 16.
        p = random_params(0, hidden=hidden, feats=FeaturizerConfig(hash_dim=2 ** 15))
        block = ENCODE_BLOCK_BYTES // (8 * hidden)
        long = Sample(id="long", text_a=" ".join(f"t{i}" for i in range(block)))
        samples = d.samples[:200] + (long,) + d.samples[200:]
        m = Dataset(samples, d.label_names).features(p.features)
        assert m.indptr[-1] > 3 * block
        assert np.diff(m.indptr).max() > block
        whole = encode(p, m)
        for i, s in enumerate(samples):
            one = encode(p, featurize_batch([s.text_a], [s.text_b], p.features))
            assert np.array_equal(whole[i], one[0])
            indices, values = ref_featurize(s.text_a, s.text_b, p.features)
            np.testing.assert_allclose(whole[i], values @ p.encoder[indices], rtol=0, atol=TOL)
        # One nonzero per block: every row is a block of its own.
        with monkeypatch.context() as patch:
            patch.setattr(model, "ENCODE_BLOCK_BYTES", 8 * hidden)
            assert np.array_equal(encode(p, m), whole)


def test_encode_rejects_other_hash_dim():
    p = random_params(0)
    with pytest.raises(ValueError, match="hash_dim"):
        encode(p, featurize_batch(["a b"], cfg=FeaturizerConfig(hash_dim=64)))


@pytest.mark.parametrize("method", METHODS)
def test_batched_scores_match_per_sample(method):
    d = random_dataset(2, 150)
    for seed in (3, 4):
        c = Calibrator(method, random_params(seed), temperature=1.7)
        log = c.build_log(d, "id")
        for i, s in enumerate(d.samples):
            label, conf = ref_score(method, c.params, s, temperature=1.7)
            assert log.pred[i] == label
            assert abs(log.confidence[i] - conf) <= TOL
            # One request scores exactly as the same text inside a batch.
            assert c.score(s) == (log.pred[i], log.confidence[i])


def test_trained_calibrators_match_per_sample(paired_runs):
    run = paired_runs[0]
    for method in METHODS:
        c = run[method]
        log = c.build_log(run["data"].test, "id")
        for i, s in enumerate(run["data"].test.samples):
            label, conf = ref_score(method, c.params, s, temperature=c.temperature)
            assert log.pred[i] == label
            assert abs(log.confidence[i] - conf) <= TOL


@pytest.mark.parametrize("feature_mode", FEATURE_MODES)
def test_calibration_head_matches_per_sample(feature_mode):
    d = random_dataset(5, 120)
    p = random_params(6)
    log = score_with_calibration_head(p, d, feature_mode)
    for i, s in enumerate(d.samples):
        label, conf = ref_score("toast", p, s, feature_mode=feature_mode)
        assert log.pred[i] == label
        assert abs(log.confidence[i] - conf) <= TOL
        assert log.correct[i] == int(label == s.label)


def assert_scorer_matches_encoder_and_heads(p, m, y_star):
    """The Scorer's main and correctness-head logits against ``encode`` +
    ``main_head`` + ``calib_head``, in every feature mode: within 1e-12
    relative to the logit (absolute below 1), since the table only reorders
    the sums."""
    def close(got, want):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= TOL * np.maximum(np.abs(want), 1.0))

    h = encode(p, m)
    labels, prob, z, sample = p.scorer().predict(m)
    close(z, main_head(p, h))
    assert np.array_equal(prob, softmax(z).max(axis=1))
    assert np.array_equal(labels, z.argmax(axis=1))
    for mode in FEATURE_MODES:
        close(p.scorer().calib_logits(sample, y_star, mode), calib_head(p, h, y_star, mode))
    return labels, prob, z, sample


def test_scorer_matches_encoder_and_heads():
    d = random_dataset(8, 200, max_len=60)
    p = random_params(9, hidden=16, num_classes=4)
    m = d.features(p.features)
    assert_scorer_matches_encoder_and_heads(
        p, m, np.random.default_rng(1).integers(0, 4, size=len(m)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hash_bits=st.integers(1, 12),
       hidden=st.integers(1, 48), num_classes=st.integers(2, 6),
       lengths=st.lists(st.integers(1, 60), max_size=10),
       block_nnz=st.integers(1, 40), table_rows=st.integers(1, 300))
@example(seed=0, hash_bits=12, hidden=8, num_classes=2, lengths=[60, 1, 3],
         block_nnz=4, table_rows=1)
def test_scorer_property(seed, hash_bits, hidden, num_classes, lengths, block_nnz, table_rows):
    # Gather blocks of block_nnz nonzeros, so rows longer than a block are
    # common, and tables built table_rows encoder rows at a time.
    p = random_params(seed % 997, hidden=hidden, num_classes=num_classes,
                      feats=FeaturizerConfig(hash_dim=2 ** hash_bits))
    rng = np.random.default_rng(seed)
    texts = [" ".join(f"w{j}" for j in rng.integers(0, 500, size=n)) for n in lengths]
    m = featurize_batch(texts, cfg=p.features)
    y_star = rng.integers(0, num_classes, size=len(m))
    width = num_classes + 2
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "ENCODE_BLOCK_BYTES", 8 * width * block_nnz)
        patch.setattr(model, "TABLE_BLOCK_BYTES", 8 * width * table_rows)
        whole = assert_scorer_matches_encoder_and_heads(p, m, y_star)
        # The table does not depend on its build blocks.
        assert np.array_equal(model.Scorer(p).table, p.scorer().table)
        # A text scores bit for bit the same alone as in the batch.
        for i, text in enumerate(texts):
            one = p.scorer().predict(featurize_batch([text], cfg=p.features))
            for got, want in zip(one, whole):
                assert np.array_equal(got[0], want[i])


def test_a_scored_model_is_frozen():
    p = random_params(10)
    d = random_dataset(11, 40)
    m = d.features(p.features)
    _, g = main_batch_grads(p, m, d.labels())
    scorer = p.scorer()
    assert p.scorer() is scorer and Calibrator("toast", p).scorer is scorer
    names = ("encoder", "w_main", "b_main", "w_calib", "b_calib")
    assert not any(getattr(p, n).flags.writeable for n in names)
    with pytest.raises(ValueError) as exc:
        apply_grads(p, g, 0.1)
    assert str(exc.value) == ("model parameters are read-only: the model has been scored "
                              "(ModelParameters.scorer); train a copy instead")
    # A copy trains, and scores through a table of its own parameters.
    q = copy.deepcopy(p)
    apply_grads(q, g, 0.1)
    assert q.scorer() is not scorer
    assert_scorer_matches_encoder_and_heads(q, m, d.labels())
    assert not np.array_equal(q.scorer().table, scorer.table)
    # A tensor swapped in after scoring gets a new table.
    p.w_main = p.w_main + 1.0
    assert p.scorer() is not scorer
    assert_scorer_matches_encoder_and_heads(p, m, d.labels())


def test_memoised_matrix_is_shared_and_read_only():
    d = random_dataset(7, 20)
    m = d.features(FEATS)
    assert d.features(FEATS) is m
    assert d.features(FeaturizerConfig(hash_dim=64)) is not m
    for a in (m.indptr, m.indices, m.values):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1
    # The memo is a cache, not part of the dataset's value.
    assert d == Dataset(d.samples, d.label_names)


def count_hashed_rows(monkeypatch) -> list[int]:
    """Patch every module's ``featurize_batch`` to log its batch sizes."""
    hashed = []

    def counting(texts_a, texts_b=None, cfg=FeaturizerConfig()):
        texts_a = list(texts_a)
        hashed.append(len(texts_a))
        return featurize_batch(texts_a, texts_b, cfg)

    for module in (augment, calibrators, corpus, toast):
        monkeypatch.setattr(module, "featurize_batch", counting)
    return hashed


def fresh(d: Dataset) -> Dataset:
    """``d`` with no memoised feature matrix."""
    return Dataset(d.samples, d.label_names, d.task_kind)


@pytest.mark.parametrize("flags", [{"k": 3}, {"no_cross_annotation": True},
                                   {"augment_per_negative": 2}])
def test_each_dataset_is_hashed_once(synth_data, lexicon, monkeypatch, flags):
    """Folds, the calibration rows, the clean side of the augmented pairs and
    the baselines' split take rows of the parent's matrix; only the augmented
    texts are hashed on their own."""
    hashed = count_hashed_rows(monkeypatch)
    tc = TrainConfig(epochs=2, hidden_dim=8, seed=3, features=FEATS)
    d = fresh(synth_data.train)
    _, art = run_toast(d, ToastConfig(train=tc, **flags), lexicon)
    assert art.daug and sum(hashed) == len(d) + len(art.daug)
    hashed.clear()
    train = fresh(synth_data.train)
    train_with_temperature(train, tc)
    assert sum(hashed) == len(train)


def test_annotators_on_other_features_hash_each_text_once_per_config(synth_data, lexicon,
                                                                    monkeypatch):
    # No text is hashed twice under one FeaturizerConfig: the task rows once
    # per config, then the augmented texts.
    hashed = count_hashed_rows(monkeypatch)
    tc = TrainConfig(epochs=2, hidden_dim=8, seed=3, features=FEATS)
    cfg = ToastConfig(train=tc, annotator_train=replace(
        tc, epochs=1, features=FeaturizerConfig(hash_dim=512, ngram_max=1)))
    d = fresh(synth_data.train)
    _, art = run_toast(d, cfg, lexicon)
    assert art.daug and sum(hashed) == 2 * len(d) + len(art.daug)


@pytest.mark.parametrize("flags", [{"k": 3}, {"no_cross_annotation": True}])
def test_stage_3_matrices_equal_featurizing_the_records(synth_data, lexicon, monkeypatch,
                                                        flags):
    """On a pair task, the matrices stage 3 trains on are byte-equal to
    featurizing the audit bundle's texts: the calibration rows, the clean
    side of the augmented pairs, and the augmented texts with their second
    segments."""
    d = Dataset([replace(s, text_b=" ".join(s.text_a.split()[::-2]) + f" b{i % 5}")
                 for i, s in enumerate(synth_data.train)], synth_data.train.label_names, "pair")
    # Every batch is the whole collection, so the first step sees each matrix.
    monkeypatch.setattr(toast, "_batches", lambda n, size, rng: itertools.repeat(np.arange(n)))
    seen = {}
    for name in ("calib_batch_grads", "consistency_batch_grads"):
        def recording(p, *args, _name=name, _fn=getattr(toast, name)):
            seen.setdefault(_name, args)
            return _fn(p, *args)
        monkeypatch.setattr(toast, name, recording)
    tc = TrainConfig(epochs=1, hidden_dim=8, seed=3, batch_size=len(d), features=FEATS)
    _, art = run_toast(d, ToastConfig(train=tc, augment_per_negative=2, **flags), lexicon)

    rows = art.daug.rows.tolist()
    assert rows and rows[::2] == rows[1::2]   # each wrong row augmented twice
    dstar = art.dstar
    assert_same_matrix(seen["calib_batch_grads"][0], featurize_batch(
        [r.text_a for r in dstar], [r.text_b for r in dstar], FEATS))
    clean, aug = seen["consistency_batch_grads"][:2]
    text_b = [dstar[i].text_b for i in rows]
    assert all(text_b)
    assert_same_matrix(clean, featurize_batch([dstar[i].text_a for i in rows], text_b, FEATS))
    assert_same_matrix(aug, featurize_batch(art.daug.texts, text_b, FEATS))
    assert not np.array_equal(aug.indptr, featurize_batch(art.daug.texts, None, FEATS).indptr)


@pytest.mark.parametrize("kind", ["size", "imbalance", "features"])
def test_pilot_sweeps_hash_each_dataset_once(synth_data, synth_cfg, monkeypatch, kind):
    """Grid points take rows of the annotated pool; no point hashes a text,
    and no empty batch is hashed for the absent augmented pairs."""
    hashed = count_hashed_rows(monkeypatch)
    tc = TrainConfig(epochs=1, hidden_dim=8, seed=3, features=FEATS)
    cfg = PilotSweepConfig(annotator=tc, train=replace(tc, seed=4), seeds=(0, 1),
                           sizes=(20, 80), ratios=(0.3, 0.7), fixed_factors=(1, 2))
    train, test = fresh(synth_data.train), fresh(synth_data.test)
    pool = generate_synthetic(replace(synth_cfg, seed=77)).train
    rows = pilot_sweeps(train, pool, test, kind, cfg)
    assert any(r["n_seeds"] for r in rows)
    assert sum(hashed) == len(train) + len(pool) + len(test)
    assert 0 not in hashed


def ref_downsample_balance(correct, rng):
    """The record-list rebalancing: kept positions in input order."""
    neg = [i for i, c in enumerate(correct) if c == 0]
    pos = [i for i, c in enumerate(correct) if c == 1]
    minority, majority = (neg, pos) if len(neg) <= len(pos) else (pos, neg)
    chosen = rng.choice(len(majority), size=len(minority), replace=False)
    keep = set(minority) | {majority[int(i)] for i in chosen}
    return [i for i in range(len(correct)) if i in keep]


@settings(max_examples=80, deadline=None)
@given(correct=st.lists(st.integers(0, 1), min_size=2, max_size=80),
       seed=st.integers(0, 2 ** 16))
def test_row_rebalancing_draws_what_the_record_lists_drew(correct, seed):
    # The same draws from the same streams as the record lists, so the
    # calibration sets and the imbalance sweep's class orders do not move.
    if len(set(correct)) == 2:
        got = downsample_balance(np.array(correct), np.random.default_rng(seed))
        assert got.tolist() == ref_downsample_balance(correct, np.random.default_rng(seed))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for c in (0, 1):
        listed = [i for i, x in enumerate(correct) if x == c]
        ref_rng.shuffle(listed)
        assert rng.permutation(np.flatnonzero(np.array(correct) == c)).tolist() == listed


# ---------------------------------------------------------------------------
# Metric curves
# ---------------------------------------------------------------------------

def tie_heavy_log(seed, n, levels):
    rng = np.random.default_rng(seed)
    conf = rng.integers(0, levels + 1, size=n) / levels
    correct = rng.integers(0, 2, size=n)
    return ConfidenceLog(conf, correct, np.zeros(n, dtype=np.int64), ("id",) * n)


@pytest.mark.parametrize("seed,n,levels", [(0, 1, 4), (1, 50, 3), (2, 500, 7),
                                           (3, 2000, 40), (4, 300, 1000)])
def test_one_sort_curves_equal_reference(seed, n, levels):
    log = tie_heavy_log(seed, n, levels)
    ref = ref_risk_coverage(log)
    assert risk_coverage(log) == ref
    assert accuracy_coverage_curve(log) == [(t, c, 1.0 - r) for t, c, r in ref]
    for target in (0.3, 0.5, 0.6, 0.75, 0.9, 1.0):
        assert coverage_at_risk(log, target) == ref_coverage_at_risk(log, target)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0]), st.booleans()),
                min_size=1, max_size=40))
def test_one_sort_curves_property(rows):
    n = len(rows)
    log = ConfidenceLog(np.array([c for c, _ in rows]), np.array([int(k) for _, k in rows]),
                        np.zeros(n, dtype=np.int64), ("id",) * n)
    assert risk_coverage(log) == ref_risk_coverage(log)
    assert coverage_at_risk(log, 0.5) == ref_coverage_at_risk(log, 0.5)


def brute_force_ranks(x):
    return np.array([(x < v).sum() + ((x == v).sum() + 1) / 2.0 for v in x])


def test_tied_ranks_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.integers(0, int(rng.integers(1, 20)), size=int(rng.integers(1, 60))) / 3.0
        assert np.array_equal(_tied_ranks(x), brute_force_ranks(x))


def test_tied_ranks_match_rankdata():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(1)
    for _ in range(3000):
        x = rng.integers(0, int(rng.integers(1, 30)), size=int(rng.integers(1, 80))).astype(float)
        assert np.array_equal(_tied_ranks(x), stats.rankdata(x))


def test_auroc_with_ties():
    assert auroc([1.0, 1.0], [1.0]) == 0.5
    assert auroc([0.2, 0.9, 0.9], [0.1, 0.9]) == pytest.approx(4.0 / 6.0, abs=TOL)


def test_cascade_area_matches_numpy_trapezoid():
    trapezoid = getattr(np, "trapezoid", None)
    if trapezoid is None:
        pytest.skip("np.trapezoid needs NumPy >= 2.0")
    log = tie_heavy_log(5, 400, 20)
    large = np.random.default_rng(6).integers(0, 2, size=400)
    points, area = cascade_curve(log, large)
    t = np.array([p[0] for p in points])
    accs = np.array([p[1] for p in points])
    assert area == float(trapezoid(accs, t) / (t[-1] - t[0]))


def ref_detection_f1(id_scores, adv_scores, threshold):
    """Macro-F1 at one threshold, counted by comparing every score with it."""
    id_scores = np.asarray(id_scores, dtype=np.float64)
    adv_scores = np.asarray(adv_scores, dtype=np.float64)
    tp_adv = int((adv_scores < threshold).sum())
    fp_adv = int((id_scores < threshold).sum())
    fn_adv = int((adv_scores >= threshold).sum())
    tp_id = int((id_scores >= threshold).sum())

    def f1(tp, fp, fn):
        denom = 2 * tp + fp + fn
        return 2 * tp / denom if denom else 0.0

    return (f1(tp_adv, fp_adv, fn_adv) + f1(tp_id, fn_adv, fp_adv)) / 2.0


def ref_cascade_points(small_log, large_correct, thresholds):
    """(threshold, accuracy, routed fraction) per threshold, each from its own
    routing mask."""
    points = []
    for t in np.asarray(thresholds, dtype=np.float64):
        routed = small_log.confidence < t
        correct = np.where(routed, large_correct, small_log.correct)
        points.append((float(t), float(correct.mean()), float(routed.mean())))
    return points


LEVELS = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0]
# Grid values, ties with LEVELS, and thresholds outside [0, 1].
THRESHOLDS = st.lists(st.sampled_from(LEVELS + [0.3, -0.5, 1.01]), max_size=8)


@settings(max_examples=100, deadline=None)
@given(id_scores=st.lists(st.sampled_from(LEVELS), min_size=1, max_size=40),
       adv_scores=st.lists(st.sampled_from(LEVELS), min_size=1, max_size=40),
       extra=THRESHOLDS)
def test_one_sort_detection_f1_equals_the_threshold_loop(id_scores, adv_scores, extra):
    grid = np.concatenate([extra, DEFAULT_THRESHOLD_GRID])
    want = [ref_detection_f1(id_scores, adv_scores, float(t)) for t in grid]
    assert np.array_equal(detection_f1(id_scores, adv_scores, grid), want)
    assert [detection_f1(id_scores, adv_scores, float(t)) for t in extra] == want[:len(extra)]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(LEVELS), st.booleans(), st.booleans()),
                     min_size=1, max_size=40),
       extra=THRESHOLDS)
def test_one_sort_cascade_curve_equals_the_threshold_loop(rows, extra):
    n = len(rows)
    log = ConfidenceLog(np.array([c for c, _, _ in rows]),
                        np.array([int(s) for _, s, _ in rows]),
                        np.zeros(n, dtype=np.int64), ("id",) * n)
    large = np.array([int(x) for _, _, x in rows])
    grid = np.unique(np.concatenate([extra, DEFAULT_THRESHOLD_GRID]))
    assert cascade_curve(log, large, grid)[0] == ref_cascade_points(log, large, grid)
    assert cascade_curve(log, large)[0] == ref_cascade_points(log, large, DEFAULT_THRESHOLD_GRID)


@pytest.mark.parametrize("seed,n,levels", [(0, 1, 4), (1, 50, 3), (2, 500, 7), (4, 300, 1000)])
def test_one_sort_grids_equal_the_threshold_loops_on_tie_heavy_logs(seed, n, levels):
    log = tie_heavy_log(seed, n, levels)
    large = np.random.default_rng(seed + 10).integers(0, 2, size=n)
    grid = DEFAULT_THRESHOLD_GRID
    assert cascade_curve(log, large)[0] == ref_cascade_points(log, large, grid)
    ids, advs = log.confidence[log.correct == 1], log.confidence[log.correct == 0]
    if ids.size and advs.size:
        want = [ref_detection_f1(ids, advs, float(t)) for t in grid]
        assert np.array_equal(detection_f1(ids, advs, grid), want)


def test_cascade_eval_routed_fractions_equal_comparisons(base_model, synth_data):
    calib = Calibrator("temperature", base_model, temperature=2.0)
    rep = cascade_eval(calib, base_model, synth_data.test)
    conf = calib.build_log(synth_data.test, "id").confidence
    assert [(t, r) for t, _, r in rep["curve"]] == [
        (float(t), float((conf < t).mean())) for t in DEFAULT_THRESHOLD_GRID]


def test_import_does_not_load_scipy():
    code = "import sys, selfcal; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_featurize_batch_rejects_misaligned_segments():
    with pytest.raises(ValueError):
        featurize_batch(["a b", "c d"], ["x"])


# ---------------------------------------------------------------------------
# Training gradients
# ---------------------------------------------------------------------------

def ref_smooth_target(label, num_classes, epsilon):
    t = np.full(num_classes, epsilon / (num_classes - 1))
    t[label] = 1.0 - epsilon
    return t


def ref_calib_input(p, h, y_star, feature_mode):
    u = np.zeros(p.hidden_dim + p.num_classes)
    if feature_mode != "no_sample":
        u[:p.hidden_dim] = h
    if feature_mode != "no_prediction":
        u[p.hidden_dim + y_star] = 1.0
    return u


def ref_safe_log(x):
    return np.log(np.maximum(x, 1e-12))


def ref_part(p, indices, values, dh):
    """The encoder-gradient part of one (indices, values) row whose encoder
    output has the loss gradient ``dh``."""
    m = FeatureMatrix(np.array([0, len(indices)]), indices, values, p.features.hash_dim)
    return m, dh[None, :], ()


def ref_main_batch_grads(p, vecs, labels, epsilon=0.0):
    """Per-sample loop over (indices, values) rows, as the model had it."""
    g = Grads.zeros(p)
    n = len(vecs)
    loss = 0.0
    for (indices, values), y in zip(vecs, labels):
        h = values @ p.encoder[indices]
        probs = ref_softmax(h @ p.w_main + p.b_main)
        t = ref_smooth_target(int(y), p.num_classes, epsilon)
        loss += -(t * ref_safe_log(probs)).sum()
        dz = (probs - t) / n
        g.w_main += np.outer(h, dz)
        g.b_main += dz
        g.enc_parts.append(ref_part(p, indices, values, p.w_main @ dz))
    return loss / n, g


def ref_calib_batch_grads(p, vecs, y_stars, cs, epsilon=0.0, feature_mode="all"):
    g = Grads.zeros(p)
    n = len(vecs)
    loss = 0.0
    hd = p.hidden_dim
    for (indices, values), y_star, c in zip(vecs, y_stars, cs):
        h = values @ p.encoder[indices]
        u = ref_calib_input(p, h, int(y_star), feature_mode)
        probs = ref_softmax(u @ p.w_calib + p.b_calib)
        t = ref_smooth_target(int(c), 2, epsilon)
        loss += -(t * ref_safe_log(probs)).sum()
        dz = (probs - t) / n
        g.w_calib += np.outer(u, dz)
        g.b_calib += dz
        if feature_mode != "no_sample":
            g.enc_parts.append(ref_part(p, indices, values, p.w_calib[:hd] @ dz))
    return loss / n, g


def ref_consistency_batch_grads(p, clean_vecs, aug_vecs, y_stars, feature_mode="all"):
    g = Grads.zeros(p)
    n = len(clean_vecs)
    loss = 0.0
    hd = p.hidden_dim
    for fc, fa, y_star in zip(clean_vecs, aug_vecs, y_stars):
        y_star = int(y_star)
        hc = fc[1] @ p.encoder[fc[0]]
        ha = fa[1] @ p.encoder[fa[0]]
        uc = ref_calib_input(p, hc, y_star, feature_mode)
        ua = ref_calib_input(p, ha, y_star, feature_mode)
        r = ref_softmax(uc @ p.w_calib + p.b_calib)
        s = ref_softmax(ua @ p.w_calib + p.b_calib)
        log_ratio = ref_safe_log(r) - ref_safe_log(s)
        kl = float((r * log_ratio).sum())
        loss += kl
        dzc = (r * log_ratio - kl * r) / n
        dza = (s - r) / n
        g.w_calib += np.outer(uc, dzc) + np.outer(ua, dza)
        g.b_calib += dzc + dza
        if feature_mode != "no_sample":
            for (indices, values), dz in ((fc, dzc), (fa, dza)):
                g.enc_parts.append(ref_part(p, indices, values, p.w_calib[:hd] @ dz))
    return loss / n, g


def assert_same_loss_and_grads(p, got, want):
    assert abs(got[0] - want[0]) <= TOL
    dense_got, dense_want = grads_to_flat(p, got[1]), grads_to_flat(p, want[1])
    assert np.max(np.abs(dense_got - dense_want)) <= TOL


def grad_instances(seed, count=12):
    """Random models, each with batches drawn (with repeats) from a dataset of
    single and paired texts, their per-sample reference rows, and labels."""
    rng = np.random.default_rng(seed)
    d = random_dataset(seed, 80, num_classes=3)
    clean = d.features(FEATS)
    aug_d = random_dataset(seed + 1000, 80, num_classes=3)
    aug = aug_d.features(FEATS)
    for k in range(count):
        p = random_params(seed * 100 + k)
        b = rng.choice(len(d), size=int(rng.integers(1, 40)))
        ref_clean = [ref_featurize(d.samples[i].text_a, d.samples[i].text_b, FEATS) for i in b]
        ref_aug = [ref_featurize(aug_d.samples[i].text_a, aug_d.samples[i].text_b, FEATS)
                   for i in b]
        labels = rng.integers(0, p.num_classes, size=len(b))
        cs = rng.integers(0, 2, size=len(b))
        yield p, clean.take(b), aug.take(b), ref_clean, ref_aug, labels, cs


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3])
def test_main_batch_grads_match_per_sample(epsilon):
    for p, m, _, vecs, _, labels, _ in grad_instances(10):
        assert_same_loss_and_grads(p, main_batch_grads(p, m, labels, epsilon),
                                   ref_main_batch_grads(p, vecs, labels, epsilon))


@pytest.mark.parametrize("feature_mode", FEATURE_MODES)
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3])
def test_calib_batch_grads_match_per_sample(feature_mode, epsilon):
    for p, m, _, vecs, _, labels, cs in grad_instances(11):
        assert_same_loss_and_grads(
            p, calib_batch_grads(p, m, labels, cs, epsilon, feature_mode),
            ref_calib_batch_grads(p, vecs, labels, cs, epsilon, feature_mode))


@pytest.mark.parametrize("feature_mode", FEATURE_MODES)
def test_consistency_batch_grads_match_per_sample(feature_mode):
    for p, m, m_aug, vecs, aug_vecs, labels, _ in grad_instances(12):
        assert_same_loss_and_grads(
            p, consistency_batch_grads(p, m, m_aug, labels, feature_mode),
            ref_consistency_batch_grads(p, vecs, aug_vecs, labels, feature_mode))


# ---------------------------------------------------------------------------
# Encoder update
# ---------------------------------------------------------------------------

def ref_apply_grads(p, g, lr):
    """The update as one 2-D row scatter of all encoder parts, materialised
    and concatenated."""
    p.w_main -= lr * g.w_main
    p.b_main -= lr * g.b_main
    p.w_calib -= lr * g.w_calib
    p.b_calib -= lr * g.b_calib
    if g.enc_parts:
        rows, vals = zip(*map(part_rows, g.enc_parts))
        np.subtract.at(p.encoder, np.concatenate(rows), lr * np.concatenate(vals))


def multitask_step(p, d, calib, clean, aug, batches, feature_mode, alpha):
    """One stage-3 step as ``train_multitask`` takes it: main, calibration and
    alpha-scaled consistency gradients, added in that order."""
    b_main, b_calib, b_aug = batches
    _, g = main_batch_grads(p, d.take(b_main), b_main % p.num_classes, 0.1)
    _, gc = calib_batch_grads(p, calib.take(b_calib), b_calib % p.num_classes,
                              b_calib % 2, 0.1, feature_mode)
    _, ga = consistency_batch_grads(p, clean.take(b_aug), aug.take(b_aug),
                                    b_aug % p.num_classes, feature_mode)
    return g.add(gc).add(ga.scaled(alpha))


@pytest.mark.parametrize("feature_mode", FEATURE_MODES)
@pytest.mark.parametrize("alpha", [0.1, 1.0, 0.37])
def test_apply_grads_is_bit_identical_to_one_row_scatter(feature_mode, alpha):
    rng = np.random.default_rng(7)
    d = random_dataset(20, 60).features(FEATS)
    calib = random_dataset(21, 60).features(FEATS)
    clean = random_dataset(22, 60).features(FEATS)
    aug = random_dataset(23, 60).features(FEATS)
    p = random_params(24)
    q = copy.deepcopy(p)
    for step in range(12):
        # Drawn with replacement: buckets repeat within a part and across parts.
        batches = [rng.choice(60, size=16) for _ in range(3)]
        g = multitask_step(p, d, calib, clean, aug, batches, feature_mode, alpha)
        g_ref = multitask_step(q, d, calib, clean, aug, batches, feature_mode, alpha)
        parts = [m.indices for m, _, _ in g.enc_parts]
        assert len(np.unique(parts[0])) < len(parts[0])
        if feature_mode == "no_sample":
            assert len(parts) == 1   # the calibration head never reads the encoder
        else:
            assert len(parts) == 4
            assert np.intersect1d(parts[0], parts[1]).size > 0
            assert [scales for _, _, scales in g.enc_parts] == [(), (), (alpha,), (alpha,)]
        apply_grads(p, g, 0.5)
        ref_apply_grads(q, g_ref, 0.5)
        assert np.array_equal(get_flat_params(p), get_flat_params(q)), step


@pytest.mark.parametrize("feature_mode,alpha", [("all", 0.37), ("no_sample", 0.37),
                                                ("no_prediction", 1.0)])
@pytest.mark.parametrize("block", [1, 7, None])
def test_apply_grads_in_blocks_is_bit_identical_to_one_row_scatter(monkeypatch, feature_mode,
                                                                   alpha, block):
    # At hidden 64 a block is 512 nonzeros; 1 and 7 nonzeros per block put
    # boundaries inside nearly every row.
    hidden = 64
    if block is not None:
        monkeypatch.setattr(model, "GRAD_BLOCK_BYTES", 8 * hidden * block)
    block = model.GRAD_BLOCK_BYTES // (8 * hidden)
    rng = np.random.default_rng(8)
    feats = [random_dataset(seed, 120, max_len=60).features(FEATS) for seed in range(30, 34)]
    p = random_params(35, hidden=hidden)
    q = copy.deepcopy(p)
    for step in range(4):
        batches = [rng.choice(120, size=48) for _ in range(3)]
        g = multitask_step(p, *feats, batches, feature_mode, alpha)
        g_ref = multitask_step(q, *feats, batches, feature_mode, alpha)
        m = g.enc_parts[0][0]
        assert len(m.indices) > 2 * block   # the part spans several blocks
        starts = np.arange(0, len(m.indices), block)
        assert not np.isin(starts, m.indptr).all()   # a block starts inside a row
        assert len(g.enc_parts) == (1 if feature_mode == "no_sample" else 4)
        apply_grads(p, g, 0.5)
        ref_apply_grads(q, g_ref, 0.5)
        assert np.array_equal(get_flat_params(p), get_flat_params(q)), step


def test_run_toast_weights_match_the_one_row_scatter(monkeypatch, synth_data, lexicon,
                                                     train_cfg):
    import selfcal.model
    import selfcal.toast

    cfg = ToastConfig(train=replace(train_cfg, epochs=2))
    p, _ = run_toast(synth_data.train, cfg, lexicon)
    monkeypatch.setattr(selfcal.model, "apply_grads", ref_apply_grads)
    monkeypatch.setattr(selfcal.toast, "apply_grads", ref_apply_grads)
    q, _ = run_toast(synth_data.train, cfg, lexicon)
    assert get_flat_params(p).tobytes() == get_flat_params(q).tobytes()


def test_flat_index_does_not_wrap_for_large_buckets():
    # Rows past 2**26 - 1 end beyond 2**32 elements: a uint32 product wraps there.
    hidden = 64
    buckets = np.array([0, 1, 2**26 - 1, 2**25, 2**26, 2**26 - 1, 2**32 - 1],
                       dtype=np.uint32)
    assert int(buckets.max()) * hidden >= 2**32
    idx = _flat_index(buckets, hidden)
    assert idx.dtype == np.int64
    want = [b * hidden + j for b in buckets.tolist() for j in range(hidden)]
    assert idx.tolist() == want


def test_apply_grads_rejects_a_non_contiguous_encoder():
    p = random_params(25)
    p.encoder = np.asfortranarray(p.encoder)
    g = Grads.zeros(p)
    m = FeatureMatrix(np.array([0, 1]), np.array([3], dtype=np.uint32),
                      np.ones(1, dtype=np.float32), p.features.hash_dim)
    g.enc_parts = [(m, np.ones((1, p.hidden_dim)), ())]
    with pytest.raises(ValueError, match="C-contiguous"):
        apply_grads(p, g, 0.1)


class RefBatchCycler:
    """Shuffled batches as a stateful object: a permutation up front, and a
    new one whenever the rest of the current one is shorter than a batch."""

    def __init__(self, n, batch_size, rng):
        self.n, self.batch_size, self.rng = n, min(batch_size, n), rng
        self.order, self.pos = rng.permutation(n), 0

    def next_batch(self):
        if self.pos + self.batch_size > self.n:
            self.order, self.pos = self.rng.permutation(self.n), 0
        batch = self.order[self.pos:self.pos + self.batch_size]
        self.pos += self.batch_size
        return batch


@pytest.mark.parametrize("n,batch_size", [(1, 1), (1, 32), (7, 3), (10, 5), (33, 8)])
def test_batches_equal_the_cycler(n, batch_size):
    ref = RefBatchCycler(n, batch_size, np.random.default_rng((5, 2)))
    rng = np.random.default_rng((5, 2))
    got = _batches(n, batch_size, rng)
    for _ in range(3 * n + 7):
        assert np.array_equal(next(got), ref.next_batch())
        assert rng.bit_generator.state == ref.rng.bit_generator.state


def test_smooth_target_rows_are_the_per_label_targets():
    labels = np.array([2, 0, 1, 2])
    for eps in (0.0, 0.1, 0.3):
        want = np.stack([ref_smooth_target(y, 3, eps) for y in labels])
        assert np.array_equal(smooth_target(labels, 3, eps), want)
        assert np.array_equal(smooth_target(1, 3, eps), ref_smooth_target(1, 3, eps))
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            smooth_target(np.array([0, bad]), 3, 0.1)


# ---------------------------------------------------------------------------
# Greedy attack
# ---------------------------------------------------------------------------

def ref_greedy_attack(p, s, lexicon, budget):
    """The per-candidate attack: featurize and score one substitution at a time."""
    def main_probs(text):
        indices, values = ref_featurize(text, s.text_b, p.features)
        return ref_softmax(values @ p.encoder[indices] @ p.w_main + p.b_main)

    if int(np.argmax(main_probs(s.text_a))) != s.label:
        raise ValueError("attack requires a correctly classified input")
    tokens = s.text_a.split()
    gold = s.label
    current = float(main_probs(s.text_a)[gold])
    for _ in range(budget):
        best = None
        for pos, tok in enumerate(tokens):
            for syn in lexicon.synonyms(tok):
                if syn == tok:
                    continue
                trial = tokens.copy()
                trial[pos] = syn
                prob = float(main_probs(" ".join(trial))[gold])
                if prob < current and (best is None or prob < best[0]):
                    best = (prob, pos, syn)
        if best is None:
            return None
        current, pos, syn = best
        tokens[pos] = syn
        text = " ".join(tokens)
        if int(np.argmax(main_probs(text))) != gold:
            return Sample(id=f"{s.id}#adv", text_a=text, text_b=s.text_b, label=s.label)
    return None


@pytest.mark.parametrize("budget", range(1, 7))
def test_batched_attack_matches_per_candidate(budget, base_model, synth_data, lexicon):
    outcomes = []
    samples = synth_data.test.samples[:80]
    attacked = [s for s, ok in zip(samples, correct_mask(base_model, samples)) if ok][:40]
    for s in attacked:
        got = greedy_attack(base_model, s, lexicon, budget)
        assert got == ref_greedy_attack(base_model, s, lexicon, budget)
        outcomes.append(got is None)
    # Both outcomes occur, so the comparison covers flips and give-ups.
    assert 0 < sum(outcomes) < len(outcomes)


def test_attack_tie_breaks_match_per_candidate():
    """Exact ties, which trained models on the synthetic split do not produce:
    the first of several equally low candidates wins, and a candidate that only
    equals the current gold probability is no improvement."""
    cfg = FeaturizerConfig(ngram_max=1, hash_dim=1024)
    p = init_parameters(2, TrainConfig(hidden_dim=2, features=cfg))
    p.encoder[:] = 0.0

    def bucket(tok):
        return int(featurize_batch([tok], cfg=cfg).indices[0])

    tokens = ("good", "bad", "fine", "nice", "x", "y", "z")
    assert len({bucket(t) for t in tokens}) == len(tokens)
    p.encoder[bucket("good")] = [1.0, 0.0]
    p.encoder[bucket("bad")] = [-1.0, 0.0]
    p.w_main[0] = [-1.0, 1.0]   # logits (-h0, h0): "good" votes for class 1

    # "fine" and "nice" both drop P(gold) to 1/2 and flip the prediction.
    lexicon = SynonymLexicon({"good": ["fine", "nice"], "y": ["z"]})
    s = Sample(id="tie", text_a="good y", label=1)
    want = Sample(id="tie#adv", text_a="fine y", label=1)
    assert greedy_attack(p, s, lexicon, 3) == ref_greedy_attack(p, s, lexicon, 3) == want
    # x -> z leaves P(gold) unchanged, so the attack stops before z -> bad.
    lexicon = SynonymLexicon({"x": ["z"], "z": ["bad"]})
    s = Sample(id="flat", text_a="x good", label=1)
    assert greedy_attack(p, s, lexicon, 3) is None
    assert ref_greedy_attack(p, s, lexicon, 3) is None


def ref_text_attack(p, s, lexicon, budget):
    """The per-sample attack: each step featurizes one sample's candidate
    texts as one batch and scores them with one forward pass."""
    gold = s.label

    def score(texts):
        z = main_head(p, encode(p, featurize_batch(texts, [s.text_b] * len(texts), p.features)))
        return z.argmax(axis=1), softmax(z)[:, gold]

    labels, probs = score([s.text_a])
    if labels[0] != gold:
        raise ValueError("attack requires a correctly classified input")
    tokens = s.text_a.split()
    current = probs[0]
    for _ in range(budget):
        candidates = [(pos, syn) for pos, tok in enumerate(tokens)
                      for syn in lexicon.synonyms(tok) if syn != tok]
        if not candidates:
            return None
        labels, probs = score([" ".join(tokens[:pos] + [syn] + tokens[pos + 1:])
                               for pos, syn in candidates])
        best = int(np.argmin(probs))
        if not probs[best] < current:
            return None
        current = probs[best]
        pos, syn = candidates[best]
        tokens[pos] = syn
        if labels[best] != gold:
            return Sample(id=f"{s.id}#adv", text_a=" ".join(tokens), text_b=s.text_b,
                          label=s.label)
    return None


def ref_attack_dataset(p, d, lexicon, budget, max_successes):
    """Attack the correctly classified samples one by one, in order, until
    ``max_successes`` hits."""
    preds = p.scorer().predict(d.features(p.features))[0]
    adv, origins = [], []
    for s, pred in zip(d.samples, preds):
        if max_successes is not None and len(adv) >= max_successes:
            break
        if pred != s.label:
            continue
        hit = ref_text_attack(p, s, lexicon, budget)
        if hit is not None:
            adv.append(hit)
            origins.append(s.id)
    return Dataset(tuple(adv), d.label_names, d.task_kind), origins


G = augment.ATTACK_GROUP
# Case pairs whose lowercasing depends on context: "Σ" ends a word as "ς".
SIGMA_WORDS = st.text(alphabet="abAΣς", min_size=1, max_size=2)
# Lexicon phrases of one to three words, split by a space or a form feed.
PHRASES = st.tuples(st.lists(SIGMA_WORDS, min_size=1, max_size=3),
                    st.sampled_from([" ", "\f"])).map(lambda t: t[1].join(t[0]))


# A lexicon on which most attacks of a few dozen samples succeed.
RICH = {"a": ["b", "A\fς"], "ab": ["ΣΣ a", "b"], "b": ["a b", "ς"], "Σ": ["ba"],
        "ς": ["aa", "Σ"]}


@settings(max_examples=100, deadline=None)
@example(size=3 * G + 2, max_successes=None, budget=6, entries=RICH, pair=True, tagging=True,
         lowercase=False, ngram_max=2, seed=19)
@example(size=3 * G + 2, max_successes=G + 1, budget=6, entries=RICH, pair=False,
         tagging=False, lowercase=True, ngram_max=3, seed=4)
@given(size=st.sampled_from([0, 1, G - 1, G, G + 1, 3 * G + 2]),
       max_successes=st.sampled_from([None, 1, G - 1, G, G + 1]),
       budget=st.integers(1, 6),
       entries=st.dictionaries(SIGMA_WORDS, st.lists(PHRASES, min_size=1, max_size=3),
                               min_size=3, max_size=8),
       pair=st.booleans(), tagging=st.booleans(), lowercase=st.booleans(),
       ngram_max=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_lockstep_attack_dataset_equals_attacking_one_by_one(
        size, max_successes, budget, entries, pair, tagging, lowercase, ngram_max, seed):
    """Across group boundaries and success limits that fall inside, at and
    after a group, the lockstep attack finds the same adversarial samples and
    origins as attacking each sample on its own. Texts mix the lexicon's words
    with others, separated by spaces, tabs and form feeds; a fifth of the
    labels are wrong, so those samples are skipped."""
    lexicon = SynonymLexicon(entries)
    rng = np.random.default_rng(seed)
    # Two thirds of the words have lexicon entries.
    keys = sorted(entries)
    others = sorted({w for syns in entries.values() for t in syns for w in t.split()}
                    | {"b", "aΣ", "ς"})

    def text(most):
        words = [rng.choice(keys if rng.random() < 2 / 3 else others)
                 for _ in range(int(rng.integers(1, most + 1)))]
        seps = rng.choice([" ", "\t", " \f"], size=len(words)).tolist()
        return "".join(w + sep for w, sep in zip(words, seps)).strip()

    cfg = FeaturizerConfig(lowercase=lowercase, ngram_max=ngram_max, hash_dim=64,
                           segment_tagging=tagging)
    p = random_params(seed % 997, hidden=4, num_classes=2, feats=cfg)
    texts = [(text(7), text(4) if pair else None) for _ in range(size)]
    m = featurize_batch([a for a, _ in texts], [b for _, b in texts], cfg)
    preds = p.scorer().predict(m)[0]
    wrong = rng.random(size) < 0.2
    samples = tuple(Sample(id=f"s{i}", text_a=a, text_b=b, label=int(y + w) % 2)
                    for i, ((a, b), y, w) in enumerate(zip(texts, preds, wrong)))
    kind = "pair" if pair else "single"
    got = augment.attack_dataset(p, Dataset(samples, ("x", "y"), kind), lexicon,
                                 budget, max_successes)
    want = ref_attack_dataset(p, Dataset(samples, ("x", "y"), kind), lexicon,
                              budget, max_successes)
    assert got == want


def attackable(p, samples, count):
    attacked = [s for s, ok in zip(samples, correct_mask(p, samples)) if ok][:count]
    assert len(attacked) == count
    return attacked


def test_pair_task_attack_matches_per_candidate():
    """Segment b is fixed under attack: its n-grams stay in every candidate
    row, tagged or not."""
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(40)]
    lex = SynonymLexicon({w: [vocab[(i + 1) % 40], vocab[(i + 7) % 40]]
                          for i, w in enumerate(vocab)})
    d = Dataset(tuple(
        Sample(id=f"p{i}", text_a=" ".join(rng.choice(vocab[20 * (i % 2):][:20], size=8)),
               text_b=" ".join(rng.choice(vocab, size=4)), label=i % 2)
        for i in range(200)), ("a", "b"), "pair")
    outcomes = []
    for tagging in (True, False):
        feats = FeaturizerConfig(hash_dim=512, segment_tagging=tagging)
        p, _ = train_main(d, TrainConfig(epochs=3, hidden_dim=8, seed=1, features=feats))
        for s in attackable(p, d.samples, 30):
            got = greedy_attack(p, s, lex, 4)
            assert got == ref_greedy_attack(p, s, lex, 4)
            outcomes.append(got is None)
    assert 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize("features", [FEATS, FeaturizerConfig(hash_dim=2048, ngram_max=3,
                                                                lowercase=False)])
def test_multi_word_synonym_attack_matches_per_candidate(features, synth_cfg, synth_data,
                                                         lexicon, train_cfg):
    """Synonyms of two words (separated by a space or by a form feed, which
    splits words like a space; a lexicon cannot hold a tab), and lexicon
    entries for those phrases, so that a later step substitutes a multi-word
    element."""
    entries = {}
    for w in vocabulary(synth_cfg):
        syns = lexicon.synonyms(w)
        if syns:
            phrase = f"{syns[-1]} {syns[0].upper()}"
            entries[w] = syns + [phrase, f"{w}\f{syns[0]}"]
            entries[phrase] = [w, "x y z"]
    multi = SynonymLexicon(entries)
    p, _ = train_main(synth_data.train, replace(train_cfg, features=features))
    outcomes, grown = [], 0
    for s in attackable(p, synth_data.test.samples, 40):
        got = greedy_attack(p, s, multi, 3)
        assert got == ref_greedy_attack(p, s, multi, 3)
        outcomes.append(got is None)
        grown += got is not None and len(got.text_a.split()) > len(s.text_a.split())
    assert 0 < sum(outcomes) < len(outcomes) and grown > 0
