"""The batched scoring path against per-sample reference implementations.

The references below are the per-sample featurizer, forward pass and
O(n^2) risk-coverage sweep that the batched code replaced. Feature rows and
curve points must match them exactly; batched confidences may differ from
the per-sample ones only in summation order, by at most 1e-12.
"""

import os
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FEATS
from selfcal.apps import score_with_calibration_head
from selfcal.calibrators import METHODS, Calibrator, ConfidenceLog
from selfcal.corpus import Dataset, Sample
from selfcal.metrics import (
    _tied_ranks,
    accuracy_coverage_curve,
    auroc,
    cascade_curve,
    coverage_at_risk,
    risk_coverage,
)
from selfcal.model import (
    ENCODE_CHUNK,
    FEATURE_MODES,
    FeaturizerConfig,
    TrainConfig,
    encode,
    featurize,
    featurize_batch,
    init_parameters,
)

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
        v = featurize(a, b, cfg)
        indices, values = ref_featurize(a, b, cfg)
        assert v.indices.dtype == np.int64 and v.values.dtype == np.float64
        assert np.array_equal(v.indices, indices) and np.array_equal(v.values, values)


def test_featurize_batch_rejects_empty_text():
    with pytest.raises(ValueError, match="no tokens"):
        featurize_batch(["fine", "  "])


def test_empty_batch():
    m = featurize_batch([])
    assert len(m) == 0 and m.indptr.tolist() == [0]
    p = init_parameters(2, TrainConfig(hidden_dim=4, features=FeaturizerConfig()))
    assert encode(p, m).shape == (0, 4)


WORDS = st.text(alphabet="abAB\x02é", min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(st.tuples(st.lists(WORDS, min_size=1, max_size=8),
                                st.one_of(st.none(), st.lists(WORDS, max_size=5))),
                      min_size=1, max_size=6),
       ngram_max=st.integers(1, 3), lowercase=st.booleans(), tagging=st.booleans())
def test_featurize_batch_property(texts, ngram_max, lowercase, tagging):
    cfg = FeaturizerConfig(lowercase=lowercase, ngram_max=ngram_max, hash_dim=64,
                           segment_tagging=tagging)
    pairs = [(" ".join(a), None if b is None else " ".join(b)) for a, b in texts]
    assert_rows_match(featurize_batch([a for a, _ in pairs], [b for _, b in pairs], cfg),
                      pairs, cfg)


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


def test_chunked_encode_matches_one_row_at_a_time():
    p = random_params(0)
    d = random_dataset(1, 400, max_len=60)
    long = Sample(id="long", text_a=" ".join(f"t{i}" for i in range(ENCODE_CHUNK)))
    d = Dataset(d.samples[:200] + (long,) + d.samples[200:], d.label_names)
    m = d.features(p.features)
    assert m.indptr[-1] > 3 * ENCODE_CHUNK
    whole = encode(p, m)
    for i, s in enumerate(d.samples):
        one = encode(p, featurize_batch([s.text_a], [s.text_b], p.features))
        assert np.array_equal(whole[i], one[0])
        indices, values = ref_featurize(s.text_a, s.text_b, p.features)
        np.testing.assert_allclose(whole[i], values @ p.encoder[indices], rtol=0, atol=TOL)


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
        assert np.array_equal(c.confidences(d), log.confidence)


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


def test_import_does_not_load_scipy():
    code = "import sys, selfcal; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_featurize_batch_rejects_misaligned_segments():
    with pytest.raises(ValueError):
        featurize_batch(["a b", "c d"], ["x"])
