"""The batched numeric path against per-sample reference implementations.

The references below are the per-sample featurizer, forward pass, training
gradients, greedy attack and O(n^2) risk-coverage sweep that the batched code
replaced. Feature rows, curve points and attack results must match them
exactly; batched confidences, losses and gradients may differ from the
per-sample ones only in summation order, by at most 1e-12. The encoder update
must match one 2-D row scatter of all gradient parts bit for bit.
"""

import os
import subprocess
import sys
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FEATS, grads_to_flat
from selfcal.apps import score_with_calibration_head
from selfcal.augment import SynonymLexicon, greedy_attack
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
    Grads,
    TrainConfig,
    _flat_index,
    apply_grads,
    calib_batch_grads,
    clone_parameters,
    consistency_batch_grads,
    encode,
    featurize_batch,
    get_flat_params,
    init_parameters,
    main_batch_grads,
    predict,
    smooth_target,
)
from selfcal.toast import ToastConfig, run_toast

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


def ref_main_batch_grads(p, vecs, labels, epsilon=0.0):
    """Per-sample loop over (indices, values) rows, as the model had it."""
    g = Grads.zeros(p)
    n = len(vecs)
    loss = 0.0
    rows, vals = [], []
    for (indices, values), y in zip(vecs, labels):
        h = values @ p.encoder[indices]
        probs = ref_softmax(h @ p.w_main + p.b_main)
        t = ref_smooth_target(int(y), p.num_classes, epsilon)
        loss += -(t * ref_safe_log(probs)).sum()
        dz = (probs - t) / n
        g.w_main += np.outer(h, dz)
        g.b_main += dz
        dh = p.w_main @ dz
        rows.append(indices)
        vals.append(values[:, None] * dh[None, :])
    g.enc_parts = list(zip(rows, vals))
    return loss / n, g


def ref_calib_batch_grads(p, vecs, y_stars, cs, epsilon=0.0, feature_mode="all"):
    g = Grads.zeros(p)
    n = len(vecs)
    loss = 0.0
    rows, vals = [], []
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
            dh = p.w_calib[:hd] @ dz
            rows.append(indices)
            vals.append(values[:, None] * dh[None, :])
    g.enc_parts = list(zip(rows, vals))
    return loss / n, g


def ref_consistency_batch_grads(p, clean_vecs, aug_vecs, y_stars, feature_mode="all"):
    g = Grads.zeros(p)
    n = len(clean_vecs)
    loss = 0.0
    rows, vals = [], []
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
                dh = p.w_calib[:hd] @ dz
                rows.append(indices)
                vals.append(values[:, None] * dh[None, :])
    g.enc_parts = list(zip(rows, vals))
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
    """The update as one 2-D row scatter of all encoder parts concatenated."""
    p.w_main -= lr * g.w_main
    p.b_main -= lr * g.b_main
    p.w_calib -= lr * g.w_calib
    p.b_calib -= lr * g.b_calib
    if g.enc_parts:
        rows = np.concatenate([b for b, _ in g.enc_parts])
        vals = np.concatenate([v for _, v in g.enc_parts])
        np.subtract.at(p.encoder, rows, lr * vals)


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
    q = clone_parameters(p)
    for step in range(12):
        # Drawn with replacement: buckets repeat within a part and across parts.
        batches = [rng.choice(60, size=16) for _ in range(3)]
        g = multitask_step(p, d, calib, clean, aug, batches, feature_mode, alpha)
        g_ref = multitask_step(q, d, calib, clean, aug, batches, feature_mode, alpha)
        parts = [b for b, _ in g.enc_parts]
        assert len(np.unique(parts[0])) < len(parts[0])
        if feature_mode == "no_sample":
            assert len(parts) == 1   # the calibration head never reads the encoder
        else:
            assert len(parts) == 4
            assert np.intersect1d(parts[0], parts[1]).size > 0
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
    g.enc_parts = [(np.array([3], dtype=np.uint32), np.ones((1, p.hidden_dim)))]
    with pytest.raises(ValueError, match="C-contiguous"):
        apply_grads(p, g, 0.1)


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
    attacked = [s for s in synth_data.test.samples[:80]
                if predict(base_model, s)[0] == s.label][:40]
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
