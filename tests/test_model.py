"""Featurizer, forward passes, losses, gradients, training, serialization."""

import json
import math
import re

import numpy as np
import pytest

from conftest import (
    SMALL_FEATS,
    correct_mask,
    frozen_rows,
    get_flat_params,
    grads_to_flat,
    numerical_grad,
    relative_error,
    set_flat_params,
)
from selfcal.model import (
    FeaturizerConfig,
    TrainConfig,
    calib_batch_grads,
    calib_head,
    consistency_batch_grads,
    encode,
    featurize_batch,
    init_parameters,
    load_parameters,
    main_batch_grads,
    main_head,
    save_parameters,
    softmax,
    train_main,
)


def one_row(text_a, text_b=None, cfg=FeaturizerConfig()):
    """One text (pair) as a one-row feature matrix."""
    return featurize_batch([text_a], [text_b], cfg)


def main_probs(p, m):
    """Main-head probabilities of every row of ``m``, through the encoder (which
    leaves ``p`` trainable)."""
    return softmax(main_head(p, encode(p, m)))


def calib_probs(p, m, y_star):
    """Correctness-head (P_false, P_true) of every row of ``m`` given ``y_star``."""
    return softmax(calib_head(p, encode(p, m), np.full(len(m), y_star)))


class TestFeaturizer:
    def test_repeated_token_counts(self):
        cfg = FeaturizerConfig(ngram_max=1, hash_dim=256)
        v = one_row("good good", cfg=cfg)
        assert len(v.indices) == 1
        assert v.values[0] == 2.0

    def test_deterministic(self):
        a = one_row("some text here")
        b = one_row("some text here")
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)

    def test_bigram_order_sensitivity(self):
        # Unigrams agree but the bigram differs, so the vectors must differ.
        cfg = FeaturizerConfig(ngram_max=2, hash_dim=1024)
        ab = one_row("a b", cfg=cfg)
        ba = one_row("b a", cfg=cfg)
        assert not (np.array_equal(ab.indices, ba.indices)
                    and np.array_equal(ab.values, ba.values))

    def test_segment_tagging_separates_pairs(self):
        cfg = FeaturizerConfig(hash_dim=1024)
        joined = one_row("x y", cfg=cfg)
        paired = one_row("x", "y", cfg)
        assert not (np.array_equal(joined.indices, paired.indices)
                    and np.array_equal(joined.values, paired.values))

    def test_lowercase_flag(self):
        folded = one_row("Good", cfg=FeaturizerConfig(lowercase=True, hash_dim=256))
        kept = one_row("Good", cfg=FeaturizerConfig(lowercase=False, hash_dim=256))
        lower = one_row("good", cfg=FeaturizerConfig(lowercase=False, hash_dim=256))
        assert np.array_equal(folded.indices, lower.indices)
        assert not np.array_equal(kept.indices, lower.indices)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            one_row("   ")

    def test_hash_dim_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FeaturizerConfig(hash_dim=1000)


class TestForwardMain:
    def test_zero_weights_uniform(self):
        cfg = TrainConfig(hidden_dim=4, features=SMALL_FEATS)
        p = init_parameters(3, cfg)
        probs = main_probs(p, one_row("anything", cfg=SMALL_FEATS))[0]
        np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-12)

    def test_logit_shift_invariance(self):
        cfg = TrainConfig(hidden_dim=4, seed=1, features=SMALL_FEATS)
        p = init_parameters(3, cfg)
        rng = np.random.default_rng(0)
        p.w_main[:] = rng.normal(size=p.w_main.shape)
        f = one_row("one two three", cfg=SMALL_FEATS)
        before = main_probs(p, f)
        p.b_main += 7.3  # adds the same constant to every logit
        after = main_probs(p, f)
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_analytic_two_class(self):
        # logits (0, ln 3) -> softmax (1/4, 3/4)
        cfg = TrainConfig(hidden_dim=4, features=SMALL_FEATS)
        p = init_parameters(2, cfg)
        p.b_main[:] = [0.0, math.log(3.0)]
        probs = main_probs(p, one_row("w", cfg=SMALL_FEATS))[0]
        np.testing.assert_allclose(probs, [0.25, 0.75], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(42)
        cfg = TrainConfig(hidden_dim=6, seed=3, features=SMALL_FEATS)
        p = init_parameters(4, cfg)
        p.w_main[:] = rng.normal(scale=3.0, size=p.w_main.shape)
        p.b_main[:] = rng.normal(scale=3.0, size=p.b_main.shape)
        m = featurize_batch([f"tok{i} tok{i + 1} tok{i * 7}" for i in range(50)],
                            cfg=SMALL_FEATS)
        for probs in main_probs(p, m):
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert np.all(probs > 0)


class TestForwardCalib:
    def test_zero_weights_half_half(self):
        cfg = TrainConfig(hidden_dim=4, features=SMALL_FEATS)
        p = init_parameters(3, cfg)
        out = calib_probs(p, one_row("w x", cfg=SMALL_FEATS), 1)[0]
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_prediction_block_is_decisive(self):
        # Craft weights so only the one-hot block drives the output.
        cfg = TrainConfig(hidden_dim=4, features=SMALL_FEATS)
        p = init_parameters(3, cfg)
        p.w_calib[p.hidden_dim + 0, 1] = 2.0
        p.w_calib[p.hidden_dim + 1, 1] = -2.0
        f = one_row("same input", cfg=SMALL_FEATS)
        out0 = calib_probs(p, f, 0)[0]
        out1 = calib_probs(p, f, 1)[0]
        assert abs(out0[1] - out1[1]) > 0.5

    def test_deterministic(self):
        cfg = TrainConfig(hidden_dim=4, seed=2, features=SMALL_FEATS)
        p = init_parameters(2, cfg)
        f = one_row("alpha beta", cfg=SMALL_FEATS)
        assert np.array_equal(calib_probs(p, f, 0), calib_probs(p, f, 0))

    def test_invalid_prediction_rejected(self):
        cfg = TrainConfig(hidden_dim=4, features=SMALL_FEATS)
        p = init_parameters(2, cfg)
        m = one_row("w", cfg=SMALL_FEATS)
        h = encode(p, m)
        for y_star in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                calib_head(p, h, np.array([y_star]))
            with pytest.raises(ValueError, match="out of range"):
                p.scorer().calib_logits(np.zeros((1, 2)), np.array([y_star]))
            with pytest.raises(ValueError, match="out of range"):
                calib_batch_grads(p, m, np.array([y_star]), np.array([1]))


class TestLosses:
    """The batch losses against closed forms, mostly on hand-set heads: zero
    weights, and biases that are the log-probabilities the head should output."""

    def test_ce_zero_for_confident_truth(self):
        p = init_parameters(2, TrainConfig(hidden_dim=4, features=SMALL_FEATS))
        p.b_main[:] = [-np.inf, 0.0]  # probabilities (0, 1)
        loss, _ = main_batch_grads(p, one_row("w", cfg=SMALL_FEATS), np.array([1]))
        assert loss == 0.0

    def test_ce_analytic(self):
        p = init_parameters(2, TrainConfig(hidden_dim=4, features=SMALL_FEATS))
        p.b_main[:] = np.log([0.25, 0.75])
        loss, _ = main_batch_grads(p, one_row("w", cfg=SMALL_FEATS), np.array([1]))
        assert loss == pytest.approx(-math.log(0.75), abs=1e-12)  # 0.2876820724...

    def test_ce_smoothed_analytic(self):
        # C=2, eps=0.2: target (0.8, 0.2); both outcomes hit -ln(0.5), so ln 2.
        p = init_parameters(2, TrainConfig(hidden_dim=4, features=SMALL_FEATS))
        p.b_main[:] = np.log([0.5, 0.5])
        loss, _ = main_batch_grads(p, one_row("w", cfg=SMALL_FEATS), np.array([0]), 0.2)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        p.b_calib[:] = np.log([0.5, 0.5])
        loss, _ = calib_batch_grads(p, one_row("w", cfg=SMALL_FEATS), np.array([1]),
                                    np.array([0]), epsilon=0.2)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_kl_identical_is_zero(self):
        # Zero weights: both branches output softmax(b_calib) = (0.3, 0.7).
        p = init_parameters(3, TrainConfig(hidden_dim=4, features=SMALL_FEATS))
        p.b_calib[:] = np.log([0.3, 0.7])
        clean = featurize_batch(["w x", "y"], cfg=SMALL_FEATS)
        aug = featurize_batch(["v", "u t s"], cfg=SMALL_FEATS)
        loss, _ = consistency_batch_grads(p, clean, aug, np.array([0, 2]))
        assert loss == 0.0

    def test_kl_analytic(self):
        # The clean text's encoder output is e_0 and the augmented one's is 0,
        # so the clean branch has logits (0, ln 3) and the augmented (0, 0):
        # KL((1/4, 3/4) || (1/2, 1/2)) = 1/4 ln(1/2) + 3/4 ln(3/2).
        p = init_parameters(2, TrainConfig(hidden_dim=4, features=SMALL_FEATS))
        clean, aug = one_row("w", cfg=SMALL_FEATS), one_row("v", cfg=SMALL_FEATS)
        assert not set(clean.indices) & set(aug.indices)
        p.encoder[:] = 0.0
        p.encoder[clean.indices, 0] = 1.0 / clean.values
        p.w_calib[0] = [0.0, math.log(3.0)]
        loss, _ = consistency_batch_grads(p, clean, aug, np.array([1]))
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, vecs, aug, labels, _ = _random_instance(rng, scale=3.0)
            assert consistency_batch_grads(p, vecs, aug, labels)[0] >= -1e-12
            assert consistency_batch_grads(p, vecs, vecs, labels)[0] <= 1e-9

    def test_kl_length_mismatch(self):
        p = init_parameters(2, TrainConfig(hidden_dim=4, features=SMALL_FEATS))
        clean = featurize_batch(["a", "b"], cfg=SMALL_FEATS)
        aug = featurize_batch(["a", "b", "c"], cfg=SMALL_FEATS)
        with pytest.raises(ValueError):
            consistency_batch_grads(p, clean, aug, np.array([0, 1]))


def _random_instance(rng, num_classes=3, hidden=4, scale=1.0):
    """A small model with non-trivial weights plus a batch of inputs."""
    cfg = TrainConfig(hidden_dim=hidden, seed=int(rng.integers(0, 10_000)),
                      features=SMALL_FEATS)
    p = init_parameters(num_classes, cfg)
    p.encoder[:] = rng.normal(scale=0.05, size=p.encoder.shape)
    p.w_main[:] = rng.normal(scale=scale, size=p.w_main.shape)
    p.b_main[:] = rng.normal(scale=0.3, size=p.b_main.shape)
    p.w_calib[:] = rng.normal(scale=scale, size=p.w_calib.shape)
    p.b_calib[:] = rng.normal(scale=0.3, size=p.b_calib.shape)
    n = int(rng.integers(2, 5))
    texts = [" ".join(f"t{int(j)}" for j in rng.integers(0, 30, size=6)) for _ in range(n)]
    vecs = featurize_batch(texts, cfg=SMALL_FEATS)
    aug_texts = [" ".join(f"t{int(j)}" for j in rng.integers(0, 30, size=6)) for _ in range(n)]
    aug_vecs = featurize_batch(aug_texts, cfg=SMALL_FEATS)
    labels = rng.integers(0, num_classes, size=n)
    cs = rng.integers(0, 2, size=n)
    return p, vecs, aug_vecs, labels, cs


def _masked_calib_loss(p, m, y_stars, cs, mode) -> float:
    """Mean cross-entropy of the correctness head with ``mode``'s block of
    its input ``[h, one_hot(y*)]`` masked out: the objective a frozen block
    trains."""
    n, hd = len(m), p.hidden_dim
    u = np.zeros((n, hd + p.num_classes))
    if mode != "no_sample":
        u[:, :hd] = encode(p, m)
    if mode != "no_prediction":
        u[np.arange(n), hd + y_stars] = 1.0
    return float(-np.log(softmax(u @ p.w_calib + p.b_calib)[np.arange(n), cs]).mean())


class TestGradients:
    """Analytic gradients against central finite differences (the oracle)."""

    def test_main_loss_grad(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            p, vecs, _, labels, _ = _random_instance(rng)
            _, grads = main_batch_grads(p, vecs, labels, epsilon=0.1)
            num = numerical_grad(lambda: main_batch_grads(p, vecs, labels, 0.1)[0], p)
            assert relative_error(grads_to_flat(p, grads), num) < 1e-4

    def test_calib_loss_grad(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            p, vecs, _, labels, cs = _random_instance(rng)
            _, grads = calib_batch_grads(p, vecs, labels, cs)
            num = numerical_grad(lambda: calib_batch_grads(p, vecs, labels, cs)[0], p)
            assert relative_error(grads_to_flat(p, grads), num) < 1e-4

    def test_consistency_loss_grad(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            p, vecs, aug, labels, _ = _random_instance(rng)
            _, grads = consistency_batch_grads(p, vecs, aug, labels)
            num = numerical_grad(
                lambda: consistency_batch_grads(p, vecs, aug, labels)[0], p)
            assert relative_error(grads_to_flat(p, grads), num) < 1e-4

    def test_masked_calib_grads(self):
        # Against the objective whose head input has the mode's block masked
        # out, on parameters whose frozen block is zero, as training keeps it.
        rng = np.random.default_rng(3)
        for mode in ("no_sample", "no_prediction"):
            p, vecs, _, labels, cs = _random_instance(rng)
            p.w_calib[frozen_rows(p, mode)] = 0.0
            _, grads = calib_batch_grads(p, vecs, labels, cs, feature_mode=mode)
            num = numerical_grad(lambda: _masked_calib_loss(p, vecs, labels, cs, mode), p)
            assert relative_error(grads_to_flat(p, grads), num) < 1e-4

    @pytest.mark.parametrize("mode", ["no_sample", "no_prediction"])
    def test_a_nonzero_frozen_block_is_rejected(self, mode):
        p, vecs, aug, labels, cs = _random_instance(np.random.default_rng(4))
        message = f"feature_mode {mode!r} needs its block of w_calib at zero"
        for grads in (lambda: calib_batch_grads(p, vecs, labels, cs, feature_mode=mode),
                      lambda: consistency_batch_grads(p, vecs, aug, labels, mode)):
            with pytest.raises(ValueError) as exc:
                grads()
            assert str(exc.value) == message
        # One nonzero weight is enough; the other block may hold anything.
        p.w_calib[frozen_rows(p, mode)] = 0.0
        calib_batch_grads(p, vecs, labels, cs, feature_mode=mode)
        p.w_calib[frozen_rows(p, mode)][-1, -1] = -1e-300
        with pytest.raises(ValueError, match="needs its block of w_calib at zero"):
            calib_batch_grads(p, vecs, labels, cs, feature_mode=mode)

    def test_unknown_feature_mode_is_rejected(self):
        p, vecs, _, labels, cs = _random_instance(np.random.default_rng(5))
        with pytest.raises(ValueError, match="unknown feature_mode 'no_head'"):
            calib_batch_grads(p, vecs, labels, cs, feature_mode="no_head")


class TestTrainMain:
    def test_separable_perfect_within_five_epochs(self, separable, separable_model):
        assert correct_mask(separable_model, separable.samples).all()

    def test_bit_identical_given_seed(self, separable):
        cfg = TrainConfig(epochs=2, hidden_dim=8, seed=9,
                          features=FeaturizerConfig(hash_dim=1024))
        a, _ = train_main(separable, cfg)
        b, _ = train_main(separable, cfg)
        assert np.array_equal(get_flat_params(a), get_flat_params(b))

    def test_zero_learning_rate_is_noop(self, separable):
        cfg = TrainConfig(learning_rate=0.0, epochs=2, hidden_dim=8, seed=9,
                          features=FeaturizerConfig(hash_dim=1024))
        trained, _ = train_main(separable, cfg)
        fresh = init_parameters(separable.num_classes, cfg)
        assert np.array_equal(get_flat_params(trained), get_flat_params(fresh))

    def test_loss_trace_returned(self, separable):
        cfg = TrainConfig(epochs=5, hidden_dim=8, seed=9,
                          features=FeaturizerConfig(hash_dim=1024))
        _, trace = train_main(separable, cfg)
        assert len(trace) == 5 * math.ceil(len(separable) / cfg.batch_size)
        assert trace[-1] < trace[0]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError) as info:
            TrainConfig(seed=-1)
        assert str(info.value) == "seed must be >= 0"
        assert TrainConfig(seed=0).seed == 0


class TestPredict:
    def test_tie_break_to_lowest_index(self):
        cfg = TrainConfig(hidden_dim=4, features=SMALL_FEATS)
        p = init_parameters(3, cfg)
        labels, conf, _, _ = p.scorer().predict(one_row("whatever text", cfg=SMALL_FEATS))
        assert labels[0] == 0
        assert conf[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_hand_set_probabilities(self):
        cfg = TrainConfig(hidden_dim=4, features=SMALL_FEATS)
        p = init_parameters(2, cfg)
        p.b_main[:] = np.log([0.1, 0.9])
        labels, conf, logits, _ = p.scorer().predict(one_row("w", cfg=SMALL_FEATS))
        assert labels[0] == 1
        assert conf[0] == pytest.approx(0.9, rel=1e-12)
        assert logits.shape == (1, 2)

    def test_matches_gold_on_separable(self, separable, separable_model):
        m = separable.features(separable_model.features)
        assert np.array_equal(separable_model.scorer().predict(m)[0], separable.labels())


class TestSerialization:
    def test_roundtrip_bitwise(self, separable_model, tmp_path):
        path = tmp_path / "model.bin"
        save_parameters(separable_model, path)
        loaded = load_parameters(path)
        assert np.array_equal(get_flat_params(loaded), get_flat_params(separable_model))
        assert loaded.features == separable_model.features
        assert loaded.num_classes == separable_model.num_classes

    def test_forward_identical_after_reload(self, separable, separable_model, tmp_path):
        path = tmp_path / "model.bin"
        save_parameters(separable_model, path)
        loaded = load_parameters(path)
        m = featurize_batch([s.text_a for s in separable.samples[:5]], cfg=loaded.features)
        np.testing.assert_array_equal(loaded.scorer().predict(m)[2],
                                      separable_model.scorer().predict(m)[2])

    def test_flat_roundtrip(self):
        cfg = TrainConfig(hidden_dim=4, seed=6, features=SMALL_FEATS)
        p = init_parameters(2, cfg)
        flat = get_flat_params(p).copy()
        flat2 = flat * 2.0
        set_flat_params(p, flat2)
        assert np.array_equal(get_flat_params(p), flat2)

    def test_truncated_file_rejected(self, separable_model, tmp_path):
        path = tmp_path / "model.bin"
        save_parameters(separable_model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_parameters(path)

    @pytest.mark.parametrize("damage", [lambda data: data[:20],
                                        lambda data: b"\xff" + data[1:],
                                        lambda data: b"42\n" + data[data.index(b"\n") + 1:]])
    def test_unreadable_header_rejected(self, separable_model, tmp_path, damage):
        path = tmp_path / "model.bin"
        save_parameters(separable_model, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match="^" + re.escape(str(path))) as info:
            load_parameters(path)
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize("missing", ["features", "num_classes", "hidden_dim"])
    def test_header_without_a_key_rejected(self, separable_model, tmp_path, missing):
        path = tmp_path / "model.bin"
        save_parameters(separable_model, path)
        data = path.read_bytes()
        end = data.index(b"\n")
        header = json.loads(data[:end])
        del header[missing]
        path.write_bytes(json.dumps(header).encode("utf-8") + data[end:])
        with pytest.raises(ValueError) as info:
            load_parameters(path)
        assert str(info.value) == f"{path}: model header lacks key '{missing}'"

    @pytest.mark.parametrize("key, value", [
        ("hidden_dim", "x"),
        ("hidden_dim", -3),
        ("num_classes", "2"),
        ("features", [1]),
        ("features", {"hash_dim": 64, "ngram_range": 2}),
        ("features", {"hash_dim": 3}),
    ])
    def test_bad_header_value_rejected(self, separable_model, tmp_path, key, value):
        path = tmp_path / "model.bin"
        save_parameters(separable_model, path)
        data = path.read_bytes()
        end = data.index(b"\n")
        header = json.loads(data[:end])
        header[key] = value
        path.write_bytes(json.dumps(header).encode("utf-8") + data[end:])
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: model header ")) as info:
            load_parameters(path)
        assert len(str(info.value).splitlines()) == 1

    def test_trailing_bytes_rejected(self, separable_model, tmp_path):
        path = tmp_path / "model.bin"
        save_parameters(separable_model, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_parameters(path)
