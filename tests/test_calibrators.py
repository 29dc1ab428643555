"""Scoring methods, temperature fitting, and the confidence log."""

import csv

import numpy as np
import pytest

from conftest import FEATS, SMALL_FEATS
from selfcal.calibrators import (
    Calibrator,
    ConfidenceLog,
    baseline_split,
    fit_temperature,
    train_with_temperature,
)
from selfcal.corpus import split_folds
from selfcal.metrics import auroc
from selfcal.model import TrainConfig, init_parameters, softmax
from selfcal.toast import ToastConfig, run_toast


def read_log(path) -> ConfidenceLog:
    """Read back a log that ConfidenceLog.to_csv wrote."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return ConfidenceLog(np.array([float(r["confidence"]) for r in rows]),
                         np.array([int(r["correct"]) for r in rows], dtype=np.int64),
                         np.array([int(r["pred"]) for r in rows], dtype=np.int64),
                         tuple(r["group"] for r in rows))


def sampled_labels(rng, logits, t=1.0):
    """One label per row, drawn from softmax(logits / t): the NLL-optimal
    temperature of such labels is near t, well inside [0.01, 100]."""
    return np.array([rng.choice(logits.shape[1], p=p) for p in softmax(logits / t)])


def ref_mean_nll(logits, labels, t):
    z = logits / t
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(labels)), labels].mean())


def ref_fit_temperature(logits, labels):
    """The earlier search, kept as an oracle: a 200-point log-spaced grid over
    [0.01, 100], then 60 golden-section steps on log T within the grid cells
    next to the grid minimum. It pins T to about sqrt(machine epsilon)."""
    grid = np.geomspace(0.01, 100.0, 200)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    i = int(np.argmin([ref_mean_nll(logits, labels, t) for t in grid]))
    a, b = np.log(grid[max(i - 1, 0)]), np.log(grid[min(i + 1, len(grid) - 1)])
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc = ref_mean_nll(logits, labels, np.exp(c))
    fd = ref_mean_nll(logits, labels, np.exp(d))
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = ref_mean_nll(logits, labels, np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = ref_mean_nll(logits, labels, np.exp(d))
    return float(np.exp((a + b) / 2.0))


def nll_slope(logits, labels, beta):
    """Derivative of the mean NLL of softmax(beta * logits) in beta = 1/T."""
    z = beta * logits
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return (p * logits).sum(axis=1).mean() - logits[np.arange(len(labels)), labels].mean()


class TestScore:
    def test_untrained_vanilla_confidence_is_uniform(self, synth_data):
        cfg = TrainConfig(hidden_dim=4, features=SMALL_FEATS)
        p = init_parameters(synth_data.train.num_classes, cfg)
        c = Calibrator("vanilla", p)
        label, conf = c.score(synth_data.train.samples[0])
        assert label == 0
        assert conf == pytest.approx(1 / synth_data.train.num_classes, abs=1e-12)

    def test_toast_with_zero_head_is_half(self, synth_data):
        cfg = TrainConfig(hidden_dim=4, features=SMALL_FEATS)
        p = init_parameters(2, cfg)
        c = Calibrator("toast", p)
        for s in synth_data.test.samples[:10]:
            assert c.score(s)[1] == pytest.approx(0.5, abs=1e-12)

    def test_temperature_one_equals_vanilla(self, base_model, synth_data):
        van = Calibrator("vanilla", base_model)
        tmp = Calibrator("temperature", base_model, temperature=1.0)
        for s in synth_data.test.samples[:40]:
            assert van.score(s) == tmp.score(s)

    def test_unfitted_temperature_errors(self, base_model, synth_data):
        c = Calibrator("temperature", base_model)
        with pytest.raises(ValueError, match="not fitted"):
            c.score(synth_data.test.samples[0])

    def test_unknown_method_rejected(self, base_model):
        with pytest.raises(ValueError):
            Calibrator("platt", base_model)

    def test_max_probability_scores_bounded_below(self, base_model, synth_data):
        c = Calibrator("vanilla", base_model)
        floor = 1 / base_model.num_classes - 1e-9
        for s in synth_data.test.samples:
            _, conf = c.score(s)
            assert floor <= conf <= 1.0

    def test_toast_scores_in_unit_interval(self, synth_data, lexicon):
        params, _ = run_toast(
            synth_data.train,
            ToastConfig(train=TrainConfig(epochs=8, hidden_dim=16, seed=100,
                                          features=FEATS)),
            lexicon)
        c = Calibrator("toast", params)
        for s in synth_data.test.samples:
            _, conf = c.score(s)
            assert 0.0 <= conf <= 1.0


class TestFitTemperature:
    def test_generative_process_recovers_unit_temperature(self):
        # Labels drawn from softmax(logits) make T=1 NLL-optimal by
        # construction; the fit must land next to it.
        rng = np.random.default_rng(0)
        n, num_classes = 4000, 3
        logits = rng.normal(scale=2.0, size=(n, num_classes))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = np.array([rng.choice(num_classes, p=p) for p in probs])
        assert 0.9 <= fit_temperature(logits, labels) <= 1.1

    def test_confidently_wrong_pushes_temperature_up(self):
        logits = np.zeros((200, 2))
        logits[:, 0] = 10.0
        labels = np.ones(200, dtype=int)
        labels[:5] = 0  # keep both classes represented
        assert fit_temperature(logits, labels) > 10

    def test_scaling_logits_scales_temperature(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(scale=2.0, size=(1000, 3))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = np.array([rng.choice(3, p=p) for p in probs])
        t1 = fit_temperature(logits, labels)
        t2 = fit_temperature(2.0 * logits, labels)
        assert t2 / t1 == pytest.approx(2.0, rel=0.02)

    def test_matches_the_grid_and_golden_section_search(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, num_classes = int(rng.integers(20, 400)), int(rng.integers(2, 5))
            logits = rng.normal(scale=rng.uniform(0.5, 4.0), size=(n, num_classes))
            labels = sampled_labels(rng, logits, rng.uniform(0.3, 3.0))
            if len(np.unique(labels)) < 2:
                continue
            assert fit_temperature(logits, labels) == pytest.approx(
                ref_fit_temperature(logits, labels), rel=1e-6)

    def test_slope_changes_sign_within_1e12_of_the_fit(self):
        # The NLL is convex in 1/T, so the fit is exact to 1e-12 relative when
        # the slope is negative just below 1/T and positive just above it.
        rng = np.random.default_rng(3)
        for _ in range(16):
            logits = rng.normal(scale=rng.uniform(0.5, 4.0), size=(500, 3))
            labels = sampled_labels(rng, logits, rng.uniform(0.5, 3.0))
            t = fit_temperature(logits, labels)
            assert 0.01 < t < 100.0
            assert nll_slope(logits, labels, 1 / (t * (1 + 1e-12))) < 0
            assert nll_slope(logits, labels, 1 / (t * (1 - 1e-12))) > 0

    def test_optimum_outside_the_range_returns_the_bound(self):
        # Logits that say nothing about balanced labels: the NLL falls as
        # T grows without end.
        logits = np.tile([1.0, 0.0], (100, 1))
        labels = np.arange(100) % 2
        assert abs(fit_temperature(logits, labels) - 100.0) <= np.spacing(100.0)
        # Logits that rank every gold label first: the NLL falls as T shrinks.
        logits = np.eye(2)[labels]
        assert abs(fit_temperature(logits, labels) - 0.01) <= np.spacing(0.01)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_temperature(np.zeros((1, 2)), np.array([0]))
        with pytest.raises(ValueError):
            fit_temperature(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_baseline_split_is_fold_zero_and_the_rest_in_fold_order(self, synth_data):
        d = synth_data.train
        holdout, rest = baseline_split(d, 11)
        folds = [[d.samples[i].id for i in f] for f in split_folds(d, 10, 11)]
        assert holdout.ids() == folds[0]
        assert rest.ids() == [x for f in folds[1:] for x in f]

    def test_holdout_protocol_gives_moderate_temperature(self, synth_data, train_cfg):
        params, t = train_with_temperature(synth_data.train, train_cfg)
        assert 0.05 < t < 20.0
        assert params.num_classes == synth_data.train.num_classes


class TestBuildLog:
    def test_log_shape_and_group(self, base_model, synth_data):
        log = Calibrator("vanilla", base_model).build_log(synth_data.test, "id")
        assert len(log) == len(synth_data.test)
        assert set(log.group) == {"id"}

    def test_order_follows_dataset(self, base_model, synth_data):
        c = Calibrator("vanilla", base_model)
        log = c.build_log(synth_data.test, "id")
        for i in (0, 7, len(synth_data.test) - 1):
            label, conf = c.score(synth_data.test.samples[i])
            assert log.pred[i] == label
            assert log.confidence[i] == conf

    def test_perfect_model_all_correct(self, separable, separable_model):
        log = Calibrator("vanilla", separable_model).build_log(separable, "id")
        assert log.correct.sum() == len(separable)

    def test_temperature_auroc_matches_vanilla_exactly(self, synth_data, train_cfg):
        # Binary task: scaled confidence is a strictly monotone transform of
        # the vanilla confidence, so the rank-based AUROC cannot move.
        params, t = train_with_temperature(synth_data.train, train_cfg)
        van = Calibrator("vanilla", params).build_log(synth_data.test, "id")
        tmp = Calibrator("temperature", params, temperature=t).build_log(
            synth_data.test, "id")
        a_v = auroc(van.confidence[van.correct == 1], van.confidence[van.correct == 0])
        a_t = auroc(tmp.confidence[tmp.correct == 1], tmp.confidence[tmp.correct == 0])
        assert abs(a_v - a_t) <= 1e-12
        np.testing.assert_array_equal(van.pred, tmp.pred)


class TestConfidenceLog:
    def test_csv_roundtrip_exact(self, base_model, synth_data, tmp_path):
        log = Calibrator("vanilla", base_model).build_log(synth_data.test, "grp")
        path = tmp_path / "log.csv"
        log.to_csv(path)
        loaded = read_log(path)
        np.testing.assert_array_equal(loaded.confidence, log.confidence)
        np.testing.assert_array_equal(loaded.correct, log.correct)
        np.testing.assert_array_equal(loaded.pred, log.pred)
        assert loaded.group == log.group

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceLog(np.array([0.5]), np.array([1, 0]), np.array([0]), ("g",))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceLog(np.array([np.nan]), np.array([1]), np.array([0]), ("g",))
