"""Shared desk-scale fixtures: synthetic data, trained models, paired
baseline-vs-pipeline runs, and the finite-difference gradient oracle used to
check the analytic gradients."""

from dataclasses import replace

import numpy as np
import pytest

from selfcal.augment import synthetic_lexicon
from selfcal.calibrators import Calibrator, train_with_temperature
from selfcal.corpus import (
    Dataset,
    Sample,
    SynthConfig,
    generate_synthetic,
    merge_datasets,
    split_folds,
)
from selfcal.model import (
    FeaturizerConfig,
    TrainConfig,
    get_flat_params,
    set_flat_params,
    train_main,
)
from selfcal.toast import ToastConfig, run_toast

FEATS = FeaturizerConfig(hash_dim=2048)
SMALL_FEATS = FeaturizerConfig(hash_dim=64, ngram_max=2)


@pytest.fixture(scope="session")
def synth_cfg():
    return SynthConfig(num_classes=2, vocab_size=200, samples_per_class=150,
                       hardness_fraction=0.3, hard_flip_prob=0.5, seed=0)


@pytest.fixture(scope="session")
def synth_data(synth_cfg):
    return generate_synthetic(synth_cfg)


@pytest.fixture(scope="session")
def lexicon(synth_cfg):
    return synthetic_lexicon(synth_cfg)


@pytest.fixture(scope="session")
def train_cfg():
    return TrainConfig(epochs=5, hidden_dim=16, seed=100, features=FEATS)


@pytest.fixture(scope="session")
def base_model(synth_data, train_cfg):
    params, _ = train_main(synth_data.train, train_cfg)
    return params


def make_separable(n_per_class: int = 20, seed: int = 3) -> Dataset:
    """Two classes over disjoint vocabularies: linearly separable by design."""
    rng = np.random.default_rng(seed)
    vocab = (["red", "green", "blue", "cyan"], ["dog", "cat", "bird", "fish"])
    samples = []
    for cls in range(2):
        for i in range(n_per_class):
            toks = [vocab[cls][int(j)] for j in rng.integers(0, 4, size=6)]
            samples.append(Sample(id=f"s{cls}-{i}", text_a=" ".join(toks), label=cls))
    return Dataset(tuple(samples), ("first", "second"))


@pytest.fixture(scope="session")
def separable():
    return make_separable()


@pytest.fixture(scope="session")
def separable_model(separable):
    params, _ = train_main(
        separable, TrainConfig(epochs=5, hidden_dim=8, seed=5,
                               features=FeaturizerConfig(hash_dim=1024)))
    return params


@pytest.fixture(scope="session")
def paired_runs():
    """Three seeds of the bundled-scale task with all four scoring methods
    plus a plain full-data comparator model; shared by the directional tests
    and parts of the acceptance suite."""
    runs = []
    for seed in (0, 1, 2):
        cfg = SynthConfig(num_classes=2, vocab_size=200, samples_per_class=300,
                          hardness_fraction=0.3, hard_flip_prob=0.5, seed=seed)
        data = generate_synthetic(cfg)
        lex = synthetic_lexicon(cfg)
        tc = TrainConfig(epochs=5, hidden_dim=16, seed=seed + 100, features=FEATS)
        base_params, temperature = train_with_temperature(data.train, tc)
        folds = split_folds(data.train, 10, tc.seed)
        ls_params, _ = train_main(merge_datasets(folds[1:]),
                                  replace(tc, label_smoothing_epsilon=0.1))
        main_params, _ = train_main(data.train, tc)
        toast_params, artifacts = run_toast(
            data.train,
            ToastConfig(train=TrainConfig(epochs=8, hidden_dim=16, seed=seed + 100,
                                          features=FEATS)),
            lex)
        runs.append({
            "seed": seed,
            "cfg": cfg,
            "data": data,
            "lexicon": lex,
            "vanilla": Calibrator("vanilla", base_params),
            "temperature": Calibrator("temperature", base_params,
                                      temperature=temperature),
            "label_smoothing": Calibrator("label_smoothing", ls_params),
            "toast": Calibrator("toast", toast_params),
            "main_params": main_params,
            "artifacts": artifacts,
        })
    return runs


# ---------------------------------------------------------------------------
# Gradient oracle
# ---------------------------------------------------------------------------

def grads_to_flat(params, grads) -> np.ndarray:
    """Densify a sparse-encoder Grads into one flat vector matching
    get_flat_params ordering."""
    enc = np.zeros_like(params.encoder)
    for buckets, vals in grads.enc_parts:
        np.add.at(enc, buckets, vals)
    return np.concatenate([enc.ravel(), grads.w_main.ravel(), grads.b_main.ravel(),
                           grads.w_calib.ravel(), grads.b_calib.ravel()])


def numerical_grad(loss_fn, params, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of loss_fn over every parameter."""
    flat = get_flat_params(params).copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        set_flat_params(params, bumped)
        up = loss_fn()
        bumped[i] = flat[i] - h
        set_flat_params(params, bumped)
        down = loss_fn()
        grad[i] = (up - down) / (2 * h)
    set_flat_params(params, flat)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)
