"""Shared desk-scale fixtures: synthetic data, trained models, paired
baseline-vs-pipeline runs, and the finite-difference gradient oracle used to
check the analytic gradients."""

from dataclasses import replace

import numpy as np
import pytest

from selfcal.augment import synthetic_lexicon
from selfcal.calibrators import Calibrator, baseline_split, train_with_temperature
from selfcal.corpus import (
    Dataset,
    Sample,
    SynthConfig,
    generate_synthetic,
)
from selfcal.model import (
    FeaturizerConfig,
    TrainConfig,
    _TENSOR_ORDER,
    featurize_batch,
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


def correct_mask(params, samples) -> np.ndarray:
    """Whether the main head labels each of ``samples`` right, from one
    scorer prediction over all of them."""
    samples = list(samples)
    m = featurize_batch([s.text_a for s in samples], [s.text_b for s in samples],
                        params.features)
    return params.scorer().predict(m)[0] == np.array([s.label for s in samples])


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
        ls_params, _ = train_main(baseline_split(data.train, tc.seed)[1],
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

def get_flat_params(params) -> np.ndarray:
    """Every tensor of ``params``, raveled and concatenated in file order."""
    return np.concatenate([getattr(params, name).ravel() for name in _TENSOR_ORDER])


def part_rows(part) -> tuple[np.ndarray, np.ndarray]:
    """A factored encoder-gradient part ``(m, dh, scales)`` materialised: the
    bucket of every nonzero of ``m`` and its gradient row, the count times its
    row's ``dh``, times each scale in order."""
    m, dh, scales = part
    vals = dh[np.repeat(np.arange(len(m)), np.diff(m.indptr))]
    vals *= m.values[:, None]
    for a in scales:
        vals *= a
    return m.indices, vals


def grads_to_flat(params, grads) -> np.ndarray:
    """Densify a sparse-encoder Grads into one flat vector matching
    get_flat_params ordering."""
    enc = np.zeros_like(params.encoder)
    for part in grads.enc_parts:
        np.add.at(enc, *part_rows(part))
    return np.concatenate([enc.ravel(), grads.w_main.ravel(), grads.b_main.ravel(),
                           grads.w_calib.ravel(), grads.b_calib.ravel()])


def set_flat_params(params, flat: np.ndarray) -> None:
    """Write ``flat``, in get_flat_params ordering, back into the tensors."""
    pos = 0
    for name in _TENSOR_ORDER:
        arr = getattr(params, name)
        nxt = pos + arr.size
        arr[...] = flat[pos:nxt].reshape(arr.shape)
        pos = nxt
    if pos != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, expected {pos}")


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
