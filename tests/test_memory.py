"""Peak memory under tracemalloc, mostly in encoders' bytes: the pipeline and
the sweeps train one model after another with one encoder in memory at a
time, eval frees its main models before the cascade trains its own, model
files are written and read without a second copy of a tensor, the batched
encoder gathers one block of about ``ENCODE_BLOCK_BYTES`` at a time, an SGD
step forms its encoder-gradient rows one block of ``GRAD_BLOCK_BYTES`` at a
time, the attack scores one group of ``ATTACK_GROUP`` samples' candidates
at a time, ``featurize_batch`` hashes a large call one chunk of about
``CHUNK_TOKENS`` tokens at a time, a model's scoring table is built in one
product that allocates the table alone, once for all its calibrators, and
cross-annotation holds its annotations as rows of the annotated dataset."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from selfcal import cli
from selfcal.apps import PilotSweepConfig, evaluate_point, seed_annotations
from selfcal.augment import attack_dataset
from selfcal.calibrators import Calibrator
from selfcal.cli import main
from selfcal.corpus import SynthConfig, generate_synthetic
from selfcal.model import (
    ENCODE_BLOCK_BYTES,
    FeaturizerConfig,
    Scorer,
    TrainConfig,
    apply_grads,
    calib_batch_grads,
    consistency_batch_grads,
    encode,
    featurize_batch,
    init_parameters,
    load_parameters,
    main_batch_grads,
    save_parameters,
    train_main,
)
from selfcal.toast import ToastConfig, cross_annotate, run_toast

# A 32 MiB encoder, large next to everything else a small run allocates.
BIG = TrainConfig(epochs=2, hidden_dim=64, seed=100,
                  features=FeaturizerConfig(hash_dim=2 ** 16))
ENCODER_BYTES = BIG.features.hash_dim * BIG.hidden_dim * 8


def peak_bytes(fn, *args) -> tuple[int, object]:
    """Peak bytes that ``fn(*args)`` allocates beyond what was live before
    the call, and what the call returned."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def peak_encoders(fn, *args) -> float:
    """``peak_bytes`` of the call, in encoders."""
    return peak_bytes(fn, *args)[0] / ENCODER_BYTES


@pytest.fixture(scope="module")
def sweep_cfg():
    return PilotSweepConfig(toast=ToastConfig(train=replace(BIG, seed=200), annotator_train=BIG),
                            seeds=(0, 1), ks=(2,))


def test_run_toast_holds_one_encoder(synth_data, lexicon):
    # Two annotators and the stage-3 model, one after another.
    assert peak_encoders(run_toast, synth_data.train, ToastConfig(train=BIG), lexicon) < 1.5


def test_seed_annotations_holds_one_encoder(synth_data, sweep_cfg):
    assert peak_encoders(seed_annotations, synth_data.train, synth_data.test, sweep_cfg) < 1.5


def test_k_point_holds_one_encoder(synth_data, lexicon, sweep_cfg):
    # One whole pipeline per seed.
    point = {"kind": "k", "point_id": "k=2", "k": 2}
    assert peak_encoders(evaluate_point, point, synth_data.train, synth_data.test,
                         sweep_cfg, None, lexicon) < 1.5


def test_cross_annotate_copies_no_dataset():
    """Two rounds over 2000 texts of 100 tokens (a 2.6 MiB matrix) with a
    2 ** 12 x 4 encoder, so matrix copies dominate the peak. Under
    tracemalloc (numpy 2.4) the peak was 3.56x the matrix's bytes when each
    held-out fold, and then all held-out rows in round order, were subsets
    of the dataset with their own matrices, and 1.08x with the annotations
    held as row positions: a round's training subset, its held-out rows'
    take and one encode block."""
    d = generate_synthetic(SynthConfig(samples_per_class=1000, tokens_per_sample=100,
                                       vocab_size=2000, seed=1)).train
    tc = TrainConfig(epochs=1, hidden_dim=4, seed=3, features=FeaturizerConfig(hash_dim=2 ** 12))
    m = d.features(tc.features)
    peak, _ = peak_bytes(cross_annotate, d, ToastConfig(k=2, train=tc))
    assert peak < 2.0 * (m.indptr.nbytes + m.indices.nbytes + m.values.nbytes)


def test_encode_gathers_one_block_at_a_time():
    # At hidden 128 a block is 1024 nonzeros; 4096 of them would be 4 MiB.
    p = init_parameters(2, TrainConfig(hidden_dim=128, features=FeaturizerConfig(hash_dim=2 ** 14)))
    rng = np.random.default_rng(0)
    m = featurize_batch([" ".join(f"w{j}" for j in rng.integers(0, 5000, size=40))
                         for _ in range(400)], cfg=p.features)
    assert m.indptr[-1] >= 20_000
    peak, out = peak_bytes(encode, p, m)
    assert peak < out.nbytes + 2 * ENCODE_BLOCK_BYTES


def test_building_a_table_allocates_the_table_and_one_block():
    p = init_parameters(2, BIG)
    peak, scorer = peak_bytes(Scorer, p)
    assert peak <= scorer.table.nbytes + 2 ** 20


def test_calibrators_of_one_model_share_its_table():
    # perfbench's toast_train scores with two calibrators of one model; the
    # second one must not build a second 2 ** 16 x 4 table.
    p = init_parameters(2, BIG)
    first = Calibrator("vanilla", p)
    peak, second = peak_bytes(Calibrator, "toast", p)
    assert second.scorer is first.scorer
    assert peak < 0.01 * ENCODER_BYTES


def test_multitask_step_forms_encoder_gradients_one_block_at_a_time():
    # A stage-3 step at hidden 64 on batches of 32 texts of 24 tokens: each of
    # its four encoder-gradient parts has about 1500 nonzeros, 0.75 MiB of
    # float64 rows if materialised (5.9 MiB with their alpha-scaled copies and
    # the update's temporaries). The step may hold one encode gather and one
    # gradient block at a time (0.85 MiB), never a whole part's rows.
    p = init_parameters(2, TrainConfig(hidden_dim=64, features=FeaturizerConfig(hash_dim=2 ** 15)))
    rng = np.random.default_rng(0)
    main_m, calib_m, clean_m, aug_m = (
        featurize_batch([" ".join(f"w{j}" for j in rng.integers(0, 20_000, size=24))
                         for _ in range(32)], cfg=p.features)
        for _ in range(4))
    assert all(1400 < m.indptr[-1] < 1600 for m in (main_m, calib_m, clean_m, aug_m))
    labels = rng.integers(0, 2, size=32)

    def step():
        _, g = main_batch_grads(p, main_m, labels, 0.1)
        _, gc = calib_batch_grads(p, calib_m, labels, labels, 0.1)
        _, ga = consistency_batch_grads(p, clean_m, aug_m, labels)
        apply_grads(p, g.add(gc).add(ga, 0.37), 0.5)

    assert peak_bytes(step)[0] < 1.5 * 2 ** 20


def test_attack_scores_one_group_at_a_time():
    # configs/default.ini's attack on its test split: 300 samples, 200
    # successes, 400-500 candidate texts per step of a group of 16. Under
    # tracemalloc (numpy 2.4) the peak was 1.6 MiB with groups of 16, 1.9 MiB
    # with 32, 2.7 MiB with 64 and 5.7 MiB with the whole split as one group.
    cfg = cli.load_config(str(Path(__file__).resolve().parents[1] / "configs" / "default.ini"))
    train_d, test_d, lexicon = cli._load_data(cfg)
    params, _ = train_main(train_d, cli._train_config(cfg, cfg["run"]["seed"]))
    test_d.features(params.features)
    peak, (adv, _) = peak_bytes(attack_dataset, params, test_d, lexicon, 6, 200)
    assert peak < 4 * 2 ** 20
    assert len(adv) == 200   # the success limit ends the attack, many groups in


def test_featurize_batch_hashes_one_chunk_at_a_time():
    # perfbench's score_stream batch: 8000 texts of 8, 32 and 128 tokens,
    # 6.4 MiB of matrix. Under tracemalloc (numpy 2.4) the peak was 2.0x the
    # matrix's bytes with chunks of 4096 tokens (the chunks' arrays are joined
    # once at the end) and text by text, 3.4x with chunks of 65536 tokens and
    # 16x with the whole call as one chunk.
    rng = np.random.default_rng(0)
    words = [f"w{j}" for j in range(400)]
    texts = [" ".join(map(words.__getitem__, rng.integers(0, 400, size=(8, 32, 128)[i % 3])))
             for i in range(8000)]
    peak, m = peak_bytes(featurize_batch, texts, None, FeaturizerConfig(hash_dim=2 ** 14))
    assert peak < 3 * (m.indptr.nbytes + m.indices.nbytes + m.values.nbytes)


@pytest.fixture(scope="module")
def big_model():
    return init_parameters(2, BIG)


def test_saving_copies_no_tensor(big_model, tmp_path):
    # validate()'s isfinite mask alone is an eighth of an encoder.
    assert peak_encoders(save_parameters, big_model, tmp_path / "model.bin") < 0.25


def test_loading_reads_into_the_arrays(big_model, tmp_path):
    path = tmp_path / "model.bin"
    save_parameters(big_model, path)
    assert peak_encoders(load_parameters, path) < 1.25


# Every method and application, as in configs/default.ini, on less data and
# with the encoder of BIG.
EVAL_CONFIG = """
[run]
seed = 3

[data]
source = synthetic
num_classes = 2
vocab_size = 120
samples_per_class = 60
hardness_fraction = 0.3
hard_flip_prob = 0.5

[model]
hash_dim = 65536
hidden_dim = 64

[attack]
max_successes = 10
"""


def test_eval_frees_the_main_models_before_the_cascade(tmp_path):
    # The cascade's large model (hidden 128) is two encoders and its three
    # small ones (hidden 16) a quarter each; with the three main models still
    # alive the peak would be near six.
    cfg = tmp_path / "eval.ini"
    cfg.write_text(EVAL_CONFIG)

    def run_eval():
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0

    assert peak_encoders(run_eval) < 3.5
