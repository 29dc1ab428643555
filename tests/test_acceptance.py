"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time
from dataclasses import replace

import numpy as np

from conftest import (
    FEATS,
    SMALL_FEATS,
    correct_mask,
    grads_to_flat,
    numerical_grad,
    relative_error,
)
from selfcal.apps import PilotSweepConfig, adversarial_eval, cascade_eval, pilot_sweeps
from selfcal.calibrators import Calibrator, ConfidenceLog, train_with_temperature
from selfcal.corpus import SynthConfig, generate_synthetic
from selfcal.metrics import auroc, auroc_risk, cascade_curve, delta_conf, risk_coverage
from selfcal.model import (
    TrainConfig,
    calib_batch_grads,
    consistency_batch_grads,
    featurize_batch,
    init_parameters,
    main_batch_grads,
    train_main,
)
from selfcal.toast import ToastConfig, cross_annotate, downsample_balance, run_toast


def _report(number: int, name: str, failed: bool) -> None:
    print(f"\nACCEPTANCE {number} ({name}): {'FAIL' if failed else 'PASS'}")


class _Criterion:
    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def __exit__(self, exc_type, exc, tb):
        _report(self.number, self.name, failed=exc_type is not None)
        return False


def _brute_auroc(pos, neg):
    pos = np.asarray(pos)[:, None]
    neg = np.asarray(neg)[None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins / (pos.size * neg.size))


def test_criterion_1_metric_oracle_equivalence():
    with _Criterion(1, "metric oracle equivalence") as c:
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 2001))
            n_pos = int(rng.integers(1, n))
            conf = np.round(rng.random(n), 3)  # coarse grid forces ties
            correct = np.zeros(n, dtype=np.int64)
            correct[:n_pos] = 1
            pos, neg = conf[correct == 1], conf[correct == 0]
            fast = auroc(pos, neg)
            assert abs(fast - _brute_auroc(pos, neg)) <= 1e-12
            log = ConfidenceLog(conf, correct, np.zeros(n, dtype=np.int64),
                                tuple(["id"] * n))
            assert auroc_risk(log) == 1.0 - fast
        assert c.elapsed < 10.0


def test_criterion_2_gradient_checks():
    with _Criterion(2, "gradient checks") as c:
        rng = np.random.default_rng(1)
        for _ in range(20):
            num_classes = int(rng.integers(2, 4))
            cfg = TrainConfig(hidden_dim=int(rng.integers(3, 6)),
                              seed=int(rng.integers(0, 10_000)), features=SMALL_FEATS)
            p = init_parameters(num_classes, cfg)
            p.encoder[:] = rng.normal(scale=0.05, size=p.encoder.shape)
            p.w_main[:] = rng.normal(size=p.w_main.shape)
            p.b_main[:] = rng.normal(scale=0.3, size=p.b_main.shape)
            p.w_calib[:] = rng.normal(size=p.w_calib.shape)
            p.b_calib[:] = rng.normal(scale=0.3, size=p.b_calib.shape)

            n = int(rng.integers(2, 5))
            def text():
                return " ".join(f"t{int(j)}" for j in rng.integers(0, 40, size=6))
            vecs = featurize_batch([text() for _ in range(n)], cfg=SMALL_FEATS)
            aug = featurize_batch([text() for _ in range(n)], cfg=SMALL_FEATS)
            labels = rng.integers(0, num_classes, size=n)
            cs = rng.integers(0, 2, size=n)
            alpha = 0.1

            def l_main():
                return main_batch_grads(p, vecs, labels)[0]

            def l_calib():
                return calib_batch_grads(p, vecs, labels, cs)[0]

            def l_cons():
                return consistency_batch_grads(p, vecs, aug, labels)[0]

            def l_total():
                return l_main() + l_calib() + alpha * l_cons()

            _, g_main = main_batch_grads(p, vecs, labels)
            _, g_calib = calib_batch_grads(p, vecs, labels, cs)
            _, g_cons = consistency_batch_grads(p, vecs, aug, labels)
            checks = [
                (l_main, grads_to_flat(p, g_main)),
                (l_calib, grads_to_flat(p, g_calib)),
                (l_cons, grads_to_flat(p, g_cons)),
                (l_total, grads_to_flat(p, g_main) + grads_to_flat(p, g_calib)
                 + alpha * grads_to_flat(p, g_cons)),
            ]
            for loss_fn, analytic in checks:
                assert relative_error(analytic, numerical_grad(loss_fn, p)) < 1e-4
        assert c.elapsed < 30.0


def test_criterion_3_pipeline_invariants(synth_data):
    with _Criterion(3, "pipeline invariants"):
        for k in (2, 3):
            cfg = ToastConfig(k=k, train=TrainConfig(epochs=5, hidden_dim=16,
                                                     seed=100, features=FEATS))
            annotations, rounds = cross_annotate(synth_data.train, cfg)
            assert len(annotations) == len(synth_data.train)
            ids = [annotations.data.samples[r].id for r in annotations.rows]
            offset = 0
            for rnd in rounds:
                train_ids = set(rnd["train_ids"])
                heldout = set(rnd["heldout_ids"])
                assert not train_ids & heldout
                for sample_id in ids[offset:offset + len(rnd["heldout_ids"])]:
                    assert sample_id in heldout
                    assert sample_id not in train_ids
                offset += len(rnd["heldout_ids"])

        records = cross_annotate(
            synth_data.train,
            ToastConfig(train=TrainConfig(epochs=5, hidden_dim=16, seed=100,
                                          features=FEATS)))[0]
        balanced = records.correct[downsample_balance(records.correct, np.random.default_rng(0))]
        n_pos = np.count_nonzero(balanced == 1)
        n_neg = np.count_nonzero(balanced == 0)
        assert n_pos == n_neg


def test_criterion_4_monotone_transform_invariance(paired_runs):
    with _Criterion(4, "temperature scaling leaves AUROC unchanged"):
        for run in paired_runs:
            test = run["data"].test
            logs = {m: run[m].build_log(test, "id") for m in ("vanilla", "temperature")}
            aurocs = {}
            for method, log in logs.items():
                pos = log.confidence[log.correct == 1]
                neg = log.confidence[log.correct == 0]
                aurocs[method] = auroc(pos, neg)
            assert abs(aurocs["vanilla"] - aurocs["temperature"]) <= 1e-12


def test_criterion_5_directional_main_result():
    with _Criterion(5, "confidence gap improves, accuracy maintained") as c:
        for seed in (0, 1, 2):
            cfg = SynthConfig(num_classes=2, vocab_size=200, samples_per_class=300,
                              hardness_fraction=0.3, hard_flip_prob=0.5, seed=seed)
            data = generate_synthetic(cfg)
            from selfcal.augment import synthetic_lexicon
            lex = synthetic_lexicon(cfg)
            tc = TrainConfig(epochs=5, hidden_dim=16, seed=seed + 100, features=FEATS)

            base_params, _ = train_with_temperature(data.train, tc)
            vanilla_log = Calibrator("vanilla", base_params).build_log(data.test, "id")
            main_params, _ = train_main(data.train, tc)
            main_acc = np.mean(correct_mask(main_params, data.test.samples))
            toast_params, _ = run_toast(
                data.train,
                ToastConfig(train=TrainConfig(epochs=8, hidden_dim=16, seed=seed + 100,
                                              features=FEATS)),
                lex)
            toast_log = Calibrator("toast", toast_params).build_log(data.test, "id")

            def gap(log):
                return delta_conf(log.confidence[log.correct == 1],
                                  log.confidence[log.correct == 0])

            assert gap(toast_log) > gap(vanilla_log)
            assert abs(toast_log.correct.mean() - main_acc) <= 0.02 + 1e-12
        assert c.elapsed < 300.0


def test_criterion_6_pilot_trends(synth_data):
    with _Criterion(6, "calibration-set size and balance trends") as c:
        pool_cfg = SynthConfig(num_classes=2, vocab_size=200, samples_per_class=400,
                               hardness_fraction=0.3, hard_flip_prob=0.5, seed=1)
        pool = generate_synthetic(pool_cfg).train
        sweep_cfg = PilotSweepConfig(
            toast=ToastConfig(
                train=TrainConfig(epochs=8, hidden_dim=16, seed=200, features=FEATS),
                annotator_train=TrainConfig(epochs=5, hidden_dim=16, seed=100, features=FEATS)),
            seeds=(0, 1, 2),
            sizes=(30, 120, 480),
            ratios=(0.1, 0.3, 0.5, 0.7, 0.9),
        )
        size_rows = pilot_sweeps(synth_data.train, pool, synth_data.test,
                                 "size", sweep_cfg)
        aurocs = [r["auroc_mean"] for r in size_rows]
        assert all(a is not None for a in aurocs)
        assert all(b >= a for a, b in zip(aurocs, aurocs[1:]))

        imb_rows = [r for r in pilot_sweeps(synth_data.train, pool, synth_data.test,
                                            "imbalance", sweep_cfg)
                    if r.get("mode") == "ratio" and r["auroc_mean"] is not None]
        best = max(imb_rows, key=lambda r: r["auroc_mean"])
        assert abs(best["ratio"] - 0.5) <= 0.2 + 1e-12  # one grid step
        assert c.elapsed < 900.0


def test_criterion_7_applications_sanity(paired_runs, train_cfg):
    with _Criterion(7, "application evaluators behave"):
        run = paired_runs[0]
        data = run["data"]

        large, _ = train_main(data.train,
                              replace(train_cfg, epochs=8, hidden_dim=64, seed=50))
        rep = cascade_eval(run["vanilla"], large, data.test)
        assert rep["curve"][0][1] == rep["small_accuracy"]
        small_log = run["vanilla"].build_log(data.test, "id")
        large_correct = correct_mask(large, data.test.samples).astype(np.int64)
        past_max, _ = cascade_curve(small_log, large_correct, thresholds=[1.01])
        assert past_max[0][1] == rep["large_accuracy"]

        for method in ("vanilla", "temperature", "label_smoothing", "toast"):
            copied = adversarial_eval(run[method], data.test, data.test)
            assert abs(copied["auroc"] - 0.5) <= 0.02
            log = run[method].build_log(data.test, "id")
            covs = [cov for _, cov, _ in risk_coverage(log)]
            assert all(a >= b - 1e-12 for a, b in zip(covs, covs[1:]))


def test_criterion_8_end_to_end_determinism(tmp_path):
    with _Criterion(8, "byte-identical end-to-end runs") as c:
        from selfcal.cli import main
        outs = []
        for name in ("a", "b"):
            start = time.perf_counter()
            out = tmp_path / name
            assert main(["eval", "--config", "configs/default.ini",
                         "--out", str(out)]) == 0
            assert time.perf_counter() - start < 60.0
            outs.append((out / "metrics.json").read_bytes())
        assert outs[0] == outs[1]
