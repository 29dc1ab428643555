"""Downstream evaluators and the pilot sweep machinery."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import FEATS, correct_mask
from selfcal.apps import (
    PilotSweepConfig,
    adversarial_eval,
    cascade_eval,
    evaluate_point,
    grid_points,
    pilot_sweeps,
    seed_annotations,
    selective_eval,
)
from selfcal.calibrators import Calibrator
from selfcal.corpus import Annotations, generate_synthetic
from selfcal.metrics import auroc, cascade_curve
from selfcal.model import TrainConfig, init_parameters, train_main
from selfcal.toast import ToastConfig, cross_annotate, train_multitask


@pytest.fixture(scope="module")
def sweep_cfg():
    return PilotSweepConfig(
        toast=ToastConfig(
            train=TrainConfig(epochs=8, hidden_dim=16, seed=200, features=FEATS),
            annotator_train=TrainConfig(epochs=5, hidden_dim=16, seed=100, features=FEATS)),
        seeds=(0, 1),
        sizes=(20, 80),
        ratios=(0.3, 0.5, 0.7),
        fixed_factors=(1, 2),
        ks=(2, 3),
    )


@pytest.fixture(scope="module")
def pool(synth_cfg):
    from dataclasses import replace
    return generate_synthetic(replace(synth_cfg, seed=77, samples_per_class=300)).train


class TestSelectiveEval:
    def test_report_structure_and_consistency(self, base_model, synth_data):
        calib = Calibrator("vanilla", base_model)
        rep = selective_eval(calib, synth_data.test, targets=(0.9, 0.95))
        log = rep["log"]
        pos = log.confidence[log.correct == 1]
        neg = log.confidence[log.correct == 0]
        assert rep["auroc_risk"] == pytest.approx(1.0 - auroc(pos, neg), abs=1e-15)
        assert set(rep["coverage_at_risk"]) == {"0.9", "0.95"}
        covs = [c for _, c, _ in rep["risk_coverage"]]
        assert all(a >= b - 1e-12 for a, b in zip(covs, covs[1:]))

    def test_constant_confidence_is_all_or_nothing(self, synth_data):
        # An untrained model scores exactly 1/C everywhere.
        p = init_parameters(2, TrainConfig(hidden_dim=4, features=FEATS))
        rep = selective_eval(Calibrator("vanilla", p), synth_data.test,
                             targets=(0.01, 0.999))
        acc = rep["log"].correct.mean()
        assert rep["coverage_at_risk"]["0.01"] == (1.0 if acc >= 0.01 else None)
        assert rep["coverage_at_risk"]["0.999"] is None  # desk model is not that good

    def test_degenerate_log_reports_none(self, separable, separable_model):
        rep = selective_eval(Calibrator("vanilla", separable_model), separable,
                             targets=(0.95,))
        assert rep["auroc_risk"] is None  # no wrong predictions to rank
        assert rep["coverage_at_risk"]["0.95"] == 1.0


class TestAdversarialEval:
    def test_copy_of_id_set_is_chance(self, base_model, synth_data):
        calib = Calibrator("vanilla", base_model)
        rep = adversarial_eval(calib, synth_data.test, synth_data.test)
        assert rep["auroc"] == pytest.approx(0.5, abs=1e-12)
        assert rep["delta_conf"] == pytest.approx(0.0, abs=1e-9)

    def test_no_protocol_drift(self, base_model, synth_data, lexicon):
        from selfcal.augment import attack_dataset
        adv, _ = attack_dataset(base_model, synth_data.test, lexicon,
                                budget=6, max_successes=40)
        calib = Calibrator("vanilla", base_model)
        rep = adversarial_eval(calib, synth_data.test, adv)
        assert rep["auroc"] == auroc(rep["id_scores"], rep["adv_scores"])
        assert len(rep["detection_f1"]) == 101

    def test_subsampling_is_deterministic(self, base_model, synth_data):
        calib = Calibrator("vanilla", base_model)
        a = adversarial_eval(calib, synth_data.test, synth_data.test, max_id=50, seed=3)
        b = adversarial_eval(calib, synth_data.test, synth_data.test, max_id=50, seed=3)
        np.testing.assert_array_equal(a["id_scores"], b["id_scores"])
        assert a["n_id"] == 50

    def test_empty_adversarial_set_errors(self, base_model, synth_data):
        empty = synth_data.test.subset([])
        with pytest.raises(ValueError, match="empty adversarial"):
            adversarial_eval(Calibrator("vanilla", base_model), synth_data.test, empty)


class TestCascadeEval:
    def test_identical_models_give_flat_curve(self, base_model, synth_data):
        calib = Calibrator("vanilla", base_model)
        rep = cascade_eval(calib, base_model, synth_data.test)
        accs = [a for _, a, _ in rep["curve"]]
        assert max(accs) - min(accs) <= 1e-12
        assert rep["small_accuracy"] == rep["large_accuracy"]

    def test_endpoints_match_model_accuracies(self, base_model, synth_data, train_cfg):
        from dataclasses import replace
        large, _ = train_main(synth_data.train,
                              replace(train_cfg, hidden_dim=64, epochs=8, seed=9))
        calib = Calibrator("vanilla", base_model)
        rep = cascade_eval(calib, large, synth_data.test)
        assert rep["curve"][0] == (0.0, pytest.approx(rep["small_accuracy"], abs=1e-15), 0.0)
        # Past every confidence, everything routes to the large model.
        log = calib.build_log(synth_data.test, "id")
        points, _ = cascade_curve(
            log, correct_mask(large, synth_data.test.samples).astype(np.int64),
            thresholds=[1.01])
        assert points[0][1] == pytest.approx(rep["large_accuracy"], abs=1e-15)

    def test_oracle_large_model_never_hurts(self, synth_data, train_cfg):
        from dataclasses import replace
        # Memorize the test set: a genuinely perfect "large" model.
        oracle, _ = train_main(synth_data.test,
                               replace(train_cfg, epochs=10, hidden_dim=32, seed=13))
        oracle_acc = np.mean(correct_mask(oracle, synth_data.test.samples))
        assert oracle_acc == 1.0
        small, _ = train_main(synth_data.train, replace(train_cfg, epochs=2, hidden_dim=8))
        rep = cascade_eval(Calibrator("vanilla", small), oracle, synth_data.test)
        accs = [a for _, a, _ in rep["curve"]]
        assert all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))
        fracs = [f for _, _, f in rep["curve"]]
        assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))


class TestPilotSweeps:
    def test_grid_points_canonical_order(self, sweep_cfg):
        ids = [p["point_id"] for p in grid_points("size", sweep_cfg)]
        assert ids == ["size=20", "size=80"]
        ids = [p["point_id"] for p in grid_points("imbalance", sweep_cfg)]
        assert ids[:3] == ["ratio=0.3", "ratio=0.5", "ratio=0.7"]
        assert "fixed_negative_x1" in ids and "fixed_positive_x2" in ids
        ids = [p["point_id"] for p in grid_points("k", sweep_cfg)]
        assert ids == ["k=2", "k=3"]

    def test_unknown_kind_rejected(self, sweep_cfg):
        with pytest.raises(ValueError, match="sweep kind"):
            grid_points("bogus", sweep_cfg)

    def test_size_sweep_rows(self, synth_data, pool, sweep_cfg):
        rows = pilot_sweeps(synth_data.train, pool, synth_data.test, "size", sweep_cfg)
        assert [r["point_id"] for r in rows] == ["size=20", "size=80"]
        for r in rows:
            assert r["n_seeds"] == 2
            assert 0.0 <= r["auroc_mean"] <= 1.0

    def test_infeasible_point_is_skipped_row(self, synth_data, pool, sweep_cfg):
        from dataclasses import replace
        big = replace(sweep_cfg, sizes=(10 ** 6,), seeds=(0,))
        rows = pilot_sweeps(synth_data.train, pool, synth_data.test, "size", big)
        assert rows[0]["skipped"]
        assert rows[0]["auroc_mean"] is None

    def test_k_sweep_needs_lexicon(self, synth_data, pool, sweep_cfg):
        with pytest.raises(ValueError, match="lexicon"):
            pilot_sweeps(synth_data.train, pool, synth_data.test, "k", sweep_cfg)

    def test_k_point_runs_the_configs_pipeline(self, synth_data, lexicon, sweep_cfg):
        # A k point runs sweep_cfg.toast with its own k, so [toast]'s alpha
        # and ablation flags reach it. Which row is better is not asserted.
        point = grid_points("k", sweep_cfg)[0]
        one_seed = replace(sweep_cfg, seeds=(0,))

        def row(**toast):
            cfg = replace(one_seed, toast=replace(one_seed.toast, **toast))
            return evaluate_point(point, synth_data.train, synth_data.test, cfg, None, lexicon)

        default = row()
        assert row(no_augment=True) != default
        assert row(alpha=0.9) != default

    def test_k_sweep_without_augmentation_needs_no_lexicon(self, synth_data, pool, sweep_cfg):
        cfg = replace(sweep_cfg, seeds=(0,), ks=(2,),
                      toast=replace(sweep_cfg.toast, no_augment=True))
        rows = pilot_sweeps(synth_data.train, pool, synth_data.test, "k", cfg)
        assert [(r["point_id"], r["n_seeds"]) for r in rows] == [("k=2", 1)]

    @pytest.mark.parametrize("kind", ["size", "imbalance", "features"])
    def test_pool_points_ignore_the_pipeline_settings(self, synth_data, pool, sweep_cfg, kind):
        # These points train stage 3 on their rows of the annotated pool with
        # no augmented pairs: no stage that reads k, alpha, rate or a flag.
        cfg = replace(sweep_cfg, seeds=(0,))
        changed = replace(cfg, toast=replace(
            cfg.toast, k=3, alpha=0.9, augment_per_negative=2, rate=0.5,
            no_cross_annotation=True, no_downsample=True, no_augment=True, no_alpha_decay=True))
        annotations = seed_annotations(synth_data.train, pool, cfg)
        rows = [evaluate_point(p, synth_data.train, synth_data.test, cfg, annotations)
                for p in grid_points(kind, cfg)]
        assert any(r["n_seeds"] for r in rows)
        assert [evaluate_point(p, synth_data.train, synth_data.test, changed, annotations)
                for p in grid_points(kind, cfg)] == rows

    def test_uninformative_prediction_block_has_no_signal(self, synth_data, sweep_cfg):
        # Reassign predicted labels at random, independent of correctness:
        # with the sample block zeroed the head sees pure noise, so the
        # confidence gap collapses; with all features it stays substantial.
        records = cross_annotate(
            synth_data.train, ToastConfig(train=sweep_cfg.toast.annotator_config))[0]
        rng = np.random.default_rng(5)
        shuffled = Annotations(records.data, records.rows,
                               rng.integers(0, 2, size=len(records)), records.correct)
        pos = np.flatnonzero(shuffled.correct == 1)
        neg = np.flatnonzero(shuffled.correct == 0)
        balanced = shuffled.take(np.concatenate([pos[:len(neg)], neg]))

        def dconf_for(mode):
            params, _ = train_multitask(
                synth_data.train, balanced, None,
                ToastConfig(train=sweep_cfg.toast.train, no_augment=True), mode)
            log = Calibrator("toast", params).build_log(synth_data.test, "id")
            c = log.confidence
            return 100 * (c[log.correct == 1].mean() - c[log.correct == 0].mean())

        assert abs(dconf_for("no_sample")) < 5.0
        assert dconf_for("all") > 15.0

    def test_evaluate_point_matches_sweep(self, synth_data, pool, sweep_cfg):
        annotations = seed_annotations(synth_data.train, pool, sweep_cfg)
        point = grid_points("size", sweep_cfg)[0]
        row = evaluate_point(point, synth_data.train, synth_data.test,
                             sweep_cfg, annotations)
        rows = pilot_sweeps(synth_data.train, pool, synth_data.test, "size", sweep_cfg)
        assert row == rows[0]


class TestDirectionalComparisons:
    """Paired pipeline-vs-baseline runs, averaged over three seeds (the same
    protocol the headline comparisons use)."""

    def test_selective_risk_beats_vanilla(self, paired_runs):
        risks = {"vanilla": [], "toast": []}
        for run in paired_runs:
            for method in risks:
                rep = selective_eval(run[method], run["data"].test, (0.95,))
                risks[method].append(rep["auroc_risk"])
        assert np.mean(risks["toast"]) <= np.mean(risks["vanilla"])

    def test_cascade_area_beats_vanilla(self, paired_runs, train_cfg):
        from dataclasses import replace

        from selfcal.calibrators import train_with_temperature
        from selfcal.toast import ToastConfig, run_toast

        areas = {"vanilla": [], "toast": []}
        for run in paired_runs:
            seed = run["seed"]
            data = run["data"]
            large, _ = train_main(
                data.train, replace(train_cfg, epochs=8, hidden_dim=128, seed=seed + 50))
            small_cfg = replace(train_cfg, epochs=2, hidden_dim=16, seed=seed + 60)
            small_v, _ = train_with_temperature(data.train, small_cfg)
            small_t, _ = run_toast(data.train, ToastConfig(train=small_cfg),
                                   run["lexicon"])
            areas["vanilla"].append(
                cascade_eval(Calibrator("vanilla", small_v), large, data.test)["area"])
            areas["toast"].append(
                cascade_eval(Calibrator("toast", small_t), large, data.test)["area"])
        assert np.mean(areas["toast"]) >= np.mean(areas["vanilla"])

    @pytest.mark.xfail(
        strict=False,
        reason="greedy attacks stop right at the decision boundary, where the "
               "max-probability baseline's confidence is minimal by construction; "
               "the desk-scale linear model lacks the overconfidence pathology "
               "that lets the trained head win this comparison at full scale")
    def test_adversarial_gap_beats_vanilla(self, paired_runs, train_cfg):
        from dataclasses import replace

        from selfcal.augment import attack_dataset

        gaps = {"vanilla": [], "toast": []}
        for run in paired_runs:
            data = run["data"]
            target, _ = train_main(
                data.train, replace(train_cfg, seed=run["seed"] + 40))
            adv, _ = attack_dataset(target, data.test, run["lexicon"],
                                    budget=6, max_successes=200)
            for method in gaps:
                rep = adversarial_eval(run[method], data.test, adv, seed=run["seed"])
                gaps[method].append(rep["delta_conf"])
        assert np.mean(gaps["toast"]) > np.mean(gaps["vanilla"])
