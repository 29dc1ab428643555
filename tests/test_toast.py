"""The three pipeline stages: cross-annotation, post-processing, multi-task
training, and their composition with ablation flags."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import FEATS, frozen_rows, get_flat_params, make_separable
from selfcal import toast
from selfcal.calibrators import Calibrator
from selfcal.corpus import Annotations, Dataset, Sample, split_folds
from selfcal.metrics import delta_conf
from selfcal.model import TrainConfig, train_main
from selfcal.augment import TransformKind
from selfcal.toast import (
    AugmentSet,
    ToastConfig,
    build_augment_set,
    cross_annotate,
    downsample_balance,
    run_toast,
    train_multitask,
)


def _toast_cfg(seed=100, **kwargs) -> ToastConfig:
    train = TrainConfig(epochs=8, hidden_dim=16, seed=seed, features=FEATS)
    return ToastConfig(train=train, **kwargs)


def _records(n_pos, n_neg) -> Annotations:
    """``n_pos`` right predictions, then ``n_neg`` wrong ones, of label 0."""
    samples = [Sample(f"p{i}", f"tok{i} words") for i in range(n_pos)]
    samples += [Sample(f"n{i}", f"tok{i} other") for i in range(n_neg)]
    return Annotations(Dataset(samples, ("a", "b")), np.arange(n_pos + n_neg),
                       [0] * n_pos + [1] * n_neg, [1] * n_pos + [0] * n_neg)


def _ids(annotations, rows):
    return [annotations.data.samples[annotations.rows[i]].id for i in rows]


@pytest.fixture
def annotator_seeds(monkeypatch):
    """The seed of every annotator that ``cross_annotate`` trains, in order."""
    seeds = []

    def recording_train_main(part, tc):
        seeds.append(tc.seed)
        return train_main(part, tc)

    monkeypatch.setattr(toast, "train_main", recording_train_main)
    return seeds


class TestCrossAnnotate:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_output_size_equals_input_size(self, synth_data, k):
        annotations, _ = cross_annotate(synth_data.train, _toast_cfg(k=k))
        assert len(annotations) == len(synth_data.train)

    def test_annotations_are_rows_of_the_input_in_round_order(self, synth_data):
        d = synth_data.train
        cfg = _toast_cfg(k=3)
        annotations, _ = cross_annotate(d, cfg)
        assert annotations.data is d
        assert annotations.rows.tolist() == np.concatenate(
            split_folds(d, 3, cfg.train.seed)).tolist()

    def test_perfect_annotator_marks_everything_correct(self):
        d = make_separable(n_per_class=30)
        annotations, _ = cross_annotate(d, ToastConfig(
            train=TrainConfig(epochs=5, hidden_dim=8, seed=4, features=FEATS)))
        assert all(annotations.correct == 1)

    def test_leakage_freedom(self, synth_data):
        cfg = _toast_cfg(k=3)
        annotations, rounds = cross_annotate(synth_data.train, cfg)
        # Rows come out round by round; each row's id must sit in its round's
        # held-out fold and never in that round's training ids.
        ids = _ids(annotations, range(len(annotations)))
        offset = 0
        for rnd in rounds:
            heldout = set(rnd["heldout_ids"])
            train_ids = set(rnd["train_ids"])
            assert not heldout & train_ids
            chunk = ids[offset:offset + len(rnd["heldout_ids"])]
            offset += len(rnd["heldout_ids"])
            for sample_id in chunk:
                assert sample_id in heldout
                assert sample_id not in train_ids
        assert offset == len(annotations)

    @pytest.mark.parametrize("flags", [{"k": 3}, {"k": 5}, {"no_cross_annotation": True}])
    def test_rounds_train_on_the_other_folds_in_fold_order(self, synth_data, monkeypatch,
                                                           flags):
        # train_main shuffles positions, so the order of its training set is
        # part of each annotator; it is the fold order.
        trained = []

        def recording_train_main(part, tc):
            trained.append(part.ids())
            return train_main(part, tc)

        monkeypatch.setattr(toast, "train_main", recording_train_main)
        d = synth_data.train
        cfg = _toast_cfg(**flags)
        _, rounds = cross_annotate(d, cfg)
        k = 10 if cfg.no_cross_annotation else cfg.k
        folds = [[d.samples[i].id for i in f] for f in split_folds(d, k, cfg.train.seed)]
        assert len(rounds) == len(trained) == (1 if cfg.no_cross_annotation else k)
        for rnd, ids in zip(rounds, trained):
            others = [x for j, f in enumerate(folds) if j != rnd["round"] for x in f]
            assert rnd["train_ids"] == ids == others
            assert rnd["heldout_ids"] == folds[rnd["round"]]

    def test_rounds_use_distinct_seeds(self, synth_data, annotator_seeds):
        cross_annotate(synth_data.train, _toast_cfg(k=3))
        assert len(set(annotator_seeds)) == 3

    def test_mixed_correctness_on_hard_data(self, synth_data):
        annotations, _ = cross_annotate(synth_data.train, _toast_cfg())
        kinds = set(annotations.correct.tolist())
        assert kinds == {0, 1}

    def test_no_cross_annotation_is_one_round_over_a_tenth(self, synth_data, annotator_seeds):
        cfg = _toast_cfg(no_cross_annotation=True)
        annotations, rounds = cross_annotate(synth_data.train, cfg)
        n = len(synth_data.train)
        assert abs(len(annotations) - n // 10) <= 1
        [rnd] = rounds
        assert not set(rnd["heldout_ids"]) & set(rnd["train_ids"])
        # Round 0 of a ten-fold split, trained with the annotator's own seed.
        tenths = split_folds(synth_data.train, 10, cfg.train.seed)
        assert rnd["heldout_ids"] == synth_data.train.subset(tenths[0]).ids()
        assert annotator_seeds == [cfg.annotator_config.seed]
        assert _ids(annotations, range(len(annotations))) == rnd["heldout_ids"]


class TestDownsampleBalance:
    def test_majority_cut_to_minority(self):
        recs = _records(90, 10)
        out = downsample_balance(recs.correct, np.random.default_rng(0))
        pos = [i for i in out if recs.correct[i] == 1]
        neg = [i for i in out if recs.correct[i] == 0]
        assert len(pos) == len(neg) == 10
        assert out.dtype == np.int64 and np.all(np.diff(out) > 0)

    def test_already_balanced_unchanged(self):
        recs = _records(10, 10)
        out = downsample_balance(recs.correct, np.random.default_rng(0))
        assert out.tolist() == list(range(len(recs)))

    def test_minority_untouched(self):
        recs = _records(50, 7)
        out = downsample_balance(recs.correct, np.random.default_rng(1))
        kept_neg = _ids(recs, [i for i in out if recs.correct[i] == 0])
        assert kept_neg == _ids(recs, np.flatnonzero(recs.correct == 0))

    def test_no_duplicates_in_selection(self):
        recs = _records(100, 20)
        ids = _ids(recs, downsample_balance(recs.correct, np.random.default_rng(2)))
        assert len(ids) == len(set(ids))

    def test_degenerate_classes_error(self):
        with pytest.raises(ValueError, match="degenerate"):
            downsample_balance(_records(30, 0).correct, np.random.default_rng(0))
        with pytest.raises(ValueError, match="degenerate"):
            downsample_balance(_records(0, 30).correct, np.random.default_rng(0))


class TestBuildAugmentSet:
    def test_one_variant_per_negative(self, lexicon):
        recs = _records(5, 10)
        out = build_augment_set(recs, lexicon, _toast_cfg(), np.random.default_rng(3))
        assert len(out) == 10

    def test_multiplicity(self, lexicon):
        recs = _records(0, 4)
        cfg = _toast_cfg(augment_per_negative=3)
        out = build_augment_set(recs, lexicon, cfg, np.random.default_rng(3))
        assert len(out) == 12
        assert out.rows.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]

    def test_sources_are_negatives_only(self, lexicon):
        recs = _records(5, 5)
        neg_ids = set(_ids(recs, np.flatnonzero(recs.correct == 0)))
        out = build_augment_set(recs, lexicon, _toast_cfg(), np.random.default_rng(4))
        assert set(_ids(recs, out.rows)) <= neg_ids

    def test_deterministic_given_seed(self, lexicon):
        recs = _records(2, 8)
        a = build_augment_set(recs, lexicon, _toast_cfg(), np.random.default_rng(5))
        b = build_augment_set(recs, lexicon, _toast_cfg(), np.random.default_rng(5))
        assert np.array_equal(a.rows, b.rows)
        assert (a.texts, a.kinds) == (b.texts, b.kinds)


class TestTrainMultitask:
    def test_loss_rows_are_additive(self, synth_data, lexicon):
        cfg = _toast_cfg()
        _, artifacts = run_toast(synth_data.train, cfg, lexicon)
        alpha = cfg.effective_alpha
        for row in artifacts.losses:
            total = row["l_main"] + row["l_calib"] + alpha * row["l_consistency"]
            assert abs(row["l_total"] - total) <= 1e-9

    def test_alpha_zero_matches_two_term_training(self, synth_data, lexicon):
        # With alpha=0, the consistency term exists but cannot move parameters,
        # so the trajectory must match a run without the term entirely.
        d = synth_data.train.subset(range(80))
        records = cross_annotate(d, _toast_cfg())[0]
        balanced = records.take(downsample_balance(records.correct, np.random.default_rng(0)))
        daug = build_augment_set(balanced, lexicon, _toast_cfg(),
                                 np.random.default_rng(1))
        cfg_two_term = _toast_cfg(no_augment=True)
        cfg_alpha_zero = _toast_cfg(alpha=0.0)
        a, trace_a = train_multitask(d, balanced, None, cfg_two_term)
        b, trace_b = train_multitask(d, balanced, daug, cfg_alpha_zero)
        assert np.array_equal(get_flat_params(a), get_flat_params(b))
        assert [r["l_main"] for r in trace_a] == [r["l_main"] for r in trace_b]
        assert [r["l_calib"] for r in trace_a] == [r["l_calib"] for r in trace_b]
        assert [r["l_total"] for r in trace_a] == [r["l_total"] for r in trace_b]

    def test_identity_transform_gives_zero_consistency(self, synth_data):
        d = synth_data.train.subset(range(80))
        records = cross_annotate(d, _toast_cfg())[0]
        balanced = records.take(downsample_balance(records.correct, np.random.default_rng(0)))
        rows = np.flatnonzero(balanced.correct == 0)
        daug = AugmentSet(rows, [balanced.data.samples[balanced.rows[i]].text_a for i in rows],
                          [TransformKind.SYNONYM_SUBSTITUTION] * len(rows))
        _, trace = train_multitask(d, balanced, daug, _toast_cfg())
        assert all(row["l_consistency"] == 0.0 for row in trace)

    @pytest.mark.parametrize("mode", ["no_prediction", "no_sample"])
    def test_a_feature_mode_leaves_its_block_at_positive_zero(self, synth_data, lexicon, mode):
        # With augmented pairs, so the consistency term trains under the mode too.
        d = synth_data.train.subset(range(80))
        records = cross_annotate(d, _toast_cfg())[0]
        balanced = records.take(downsample_balance(records.correct, np.random.default_rng(0)))
        daug = build_augment_set(balanced, lexicon, _toast_cfg(), np.random.default_rng(1))
        params, _ = train_multitask(d, balanced, daug, _toast_cfg(), mode)
        frozen = params.w_calib[frozen_rows(params, mode)]
        assert frozen.tobytes() == bytes(frozen.nbytes)   # +0.0, bit for bit
        assert np.any(params.w_calib != 0.0)

    def test_empty_calibration_set_rejected(self, synth_data):
        with pytest.raises(ValueError, match="calibration"):
            train_multitask(synth_data.train, Annotations(synth_data.train, [], [], []),
                            None, _toast_cfg())

    def test_deterministic(self, synth_data, lexicon):
        cfg = _toast_cfg()
        a, _ = run_toast(synth_data.train, cfg, lexicon)
        b, _ = run_toast(synth_data.train, cfg, lexicon)
        assert np.array_equal(get_flat_params(a), get_flat_params(b))


class TestRunToast:
    def test_default_composition(self, synth_data, lexicon):
        cfg = _toast_cfg()
        _, artifacts = run_toast(synth_data.train, cfg, lexicon)
        counts = artifacts.meta["counts"]
        assert counts["annotated"] == len(synth_data.train)
        neg = counts["annotated_negatives"]
        pos = counts["annotated_positives"]
        assert counts["dstar"] == 2 * min(neg, pos)
        dstar_neg = sum(1 for r in artifacts.dstar if r.correctness == 0)
        assert dstar_neg == counts["dstar"] // 2
        assert counts["daug"] == dstar_neg * cfg.augment_per_negative

    def test_no_cross_annotation_uses_a_tenth(self, synth_data, lexicon):
        cfg = _toast_cfg(no_cross_annotation=True)
        _, artifacts = run_toast(synth_data.train, cfg, lexicon)
        n = len(synth_data.train)
        assert abs(artifacts.meta["counts"]["annotated"] - n // 10) <= 1
        assert len(artifacts.meta["rounds"]) == 1

    def test_no_downsample_keeps_everything(self, synth_data, lexicon):
        _, artifacts = run_toast(synth_data.train, _toast_cfg(no_downsample=True),
                                 lexicon)
        counts = artifacts.meta["counts"]
        assert counts["dstar"] == counts["annotated"]

    def test_no_augment_skips_consistency(self, synth_data, lexicon):
        _, artifacts = run_toast(synth_data.train, _toast_cfg(no_augment=True), lexicon)
        assert artifacts.meta["counts"]["daug"] == 0
        assert all(row["l_consistency"] == 0.0 for row in artifacts.losses)

    def test_no_alpha_decay_sets_alpha_to_one(self, synth_data, lexicon):
        cfg = _toast_cfg(no_alpha_decay=True)
        assert cfg.effective_alpha == 1.0
        _, artifacts = run_toast(synth_data.train, cfg, lexicon)
        assert artifacts.meta["alpha_effective"] == 1.0

    def test_flags_recorded_in_meta(self, synth_data, lexicon):
        cfg = _toast_cfg(no_downsample=True, no_augment=True)
        _, artifacts = run_toast(synth_data.train, cfg, lexicon)
        flags = artifacts.meta["flags"]
        assert flags["no_downsample"] and flags["no_augment"]
        assert not flags["no_cross_annotation"] and not flags["no_alpha_decay"]

    def test_confidence_separates_correct_from_wrong(self, synth_cfg, lexicon):
        # Across 3 seeds, P(true) for correct predictions exceeds wrong ones.
        from selfcal.corpus import generate_synthetic
        for seed in (0, 1, 2):
            data = generate_synthetic(replace(synth_cfg, seed=seed))
            params, _ = run_toast(data.train, _toast_cfg(seed=100 + seed), lexicon)
            log = Calibrator("toast", params).build_log(data.test, "id")
            pos = log.confidence[log.correct == 1]
            neg = log.confidence[log.correct == 0]
            assert delta_conf(pos, neg) > 0

    @pytest.mark.parametrize("flags", [{"k": 3}, {"no_cross_annotation": True}])
    def test_meta_records_each_annotator_seed(self, synth_data, lexicon, annotator_seeds,
                                             flags):
        _, artifacts = run_toast(synth_data.train, _toast_cfg(**flags), lexicon)
        assert artifacts.meta["annotator_seeds"] == annotator_seeds

    def test_artifacts_save(self, synth_data, lexicon, tmp_path):
        _, artifacts = run_toast(synth_data.train, _toast_cfg(), lexicon)
        artifacts.save(tmp_path / "bundle")
        for name in ("dstar.jsonl", "daug.jsonl", "losses.csv", "meta.json"):
            assert (tmp_path / "bundle" / name).exists()

    def test_annotated_records_keep_model_predictions(self, synth_data, lexicon):
        cfg = _toast_cfg()
        _, artifacts = run_toast(synth_data.train, cfg, lexicon)
        by_id = {s.id: s for s in synth_data.train.samples}
        for rec in artifacts.dstar:
            gold = by_id[rec.sample_id].label
            assert rec.correctness == int(rec.predicted_label == gold)
