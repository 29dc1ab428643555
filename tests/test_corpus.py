"""Data model, JSONL ingestion, fold splitting, and the synthetic generator."""

import json
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import correct_mask, get_flat_params, set_flat_params
from selfcal.corpus import (
    Annotations,
    Dataset,
    Sample,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    load_hardness,
    save_dataset,
    save_hardness,
    split_folds,
)
from selfcal.model import (
    FeaturizerConfig,
    TrainConfig,
    init_parameters,
    load_parameters,
    save_parameters,
    train_main,
)


def _write_jsonl(path, lines):
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")


class TestLoadDataset:
    def test_three_line_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [
            {"text": "terrible stuff", "label": "bad"},
            {"text": "lovely stuff", "label": "good"},
            {"text": "plain stuff", "label": "neutral"},
        ])
        d = load_dataset(p)
        assert len(d) == 3
        assert d.num_classes == 3
        assert d.label_names == ("bad", "good", "neutral")  # first-seen order
        assert [s.label for s in d.samples] == [0, 1, 2]

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("")
        with pytest.raises(ValueError, match="no samples"):
            load_dataset(p)

    def test_duplicate_ids_error_names_the_id(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [
            {"id": "a1", "text": "x y", "label": "p"},
            {"id": "a1", "text": "y z", "label": "q"},
        ])
        with pytest.raises(ValueError, match="a1"):
            load_dataset(p)

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "ok", "label": "a"}\n{not json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_dataset(p)

    @pytest.mark.parametrize("line", ["42", '"text label"'])
    def test_non_object_line_names_path_and_line(self, tmp_path, line):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "ok", "label": "a"}\n' + line + "\n")
        message = "^" + re.escape(f"{p}:2: expected a JSON object")
        with pytest.raises(ValueError, match=message) as info:
            load_dataset(p)
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize("lines,message", [
        ([{"label_names": 5}, {"text": "x", "label": "a"}],
         ":1: label_names must be a list, got int"),
        ([{"text": "x", "label": "a"}, {"text": "", "label": "b"}],
         ":2: sample '2': text_a has no tokens"),
        ([{"label_names": ["a", "a"]}, {"text": "x", "label": "a"}],
         ":1: duplicate label names in ['a', 'a']"),
        ([{"label_names": ["a", "b"], "task_kind": "bogus"}, {"text": "x", "label": "a"}],
         ":1: unknown task_kind 'bogus'"),
        # Line 1 has no id, so its id is its line number.
        ([{"text": "x y", "label": "a"}, {"id": "1", "text": "y z", "label": "b"}],
         ":2: duplicate sample id '1'"),
    ])
    def test_bad_field_names_path_and_line(self, tmp_path, lines, message):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, lines)
        with pytest.raises(ValueError, match="^" + re.escape(f"{p}{message}") + "$") as info:
            load_dataset(p)
        assert len(str(info.value).splitlines()) == 1

    def test_header_fixes_label_names(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [
            {"label_names": ["neg", "pos"]},
            {"text": "fine", "label": "pos"},
            {"text": "bad", "label": "neg"},
        ])
        d = load_dataset(p)
        assert d.label_names == ("neg", "pos")
        assert [s.label for s in d.samples] == [1, 0]

    def test_unknown_label_with_fixed_names(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [
            {"label_names": ["neg", "pos"]},
            {"text": "fine", "label": "meh"},
        ])
        with pytest.raises(ValueError, match="meh"):
            load_dataset(p)

    def test_pair_task_requires_text_pair(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [{"text": "one", "label": "a"}])
        with pytest.raises(ValueError, match="text_pair"):
            load_dataset(p, task_kind="pair")

    def test_roundtrip_lossless(self, tmp_path, synth_data):
        p = tmp_path / "d.jsonl"
        save_dataset(synth_data.train, p)
        loaded = load_dataset(p)
        assert loaded.label_names == synth_data.train.label_names
        assert loaded.task_kind == synth_data.train.task_kind
        assert loaded.samples == synth_data.train.samples

    def test_pair_roundtrip(self, tmp_path):
        d = Dataset(
            (Sample("1", "a b", "c d", 0), Sample("2", "e", "f", 1)),
            ("no", "yes"), "pair")
        p = tmp_path / "d.jsonl"
        save_dataset(d, p)
        assert load_dataset(p).samples == d.samples


class TestDatasetInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dataset((Sample("x", "a", None, 0), Sample("x", "b", None, 1)), ("p", "q"))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Dataset((Sample("x", "a", None, 5),), ("p", "q"))

    def test_needs_two_label_names(self):
        with pytest.raises(ValueError, match="2 label names"):
            Dataset((Sample("x", "a", None, 0),), ("only",))

    def test_duplicate_label_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate label names"):
            Dataset((Sample("x", "a", None, 0),), ("p", "q", "p"))


class TestAnnotations:
    DATA = Dataset((Sample("a", "x y", label=0), Sample("b", "y z", label=1),
                    Sample("c", "z x", label=2)), ("n", "p", "q"))

    @pytest.mark.parametrize("predicted,correct,message", [
        ([0, 1], [1, 1, 0], "not aligned: 3 rows, 2 predictions, 3 correctness"),
        ([0, 1, 2], [1, 1, 0, 1], "not aligned: 3 rows, 3 predictions, 4 correctness"),
        ([0, 1, 2], [1, 2, 0], "correctness must be 0 or 1"),
        ([0, 1, 2], [1, -1, 0], "correctness must be 0 or 1"),
        ([0, -1, 2], [1, 0, 1], r"predicted labels must be in \[0, 3\)"),
        ([0, 1, 3], [1, 1, 0], r"predicted labels must be in \[0, 3\)"),
    ])
    def test_bad_annotations_fail_in_one_line(self, predicted, correct, message):
        with pytest.raises(ValueError, match=message) as exc:
            Annotations(self.DATA, [0, 1, 2], predicted, correct)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("rows,message", [
        ([0, 1], "not aligned: 2 rows, 3 predictions, 3 correctness"),
        ([0, 1, 3], r"annotated rows must be in \[0, 3\)"),
        ([0, -1, 2], r"annotated rows must be in \[0, 3\)"),
    ])
    def test_bad_rows_fail_in_one_line(self, rows, message):
        with pytest.raises(ValueError, match=message) as exc:
            Annotations(self.DATA, rows, [0, 1, 2], [1, 1, 0])
        assert "\n" not in str(exc.value)

    def test_take_selects_rows_and_carries_the_matrices(self):
        d = Dataset(self.DATA.samples, self.DATA.label_names)
        m = d.features(FeaturizerConfig(hash_dim=64))
        a = Annotations(d, [0, 1, 2], [True, 1, 0],
                        np.array([1, 1, 0], dtype=np.int8)).take([2, 0])
        assert a.predicted.dtype == a.correct.dtype == a.rows.dtype == np.int64
        assert len(a) == 2 and [a.data.samples[r].id for r in a.rows] == ["c", "a"]
        assert a.predicted.tolist() == a.correct.tolist() == [0, 1]
        taken = m.take([2, 0])
        # The cached matrix of the same dataset: take neither copies nor hashes.
        assert a.data is d
        got = a.data._features[FeaturizerConfig(hash_dim=64)].take(a.rows)
        assert all(np.array_equal(getattr(got, k), getattr(taken, k))
                   for k in ("indptr", "indices", "values"))

    def test_take_resolves_rows_as_numpy_does(self):
        # A boolean mask selects; a float index is an error, not a row.
        a = Annotations(self.DATA, [2, 1, 0], [0, 1, 2], [1, 1, 0])
        masked = a.take([True, False, True])
        assert masked.rows.tolist() == [2, 0] and masked.predicted.tolist() == [0, 2]
        with pytest.raises(IndexError) as exc:
            a.take([1.7])
        assert "\n" not in str(exc.value)


class TestSplitFolds:
    def test_even_split(self, synth_data):
        d = synth_data.train.subset(range(10))
        folds = split_folds(d, 2, seed=0)
        assert [len(f) for f in folds] == [5, 5]
        assert sorted(np.concatenate(folds).tolist()) == list(range(10))

    def test_folds_are_sorted_int64_rows(self, synth_data):
        for f in split_folds(synth_data.train, 3, seed=5):
            assert f.dtype == np.int64
            assert np.all(np.diff(f) > 0)

    def test_sizes_differ_by_at_most_one(self, synth_data):
        d = synth_data.train.subset(range(9))
        sizes = sorted(len(f) for f in split_folds(d, 2, seed=0))
        assert sizes == [4, 5]

    def test_stratified_exact_counts(self):
        # 50/50 over two classes: every fold must hold 25 of each.
        samples = tuple(Sample(f"s{i}", f"tok{i} filler", None, i % 2) for i in range(100))
        d = Dataset(samples, ("a", "b"))
        for fold in split_folds(d, 2, seed=11):
            counts = Counter(d.labels()[fold].tolist())
            assert counts[0] == 25 and counts[1] == 25

    def test_per_class_counts_within_one(self, synth_data):
        d = synth_data.train
        labels = d.labels()
        for k in (2, 3, 7):
            folds = split_folds(d, k, seed=4)
            for cls in range(d.num_classes):
                per = [int(np.sum(labels[f] == cls)) for f in folds]
                assert max(per) - min(per) <= 1

    def test_partition_property(self, synth_data):
        d = synth_data.train
        rng = np.random.default_rng(0)
        for _ in range(10):
            k = int(rng.integers(2, 8))
            folds = split_folds(d, k, seed=int(rng.integers(0, 1000)))
            rows = np.concatenate(folds)
            assert sorted(rows.tolist()) == list(range(len(d)))

    def test_deterministic(self, synth_data):
        a = split_folds(synth_data.train, 3, seed=9)
        b = split_folds(synth_data.train, 3, seed=9)
        assert [f.tolist() for f in a] == [f.tolist() for f in b]

    def test_too_many_folds(self, synth_data):
        small = synth_data.train.subset(range(3))
        with pytest.raises(ValueError):
            split_folds(small, 4, seed=0)
        with pytest.raises(ValueError):
            split_folds(small, 1, seed=0)


class TestGenerateSynthetic:
    def test_pure_function_of_config(self, synth_cfg):
        a = generate_synthetic(synth_cfg)
        b = generate_synthetic(synth_cfg)
        assert a.train.samples == b.train.samples
        assert a.test.samples == b.test.samples
        assert a.train_hard == b.train_hard

    def test_different_seed_differs(self, synth_cfg):
        from dataclasses import replace
        other = generate_synthetic(replace(synth_cfg, seed=synth_cfg.seed + 1))
        base = generate_synthetic(synth_cfg)
        assert other.train.samples != base.train.samples

    def test_easy_config_is_learnable(self):
        # With no hard samples, the package's own classifier is the oracle:
        # it must reach essentially perfect test accuracy.
        cfg = SynthConfig(num_classes=2, vocab_size=200, samples_per_class=150,
                          hardness_fraction=0.0, hard_flip_prob=0.0, seed=1)
        data = generate_synthetic(cfg)
        params, _ = train_main(
            data.train,
            TrainConfig(epochs=5, hidden_dim=16, seed=2,
                        features=FeaturizerConfig(hash_dim=2048)))
        acc = np.mean(correct_mask(params, data.test.samples))
        assert acc >= 0.99

    def test_hard_samples_are_harder(self, synth_data, train_cfg):
        params, _ = train_main(synth_data.train, train_cfg)
        correct = correct_mask(params, synth_data.test.samples)
        hard = np.array(synth_data.test_hard)
        assert hard.any() and (~hard).any()
        assert correct[hard].mean() < correct[~hard].mean()

    def test_hardness_flags_align(self, synth_data):
        assert len(synth_data.train_hard) == len(synth_data.train)
        assert len(synth_data.test_hard) == len(synth_data.test)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SynthConfig(num_classes=1)
        with pytest.raises(ValueError):
            SynthConfig(hardness_fraction=1.5)
        with pytest.raises(ValueError):
            SynthConfig(vocab_size=10, num_classes=3, indicative_per_class=20)

    @pytest.mark.parametrize("kwargs, message", [
        ({"tokens_per_sample": 1}, "tokens_per_sample must be >= 2"),
        ({"test_samples_per_class": 0}, "test_samples_per_class must be None or >= 1"),
        ({"test_samples_per_class": -3}, "test_samples_per_class must be None or >= 1")])
    def test_config_that_cannot_make_both_splits_is_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            SynthConfig(**kwargs)
        assert str(info.value) == message

    def test_smallest_accepted_config_makes_both_splits(self):
        data = generate_synthetic(SynthConfig(tokens_per_sample=2, test_samples_per_class=1))
        assert len(data.test) == 2
        assert all(len(s.text_a.split()) == 2 for s in data.train.samples + data.test.samples)

    def test_hardness_sidecar_roundtrip(self, tmp_path, synth_data):
        p = tmp_path / "h.jsonl"
        save_hardness(synth_data.test, synth_data.test_hard, p)
        flags = load_hardness(p)
        for s, h in zip(synth_data.test.samples, synth_data.test_hard):
            assert flags[s.id] == h


# ---------------------------------------------------------------------------
# File round-trip properties
# ---------------------------------------------------------------------------

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@settings(max_examples=80, deadline=None)
@given(label_names=st.lists(TEXT, min_size=2, max_size=4, unique=True),
       rows=st.lists(st.tuples(TEXT.filter(lambda t: t.split()), st.one_of(st.none(), TEXT),
                               st.integers(0, 3)), min_size=1, max_size=6),
       pair=st.booleans())
def test_jsonl_roundtrip_property(label_names, rows, pair):
    """Any text (control characters, line separators, blank text_b) and any
    distinct label names survive save_dataset + load_dataset."""
    samples = tuple(
        Sample(f"s{i}", a, (b or "") if pair else b, label % len(label_names))
        for i, (a, b, label) in enumerate(rows))
    d = Dataset(samples, tuple(label_names), "pair" if pair else "single")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        save_dataset(d, path)
        assert load_dataset(path) == d


@settings(max_examples=40, deadline=None)
@given(num_classes=st.integers(2, 4), hidden=st.integers(1, 4), log_dim=st.integers(1, 6),
       ngram_max=st.integers(1, 3), lowercase=st.booleans(), tagging=st.booleans(),
       seed=st.one_of(st.none(), st.integers(0, 2 ** 63 - 1)),
       values_seed=st.integers(0, 2 ** 32 - 1))
def test_model_file_roundtrip_property(num_classes, hidden, log_dim, ngram_max, lowercase,
                                       tagging, seed, values_seed):
    """Finite weights from subnormal to near overflow, signed zeros included,
    and every header field survive save + load bit for bit."""
    feats = FeaturizerConfig(lowercase=lowercase, ngram_max=ngram_max, hash_dim=2 ** log_dim,
                             segment_tagging=tagging)
    p = init_parameters(num_classes, TrainConfig(hidden_dim=hidden, features=feats))
    p.seed = seed
    rng = np.random.default_rng(values_seed)
    n = get_flat_params(p).size
    values = rng.standard_normal(n) * np.exp2(rng.integers(-1070, 1020, size=n))
    values[rng.random(n) < 0.1] = -0.0
    set_flat_params(p, values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_parameters(p, path)
        loaded = load_parameters(path)
    assert (loaded.features, loaded.num_classes, loaded.hidden_dim, loaded.seed) == (
        feats, num_classes, hidden, seed)
    assert get_flat_params(loaded).tobytes() == get_flat_params(p).tobytes()
