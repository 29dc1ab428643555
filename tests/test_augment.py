"""Textual transforms, the synonym lexicon, and the greedy attacker."""

import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfcal.augment import (
    SynonymLexicon,
    TransformKind,
    apply_transform,
    attack_dataset,
    greedy_attack,
    random_transform,
)
from conftest import correct_mask
from selfcal.corpus import class_tokens, load_dataset, noise_tokens, save_dataset


@pytest.fixture()
def tiny_lexicon():
    return SynonymLexicon({"good": ["fine"], "movie": ["film", "picture"],
                           "bad": ["poor", "awful"]})


class TestLexicon:
    def test_lookup_is_case_normalized(self, tiny_lexicon):
        assert tiny_lexicon.synonyms("GOOD") == ["fine"]
        assert "Movie" in tiny_lexicon

    def test_empty_synonym_list_rejected(self):
        with pytest.raises(ValueError):
            SynonymLexicon({"word": []})

    @pytest.mark.parametrize("blank", ["", " ", "\t\n"])
    def test_synonym_without_tokens_rejected(self, blank):
        with pytest.raises(ValueError, match="'a' has a synonym with no tokens"):
            SynonymLexicon({"a": ["b", blank]})

    def test_tsv_roundtrip(self, tiny_lexicon, tmp_path):
        p = tmp_path / "lex.tsv"
        tiny_lexicon.to_tsv(p)
        loaded = SynonymLexicon.from_tsv(p)
        assert loaded.synonyms("movie") == ["film", "picture"]
        assert len(loaded) == len(tiny_lexicon)

    def test_malformed_tsv(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("a\tb\nword_without_tab\n")
        with pytest.raises(ValueError) as info:
            SynonymLexicon.from_tsv(p)
        assert str(info.value) == f"{p}:2: expected 'word<TAB>synonyms'"

    def test_synthetic_lexicon_covers_vocab(self, synth_cfg, lexicon):
        for cls in range(synth_cfg.num_classes):
            for tok in class_tokens(synth_cfg, cls):
                assert tok in lexicon
        # indicative tokens get noise fallbacks, enabling signal-destroying edits
        noise = set(noise_tokens(synth_cfg))
        tok = class_tokens(synth_cfg, 0)[0]
        assert any(s in noise for s in lexicon.synonyms(tok))


class TestApplyTransform:
    def test_swap_single_token_is_identity(self, tiny_lexicon):
        rng = np.random.default_rng(0)
        out = apply_transform(TransformKind.RANDOM_SWAP, "alone", 0.5, tiny_lexicon, rng)
        assert out == "alone"

    def test_deletion_always_leaves_a_token(self, tiny_lexicon):
        rng = np.random.default_rng(1)
        assert apply_transform(TransformKind.RANDOM_DELETION, "a", 0.99,
                               tiny_lexicon, rng) == "a"
        for _ in range(200):
            out = apply_transform(TransformKind.RANDOM_DELETION,
                                  "one two three four", 0.97, tiny_lexicon, rng)
            assert len(out.split()) >= 1

    def test_substitution_hand_trace(self, tiny_lexicon):
        # rate=1 selects both positions; "good" has exactly one synonym and
        # "movie"... has two, so pin the lexicon to a single-option entry.
        lex = SynonymLexicon({"good": ["fine"]})
        rng = np.random.default_rng(2)
        out = apply_transform(TransformKind.SYNONYM_SUBSTITUTION, "good movie",
                              1.0, lex, rng)
        assert out == "fine movie"

    def test_substitution_without_entries_is_noop(self, tiny_lexicon):
        rng = np.random.default_rng(3)
        out = apply_transform(TransformKind.SYNONYM_SUBSTITUTION,
                              "nothing matches here", 1.0, tiny_lexicon, rng)
        assert out == "nothing matches here"

    def test_minimum_one_edit_when_possible(self):
        # ceil(rate * n) >= 1: even a tiny rate touches one position.
        lex = SynonymLexicon({"aa": ["xx"], "bb": ["yy"], "cc": ["zz"]})
        rng = np.random.default_rng(4)
        out = apply_transform(TransformKind.SYNONYM_SUBSTITUTION, "aa bb cc",
                              0.01, lex, rng)
        assert out != "aa bb cc"
        assert sum(a != b for a, b in zip(out.split(), "aa bb cc".split())) == 1

    def test_insertion_grows_token_count(self, tiny_lexicon):
        rng = np.random.default_rng(5)
        out = apply_transform(TransformKind.RANDOM_INSERTION, "good movie",
                              0.5, tiny_lexicon, rng)
        assert len(out.split()) == 3

    def test_swap_preserves_multiset(self, tiny_lexicon):
        rng = np.random.default_rng(6)
        text = "p q r s t"
        out = apply_transform(TransformKind.RANDOM_SWAP, text, 0.6, tiny_lexicon, rng)
        assert Counter(out.split()) == Counter(text.split())

    def test_invalid_rate(self, tiny_lexicon):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            apply_transform(TransformKind.RANDOM_SWAP, "a b", 0.0, tiny_lexicon, rng)
        with pytest.raises(ValueError):
            apply_transform(TransformKind.RANDOM_SWAP, "a b", 1.5, tiny_lexicon, rng)


class TestRandomTransform:
    def test_kinds_drawn_uniformly(self, tiny_lexicon):
        rng = np.random.default_rng(8)
        counts = Counter()
        for _ in range(10_000):
            kind, _ = random_transform("good movie bad film", 0.3, tiny_lexicon, rng)
            counts[kind] += 1
        for kind in TransformKind:
            assert 0.22 <= counts[kind] / 10_000 <= 0.28

    def test_reproducible_given_seed(self, tiny_lexicon):
        a = random_transform("good movie tonight", 0.5, tiny_lexicon,
                             np.random.default_rng(9))
        b = random_transform("good movie tonight", 0.5, tiny_lexicon,
                             np.random.default_rng(9))
        assert a == b

    def test_output_always_tokenizable(self, tiny_lexicon):
        rng = np.random.default_rng(10)
        for _ in range(500):
            _, out = random_transform("good movie", 0.9, tiny_lexicon, rng)
            assert len(out.split()) >= 1


class TestGreedyAttack:
    @pytest.fixture()
    def attack_lexicon(self, synth_cfg):
        # Map every class-indicative token to noise tokens only: substitutions
        # strictly remove class signal.
        noise = noise_tokens(synth_cfg)
        entries = {}
        for cls in range(synth_cfg.num_classes):
            for i, tok in enumerate(class_tokens(synth_cfg, cls)):
                entries[tok] = [noise[(3 * i) % len(noise)],
                                noise[(3 * i + 1) % len(noise)]]
        return SynonymLexicon(entries)

    def test_zero_budget_always_fails(self, base_model, synth_data, attack_lexicon):
        samples = synth_data.test.samples
        s = samples[int(np.argmax(correct_mask(base_model, samples)))]
        with pytest.raises(ValueError, match="^budget must be >= 1, got 0$"):
            greedy_attack(base_model, s, attack_lexicon, budget=0)

    def test_requires_correctly_classified_input(self, base_model, synth_data,
                                                 attack_lexicon):
        samples = synth_data.test.samples
        wrong = [s for s, ok in zip(samples, correct_mask(base_model, samples)) if not ok]
        assert wrong, "fixture model should make some mistakes"
        with pytest.raises(ValueError, match="correctly classified"):
            greedy_attack(base_model, wrong[0], attack_lexicon, budget=3)

    def test_success_flips_prediction_within_budget(self, base_model, synth_data,
                                                    attack_lexicon):
        budget = 5
        samples = synth_data.test.samples[:60]
        advs = []
        for s, ok in zip(samples, correct_mask(base_model, samples)):
            adv = greedy_attack(base_model, s, attack_lexicon, budget=budget) if ok else None
            if adv is None:
                continue
            advs.append(adv)
            assert adv.label == s.label
            orig = s.text_a.split()
            new = adv.text_a.split()
            assert len(orig) == len(new)  # substitution-only
            assert sum(a != b for a, b in zip(orig, new)) <= budget
        assert advs
        assert not correct_mask(base_model, advs).any()

    def test_attack_dataset_collects_origins(self, base_model, synth_data,
                                             attack_lexicon, tmp_path):
        adv, origins = attack_dataset(base_model, synth_data.test, attack_lexicon,
                                      budget=5, max_successes=5)
        assert len(adv) == len(origins) == 5
        test_ids = set(synth_data.test.ids())
        assert all(o in test_ids for o in origins)
        path = tmp_path / "adv.jsonl"
        save_dataset(adv, path, origins)
        reloaded = load_dataset(path)
        assert reloaded.samples == adv.samples
        records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert [list(r)[:4] for r in records] == [["id", "text", "label", "origin_id"]] * 5
        assert [r["origin_id"] for r in records] == origins
        with pytest.raises(ValueError, match="origins not aligned"):
            save_dataset(adv, path, origins[:-1])

    @pytest.mark.parametrize("kwargs, key", [({"budget": 0}, "budget"),
                                             ({"budget": -1}, "budget"),
                                             ({"budget": 5, "max_successes": 0}, "max_successes"),
                                             ({"budget": 5, "max_successes": -2}, "max_successes")])
    def test_attack_dataset_rejects_an_empty_attack(self, base_model, synth_data,
                                                    attack_lexicon, kwargs, key):
        with pytest.raises(ValueError, match=f"^{key} must be >= 1"):
            attack_dataset(base_model, synth_data.test, attack_lexicon, **kwargs)

    def test_attack_dataset_without_a_success_limit(self, base_model, synth_data,
                                                    attack_lexicon):
        limited, _ = attack_dataset(base_model, synth_data.test, attack_lexicon,
                                    budget=5, max_successes=5)
        unlimited, _ = attack_dataset(base_model, synth_data.test, attack_lexicon,
                                      budget=5, max_successes=None)
        assert len(unlimited) > 5
        assert unlimited.samples[:5] == limited.samples


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

LEX_WORDS = st.text(alphabet="abcAB", min_size=1, max_size=3)


@st.composite
def lexicon_entries(draw, max_words=3):
    """word -> synonyms of 1..max_words words; the words differ after case
    normalization, so no entry shadows another."""
    words = draw(st.lists(LEX_WORDS, min_size=1, max_size=5, unique_by=str.lower))
    synonym = st.lists(LEX_WORDS, min_size=1, max_size=max_words).map(" ".join)
    return {w: draw(st.lists(synonym, min_size=1, max_size=3)) for w in words}


TRANSFORM_INPUTS = dict(words=st.lists(LEX_WORDS, min_size=1, max_size=8),
                        rate=st.floats(0.0, 1.0, exclude_min=True),
                        seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None)
@given(entries=lexicon_entries(), **TRANSFORM_INPUTS)
def test_every_transform_keeps_a_token(entries, words, rate, seed):
    lex = SynonymLexicon(entries)
    for kind in TransformKind:
        out = apply_transform(kind, " ".join(words), rate, lex, np.random.default_rng(seed))
        assert out.split()


@settings(max_examples=100, deadline=None)
@given(entries=lexicon_entries(max_words=1), **TRANSFORM_INPUTS)
def test_substituted_tokens_come_from_the_lexicon(entries, words, rate, seed):
    lex = SynonymLexicon(entries)
    out = apply_transform(TransformKind.SYNONYM_SUBSTITUTION, " ".join(words), rate, lex,
                          np.random.default_rng(seed)).split()
    assert len(out) == len(words)
    for old, new in zip(words, out):
        assert new == old or new in lex.synonyms(old)


@st.composite
def tsv_entries(draw):
    """Lexicon entries, half of them with a comma, tab, line break or space
    put at any position of one word or synonym."""
    entries = draw(lexicon_entries())
    if draw(st.booleans()):
        rows = [[word, *syns] for word, syns in entries.items()]
        row = rows[draw(st.integers(0, len(rows) - 1))]
        i = draw(st.integers(0, len(row) - 1))
        pos = draw(st.integers(0, len(row[i])))
        row[i] = row[i][:pos] + draw(st.sampled_from(",\t\n\r ")) + row[i][pos:]
        entries = {row[0]: row[1:] for row in rows}
    return entries


@settings(max_examples=200, deadline=None)
@example(entries={"g\th": ["i"]})
@example(entries={"a": ["b,c"]})
@given(entries=tsv_entries())
def test_tsv_roundtrip_property(entries):
    """A lexicon that constructs reads back equal; one holding a text that
    TSV cannot carry raises instead."""
    texts = [t for word, syns in entries.items() for t in (word, *syns)]
    writable = all(t == t.strip() and not set(t) & set(",\t\n\r") for t in texts)
    if not writable:
        with pytest.raises(ValueError):
            SynonymLexicon(entries)
        return
    lex = SynonymLexicon(entries)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lex.tsv"
        lex.to_tsv(path)
        loaded = SynonymLexicon.from_tsv(path)
    assert len(loaded) == len(lex)
    for word in entries:
        assert loaded.synonyms(word) == lex.synonyms(word) == entries[word]
