"""Corpus generation, tokenization, markup and occurrence indexing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelt.corpus import (BUCKET_LABELS, MENTION_RE, CorpusConfig, EntityCatalog,
                         Mention, Sentence, bucket_label, generate_corpus,
                         index_occurrences, parse_corpus, parse_marked_line,
                         strip_markup, zipf_frequencies)
from pelt.errors import ConfigError, ContractError
from pelt.vocab import MASK_ID, UNK_ID, Vocabulary, tokenize

SMALL = CorpusConfig(n_entities=12, entity_slot_budget=240, lookup_per_entity=8,
                     zero_train_entities=2, seed=7)


@pytest.fixture(scope="module")
def bundle():
    return generate_corpus(SMALL)


class TestVocabulary:
    def test_specials_occupy_lowest_indices(self, bundle):
        v = bundle.vocab
        assert v.tokens[:5] == ["[PAD]", "[MASK]", "[UNK]", "(", ")"]

    def test_bijective(self, bundle):
        v = bundle.vocab
        for i, tok in enumerate(v.tokens):
            assert v.id(tok) == i and v.tokens[i] == tok

    def test_save_load_round_trip(self, bundle, tmp_path):
        path = tmp_path / "vocab.txt"
        bundle.vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens == bundle.vocab.tokens


class TestTokenize:
    def test_known_whole_word(self, bundle):
        v = bundle.vocab
        assert tokenize("paris", v) == [v.id("paris")]

    def test_entity_surface_decomposes_per_catalog(self, bundle):
        for entity in bundle.catalog:
            got = tokenize(entity.surface, bundle.vocab)
            assert got == [bundle.vocab.id(p) for p in entity.pieces]
            assert len(got) >= 2

    def test_unseen_symbol_is_unk(self, bundle):
        assert tokenize("☂", bundle.vocab) == [UNK_ID]

    def test_empty_string(self, bundle):
        assert tokenize("", bundle.vocab) == []

    def test_mask_literal(self, bundle):
        assert tokenize("[MASK]", bundle.vocab) == [MASK_ID]

    def test_each_vocabulary_matches_a_chunk_its_own_way(self):
        specials = ["[PAD]", "[MASK]", "[UNK]", "(", ")"]
        whole = Vocabulary(specials + ["a", "ab", "b"])
        split = Vocabulary(specials + ["a", "b"])
        for _ in range(2):
            assert tokenize("abab x", whole) == [6, 6, UNK_ID]
            assert tokenize("abab x", split) == [5, 6, 5, 6, UNK_ID]

    @given(st.text(st.sampled_from(list("aeilnoprstu[]MASK☂ \t\n")), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_warm_memo_matches_a_fresh_vocabulary(self, bundle, text):
        fresh = Vocabulary(bundle.vocab.tokens)
        assert tokenize(text, bundle.vocab) == tokenize(text, fresh)
        assert tokenize(text, bundle.vocab) == tokenize(text, fresh)


class TestMarkup:
    def test_parse_records_spans(self, bundle):
        entity = bundle.catalog.entries[0]
        line = f"[[{entity.entity_id}|{entity.surface}]] lives in paris"
        s = parse_marked_line(line, bundle.vocab)
        assert len(s.mentions) == 1
        m = s.mentions[0]
        assert m.entity_id == entity.entity_id
        assert s.tokens[m.start:m.end] == tuple(
            bundle.vocab.id(p) for p in entity.pieces)

    def test_strip_markup(self):
        assert strip_markup("a [[x|b c]] d") == "a b c d"

    def test_overlapping_spans_rejected(self):
        with pytest.raises(ContractError):
            Sentence((1, 2, 3), (Mention("a", 0, 2), Mention("b", 1, 3)))

    def test_out_of_bounds_span_rejected(self):
        with pytest.raises(ContractError):
            Sentence((1, 2), (Mention("a", 0, 3),))


class TestGeneration:
    def test_same_seed_is_byte_identical(self):
        a = generate_corpus(SMALL)
        b = generate_corpus(SMALL)
        assert a.train_lines == b.train_lines
        assert a.lookup_lines == b.lookup_lines
        assert a.vocab.tokens == b.vocab.tokens
        assert a.queries == b.queries

    def test_different_seed_differs(self):
        a = generate_corpus(SMALL)
        b = generate_corpus(CorpusConfig(n_entities=12, entity_slot_budget=240,
                                         lookup_per_entity=8,
                                         zero_train_entities=2, seed=8))
        assert a.train_lines != b.train_lines

    def test_zero_frequency_entities_only_in_lookup(self, bundle):
        for entity in bundle.catalog:
            in_train = any(entity.entity_id in line for line in bundle.train_lines)
            in_lookup = any(entity.entity_id in line for line in bundle.lookup_lines)
            assert in_lookup
            assert in_train == (entity.train_freq > 0)

    def test_train_frequency_matches_catalog(self, bundle):
        for entity in bundle.catalog:
            n = sum(1 for line in bundle.train_lines if entity.entity_id in line)
            assert n == entity.train_freq

    def test_zipf_rank_one_share(self):
        cfg = CorpusConfig(n_entities=50, entity_slot_budget=1800,
                           zero_train_entities=0, seed=3)
        freqs = zipf_frequencies(cfg)
        share = freqs[0] / sum(freqs)
        h50 = sum(1.0 / i for i in range(1, 51))
        assert abs(share - 1.0 / h50) / (1.0 / h50) < 0.05

    def test_lookup_disjoint_from_train(self, bundle):
        assert not set(bundle.train_lines) & set(bundle.lookup_lines)

    def test_cloze_queries_never_leak_into_train(self, bundle):
        surfaces = {strip_markup(line) for line in bundle.train_lines}
        for q in bundle.queries:
            completion = strip_markup(q.query.replace("[MASK]", q.answer))
            assert completion not in surfaces

    def test_answers_are_single_tokens(self, bundle):
        for q in bundle.queries:
            assert len(tokenize(q.answer, bundle.vocab)) == 1

    def test_buckets_partition_catalog(self, bundle):
        counts = {label: 0 for label in BUCKET_LABELS}
        for entity in bundle.catalog:
            counts[bucket_label(entity.train_freq)] += 1
        assert sum(counts.values()) == len(bundle.catalog)

    def test_catalog_round_trip(self, bundle, tmp_path):
        path = tmp_path / "catalog.tsv"
        bundle.catalog.save(path)
        loaded = EntityCatalog.load(path)
        assert loaded.entries == bundle.catalog.entries

    def test_entity_count_validation(self):
        with pytest.raises(ConfigError):
            CorpusConfig(n_entities=1)

    @pytest.mark.parametrize("field", [{"seed": -1}, {"entity_slot_budget": -1},
                                       {"lookup_per_entity": -1},
                                       {"zero_train_entities": -1},
                                       {"zipf_exponent": -1.0},
                                       {"zipf_exponent": float("inf")},
                                       {"zipf_exponent": float("nan")}])
    def test_out_of_range_rejected(self, field):
        with pytest.raises(ConfigError):
            CorpusConfig(**field)

    def test_restored_occurrences_reproduce_source_sentences(self, bundle):
        sentences = parse_corpus(bundle.lookup_lines, bundle.vocab)
        source = {s.tokens for s in sentences}
        for entity in bundle.catalog:
            occ = index_occurrences([entity.entity_id], sentences)[entity.entity_id]
            pieces = tuple(bundle.vocab.id(p) for p in entity.pieces)
            for item in occ:
                restored = (item.tokens[:item.mask_pos] + pieces
                            + item.tokens[item.mask_pos + 1:])
                assert restored in source

    def test_mention_spans_hold_their_surface_tokens(self, bundle):
        for line in bundle.train_lines[:40]:
            s = parse_marked_line(line, bundle.vocab)
            marked = MENTION_RE.findall(line)
            assert [m.entity_id for m in s.mentions] == [eid for eid, _ in marked]
            for m, (_, surface) in zip(s.mentions, marked):
                assert list(s.tokens[m.start:m.end]) == tokenize(surface, bundle.vocab)


class TestIndexOccurrences:
    def _sentence(self, vocab, line):
        return parse_marked_line(line, vocab)

    def test_single_occurrence_masks_span_start(self, bundle):
        entity = bundle.catalog.entries[0]
        s = self._sentence(bundle.vocab,
                           f"[[{entity.entity_id}|{entity.surface}]] likes rice")
        occ = index_occurrences([entity.entity_id], [s])[entity.entity_id]
        assert len(occ) == 1
        assert occ[0].tokens[occ[0].mask_pos] == MASK_ID
        assert occ[0].mask_pos == 0
        assert len(occ[0].tokens) == len(s.tokens) - len(entity.pieces) + 1

    def test_duplicates_counted_once(self, bundle):
        entity = bundle.catalog.entries[0]
        s = self._sentence(bundle.vocab,
                           f"[[{entity.entity_id}|{entity.surface}]] likes rice")
        occ = index_occurrences([entity.entity_id], [s, s, s])[entity.entity_id]
        assert len(occ) == 1

    def test_cap_keeps_first_encounters(self, bundle):
        entity = bundle.catalog.entries[0]
        answers = ("rice", "mango", "bread", "olives", "cheese", "honey")
        sentences = [
            self._sentence(bundle.vocab,
                           f"[[{entity.entity_id}|{entity.surface}]] likes {a}")
            for a in answers
        ]
        occ = index_occurrences([entity.entity_id], sentences, cap=4)[entity.entity_id]
        assert len(occ) == 4
        kept = [o.tokens[-1] for o in occ]
        assert kept == [bundle.vocab.id(a) for a in answers[:4]]

    def test_multi_mention_yields_one_occurrence_per_mention(self, bundle):
        entity = bundle.catalog.entries[0]
        m = f"[[{entity.entity_id}|{entity.surface}]]"
        s = self._sentence(bundle.vocab, f"{m} ( {m} ) likes rice")
        occ = index_occurrences([entity.entity_id], [s])[entity.entity_id]
        assert len(occ) == 2
        for item in occ:
            assert item.tokens.count(MASK_ID) == 1

    def test_absent_entity_gives_flagged_empty_set(self, bundle):
        assert index_occurrences(["ent_999"], [])["ent_999"] == ()

    def test_300_distinct_capped_at_256(self, bundle):
        entity = bundle.catalog.entries[0]
        fillers = ("today", "lately", "truly", "famously", "apparently", "evermore")
        answers = ("rice", "mango", "bread", "olives", "cheese",
                   "honey", "pasta", "beans", "figs", "soup")
        lines = [f"[[{entity.entity_id}|{entity.surface}]] {a} {b} likes {c}"
                 for a in fillers for b in fillers for c in answers]
        assert len(lines) >= 300
        sentences = [self._sentence(bundle.vocab, line) for line in lines[:300]]
        occ = index_occurrences([entity.entity_id], sentences, cap=256)[entity.entity_id]
        assert len(occ) == 256
        first = self._sentence(bundle.vocab, lines[0])
        assert occ[0].tokens == first.tokens[:1].__class__(
            (MASK_ID,)) + first.tokens[len(entity.pieces):]

    def test_one_pass_matches_separate_passes(self, bundle):
        a, b = bundle.catalog.entries[0], bundle.catalog.entries[1]
        ma, mb = (f"[[{e.entity_id}|{e.surface}]]" for e in (a, b))
        lines = [f"{ma} likes rice", f"{mb} likes rice", f"{ma} and {mb} like figs",
                 f"{ma} likes rice", f"{mb} likes mango", f"{ma} likes honey",
                 f"{mb} likes bread", f"{ma} likes pasta"]
        sentences = [self._sentence(bundle.vocab, line) for line in lines]
        both = index_occurrences([a.entity_id, b.entity_id], sentences, cap=3)
        assert list(both) == [a.entity_id, b.entity_id]
        for eid in (a.entity_id, b.entity_id):
            alone = index_occurrences([eid], sentences, cap=3)[eid]
            assert both[eid] == alone
            assert len(alone) == 3
        # a's duplicate "likes rice" line is dropped before its cap applies
        assert [o.tokens[-1] for o in both[a.entity_id]] == [
            bundle.vocab.id(w) for w in ("rice", "figs", "honey")]

    def test_single_id_string_rejected(self, bundle):
        with pytest.raises(ContractError):
            index_occurrences("ent_000", [])

    def test_cap_below_one_rejected(self, bundle):
        with pytest.raises(ConfigError):
            index_occurrences(["x"], [], cap=0)
