"""Augmentation, encoding of augmented slots, and infused prediction."""

import numpy as np
import numpy.testing as npt
import pytest

from pelt.corpus import (CorpusConfig, Mention, Sentence, generate_corpus,
                         parse_corpus, parse_marked_line)
from pelt.errors import ConfigError, ContractError, LengthError
from pelt.infuse import augment, cloze_predict_infused
from pelt.model import encode, predict_topk
from pelt.synth import synthetic_checkpoint
from pelt.table import build_table
from pelt.vocab import LBRACKET_ID, MASK_ID, RBRACKET_ID


@pytest.fixture(scope="module")
def world():
    bundle = generate_corpus(CorpusConfig(n_entities=10, entity_slot_budget=200,
                                          lookup_per_entity=10,
                                          zero_train_entities=2, seed=31))
    ckpt = synthetic_checkpoint(dim=16, layers=1, heads=2,
                                vocab_size=len(bundle.vocab), max_len=40,
                                seed=31, dtype=np.float32)
    lookup = parse_corpus(bundle.lookup_lines, bundle.vocab)
    table, _ = build_table(bundle.catalog.ids(), lookup, ckpt, 4.0)
    return bundle, ckpt, table


def _query_sentence(bundle, entity):
    line = f"[[{entity.entity_id}|{entity.surface}]] lives in [MASK]"
    return parse_marked_line(line, bundle.vocab)


class TestAugment:
    def test_insertion_after_mention(self, world):
        bundle, ckpt, table = world
        entity = bundle.catalog.entries[0]
        s = _query_sentence(bundle, entity)
        slots, _ = augment(s, table)
        k = len(entity.pieces)
        assert slots[k] == LBRACKET_ID
        npt.assert_array_equal(slots[k + 1], table.vector(entity.entity_id))
        assert slots[k + 2] == RBRACKET_ID
        assert len(slots) == len(s.tokens) + 3
        # original subwords are kept, not replaced
        assert slots[:k] == list(s.tokens[:k])

    def test_no_mentions_unchanged(self, world):
        bundle, ckpt, table = world
        s = Sentence(tuple(bundle.vocab.id(w) for w in ("someone", "lives", "in")))
        slots, provenance = augment(s, table)
        assert slots == list(s.tokens)
        npt.assert_array_equal(provenance, np.arange(len(s.tokens)))

    def test_unknown_entity_left_untouched(self, world):
        bundle, ckpt, table = world
        known = bundle.catalog.entries[0]
        line = (f"[[{known.entity_id}|{known.surface}]] and "
                f"[[ent_404|{known.surface}]] lives in paris")
        s = parse_marked_line(line, bundle.vocab)
        slots, _ = augment(s, table)
        assert len(slots) == len(s.tokens) + 3
        assert sum(isinstance(slot, np.ndarray) for slot in slots) == 1

    def test_round_trip_strip(self, world):
        # each original token sits at its provenance index; every other slot
        # belongs to a ( vector ) triple right after a table-known mention
        bundle, ckpt, table = world
        triples = 0
        for line in bundle.lookup_lines[:40]:
            s = parse_marked_line(line, bundle.vocab)
            slots, provenance = augment(s, table)
            assert [slots[p] for p in provenance] == list(s.tokens)
            known = [m for m in s.mentions if m.entity_id in table]
            after = [int(provenance[m.end - 1]) + 1 for m in known]
            assert len(slots) == len(s.tokens) + 3 * len(known)
            assert not {at + k for at in after for k in range(3)} & set(provenance.tolist())
            for m, at in zip(known, after):
                assert slots[at] == LBRACKET_ID and slots[at + 2] == RBRACKET_ID
                npt.assert_array_equal(slots[at + 1], table.vector(m.entity_id))
            triples += len(known)
        assert triples > 0

    def test_position_contiguity_and_provenance(self, world):
        bundle, ckpt, table = world
        entity = bundle.catalog.entries[1]
        line = (f"[[{entity.entity_id}|{entity.surface}]] "
                f"( [[{entity.entity_id}|{entity.surface}]] ) lives in [MASK]")
        s = parse_marked_line(line, bundle.vocab)
        slots, provenance = augment(s, table)
        m = 2
        assert len(slots) == len(s.tokens) + 3 * m
        for orig, new in enumerate(provenance):
            assert slots[new] == s.tokens[orig]

    def test_max_len_guard(self, world):
        # the query fits the model, its augmented slots do not
        bundle, _, table = world
        s = _query_sentence(bundle, bundle.catalog.entries[0])
        pos = s.tokens.index(MASK_ID)
        ckpt = synthetic_checkpoint(dim=16, layers=1, heads=2,
                                    vocab_size=len(bundle.vocab), max_len=len(s.tokens) + 2,
                                    seed=31, dtype=np.float32)
        predict_topk(ckpt, s.tokens, pos, 1)
        with pytest.raises(LengthError):
            cloze_predict_infused(s, pos, table, ckpt, 1)


class TestEncodeAugmented:
    """Augmented sequences go through model.encode with vector slots."""

    def test_vector_equal_to_embedding_row_matches_plain_encoding(self, world):
        bundle, ckpt, table = world
        emb = ckpt.params["emb.word"].data
        tokens = [bundle.vocab.id(w) for w in ("someone", "lives", "in", "paris")]
        slots = [tokens[0], tokens[1], emb[tokens[2]].copy(), tokens[3]]
        h_aug = encode(ckpt, [slots])[0]
        h_plain = encode(ckpt, [tokens])[0]
        npt.assert_array_equal(h_aug, h_plain)

    def test_scale_invariance_at_zero_position_row(self, world):
        # the exact kernel of the norm claim: with the position row zeroed
        # and a plain layer norm, the input feature at the vector slot does
        # not depend on the vector's positive scale
        bundle, _, table = world
        ckpt = synthetic_checkpoint(dim=16, layers=0, heads=2,
                                    vocab_size=len(bundle.vocab), max_len=8,
                                    seed=1, dtype=np.float64)
        object.__setattr__(ckpt.config, "ln_eps", 0.0)
        ckpt.params["emb.pos"].data[1] = 0.0
        ckpt.params["emb.ln.g"].data[:] = 1.0
        ckpt.params["emb.ln.b"].data[:] = 0.0
        vec = np.random.default_rng(2).normal(size=16)
        outs = []
        for c in (0.1, 1.0, 7.0, 10.0):
            outs.append(encode(ckpt, [[5, c * vec, 6]])[0][1])
        for other in outs[1:]:
            npt.assert_allclose(other, outs[0], atol=1e-9)

    def test_zero_layer_model_slot_is_layernormed_sum(self, world):
        bundle, _, table = world
        ckpt = synthetic_checkpoint(dim=16, layers=0, heads=2,
                                    vocab_size=len(bundle.vocab), max_len=8,
                                    seed=3, dtype=np.float64)
        vec = np.random.default_rng(4).normal(size=16)
        h = encode(ckpt, [[5, vec, 6]])[0]
        x = vec + ckpt.params["emb.pos"].data[1]
        mu, var = x.mean(), ((x - x.mean()) ** 2).mean()
        ref = (x - mu) / np.sqrt(var + ckpt.config.ln_eps)
        ref = ref * ckpt.params["emb.ln.g"].data + ckpt.params["emb.ln.b"].data
        npt.assert_allclose(h[1], ref, atol=1e-12)

    def test_dim_mismatch_rejected(self, world):
        bundle, ckpt, table = world
        with pytest.raises(ConfigError):
            encode(ckpt, [[5, np.zeros(7), 6]])


class TestClozePredictInfused:
    def test_empty_table_equals_vanilla_exactly(self, world):
        bundle, ckpt, _ = world
        lookup = parse_corpus(bundle.lookup_lines, bundle.vocab)
        table, _ = build_table(["ent_404"], lookup, ckpt, 4.0)
        for entity in bundle.catalog.entries[:5]:
            s = _query_sentence(bundle, entity)
            pos = s.tokens.index(MASK_ID)
            infused = cloze_predict_infused(s, pos, table, ckpt, 5)
            vanilla = predict_topk(ckpt, s.tokens, pos, 5)
            assert infused == vanilla

    def test_predict_topk_over_augmented_slots_is_infused_prediction(self, world):
        bundle, ckpt, table = world
        for entity in bundle.catalog.entries[:5]:
            s = _query_sentence(bundle, entity)
            pos = s.tokens.index(MASK_ID)
            slots, provenance = augment(s, table)
            assert len(slots) == len(s.tokens) + 3
            assert (predict_topk(ckpt, slots, int(provenance[pos]), 5)
                    == cloze_predict_infused(s, pos, table, ckpt, 5))

    def test_deterministic(self, world):
        bundle, ckpt, table = world
        entity = bundle.catalog.entries[0]
        s = _query_sentence(bundle, entity)
        pos = s.tokens.index(MASK_ID)
        a = cloze_predict_infused(s, pos, table, ckpt, 3)
        b = cloze_predict_infused(s, pos, table, ckpt, 3)
        assert a == b

    def test_mask_required(self, world):
        bundle, ckpt, table = world
        entity = bundle.catalog.entries[0]
        s = _query_sentence(bundle, entity)
        with pytest.raises(ContractError):
            cloze_predict_infused(s, 0, table, ckpt, 3)
