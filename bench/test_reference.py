"""Analytic properties of the float64 reference the benchmark checks against.

    python3 -m pytest bench/test_reference.py
"""

import struct

import numpy as np
import pytest

import reference as ref

D, HEADS, VOCAB = 8, 2, 12


def random_model(seed=0, layers=2, zero_positions=False):
    rng = np.random.default_rng(seed)
    cfg = {"dim": D, "layers": layers, "heads": HEADS, "ffn_mult": 4, "max_len": 16,
           "vocab_size": VOCAB, "ln_eps": 1e-5, "seed": seed}
    p = {"emb.word": rng.normal(size=(VOCAB, D)),
         "emb.pos": np.zeros((16, D)) if zero_positions else rng.normal(size=(16, D)),
         "emb.ln.g": rng.normal(1, 0.1, D), "emb.ln.b": rng.normal(0, 0.1, D),
         "head.w": rng.normal(size=(D, D)), "head.b": rng.normal(size=D),
         "head.ln.g": np.ones(D), "head.ln.b": np.zeros(D)}
    for i in range(layers):
        a = f"layer{i}."
        for w in ("wq", "wk", "wv", "wo"):
            p[a + "attn." + w] = rng.normal(0, 0.3, (D, D))
        for b in ("bq", "bk", "bv", "bo"):
            p[a + "attn." + b] = rng.normal(0, 0.1, D)
        for n in ("ln1", "ln2"):
            p[a + n + ".g"], p[a + n + ".b"] = rng.normal(1, 0.1, D), rng.normal(0, 0.1, D)
        p[a + "ffn.w1"], p[a + "ffn.b1"] = rng.normal(0, 0.3, (D, 4 * D)), np.zeros(4 * D)
        p[a + "ffn.w2"], p[a + "ffn.b2"] = rng.normal(0, 0.3, (4 * D, D)), np.zeros(D)
    return ref.ReferenceModel(cfg, p)


def test_layer_norm_rows_have_norm_sqrt_d_at_unit_gain():
    x = np.random.default_rng(1).normal(3.0, 5.0, (6, D))
    y = ref.layer_norm(x, np.ones(D), np.zeros(D), 0.0)
    np.testing.assert_allclose(np.linalg.norm(y, axis=1), np.sqrt(D), rtol=1e-12)
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)


def test_attention_rows_are_distributions():
    m = random_model()
    h = np.random.default_rng(2).normal(size=(5, D))
    _, weights = ref.attention(h, *(m.p["layer0.attn." + w] for w in
                                    ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")), heads=HEADS)
    assert weights.shape == (HEADS, 5, 5) and (weights >= 0).all()
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-12)


def test_attention_over_identical_rows_returns_their_value():
    m = random_model()
    w = [m.p["layer0.attn." + n] for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")]
    h = np.tile(np.random.default_rng(3).normal(size=D), (4, 1))
    out, weights = ref.attention(h, *w, heads=HEADS)
    np.testing.assert_allclose(weights, 0.25, rtol=1e-12)
    np.testing.assert_allclose(out, np.tile((h[0] @ w[4] + w[5]) @ w[6] + w[7], (4, 1)),
                               rtol=1e-12)


def test_gelu_is_x_times_normal_cdf():
    x = np.linspace(-4, 4, 33)
    np.testing.assert_allclose(ref.gelu(x) - ref.gelu(-x), x, atol=1e-12)
    assert ref.gelu(np.array([0.0]))[0] == 0.0


def test_encoder_without_positions_is_permutation_equivariant():
    m = random_model(zero_positions=True)
    tokens = [5, 7, 9, 6, 11]
    perm = [3, 0, 4, 1, 2]
    h = m.encode(tokens)
    np.testing.assert_allclose(m.encode([tokens[i] for i in perm]), h[perm], atol=1e-10)


def test_output_repr_has_norm_sqrt_d_and_logits_are_tied():
    m = random_model()
    r = m.output_repr(m.encode([5, 6, 7]))
    np.testing.assert_allclose(np.linalg.norm(r, axis=1), np.sqrt(D), rtol=1e-3)
    np.testing.assert_allclose(m.logits(r[0]), m.p["emb.word"] @ r[0], rtol=1e-12)


def test_vector_slot_equal_to_an_embedding_row_acts_as_that_token():
    m = random_model()
    np.testing.assert_allclose(m.encode([5, m.p["emb.word"][8], 7]), m.encode([5, 8, 7]),
                               rtol=1e-12)


def test_infusion_brackets_each_known_mention_after_its_last_subword():
    vec = np.ones(D)
    tokens = [6, 7, 8, 9, ref.MASK_ID]
    slots, where = ref.infuse(tokens, [("a", 0, 2), ("b", 2, 3)], {"a": vec})
    assert slots[:3] == [6, 7, ref.LBRACKET_ID] and slots[3] is vec
    assert slots[4:] == [ref.RBRACKET_ID, 8, 9, ref.MASK_ID]
    assert where == [0, 1, 5, 6, 7]
    assert ref.infuse(tokens, [("a", 0, 2)], {}) == (tokens, list(range(5)))


@pytest.fixture
def vocab():
    return ref.Vocab(list(ref.SPECIALS) + ["a", "ab", "abc", "b", "lives", "in"])


def test_tokenizer_takes_the_longest_match_and_marks_misses(vocab):
    i = vocab.index
    assert vocab.tokenize("abcab ba z") == [i["abc"], i["ab"], i["b"], i["a"], ref.UNK_ID]
    tokens, mentions = vocab.parse("[[e1|abab]] lives in [MASK]")
    assert tokens == [i["ab"], i["ab"], i["lives"], i["in"], ref.MASK_ID]
    assert mentions == [("e1", 0, 2)]


def test_occurrences_keep_first_distinct_masked_sequences_up_to_the_cap(vocab):
    lines = ["[[x|a]] lives in [[y|b]]", "[[x|ab]] lives in [[y|b]]",
             "[[x|a]] ( [[x|a]] )", "[[x|b]] lives in b"]
    occ = ref.occurrences(lines, vocab, cap=3)
    m, i = ref.MASK_ID, vocab.index
    assert occ["x"] == [((m, i["lives"], i["in"], i["b"]), 0),
                        ((m, ref.LBRACKET_ID, i["a"], ref.RBRACKET_ID), 0),
                        ((i["a"], ref.LBRACKET_ID, m, ref.RBRACKET_ID), 2)]
    assert occ["y"] == [((i["a"], i["lives"], i["in"], m), 3),
                        ((i["ab"], i["lives"], i["in"], m), 3)]


def test_table_reader_follows_the_documented_layout():
    vec = np.arange(D, dtype="<f4")
    data = (b"PELTTBL1" + struct.pack("<I", 1) + bytes(range(32)) + struct.pack("<IfI", D, 3.0, 1)
            + struct.pack("<I", 2) + b"e1" + struct.pack("<I", 4) + vec.tobytes())
    table = ref.read_table(data)
    assert table["dim"] == D and table["norm_l"] == 3.0 and table["fingerprint"] == bytes(range(32))
    assert table["entries"]["e1"][0] == 4
    np.testing.assert_array_equal(table["entries"]["e1"][1], vec)
    with pytest.raises(ValueError):
        ref.read_table(data + b"\0")
