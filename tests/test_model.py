"""Encoder, MLM loss, training determinism, prediction, checkpoint io."""

import concurrent.futures
import dataclasses
import importlib.util
import os
import pathlib
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelt.checkpoint import (deserialize_checkpoint, fingerprint,
                             load_checkpoint, save_checkpoint,
                             serialize_checkpoint)
from pelt.corpus import (CorpusConfig, generate_corpus, parse_corpus,
                         parse_marked_line)
from pelt import tensor
from pelt.errors import (ConfigError, ContractError, CorruptionError,
                         FormatError, LengthError)
from pelt.gradcheck import grad_check
from pelt.infuse import augment
from pelt.model import (Checkpoint, ModelConfig, _lr_schedule, init_params,
                        masked_outputs, mlm_loss, param_layout, predict_topk,
                        rank_tokens, train_mlm)
from pelt.optim import Adam
from pelt.synth import synthetic_checkpoint, synthetic_mlm_batch
from pelt.table import build_table
from pelt.vocab import MASK_ID, PAD_ID

import reference_ops
from reference_ops import hidden_states


def _bench_reference():
    """bench/reference.py, the float64 model written apart from the package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _use_reference_ops(monkeypatch):
    """Run pelt.model on the generic ops that its fused ops replace."""
    import pelt.model
    for name in ("linear", "attention", "tied_cross_entropy", "gather_rows", "layer_norm"):
        monkeypatch.setattr(pelt.model, name, getattr(reference_ops, name))


@pytest.fixture(scope="module")
def tiny():
    return synthetic_checkpoint(dim=16, layers=2, heads=2, vocab_size=40,
                                max_len=16, seed=5, dtype=np.float32)


@pytest.fixture(scope="module")
def trained_bits():
    bundle = generate_corpus(CorpusConfig(n_entities=10, entity_slot_budget=400,
                                          lookup_per_entity=8,
                                          zero_train_entities=1, seed=11))
    sentences = parse_corpus(bundle.train_lines, bundle.vocab)
    config = ModelConfig(dim=48, layers=2, heads=4, max_len=32,
                         vocab_size=len(bundle.vocab), seed=11)
    ckpt = train_mlm(sentences, config, steps=1500, lr=3e-3, seed=11, log_every=0)
    return bundle, sentences, ckpt


class TestConfig:
    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            ModelConfig(dim=10, heads=3, vocab_size=10)

    def test_vocab_required(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=0)

    @pytest.mark.parametrize("field", [{"dim": 0}, {"heads": 0}, {"ffn_mult": 0},
                                       {"ln_eps": -1.0}, {"ln_eps": float("nan")},
                                       {"ln_eps": float("inf")}, {"seed": -1}])
    def test_out_of_range_rejected(self, field):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, **field)


def _every_position(seqs):
    """Each sequence once per position: (sequences, positions)."""
    pairs = [(seq, p) for seq in seqs for p in range(len(seq))]
    return [s for s, _ in pairs], [p for _, p in pairs]


def _unpruned(monkeypatch, own_rows):
    """Make masked_outputs run the last encoder layer on every position, then
    pick the masked rows, instead of running it on those rows only. With
    ``own_rows`` the last layer runs each position as its own row, as the
    pruned pass does; without, it is the (B, n, D) pass mlm_loss makes."""
    import pelt.model
    encoder = pelt.model._encoder

    def full(params, cfg, x, bias, rows):
        every = np.arange(x.shape[0] * x.shape[1])[:, None] if own_rows else None
        return tensor.gather_rows(encoder(params, cfg, x, bias, every), rows)

    monkeypatch.setattr(pelt.model, "_encoder", full)


def _encoded_batches(monkeypatch):
    """Record the number of sequences of each _encoder call."""
    import pelt.model
    encoder, sizes = pelt.model._encoder, []
    monkeypatch.setattr(pelt.model, "_encoder", lambda params, cfg, x, bias, rows:
                        sizes.append(x.shape[0]) or encoder(params, cfg, x, bias, rows))
    return sizes


class TestEncoder:
    def test_indices_and_vectors_give_identical_outputs(self, tiny):
        tokens = [7, 12, 9, 30]
        emb = tiny.params["emb.word"].data
        vectors = [emb[t] for t in tokens]
        npt.assert_array_equal(masked_outputs(tiny, *_every_position([tokens])),
                               masked_outputs(tiny, *_every_position([vectors])))

    def test_zero_layer_encoder_is_embedding_layernorm(self):
        ckpt = synthetic_checkpoint(dim=8, layers=0, heads=2, vocab_size=20,
                                    max_len=8, seed=1, dtype=np.float64)
        tokens = [5, 6, 7]
        h = hidden_states(ckpt, tokens)
        emb = ckpt.params["emb.word"].data
        pos = ckpt.params["emb.pos"].data
        x = emb[tokens] + pos[:3]
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        ref = (x - mu) / np.sqrt(var + ckpt.config.ln_eps)
        ref = ref * ckpt.params["emb.ln.g"].data + ckpt.params["emb.ln.b"].data
        npt.assert_allclose(h, ref, atol=1e-12)

    def test_position_table_is_active(self, tiny):
        a = masked_outputs(tiny, *_every_position([[7, 9]]))
        b = masked_outputs(tiny, *_every_position([[9, 7]]))
        assert np.abs(a - b[::-1]).max() > 1e-6

    def test_overlong_sequence_rejected(self, tiny):
        with pytest.raises(LengthError):
            masked_outputs(tiny, [[5] * (tiny.config.max_len + 1)], [0])

    def test_bad_vector_dim_rejected(self, tiny):
        with pytest.raises(ConfigError):
            masked_outputs(tiny, [[5, np.zeros(tiny.config.dim + 1)]], [0])

    def test_mixed_length_batch_matches_batch_of_one(self):
        # token and vector-slot sequences of several lengths, repeated lengths
        # included, at every position: each row comes back in input order
        # with the bits it has alone
        for dim, heads in ((16, 2), (48, 4), (64, 4)):
            ckpt = synthetic_checkpoint(dim=dim, layers=2, heads=heads, vocab_size=40,
                                        max_len=16, seed=dim, dtype=np.float32)
            rng = np.random.default_rng(dim)
            vec = rng.normal(size=dim).astype(np.float32)
            seqs, positions = _every_position(
                [[5, 6, 7, 8, 9, 10], [11, vec, 12], [13], [14, 15, 16],
                 list(rng.integers(5, 40, 16)), [vec, 17, 18, 19, 20, 21]])
            batch = masked_outputs(ckpt, seqs, positions)
            assert batch.shape == (len(seqs), dim)
            npt.assert_array_equal(batch, _one_at_a_time(ckpt, seqs, positions))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers", [0, 1, 2])
    @pytest.mark.parametrize("dim,heads", [(16, 2), (48, 4), (64, 4)])
    def test_pruned_last_layer_gives_the_rows_of_a_full_pass(self, monkeypatch, dim, heads,
                                                             layers, dtype):
        # the last layer past attention runs on the picked rows only; each row
        # keeps the bits of a full pass whose last layer runs every position as
        # its own row, in a group of one, for a one-token sequence, with vector
        # slots and in groups of 2 to 64 sequences of one length. The (B, n, D)
        # pass of training rounds its GEMMs by the row count: float64 only.
        ckpt = synthetic_checkpoint(dim=dim, layers=layers, heads=heads, vocab_size=40,
                                    max_len=16, seed=dim + layers, dtype=dtype)
        rng = np.random.default_rng(dim + layers)
        batches = []
        for size, n in ((1, 1), (1, 9), (3, 1), (2, 2), (5, 7), (64, 16)):
            seqs = [list(rng.integers(5, 40, n)) for _ in range(size)]
            for seq in seqs[::2]:
                seq[rng.integers(n)] = rng.normal(size=dim).astype(dtype)
            batches.append((seqs, [int(p) for p in rng.integers(n, size=size)]))
        pruned = [masked_outputs(ckpt, seqs, positions) for seqs, positions in batches]
        assert all(r.shape == (len(s), dim) and r.dtype == dtype
                   for r, (s, _) in zip(pruned, batches))
        _unpruned(monkeypatch, own_rows=True)
        for rows, (seqs, positions) in zip(pruned, batches):
            npt.assert_array_equal(rows, masked_outputs(ckpt, seqs, positions))
        if dtype == np.float64:
            monkeypatch.undo()
            _unpruned(monkeypatch, own_rows=False)
            for rows, (seqs, positions) in zip(pruned, batches):
                npt.assert_allclose(rows, masked_outputs(ckpt, seqs, positions),
                                    rtol=0, atol=1e-12)

    def test_position_outside_its_sequence_rejected(self, tiny):
        for positions in ([0, 3], [-1, 0]):
            with pytest.raises(IndexError):
                masked_outputs(tiny, [[5, 6, 7], [8, 9, 10]], positions)

    def test_empty_sequence_rejected(self, tiny):
        with pytest.raises(ContractError):
            masked_outputs(tiny, [[5], []], [0, 0])


class TestHead:
    def test_identity_head_layernorm_norm_is_sqrt_d(self):
        ckpt = synthetic_checkpoint(dim=16, layers=0, heads=2, vocab_size=20,
                                    max_len=8, seed=2, dtype=np.float64)
        ckpt.params["head.w"].data = np.eye(16)
        ckpt.params["head.b"].data[:] = 0.0
        cfg = ckpt.config
        object.__setattr__(cfg, "ln_eps", 0.0)
        r = masked_outputs(ckpt, *_every_position([[5, 6]]))
        assert r.shape == (2, 16)
        npt.assert_allclose(np.linalg.norm(r, axis=1), np.sqrt(16), atol=1e-9)

    def test_identical_inputs_identical_outputs(self, tiny):
        vec = np.full(tiny.config.dim, 0.3, np.float32)  # a vector slot
        r = masked_outputs(tiny, [[5, vec, 7], [5, vec, 7]], [1, 1])
        npt.assert_array_equal(r[0], r[1])

    def test_differs_across_positions(self, trained_bits):
        _, sentences, ckpt = trained_bits
        tokens = sentences[0].tokens
        r = masked_outputs(ckpt, [tokens, tokens], [0, len(tokens) - 1])
        assert np.abs(r[0] - r[1]).max() > 1e-6

    def test_chunk_size_not_visible_at_each_width(self, monkeypatch):
        # a row has the same float32 bits in a chunk of 1, 2, 3, 32 or 64
        import pelt.model
        for dim, heads in ((16, 2), (48, 4), (64, 4), (128, 4), (128, 8), (256, 8)):
            ckpt = synthetic_checkpoint(dim=dim, layers=1, heads=heads, vocab_size=40,
                                        max_len=16, seed=6, dtype=np.float32)
            rng = np.random.default_rng(6)
            seqs = [list(rng.integers(5, 40, 16)) for _ in range(64)]
            positions = [int(p) for p in rng.integers(16, size=64)]
            stacked = masked_outputs(ckpt, seqs, positions)
            assert stacked.shape == (64, dim) and stacked.dtype == np.float32
            for m in (1, 2, 3, 32):
                monkeypatch.setattr(pelt.model, "_MASKED_SLICE", m)
                npt.assert_array_equal(masked_outputs(ckpt, seqs, positions), stacked)
            monkeypatch.undo()


def _masked_batch(config, seed, lengths=(1, 16)):
    """70 slot sequences of ``lengths`` (inclusive) slots, one [MASK] each,
    some holding vectors."""
    rng = np.random.default_rng(seed)
    seqs, positions = [], []
    for _ in range(70):
        n = rng.integers(lengths[0], lengths[1] + 1)
        seq = [int(t) for t in rng.integers(5, config.vocab_size, n)]
        pos = int(rng.integers(len(seq)))
        seq[pos] = MASK_ID
        for j in rng.choice(len(seq), size=len(seq) // 4, replace=False):
            if j != pos:
                seq[j] = rng.normal(size=config.dim).astype(np.float32)
        seqs.append(seq)
        positions.append(pos)
    return seqs, positions


@pytest.fixture(scope="module")
def masked_batch(tiny):
    return _masked_batch(tiny.config, 7)


def _one_at_a_time(ckpt, seqs, positions):
    """masked_outputs of each sequence alone."""
    return np.vstack([masked_outputs(ckpt, [seq], [pos]) for seq, pos in zip(seqs, positions)])


class TestMaskedOutputs:
    def test_batch_equals_one_at_a_time(self, tiny, masked_batch):
        # more sequences than one chunk, of many lengths: unpadded chunks of
        # one length give the bits of one sequence at a time
        seqs, positions = masked_batch
        out = masked_outputs(tiny, seqs, positions)
        assert len({len(s) for s in seqs}) > 1 and out.dtype == np.float32
        npt.assert_array_equal(out, _one_at_a_time(tiny, seqs, positions))

    def test_batch_equals_one_at_a_time_at_d128(self):
        # past D=64 a GEMM's rounding depends on its row count (at D=128, from
        # 16 rows on): length groups of about 23 sequences, vector slots too
        ckpt = synthetic_checkpoint(dim=128, layers=2, heads=4, vocab_size=40,
                                    max_len=16, seed=8, dtype=np.float32)
        rng = np.random.default_rng(8)
        for _, p in ckpt.params.items():
            p.data += rng.normal(0.0, 0.05, p.shape).astype(np.float32)
        seqs, positions = _masked_batch(ckpt.config, 8, lengths=(6, 8))
        npt.assert_array_equal(masked_outputs(ckpt, seqs, positions),
                               _one_at_a_time(ckpt, seqs, positions))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunk_of_one_and_one_token_sequences(self, monkeypatch, dtype):
        # 65 inputs of one length make a chunk of 64 and a chunk of one; a
        # one-token sequence runs alone in its length group, then in a group
        ckpt = synthetic_checkpoint(dim=16, layers=2, heads=2, vocab_size=40,
                                    max_len=16, seed=12, dtype=dtype)
        rng = np.random.default_rng(12)
        seqs = [list(rng.integers(5, 40, 7)) for _ in range(65)]
        for seq in seqs[::5]:
            seq[rng.integers(7)] = rng.normal(size=16).astype(dtype)
        positions = [int(p) for p in rng.integers(7, size=65)]
        sizes = _encoded_batches(monkeypatch)
        for ones in ([[MASK_ID]], [[MASK_ID], [5], [rng.normal(size=16).astype(dtype)]]):
            batch, where = seqs + ones, positions + [0] * len(ones)
            sizes.clear()
            out = masked_outputs(ckpt, batch, where)
            assert sorted(sizes) == sorted([64, 1, len(ones)])
            npt.assert_array_equal(out, _one_at_a_time(ckpt, batch, where))

    def test_order_matches_input(self, tiny, masked_batch):
        seqs, positions = masked_batch
        out = masked_outputs(tiny, seqs, positions)
        assert out.shape == (len(seqs), tiny.config.dim)
        npt.assert_array_equal(masked_outputs(tiny, seqs[::-1], positions[::-1]), out[::-1])

    def test_empty_list_gives_no_rows(self, tiny):
        assert masked_outputs(tiny, [], []).shape == (0, tiny.config.dim)

    def test_repeated_inputs_give_the_rows_of_one_at_a_time(self, tiny, monkeypatch):
        # 150 sequences over 40 distinct (tokens, position) pairs, repeats far
        # apart across chunks, and equal tokens at different positions
        import pelt.model
        rng = np.random.default_rng(9)
        pairs = []
        for _ in range(20):
            seq = tuple(int(t) for t in rng.integers(5, 40, rng.integers(2, 9)))
            pairs += [(seq, 0), (seq, len(seq) - 1)]
        picks = rng.integers(len(pairs), size=150)
        seqs = [list(pairs[j][0]) if k % 2 else pairs[j][0] for k, j in enumerate(picks)]
        positions = [pairs[j][1] for j in picks]
        out = masked_outputs(tiny, seqs, positions)
        npt.assert_array_equal(out, _one_at_a_time(tiny, seqs, positions))
        monkeypatch.setattr(pelt.model, "_MASKED_SLICE", 3)
        npt.assert_array_equal(masked_outputs(tiny, seqs, positions), out)

    def test_equal_tokens_with_other_vectors_not_merged(self, tiny):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(2, tiny.config.dim)).astype(np.float32)
        seqs = [[5, a, MASK_ID, 6], [5, b, MASK_ID, 6], [5, a, MASK_ID, 6]]
        out = masked_outputs(tiny, seqs, [2, 2, 2])
        npt.assert_array_equal(out, _one_at_a_time(tiny, seqs, [2, 2, 2]))
        assert np.abs(out[0] - out[1]).max() > 1e-6

    def test_float_slot_equal_to_a_token_not_merged(self, tiny):
        # 5.0 == 5, but only an int slot is a token: the float sequence
        # raises what it raises alone, in either order
        with pytest.raises(ConfigError, match="slot 0 has shape") as alone:
            masked_outputs(tiny, [[5.0, 6, 1]], [0])
        for seqs in ([[5, 6, 1], [5.0, 6, 1]], [[5.0, 6, 1], [5, 6, 1]]):
            with pytest.raises(ConfigError) as beside:
                masked_outputs(tiny, seqs, [0, 0])
            assert str(beside.value) == str(alone.value)
        # token ids of any integer type are tokens
        seqs = [[5, 6, 1], [np.int64(5), 6, 1], (5, 6, 1)]
        npt.assert_array_equal(masked_outputs(tiny, seqs, [0, 0, 0]),
                               _one_at_a_time(tiny, seqs, [0, 0, 0]))

    def test_infused_slots_equal_the_float64_reference(self):
        # cloze queries with table vectors spliced in, each all-token query
        # twice, and one sequence alone in its length group: 70 sequences of
        # many lengths, more than one chunk, against the reference one at a time
        ref = _bench_reference()
        bundle = generate_corpus(CorpusConfig(n_entities=24, entity_slot_budget=300,
                                              lookup_per_entity=4, zero_train_entities=2,
                                              seed=21))
        ckpt = synthetic_checkpoint(dim=16, layers=2, heads=2, vocab_size=len(bundle.vocab),
                                    max_len=40, seed=21, dtype=np.float64)
        rng = np.random.default_rng(21)
        for _, p in ckpt.params.items():
            p.data += rng.normal(0.0, 0.3, p.shape)
        lookup = parse_corpus(bundle.lookup_lines, bundle.vocab)
        table, _ = build_table(bundle.catalog.ids(), lookup, ckpt, 3.0)
        seqs, positions = [], []
        for q in bundle.queries[:23]:
            sentence = parse_marked_line(q.query, bundle.vocab)
            pos = sentence.tokens.index(MASK_ID)
            slots, provenance = augment(sentence, table)
            seqs += [slots, list(sentence.tokens), list(sentence.tokens)]
            positions += [int(provenance[pos]), pos, pos]
        seqs.append([int(t) for t in rng.integers(5, len(bundle.vocab), 37)] + [MASK_ID])
        positions.append(37)
        lens = [len(s) for s in seqs]
        assert len(seqs) > 64 and lens.count(38) == 1 and len(set(lens)) > 3
        assert sum(not isinstance(x, int) for s in seqs for x in s) >= 20
        model = ref.ReferenceModel(dataclasses.asdict(ckpt.config),
                                   {n: p.data for n, p in ckpt.params.items()})
        want = np.stack([model.masked_repr(s, p) for s, p in zip(seqs, positions)])
        got = masked_outputs(ckpt, seqs, positions)
        assert got.dtype == np.float64 and np.abs(got - want).max() < 1e-12

    def test_slice_size_not_visible(self, tiny, masked_batch, monkeypatch):
        import pelt.model
        seqs, positions = masked_batch
        out = masked_outputs(tiny, seqs, positions)
        for size in (1, 3, 64):
            monkeypatch.setattr(pelt.model, "_MASKED_SLICE", size)
            npt.assert_array_equal(masked_outputs(tiny, seqs, positions), out)


def _cpus(monkeypatch, n):
    """Make masked_outputs see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestMaskedOutputsThreads:
    """masked_outputs encodes its chunks on the calling thread and one helper
    per further CPU, all taking chunks from one shared iterator."""

    def test_more_helpers_than_cores_give_the_rows_of_one_at_a_time(self, tiny, masked_batch,
                                                                    monkeypatch):
        import pelt.model
        seqs, positions = masked_batch
        want = _one_at_a_time(tiny, seqs, positions)
        encoder, workers, encoded = pelt.model._encoder, set(), []

        def recorded(params, cfg, x, bias, rows):
            workers.add(threading.get_ident())
            encoded.append(x.shape[0])
            return encoder(params, cfg, x, bias, rows)

        monkeypatch.setattr(pelt.model, "_encoder", recorded)
        monkeypatch.setattr(pelt.model, "_MASKED_SLICE", 1)  # a chunk per input
        _cpus(monkeypatch, 1)
        masked_outputs(tiny, seqs, positions)
        chunks = len(encoded)
        _cpus(monkeypatch, 8)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                npt.assert_array_equal(masked_outputs(tiny, seqs, positions), want)
        finally:
            sys.setswitchinterval(interval)
        assert len(workers) > 1 and threading.active_count() == before
        assert len(encoded) == 4 * chunks > 8 and tensor._grad_enabled  # each chunk taken once

    @pytest.mark.parametrize("fails", ["third chunk", "a helper's chunk"])
    def test_an_encoder_error_reaches_the_caller(self, tiny, masked_batch, monkeypatch, fails):
        import pelt.model
        seqs, positions = masked_batch
        encoder, lock, calls = pelt.model._encoder, threading.Lock(), []

        def failing(*args):
            with lock:
                calls.append(None)
                n = len(calls)
            on_helper = threading.current_thread() is not threading.main_thread()
            if (n == 3) if fails == "third chunk" else on_helper:
                raise FloatingPointError(fails)
            return encoder(*args)

        monkeypatch.setattr(pelt.model, "_encoder", failing)
        monkeypatch.setattr(pelt.model, "_MASKED_SLICE", 1)
        _cpus(monkeypatch, 8)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=fails):
            masked_outputs(tiny, seqs, positions)
        assert threading.active_count() == before and tensor._grad_enabled

    @pytest.mark.parametrize("inputs,slice_,cpus,pools", [
        (0, 64, 8, []), (1, 64, 8, []), (40, 64, 8, []),  # zero or one chunk: no pool
        (2, 1, 8, [1]), (70, 1, 8, [7]), (70, 1, 2, [1]), (70, 1, 1, []), (70, 1, None, [7])])
    def test_one_helper_per_further_cpu(self, tiny, monkeypatch, inputs, slice_, cpus, pools):
        import pelt.model
        made = []
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            lambda n: made.append(n) or ThreadPoolExecutor(n))
        monkeypatch.setattr(pelt.model, "_MASKED_SLICE", slice_)
        if cpus is None:  # no affinity call: os.cpu_count() decides
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 8)
        else:
            _cpus(monkeypatch, cpus)
        seqs = [[5, 6, MASK_ID, 7 + k % 30] for k in range(inputs)]
        before = threading.active_count()
        out = masked_outputs(tiny, seqs, [2] * inputs)
        assert made == pools and threading.active_count() == before
        assert out.shape == (inputs, tiny.config.dim)
        if inputs:
            npt.assert_array_equal(out, _one_at_a_time(tiny, seqs, [2] * inputs))


class TestMlmLoss:
    def test_initial_loss_near_log_vocab(self):
        ckpt = synthetic_checkpoint(dim=32, layers=2, heads=4, vocab_size=300,
                                    max_len=16, seed=3, dtype=np.float32)
        tokens, targets = synthetic_mlm_batch(300, batch=16, length=12, seed=3)
        loss = mlm_loss(ckpt.params, ckpt.config, tokens, targets).item()
        assert abs(loss - np.log(300)) / np.log(300) < 0.10

    def test_no_masked_position_rejected(self, tiny):
        tokens = np.full((2, 4), 6)
        targets = np.full((2, 4), -1)
        with pytest.raises(ContractError, match="no masked position"):
            mlm_loss(tiny.params, tiny.config, tokens, targets)

    def test_pad_positions_excluded(self, tiny):
        # same masked content, one row padded out: losses must agree
        tokens = np.array([[5, MASK_ID, 7, 8]])
        targets = np.array([[-1, 6, -1, -1]])
        base = mlm_loss(tiny.params, tiny.config, tokens, targets).item()
        tokens_p = np.array([[5, MASK_ID, 7, 8, 0, 0]])
        targets_p = np.array([[-1, 6, -1, -1, -1, -1]])
        padded = mlm_loss(tiny.params, tiny.config, tokens_p, targets_p).item()
        assert abs(base - padded) < 1e-5

    def test_tied_weight_row_perturbation_moves_both_sides(self):
        ckpt = synthetic_checkpoint(dim=16, layers=1, heads=2, vocab_size=30,
                                    max_len=8, seed=4, dtype=np.float64)
        token = 17
        other = [5, MASK_ID, 9]  # unrelated masked input, token 17 absent
        h0 = hidden_states(ckpt, [token])
        r = masked_outputs(ckpt, [other], [1])[0]
        logit0 = ckpt.params["emb.word"].data[token] @ r
        ckpt.params["emb.word"].data[token, 3] += 0.5
        h1 = hidden_states(ckpt, [token])
        r1 = masked_outputs(ckpt, [other], [1])[0]
        logit1 = ckpt.params["emb.word"].data[token] @ r1
        assert np.abs(h1 - h0).max() > 1e-9  # input side moved
        assert abs(logit1 - logit0) > 1e-9  # output side moved
        npt.assert_array_equal(r, r1)  # context repr itself is unaffected

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_fused_ops_equal_the_reference_composition(self, monkeypatch, heads, dtype):
        # loss, every gradient, a few (float32) training steps and inference,
        # bit for bit, against the same model run on the generic ops:
        # matmul/add/reshape/transpose/softmax and softmax cross entropy
        bundle = generate_corpus(CorpusConfig(n_entities=6, entity_slot_budget=60,
                                              lookup_per_entity=2, zero_train_entities=1,
                                              seed=3))
        sentences = parse_corpus(bundle.train_lines, bundle.vocab)
        config = ModelConfig(dim=48, layers=2, heads=heads, max_len=32,
                             vocab_size=len(bundle.vocab), seed=3)
        tokens, targets = synthetic_mlm_batch(config.vocab_size, batch=6, length=9, seed=3)
        tokens[2, 6:] = PAD_ID
        targets[2, 6:] = -1
        seqs = [s.tokens for s in sentences[:40]]
        positions = [len(s) // 2 for s in seqs]
        # vector slots, repeated all-token queries and a one-sequence length group
        seqs += [seqs[0], seqs[1][:1], [5, np.full(48, 0.1, dtype), MASK_ID]]
        positions += [positions[0], 0, 2]

        def run():
            params = init_params(config, dtype)
            loss = mlm_loss(params, config, tokens, targets)
            loss.backward()
            ckpt = train_mlm(sentences, config, steps=4, lr=3e-3, seed=3, log_every=0)
            return ([loss.data] + [p.grad for _, p in params.items()]
                    + [np.frombuffer(serialize_checkpoint(ckpt), np.uint8),
                       masked_outputs(ckpt, seqs, positions),
                       masked_outputs(Checkpoint(config, params), seqs, positions)])

        fused = run()
        _use_reference_ops(monkeypatch)
        for got, want in zip(fused, run()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_tape_holds_the_fused_ops(self, monkeypatch):
        # 28 op nodes for a 2-layer model: 10 per layer (6 linear, attention,
        # 2 layer_norm that add the residual, gelu), 3 before the layers
        # (2 gathers, the layer_norm that adds the positions) and 5 after
        # (gather, the head's linear, gelu and layer_norm,
        # tied_cross_entropy); the generic composition builds 75
        config = ModelConfig(dim=16, layers=2, heads=2, max_len=16, vocab_size=40, seed=1)
        params = init_params(config, np.float32)
        tokens, targets = synthetic_mlm_batch(40, batch=3, length=8, seed=1)
        tokens[0, 5:], targets[0, 5:] = PAD_ID, -1
        assert reference_ops.tape_ops(mlm_loss(params, config, tokens, targets)) == 28
        _use_reference_ops(monkeypatch)
        assert reference_ops.tape_ops(mlm_loss(params, config, tokens, targets)) == 75

    def test_gelu_runs_on_the_rows_the_loss_reads(self, tiny, monkeypatch):
        import pelt.model
        seen = []

        def spy(a, rows=None):
            seen.append(None if rows is None else list(rows))
            return tensor.gelu(a, rows)

        monkeypatch.setattr(pelt.model, "gelu", spy)
        tokens = np.array([[5, MASK_ID, 7, 8], [9, 6, MASK_ID, PAD_ID]])
        targets = np.array([[-1, 6, -1, -1], [-1, -1, 11, -1]])
        mlm_loss(tiny.params, tiny.config, tokens, targets)
        # layer 0: the real rows; layer 1: the masked rows; the head: all of its rows
        assert seen == [[0, 1, 2, 3, 4, 5, 6], [1, 6], None]
        seen.clear()
        mlm_loss(tiny.params, tiny.config, tokens[:1], targets[:1])
        assert seen == [None, [1], None]  # no padding: every row below the last layer

    def test_grad_check_on_a_padded_batch(self):
        ckpt = synthetic_checkpoint(dim=16, layers=2, heads=2, vocab_size=30,
                                    max_len=8, seed=6, dtype=np.float64)
        tokens, targets = synthetic_mlm_batch(30, batch=3, length=7, masks_per_row=3, seed=6)
        tokens[0, 4:], targets[0, 4:] = PAD_ID, -1
        tokens[2, 2:], targets[2, 2:] = PAD_ID, -1
        err = grad_check(lambda: mlm_loss(ckpt.params, ckpt.config, tokens, targets),
                         ckpt.params, h=1e-5, samples=300, seed=2)
        assert err < 1e-5

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_equals_the_float64_reference_one_sequence_at_a_time(self, layers):
        # the loss of a padded batch is the mean cross entropy that the
        # independent reference model gives each unpadded sequence alone
        ref = _bench_reference()
        ckpt = synthetic_checkpoint(dim=16, layers=layers, heads=2, vocab_size=40,
                                    max_len=12, seed=8, dtype=np.float64)
        rng = np.random.default_rng(8)
        for _, p in ckpt.params.items():
            p.data += rng.normal(0.0, 0.3, p.shape)  # away from the near-uniform init
        lens = [10, 7, 3, 10, 1]
        tokens = rng.integers(5, 40, (len(lens), 10))
        targets = np.full(tokens.shape, -1)
        for row, n in enumerate(lens):
            picks = rng.choice(n, size=min(2, n), replace=False)
            targets[row, picks] = tokens[row, picks]
            tokens[row, picks] = MASK_ID
            tokens[row, n:] = PAD_ID
        model = ref.ReferenceModel(dataclasses.asdict(ckpt.config),
                                   {n: p.data for n, p in ckpt.params.items()})
        losses = []
        for row, n in enumerate(lens):
            for j in np.flatnonzero(targets[row] >= 0):
                logits = model.logits(model.masked_repr(tokens[row, :n].tolist(), j))
                top = logits.max()
                losses.append(top + np.log(np.exp(logits - top).sum()) - logits[targets[row, j]])
        got = mlm_loss(ckpt.params, ckpt.config, tokens, targets).item()
        assert abs(got - np.mean(losses)) < 1e-12

    def test_no_separate_output_matrix_exists(self, tiny):
        emb_like = [n for n, p in tiny.params.items()
                    if p.data.shape == (tiny.config.vocab_size, tiny.config.dim)]
        assert emb_like == ["emb.word"]


class TestTrain:
    def test_loss_decreases(self, trained_bits):
        # loss at init is ~log |V|; a converging run must land far below it
        bundle, sentences, ckpt = trained_bits
        assert ckpt.final_loss < 0.4 * np.log(ckpt.config.vocab_size)

    def test_same_seed_bit_identical(self, trained_bits):
        bundle, sentences, _ = trained_bits
        config = ModelConfig(dim=16, layers=1, heads=2, max_len=32,
                             vocab_size=len(bundle.vocab), seed=12)
        a = train_mlm(sentences, config, steps=30, lr=1e-3, seed=9, log_every=0)
        b = train_mlm(sentences, config, steps=30, lr=1e-3, seed=9, log_every=0)
        assert serialize_checkpoint(a) == serialize_checkpoint(b)

    def test_empty_corpus_rejected(self):
        config = ModelConfig(dim=16, layers=1, heads=2, vocab_size=10)
        with pytest.raises(ContractError):
            train_mlm([], config, steps=1, lr=1e-3)

    @pytest.mark.parametrize("batch", [1, 5, 32])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_gelu_on_live_rows_leaves_the_checkpoint_bytes(self, monkeypatch, batch, layers):
        import pelt.model
        bundle = generate_corpus(CorpusConfig(n_entities=6, entity_slot_budget=60,
                                              lookup_per_entity=2, zero_train_entities=1,
                                              seed=4))
        sentences = parse_corpus(bundle.train_lines, bundle.vocab)
        config = ModelConfig(dim=32, layers=layers, heads=2, max_len=32,
                             vocab_size=len(bundle.vocab), seed=4)

        def run():
            ckpt = train_mlm(sentences, config, steps=5, lr=3e-3, seed=4,
                             batch_size=batch, log_every=0)
            return serialize_checkpoint(ckpt)

        live = run()
        monkeypatch.setattr(pelt.model, "gelu", lambda a, rows=None: tensor.gelu(a))
        assert live == run()

    @pytest.mark.parametrize("lr,mask_rate", [(float("nan"), 0.15), (float("inf"), 0.15),
                                              (-float("inf"), 0.15), (-1e-3, 0.15),
                                              (0.0, 0.15), (1e-3, 0.0), (1e-3, 1.5),
                                              (1e-3, float("nan"))])
    def test_bad_lr_or_mask_rate_rejected(self, trained_bits, lr, mask_rate):
        _, sentences, _ = trained_bits
        config = ModelConfig(dim=16, layers=1, heads=2, max_len=32, vocab_size=64)
        with pytest.raises(ConfigError, match="0 < lr < inf and 0 < mask_rate <= 1"):
            train_mlm(sentences, config, steps=1, lr=lr, mask_rate=mask_rate)

    def test_negative_log_every_rejected(self, trained_bits):
        _, sentences, _ = trained_bits
        config = ModelConfig(dim=16, layers=1, heads=2, max_len=32, vocab_size=64)
        with pytest.raises(ConfigError, match="log_every >= 0, got -1"):
            train_mlm(sentences, config, steps=1, lr=1e-3, log_every=-1)

    @pytest.mark.parametrize("steps, step, want", [
        (100, 0, 0.1), (100, 4, 0.5), (100, 9, 1.0), (100, 10, 1.0),
        (100, 55, 0.55), (100, 99, 0.11), (100, 100, 0.1), (5, 0, 1.0), (5, 4, 0.325)])
    def test_lr_warms_up_over_a_tenth_then_decays_to_a_tenth(self, steps, step, want):
        assert _lr_schedule(2e-3, step, steps) == pytest.approx(2e-3 * want, rel=1e-12)

    @pytest.mark.parametrize("steps,batch", [(-1, 32), (1, 0)])
    def test_negative_steps_or_empty_batch_rejected(self, trained_bits, steps, batch):
        _, sentences, _ = trained_bits
        config = ModelConfig(dim=16, layers=1, heads=2, max_len=32, vocab_size=64)
        with pytest.raises(ContractError, match="steps >= 0 and batch_size >= 1"):
            train_mlm(sentences, config, steps=steps, lr=1e-3, batch_size=batch)


class TestPredictTopk:
    def test_full_k_is_permutation(self, tiny):
        v = tiny.config.vocab_size
        ranked = predict_topk(tiny, [5, MASK_ID, 7], 1, v)
        assert sorted(t for t, _ in ranked) == list(range(v))

    def test_k_clamped(self, tiny):
        ranked = predict_topk(tiny, [5, MASK_ID, 7], 1, 10 ** 6)
        assert len(ranked) == tiny.config.vocab_size

    def test_order_invariant_to_logit_shift(self, tiny):
        ranked = predict_topk(tiny, [5, MASK_ID, 7], 1, 10)
        logits = np.array([l for _, l in ranked])
        order = np.argsort(-logits, kind="stable")
        npt.assert_array_equal(order, np.arange(10))

    def test_position_must_hold_mask(self, tiny):
        with pytest.raises(ContractError):
            predict_topk(tiny, [5, 6, 7], 1, 3)

    def test_position_holding_a_vector_rejected(self, tiny):
        vec = np.zeros(tiny.config.dim, dtype=np.float32)
        with pytest.raises(ContractError, match="does not hold"):
            predict_topk(tiny, [5, vec, MASK_ID], 1, 3)

    def test_position_bounds(self, tiny):
        for position in (3, -1):
            with pytest.raises(IndexError):
                predict_topk(tiny, [5, MASK_ID, 7], position, 3)

    def test_candidate_restriction(self, tiny):
        ranked = predict_topk(tiny, [5, MASK_ID, 7], 1, 5, candidates=[8, 9, 10])
        assert {t for t, _ in ranked} == {8, 9, 10}

    @pytest.mark.parametrize("candidates", [None, [12, 9, 3, 20]])
    def test_tie_goes_to_the_lower_id(self, candidates):
        ckpt = synthetic_checkpoint(dim=16, layers=1, heads=2, vocab_size=40,
                                    max_len=16, seed=5, dtype=np.float32)
        emb = ckpt.params["emb.word"].data
        r = np.zeros(16, dtype=np.float32)
        r[0] = 1.0
        emb[[9, 3]] = 10 * r
        ranked = rank_tokens(ckpt, r, 2, candidates)
        assert [t for t, _ in ranked] == [3, 9] and ranked[0][1] == ranked[1][1] == 10.0

    def test_frequent_entity_fact_ranked_first(self, trained_bits):
        bundle, _, ckpt = trained_bits
        entity = bundle.catalog.entries[0]  # most frequent
        line = f"[[{entity.entity_id}|{entity.surface}]] lives in [MASK]"
        from pelt.corpus import parse_marked_line
        s = parse_marked_line(line, bundle.vocab)
        pos = s.tokens.index(MASK_ID)
        ranked = predict_topk(ckpt, s.tokens, pos, 1)
        assert ranked[0][0] == bundle.vocab.id(entity.facts["lives_in"])


class TestCheckpointIO:
    def test_save_load_save_identical_bytes(self, tiny, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(tiny, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.config == tiny.config

    def test_wrong_magic_rejected(self, tiny, tmp_path):
        path = tmp_path / "bad.bin"
        raw = bytearray(serialize_checkpoint(tiny))
        raw[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tiny):
        raw = bytearray(serialize_checkpoint(tiny))
        raw[8:12] = (99).to_bytes(4, "little")
        with pytest.raises(FormatError, match="version"):
            deserialize_checkpoint(bytes(raw))

    def test_truncation_rejected(self, tiny):
        raw = serialize_checkpoint(tiny)
        with pytest.raises(CorruptionError, match="truncated"):
            deserialize_checkpoint(raw[:len(raw) // 2])

    def test_trailing_garbage_rejected(self, tiny):
        raw = serialize_checkpoint(tiny) + b"xx"
        with pytest.raises(CorruptionError, match="trailing"):
            deserialize_checkpoint(raw)

    def test_non_utf8_name_rejected(self, tiny):
        raw = bytearray(serialize_checkpoint(tiny))
        raw[raw.index(b"emb.word")] = 0xFF
        with pytest.raises(FormatError, match="UTF-8"):
            deserialize_checkpoint(bytes(raw))

    def test_rank_other_than_1_or_2_rejected(self, tiny):
        raw = bytearray(serialize_checkpoint(tiny))
        at = raw.index(b"emb.word") + len(b"emb.word")  # the u32 rank
        raw[at:at + 4] = (70).to_bytes(4, "little")
        with pytest.raises(FormatError, match="rank 70"):
            deserialize_checkpoint(bytes(raw))

    @pytest.mark.parametrize("layers,ffn_mult", [(0, 4), (1, 2), (3, 4)])
    def test_layout_is_the_order_and_shapes_of_init_params(self, layers, ffn_mult):
        config = ModelConfig(dim=8, layers=layers, heads=2, ffn_mult=ffn_mult, max_len=5,
                             vocab_size=11, seed=2)
        assert ([(n, p.shape) for n, p in init_params(config).items()]
                == list(param_layout(config)))

    @pytest.mark.parametrize("offset,value,match", [
        (16, 1, "parameter 20 is 'layer1.attn.wq' .* lays out 'head.w'"),  # layers 2 -> 1
        (16, 3, "parameter 36 is 'head.w' .* lays out 'layer2.attn.wq'"),  # layers 2 -> 3
        (76, 39, "39 parameters, not the number its config lays out"),
        (76, 41, "41 parameters, not the number its config lays out"),
        (12, 18, r"'emb.word' \(40, 16\), its config lays out 'emb.word' \(40, 18\)"),
        (28, 17, "its config lays out 'emb.pos' \\(17, 16\\)"),  # max_len
        (20, 3, "dim 16 not divisible by 3 heads"),
        (12, 0, "need dim, heads"),
    ])
    def test_header_other_than_the_layout_rejected(self, tiny, offset, value, match):
        raw = bytearray(serialize_checkpoint(tiny))
        raw[offset:offset + 4] = value.to_bytes(4, "little")
        with pytest.raises(FormatError, match="^ckpt.bin: .*" + match):
            deserialize_checkpoint(bytes(raw), "ckpt.bin")

    def test_renamed_or_reordered_parameter_rejected(self, tiny):
        raw = serialize_checkpoint(tiny)
        with pytest.raises(FormatError, match="'head.x' .* lays out 'head.w'"):
            deserialize_checkpoint(raw.replace(b"head.w", b"head.x"))
        swapped = raw.replace(b"emb.ln.g", b"emb.ln.?").replace(b"emb.ln.b", b"emb.ln.g")
        with pytest.raises(FormatError, match="parameter 2 is 'emb.ln.b' .* lays out 'emb.ln.g'"):
            deserialize_checkpoint(swapped.replace(b"emb.ln.?", b"emb.ln.b"))

    def test_failed_save_keeps_previous_file(self, tiny, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(tiny, path)
        before = path.read_bytes()
        with pytest.raises(struct.error):
            save_checkpoint(dataclasses.replace(tiny, step=-1), path)
        assert path.read_bytes() == before

    def test_fingerprint_tracks_content(self, tiny):
        fp1 = fingerprint(tiny)
        tiny.params["emb.word"].data[0, 0] += 1.0
        fp2 = fingerprint(tiny)
        tiny.params["emb.word"].data[0, 0] -= 1.0
        assert fp1 != fp2 and len(fp1) == 32

    def test_building_adam_packs_without_moving_bytes(self):
        ckpt = synthetic_checkpoint(dim=16, layers=2, heads=2, vocab_size=40,
                                    max_len=16, seed=6, dtype=np.float32)
        before = serialize_checkpoint(ckpt)
        data = Adam(ckpt.params)._data
        assert all(p.data.base is data for _, p in ckpt.params.items())
        assert serialize_checkpoint(ckpt) == before

    def test_float64_checkpoint_serializes_as_f32(self):
        ckpt = synthetic_checkpoint(dim=8, layers=0, heads=2, vocab_size=12,
                                    max_len=4, seed=0, dtype=np.float64)
        loaded = deserialize_checkpoint(serialize_checkpoint(ckpt))
        assert loaded.params["emb.word"].data.dtype == np.float32


def _header_fields(raw):
    """(offset, struct format) of every header field of a checkpoint and of
    every parameter's name length, name bytes, rank and dims."""
    fields = [(12 + 4 * i, "<I") for i in range(6)] + [(36, "<d"), (44, "<Q"), (76, "<I")]
    names, at = [], 80
    while at < len(raw):
        (n,) = struct.unpack_from("<I", raw, at)
        fields.append((at, "<I"))
        names += range(at + 4, at + 4 + n)
        at += 4 + n
        (rank,) = struct.unpack_from("<I", raw, at)
        fields += [(at + 4 * i, "<I") for i in range(rank + 1)]
        dims = struct.unpack_from(f"<{rank}I", raw, at + 4)
        at += 4 * (rank + 1) + 4 * int(np.prod(dims))
    return fields, names


FUZZ_RAW = serialize_checkpoint(synthetic_checkpoint(dim=8, layers=1, heads=2, vocab_size=12,
                                                     max_len=6, seed=4, dtype=np.float32))
FUZZ_FIELDS, FUZZ_NAME_BYTES = _header_fields(FUZZ_RAW)
_VALUES = {"<I": st.one_of(st.integers(0, 80), st.integers(0, 2 ** 32 - 1)),
           "<Q": st.integers(0, 2 ** 64 - 1),
           "<d": st.floats(allow_nan=True, allow_infinity=True)}


@st.composite
def _edited_checkpoint(draw):
    """A truncation, a rewritten header or structure field, or a rewritten
    name byte of a serialized checkpoint; payload bytes are left alone."""
    raw = bytearray(FUZZ_RAW)
    kind = draw(st.sampled_from(["truncate", "field", "name"]))
    if kind == "truncate":
        return bytes(raw[:draw(st.integers(0, len(raw) - 1))])
    if kind == "field":
        offset, fmt = draw(st.sampled_from(FUZZ_FIELDS))
        struct.pack_into(fmt, raw, offset, draw(_VALUES[fmt]))
    else:
        raw[draw(st.sampled_from(FUZZ_NAME_BYTES))] = draw(st.integers(0, 255))
    return bytes(raw)


@settings(max_examples=400, deadline=None)
@given(_edited_checkpoint())
def test_fuzzed_header_loads_with_its_layout_or_raises_format_error(raw):
    try:
        ckpt = deserialize_checkpoint(raw)
    except FormatError:
        return
    assert ([(n, p.shape) for n, p in ckpt.params.items()]
            == [(n, p.shape) for n, p in init_params(ckpt.config).items()])
