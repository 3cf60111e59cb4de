"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The flagship pipeline
(criteria 6-8) trains one model per seed and is shared session-wide.
"""

import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from pelt.checkpoint import (deserialize_checkpoint, fingerprint, load_checkpoint,
                             save_checkpoint, serialize_checkpoint)
from pelt.corpus import (BUCKET_LABELS, CorpusConfig, generate_corpus,
                         parse_corpus)
from pelt.errors import FingerprintError
from pelt.gradcheck import grad_check
from pelt.infuse import cloze_predict_infused
from pelt.linker import (Document, build_alias_table, link_iterate,
                         load_page_graph)
from pelt.model import ModelConfig, masked_outputs, mlm_loss, train_mlm
from pelt.probe import run_probe, sweep_norm
from pelt.synth import (synthetic_checkpoint, synthetic_mlm_batch,
                        synthetic_occurrences)
from pelt.table import (DirectionSet, build_table, gradient_direction_oracle,
                        load_table, save_table, sum_direction,
                        table_from_directions)
from pelt.tensor import Tensor, layer_norm
from pelt.vocab import MASK_ID

from reference_ops import hidden_states

SEEDS = (42, 43, 44)
TRAIN_STEPS = 9000
TRAIN_LR = 3e-3
RARE, FREQ = "[0,10)", "[100,inf)"


def report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _train_flagship(seed):
    """Worker: train one seed's flagship model; its checkpoint bytes and seconds."""
    bundle = generate_corpus(CorpusConfig(seed=seed))
    train = parse_corpus(bundle.train_lines, bundle.vocab)
    config = ModelConfig(dim=64, layers=2, heads=4, max_len=64,
                         vocab_size=len(bundle.vocab), seed=seed)
    t0 = time.time()
    ckpt = train_mlm(train, config, steps=TRAIN_STEPS, lr=TRAIN_LR,
                     seed=seed, log_every=0)
    return serialize_checkpoint(ckpt), time.time() - t0


@pytest.fixture(scope="session")
def flagship():
    """Seeded end-to-end pipeline per seed: corpus, model, sweep, probes.

    The seeds train side by side, one spawned worker each at one BLAS thread
    (set before the worker loads numpy); a checkpoint's bytes do not depend
    on the thread count, and the sweep and probes run here on the bytes.
    """
    with pytest.MonkeyPatch.context() as env:
        env.setenv("OPENBLAS_NUM_THREADS", "1")
        with ProcessPoolExecutor(len(SEEDS),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            trained = dict(zip(SEEDS, pool.map(_train_flagship, SEEDS)))
    runs = {}
    for seed in SEEDS:
        bundle = generate_corpus(CorpusConfig(seed=seed))
        lookup = parse_corpus(bundle.lookup_lines, bundle.vocab)
        data, train_seconds = trained[seed]
        ckpt = deserialize_checkpoint(data)
        sweep = sweep_norm(bundle.queries, bundle.vocab, ckpt, lookup,
                           bundle.catalog.ids(), range(1, 11))
        table = table_from_directions(sweep.directions, sweep.selected_l)
        vanilla = run_probe(bundle.queries, bundle.vocab, ckpt)
        infused = run_probe(bundle.queries, bundle.vocab, ckpt, table=table)
        runs[seed] = dict(bundle=bundle, lookup=lookup, ckpt=ckpt, sweep=sweep,
                          table=table, vanilla=vanilla, infused=infused,
                          train_seconds=train_seconds)
    return runs


def test_criterion_01_gradient_correctness():
    ckpt = synthetic_checkpoint(dim=32, layers=2, heads=4, vocab_size=512,
                                seed=0, dtype=np.float64)
    tokens, targets = synthetic_mlm_batch(512, seed=0)
    t0 = time.time()
    err = grad_check(lambda: mlm_loss(ckpt.params, ckpt.config, tokens, targets),
                     ckpt.params, h=1e-5, samples=200, seed=1)
    elapsed = time.time() - t0
    report(1, err < 1e-4 and elapsed < 120,
           f"max rel err {err:.2e} (< 1e-4), runtime {elapsed:.1f}s (< 120s)")


def test_criterion_02_tied_weight_behavior():
    ckpt = synthetic_checkpoint(dim=32, layers=1, heads=4, vocab_size=64,
                                seed=2, dtype=np.float64)
    token, coord = 23, 5
    unrelated = [7, MASK_ID, 11, 40]  # token 23 absent from the input
    emb_before = hidden_states(ckpt, [token]).copy()
    r_before = masked_outputs(ckpt, [unrelated], [1])[0]
    logit_before = float(ckpt.params["emb.word"].data[token] @ r_before)
    ckpt.params["emb.word"].data[token, coord] += 0.25
    emb_after = hidden_states(ckpt, [token])
    r_after = masked_outputs(ckpt, [unrelated], [1])[0]
    logit_after = float(ckpt.params["emb.word"].data[token] @ r_after)
    input_moved = np.abs(emb_after - emb_before).max() > 0
    npt.assert_array_equal(r_before, r_after)
    logit_moved = logit_after != logit_before
    report(2, input_moved and logit_moved,
           f"one row edit moved input embedding (d={np.abs(emb_after - emb_before).max():.2e}) "
           f"and logit (d={abs(logit_after - logit_before):.2e}) via one matrix")


def test_criterion_03_layer_norm_analytics():
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 2.0, (5, 24))
    gain = Tensor(np.ones(24))
    bias = Tensor(np.zeros(24))
    out = layer_norm(Tensor(x), gain, bias, 0.0)
    norm_dev = np.abs(np.linalg.norm(out.data, axis=-1) - np.sqrt(24)).max()
    scale_dev = 0.0
    base = layer_norm(Tensor(x), gain, bias, 0.0).data
    for c in (0.1, 1.0, 7.0, 10.0):
        scaled = layer_norm(Tensor(c * x), gain, bias, 0.0).data
        scale_dev = max(scale_dev, float(np.abs(scaled - base).max()))
    report(3, norm_dev < 1e-9 and scale_dev < 1e-12,
           f"row norm dev {norm_dev:.2e} (< 1e-9), "
           f"scale invariance dev {scale_dev:.2e} over c in {{0.1,1,7,10}}")


def test_criterion_04_direction_oracle():
    ckpt = synthetic_checkpoint(dim=32, layers=1, heads=4, vocab_size=512,
                                seed=4, dtype=np.float64)
    occ = synthetic_occurrences(512, occurrences=12, seed=4)
    t0 = time.time()
    big = gradient_direction_oracle("e", occ, ckpt, seed=4)
    rng = np.random.default_rng(5)
    small = gradient_direction_oracle(
        "e", occ, ckpt, partition_rows=rng.normal(0.0, 0.5, (2, 32)), seed=4)
    elapsed = time.time() - t0
    ok = (big.surrogate_max_deviation < 1e-10
          and big.full_step_cosine >= 0.99
          and small.full_step_cosine < big.full_step_cosine - 1e-3)
    report(4, ok,
           f"surrogate dev {big.surrogate_max_deviation:.2e} (< 1e-10), "
           f"cosine {big.full_step_cosine:.6f} at |V|=512 vs "
           f"{small.full_step_cosine:.6f} at |V|=2, runtime {elapsed:.1f}s")


def test_criterion_05_embedding_construction():
    def stored(r, norm_l):
        dirset = DirectionSet(bytes(32), r.shape[1], {"e": (sum_direction(r), len(r))}, [])
        return table_from_directions(dirset, norm_l).vector("e").astype(np.float64)

    hand = stored(np.array([[3.0, 0.0], [0.0, 4.0]]), 10.0)
    hand_dev = np.abs(hand - np.array([6.0, 8.0])).max()
    rng = np.random.default_rng(6)
    r = rng.normal(size=(9, 16))
    base = 5.0 * sum_direction(r)
    c_dev = max(float(np.abs(5.0 * sum_direction(c * r) - base).max())
                for c in (1e-3, 0.7, 42.0))
    norm_dev = abs(np.linalg.norm(stored(r, 5.0)) - 5.0) / 5.0
    report(5, hand_dev < 1e-6 and c_dev < 1e-9 and norm_dev < 1e-5,
           f"hand example dev {hand_dev:.2e} (< 1e-6), C invariance dev "
           f"{c_dev:.2e}, norm dev {norm_dev:.2e} (< 1e-5 relative)")


def test_criterion_06_rare_entity_experiment(flagship):
    details = []
    ok = True
    rare_beats_freq = 0
    for seed in SEEDS:
        run = flagship[seed]
        bundle = run["bundle"]
        rare_pop = sum(1 for e in bundle.catalog if 0 <= e.train_freq < 10)
        rare_gain = run["infused"].bucket_p1(RARE) - run["vanilla"].bucket_p1(RARE)
        freq_gain = run["infused"].bucket_p1(FREQ) - run["vanilla"].bucket_p1(FREQ)
        rare_beats_freq += rare_gain >= freq_gain - 1e-9
        seed_ok = (rare_gain >= 0.10 - 1e-9 and rare_pop >= 10
                   and run["train_seconds"] <= 600)
        ok = ok and seed_ok
        details.append(f"seed {seed}: rare +{rare_gain * 100:.0f}pts "
                       f"(freq {freq_gain * 100:+.0f}pts, "
                       f"train {run['train_seconds']:.0f}s, rare n={rare_pop})")
        empty_table, _ = build_table(["absent"], run["lookup"], run["ckpt"],
                                     run["sweep"].selected_l)
        empty = run_probe(bundle.queries, bundle.vocab, run["ckpt"], table=empty_table)
        ok = ok and empty.per_relation == run["vanilla"].per_relation \
            and empty.outcomes == run["vanilla"].outcomes
    ok = ok and rare_beats_freq >= 2
    report(6, ok, "; ".join(details) +
           f"; rare gain >= frequent gain in {rare_beats_freq}/3 seeds; "
           f"empty-table == vanilla exactly")


def test_criterion_07_domain_adaptation(flagship):
    details = []
    ok = True
    for seed in SEEDS:
        run = flagship[seed]
        bundle = run["bundle"]
        zero_ids = [e.entity_id for e in bundle.catalog if e.train_freq == 0]
        v_hits = sum(hit for s, hit in run["vanilla"].outcomes if s in zero_ids)
        i_hits = sum(hit for s, hit in run["infused"].outcomes if s in zero_ids)
        chance = 2.0 / len(bundle.vocab)
        seed_ok = i_hits > 0 and (v_hits / len(zero_ids)) <= chance
        ok = ok and seed_ok
        details.append(f"seed {seed}: infused {i_hits}/{len(zero_ids)}, "
                       f"vanilla {v_hits}/{len(zero_ids)} "
                       f"(chance bound {chance:.4f})")
    report(7, ok, "; ".join(details))


def test_criterion_08_norm_sweep(flagship):
    run = flagship[SEEDS[0]]
    bundle, ckpt, sweep = run["bundle"], run["ckpt"], run["sweep"]
    curve_ok = [l for l, _ in sweep.curve] == [float(v) for v in range(1, 11)]
    frozen, _ = build_table(bundle.catalog.ids(), run["lookup"], ckpt,
                            sweep.selected_l)
    reprobe = run_probe(bundle.queries, bundle.vocab, ckpt, table=frozen)
    sweep_value = dict(sweep.curve)[sweep.selected_l]
    exact = reprobe.macro_p1 == sweep_value
    report(8, curve_ok and exact,
           f"10-point curve, selected L={sweep.selected_l:g}; frozen re-probe "
           f"mean P@1 {reprobe.macro_p1:.6f} == sweep value {sweep_value:.6f}")


def test_criterion_09_linker_toy_graph():
    import importlib.resources as res
    graph = load_page_graph(str(res.files("pelt").joinpath("data/toy_graph.txt")))
    ambiguous = {a for a, p in build_alias_table(graph.pages).items() if len(p) > 1}
    expected = {
        "d01": {"mercury": ("p01", 1), "venus": ("p04", 1),
                "jupiter": ("p09", 1), "nasa": None},
        "d02": {"mercury": ("p02", 1), "amalgam": ("p20", 1),
                "quicksilver": None},
        "d03": {"venus": ("p05", 1), "jupiter": ("p10", 1),
                "apollo": ("p15", 1), "rome": ("p08", 1), "temple": ("p18", 2)},
        "d04": {"apollo": None, "luna": None},
        "d05": {"apollo": ("p14", 1), "moon": ("p16", 1), "orbit": ("p19", 2)},
    }
    ok = len(graph.pages) == 20 and len(ambiguous) == 5
    rng = random.Random(9)
    for doc in graph.docs:
        result = link_iterate(doc, graph)
        got = {c.text: result.assigned.get(c) for c in doc.candidates}
        ok = ok and got == expected[doc.doc_id]
        ok = ok and len(result.trace) <= len(doc.candidates) + 1
        for _ in range(3):
            shuffled = list(doc.candidates)
            rng.shuffle(shuffled)
            redo = link_iterate(Document(doc.doc_id, doc.anchors,
                                         tuple(shuffled)), graph)
            ok = ok and redo.assigned == result.assigned
    report(9, ok, "hand trace matched on 20 pages / 5 ambiguous aliases; "
                  "rounds <= |E|+1; candidate-order invariant")


def test_criterion_10_serialization(flagship, tmp_path):
    run = flagship[SEEDS[0]]
    ckpt, table = run["ckpt"], run["table"]
    c1, c2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
    save_checkpoint(ckpt, c1)
    save_checkpoint(load_checkpoint(c1), c2)
    ckpt_ok = c1.read_bytes() == c2.read_bytes()
    t1, t2 = tmp_path / "t1.bin", tmp_path / "t2.bin"
    save_table(table, t1)
    save_table(load_table(t1, ckpt), t2)
    table_ok = t1.read_bytes() == t2.read_bytes()
    other = synthetic_checkpoint(dim=64, layers=2, heads=4,
                                 vocab_size=run["ckpt"].config.vocab_size,
                                 max_len=64, seed=12345, dtype=np.float32)
    try:
        load_table(t1, other)
        refused = False
    except FingerprintError:
        refused = True
    report(10, ckpt_ok and table_ok and refused,
           "checkpoint and table round-trip byte-identically; "
           "cross-fingerprint use refused")
