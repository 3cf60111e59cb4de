"""Probe harness: P@1 accounting, buckets, report shape, norm sweep."""

import sys

import numpy as np
import pytest

from pelt.checkpoint import fingerprint
from pelt.cloze import ClozeQuery, load_cloze, save_cloze
from pelt.corpus import (BUCKET_LABELS, CorpusConfig, generate_corpus, parse_corpus,
                         parse_marked_line)
from pelt.errors import ConfigError, ContractError, FingerprintError, LengthError
from pelt.model import Checkpoint, ModelConfig, masked_outputs, predict_topk, train_mlm
from pelt.probe import ProbeReport, candidate_pools, run_probe, sweep_norm
from pelt.synth import synthetic_checkpoint
from pelt.table import build_table, collect_directions, table_from_directions
from pelt.tensor import ParamStore
from pelt.vocab import MASK_ID


@pytest.fixture(scope="module")
def world():
    bundle = generate_corpus(CorpusConfig(n_entities=12, entity_slot_budget=240,
                                          lookup_per_entity=10,
                                          zero_train_entities=2, seed=41))
    ckpt = synthetic_checkpoint(dim=16, layers=1, heads=2,
                                vocab_size=len(bundle.vocab), max_len=40,
                                seed=41, dtype=np.float32)
    lookup = parse_corpus(bundle.lookup_lines, bundle.vocab)
    return bundle, ckpt, lookup


@pytest.fixture(scope="module")
def trained(world):
    """A briefly trained model in float32 and the same weights in float64."""
    bundle, _, _ = world
    config = ModelConfig(dim=16, layers=1, heads=2, max_len=40,
                         vocab_size=len(bundle.vocab), seed=41)
    ckpt = train_mlm(parse_corpus(bundle.train_lines, bundle.vocab), config, 400, 1e-2,
                     log_every=0)
    params = ParamStore()
    for name, t in ckpt.params.items():
        params.add(name, t.data.astype(np.float64))
    return {np.float32: ckpt, np.float64: Checkpoint(config, params)}


@pytest.fixture(scope="module")
def top1_queries(world, trained):
    """Per (dtype, restrict): the cloze queries, each answer replaced by the
    trained model's vanilla top-1 (within its relation's pool when restricted).
    Every query is a vanilla hit, so a sweep's curve moves wherever infusion
    flips a prediction, and a row mixed up between queries shows."""
    bundle = world[0]
    pools = candidate_pools(bundle.catalog, bundle.vocab)
    out = {}
    for dtype, ckpt in trained.items():
        for restrict in (False, True):
            out[dtype, restrict] = []
            for q in bundle.queries:
                tokens = parse_marked_line(q.query, bundle.vocab).tokens
                top = predict_topk(ckpt, tokens, tokens.index(MASK_ID), 1,
                                   pools[q.relation] if restrict else None)[0][0]
                out[dtype, restrict].append(ClozeQuery(q.query, q.subject,
                                                       bundle.vocab.tokens[top], q.relation,
                                                       q.subject_freq))
    return out


@pytest.fixture(scope="module")
def moving(world, trained, top1_queries):
    """(bundle, float32 trained model, lookup, pool-restricted top-1 queries,
    pools): the sweep's curve over L in 1..10 on these is not constant."""
    bundle, _, lookup = world
    return (bundle, trained[np.float32], lookup, top1_queries[np.float32, True],
            candidate_pools(bundle.catalog, bundle.vocab))


@pytest.fixture(scope="module")
def wide(world):
    """``moving``'s tuple for an untrained D=128 model, its initial parameters
    perturbed by N(0, 0.3^2), with each answer its vanilla pool top-1."""
    bundle, _, lookup = world
    ckpt = synthetic_checkpoint(dim=128, layers=2, heads=4, vocab_size=len(bundle.vocab),
                                max_len=40, seed=41, dtype=np.float32)
    rng = np.random.default_rng(41)
    for _, p in ckpt.params.items():
        p.data += rng.normal(0.0, 0.3, p.shape).astype(np.float32)
    pools = candidate_pools(bundle.catalog, bundle.vocab)
    queries = []
    for q in bundle.queries:
        tokens = parse_marked_line(q.query, bundle.vocab).tokens
        top = predict_topk(ckpt, tokens, tokens.index(MASK_ID), 1, pools[q.relation])[0][0]
        queries.append(ClozeQuery(q.query, q.subject, bundle.vocab.tokens[top], q.relation,
                                  q.subject_freq))
    return bundle, ckpt, lookup, queries, pools


def _moves(curve):
    return len({p1 for _, p1 in curve}) > 1


class TestRunProbe:
    def test_always_gold_stub_scores_one(self, world):
        # candidate pools collapsed to one gold answer per (unique) relation:
        # any model then ranks the gold first, so mean P@1 must be 1.0
        bundle, ckpt, _ = world
        from pelt.corpus import EntityCatalog, EntityInfo
        queries, entries = [], []
        for i, q in enumerate(bundle.queries):
            e = bundle.catalog[q.subject]
            rel = f"{q.relation}#{i}"
            queries.append(ClozeQuery(q.query, q.subject, q.answer, rel,
                                      q.subject_freq))
            entries.append(EntityInfo(e.entity_id, e.surface, e.pieces,
                                      {rel: q.answer}, e.train_freq,
                                      e.probe_relation, e.probe_template))
        pools = candidate_pools(EntityCatalog(entries), bundle.vocab)
        report = run_probe(queries, bundle.vocab, ckpt, pools=pools)
        assert report.macro_p1 == 1.0 and report.micro_p1 == 1.0

    def test_vanilla_and_empty_table_reports_identical(self, world):
        bundle, ckpt, lookup = world
        table, _ = build_table(["ent_404"], lookup, ckpt, 1.0)
        vanilla = run_probe(bundle.queries, bundle.vocab, ckpt)
        infused = run_probe(bundle.queries, bundle.vocab, ckpt, table=table)
        assert vanilla.per_relation == infused.per_relation
        assert vanilla.per_bucket == infused.per_bucket
        assert vanilla.outcomes == infused.outcomes

    def test_one_outcome_per_query_in_cloze_order(self, world):
        bundle, ckpt, _ = world
        report = run_probe(bundle.queries, bundle.vocab, ckpt)
        assert [s for s, _ in report.outcomes] == [q.subject for q in bundle.queries]
        q = bundle.queries[0]
        other = next(o.answer for o in bundle.queries if o.answer != q.answer)
        twice = [q, ClozeQuery(q.query, q.subject, other, q.relation, q.subject_freq)]
        report = run_probe(twice, bundle.vocab, ckpt)
        assert [s for s, _ in report.outcomes] == [q.subject, q.subject]
        hits = sum(hit for _, hit in report.outcomes)
        assert hits == report.per_relation[q.relation][0] and hits <= 1

    def test_macro_mean_matches_brute_recount(self, world):
        bundle, ckpt, _ = world
        report = run_probe(bundle.queries, bundle.vocab, ckpt)
        rates = [c / t for c, t in report.per_relation.values()]
        assert abs(report.macro_p1 - sum(rates) / len(rates)) < 1e-12

    def test_bucket_populations_sum_to_query_count(self, world):
        bundle, ckpt, _ = world
        report = run_probe(bundle.queries, bundle.vocab, ckpt)
        assert sum(t for _, t in report.per_bucket.values()) == len(bundle.queries)
        assert not report.rejected

    def test_bucket_assignment_follows_catalog_frequency(self, world):
        bundle, ckpt, _ = world
        report = run_probe(bundle.queries, bundle.vocab, ckpt)
        from pelt.corpus import bucket_label
        expected = {}
        for q in bundle.queries:
            label = bucket_label(bundle.catalog[q.subject].train_freq)
            c, t = expected.get(label, (0, 0))
            expected[label] = (c, t + 1)
        assert {k: t for k, (_, t) in report.per_bucket.items()} == \
               {k: t for k, (_, t) in expected.items()}

    def test_oov_answer_rejected_into_preamble(self, world):
        bundle, ckpt, _ = world
        bad = ClozeQuery(bundle.queries[0].query, bundle.queries[0].subject,
                         "notaword", "lives_in", 3)
        report = run_probe([bad] + bundle.queries[1:], bundle.vocab, ckpt)
        assert report.rejected and report.rejected[0][0] == bad.subject
        assert report.query_count() == len(bundle.queries) - 1

    def test_empty_cloze_set_rejected(self, world):
        bundle, ckpt, _ = world
        with pytest.raises(ContractError):
            run_probe([], bundle.vocab, ckpt)

    def test_foreign_fingerprint_rejected(self, world):
        bundle, ckpt, lookup = world
        table, _ = build_table(bundle.catalog.ids(), lookup, ckpt, 4.0)
        other = synthetic_checkpoint(dim=16, layers=1, heads=2,
                                     vocab_size=len(bundle.vocab), max_len=40,
                                     seed=77, dtype=np.float32)
        with pytest.raises(FingerprintError):
            run_probe(bundle.queries, bundle.vocab, other, table=table)

    def test_fingerprint_count_independent_of_query_count(self, world, monkeypatch):
        # the table check's fingerprint is the report's: one hash per run,
        # whatever the query count, with a table or without
        bundle, ckpt, lookup = world
        table, _ = build_table(bundle.catalog.ids(), lookup, ckpt, 4.0)
        calls = []

        def counted(c):
            calls.append(1)
            return fingerprint(c)

        for name, module in list(sys.modules.items()):
            if name.startswith("pelt") and vars(module).get("fingerprint") is fingerprint:
                monkeypatch.setattr(module, "fingerprint", counted)
        counts = []
        for queries in (bundle.queries[:1], bundle.queries):
            for t in (table, None):
                calls.clear()
                report = run_probe(queries, bundle.vocab, ckpt, table=t)
                counts.append(len(calls))
                assert report.model_fingerprint == fingerprint(ckpt).hex()
        assert len(bundle.queries) > 1 and counts == [1, 1, 1, 1]

    def test_render_formats(self, world):
        bundle, ckpt, _ = world
        report = run_probe(bundle.queries, bundle.vocab, ckpt)
        text = report.render_text()
        assert "macro mean" in text and "[0,10)" in text
        tsv = report.render_tsv()
        assert any(line.startswith("bucket\t") for line in tsv.splitlines())

    def test_render_exact_bytes(self):
        # relations print sorted, an empty bucket prints as 0 of 0
        report = ProbeReport("infused", "ab" * 32, 2.5,
                             {"lives_in": (1, 3), "born_in": (2, 2)},
                             {"[100,inf)": (1, 2), "[0,10)": (1, 2), "[10,50)": (1, 1)},
                             [("ent_009", "answer 'zz' not in vocabulary")])
        assert report.render_text() == (
            "mode infused  L 2.5  model abababababab\n"
            "rejected ent_009: answer 'zz' not in vocabulary\n"
            "relation         P@1     n\n"
            "born_in        1.000     2\n"
            "lives_in       0.333     3\n"
            "macro mean     0.667     5\n"
            "micro mean     0.600     5\n"
            "bucket           P@1     n\n"
            "[0,10)         0.500     2\n"
            "[10,50)        1.000     1\n"
            "[50,100)       0.000     0\n"
            "[100,inf)      0.500     2")
        assert report.render_tsv() == (
            "meta\tmode\tinfused\n"
            "meta\tnorm_l\t2.5\n"
            f"meta\tmodel\t{'ab' * 32}\n"
            "rejected\tent_009\tanswer 'zz' not in vocabulary\n"
            "relation\tborn_in\t1.000000\t2\n"
            "relation\tlives_in\t0.333333\t3\n"
            "mean\tmacro\t0.666667\t5\n"
            "mean\tmicro\t0.600000\t5\n"
            "bucket\t[0,10)\t0.500000\t2\n"
            "bucket\t[10,50)\t1.000000\t1\n"
            "bucket\t[50,100)\t0.000000\t0\n"
            "bucket\t[100,inf)\t0.500000\t2")

    def test_cloze_file_round_trip(self, world, tmp_path):
        bundle, _, _ = world
        path = tmp_path / "cloze.tsv"
        save_cloze(bundle.queries, path)
        assert load_cloze(path) == bundle.queries


class TestSweep:
    def test_curve_covers_values_and_selects_argmax(self, moving):
        bundle, ckpt, lookup, queries, pools = moving
        result = sweep_norm(queries, bundle.vocab, ckpt, lookup,
                            bundle.catalog.ids(), range(1, 11), pools=pools)
        assert [l for l, _ in result.curve] == [float(v) for v in range(1, 11)]
        assert _moves(result.curve)
        best = max(p for _, p in result.curve)
        winners = [l for l, p in result.curve if p == best]
        assert result.selected_l == min(winners)

    def test_duplicate_l_probed_once(self, world, monkeypatch):
        # the sweep encodes every (distinct L, kept query) pair in one call
        bundle, ckpt, lookup = world
        calls = []

        def counted(ckpt, seqs, positions):
            calls.append(len(seqs))
            return masked_outputs(ckpt, seqs, positions)

        monkeypatch.setattr("pelt.probe.masked_outputs", counted)
        kept = len(run_probe(bundle.queries, bundle.vocab, ckpt).outcomes)
        result = sweep_norm(bundle.queries, bundle.vocab, ckpt, lookup,
                            bundle.catalog.ids(), iter([3.0, 2.0, 3, 2.0]))
        assert [l for l, _ in result.curve] == [2.0, 3.0] and calls == [2 * kept]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("restrict", [False, True])
    def test_batched_sweep_equals_run_probe_per_l(self, world, trained, top1_queries,
                                                  dtype, restrict):
        bundle, _, lookup = world
        ckpt = trained[dtype]
        pools = candidate_pools(bundle.catalog, bundle.vocab) if restrict else None
        queries = list(top1_queries[dtype, restrict])
        q = bundle.queries[0]
        queries += [ClozeQuery(q.query, q.subject, "not-a-token", q.relation, q.subject_freq),
                    ClozeQuery(q.query + " [MASK]", q.subject, q.answer, q.relation,
                               q.subject_freq)]
        left_out = bundle.queries[1].subject  # its query stays all tokens
        ids = [eid for eid in bundle.catalog.ids() if eid != left_out]
        result = sweep_norm(queries, bundle.vocab, ckpt, lookup, ids, range(1, 11), pools=pools)
        assert left_out not in result.directions.directions
        assert min(p1 for _, p1 in result.curve) < 1.0  # infusion flips some
        for l, p1 in result.curve:
            report = run_probe(queries, bundle.vocab, ckpt,
                               table_from_directions(result.directions, l), pools)
            assert len(report.rejected) == 2 and report.macro_p1 == p1

    def test_empty_cloze_set_rejected_before_collecting(self, world, monkeypatch):
        bundle, ckpt, lookup = world

        def refuse(*args, **kwargs):
            raise AssertionError("collected directions")

        monkeypatch.setattr("pelt.probe.collect_directions", refuse)
        with pytest.raises(ContractError, match="cloze set is empty"):
            sweep_norm([], bundle.vocab, ckpt, lookup, bundle.catalog.ids(), [1.0])
        with pytest.raises(ConfigError, match="finite and positive"):
            sweep_norm([], bundle.vocab, ckpt, lookup, bundle.catalog.ids(), [0.0])

    def test_too_long_augmented_query_is_a_length_error(self, world, monkeypatch):
        # every query fits max_len bare, the longest not with its three infused slots
        bundle, ckpt, lookup = world
        dirset = collect_directions(bundle.catalog.ids(), lookup, ckpt)
        short = synthetic_checkpoint(dim=16, layers=1, heads=2, vocab_size=len(bundle.vocab),
                                     max_len=11, seed=41, dtype=np.float32)
        assert run_probe(bundle.queries, bundle.vocab, short).query_count() > 0
        monkeypatch.setattr("pelt.probe.collect_directions", lambda *a, **k: dirset)
        with pytest.raises(LengthError, match="exceeds max length 11"):
            sweep_norm(bundle.queries, bundle.vocab, short, lookup,
                       bundle.catalog.ids(), [1.0])

    def test_directions_reused_cosine_one(self, world):
        bundle, ckpt, lookup = world
        result = sweep_norm(bundle.queries, bundle.vocab, ckpt, lookup,
                            bundle.catalog.ids(), [1.0, 10.0])
        t1 = table_from_directions(result.directions, 1.0)
        t10 = table_from_directions(result.directions, 10.0)
        for eid in t1.entries:
            a = t1.entries[eid].vector.astype(np.float64)
            b = t10.entries[eid].vector.astype(np.float64)
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert abs(cos - 1.0) < 1e-6

    def test_sweep_deterministic(self, moving):
        bundle, ckpt, lookup, queries, pools = moving
        a, b = (sweep_norm(queries, bundle.vocab, ckpt, lookup, bundle.catalog.ids(),
                           [1.0, 2.0, 3.0], pools=pools) for _ in range(2))
        assert a.curve == b.curve and a.selected_l == b.selected_l
        assert _moves(a.curve)

    @pytest.mark.parametrize("setting,l_values", [("moving", [1.0, 2.0, 4.0]),
                                                  ("wide", range(1, 11))])
    def test_sweep_matches_direct_build(self, request, monkeypatch, setting, l_values):
        # each curve value is a fresh build_table's run_probe; at D=128 the
        # sweep's length groups reach the row counts whose GEMMs round apart.
        # The sweep's rows themselves equal one masked_outputs call per slot
        # sequence, bit for bit, however its chunks were spread over threads.
        bundle, ckpt, lookup, queries, pools = request.getfixturevalue(setting)
        calls = []

        def captured(ckpt, seqs, positions):
            calls.append((seqs, positions, masked_outputs(ckpt, seqs, positions)))
            return calls[-1][2]

        monkeypatch.setattr("pelt.probe.masked_outputs", captured)
        result = sweep_norm(queries, bundle.vocab, ckpt, lookup,
                            bundle.catalog.ids(), l_values, pools=pools)
        assert _moves(result.curve)
        (seqs, positions, rows), = calls
        np.testing.assert_array_equal(rows, np.vstack(
            [masked_outputs(ckpt, [s], [p]) for s, p in zip(seqs, positions)]))
        for l, p1 in result.curve:
            direct, _ = build_table(bundle.catalog.ids(), lookup, ckpt, l)
            report = run_probe(queries, bundle.vocab, ckpt, table=direct, pools=pools)
            assert report.macro_p1 == p1

    def test_empty_l_values_rejected(self, world):
        bundle, ckpt, lookup = world
        with pytest.raises(ContractError, match="no norm values"):
            sweep_norm(bundle.queries, bundle.vocab, ckpt, lookup,
                       bundle.catalog.ids(), [])

    def test_nonpositive_l_rejected(self, world):
        bundle, ckpt, lookup = world
        for l in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="finite and positive"):
                sweep_norm(bundle.queries, bundle.vocab, ckpt, lookup,
                           bundle.catalog.ids(), [3.0, l])
