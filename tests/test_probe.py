"""Probe harness: P@1 accounting, buckets, report shape, norm sweep."""

import sys

import numpy as np
import pytest

from pelt.checkpoint import fingerprint
from pelt.cloze import ClozeQuery, load_cloze, save_cloze
from pelt.corpus import BUCKET_LABELS, CorpusConfig, generate_corpus, parse_corpus
from pelt.errors import ConfigError, ContractError, FingerprintError
from pelt.probe import run_probe, sweep_norm
from pelt.synth import synthetic_checkpoint
from pelt.table import build_table, table_from_directions


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
        report = run_probe(queries, bundle.vocab, ckpt,
                           restrict=True, catalog=EntityCatalog(entries))
        assert report.macro_p1 == 1.0 and report.micro_p1 == 1.0

    def test_vanilla_and_empty_table_reports_identical(self, world):
        bundle, ckpt, lookup = world
        with pytest.warns(UserWarning, match="empty"):
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
            calls.clear()
            run_probe(queries, bundle.vocab, ckpt, table=table)
            counts.append(len(calls))
        assert len(bundle.queries) > 1 and counts[0] == counts[1] > 0

    def test_render_formats(self, world):
        bundle, ckpt, _ = world
        report = run_probe(bundle.queries, bundle.vocab, ckpt)
        text = report.render_text()
        assert "macro mean" in text and "[0,10)" in text
        tsv = report.render_tsv()
        assert any(line.startswith("bucket\t") for line in tsv.splitlines())

    def test_cloze_file_round_trip(self, world, tmp_path):
        bundle, _, _ = world
        path = tmp_path / "cloze.tsv"
        save_cloze(bundle.queries, path)
        assert load_cloze(path) == bundle.queries


class TestSweep:
    def test_curve_covers_values_and_selects_argmax(self, world):
        bundle, ckpt, lookup = world
        result = sweep_norm(bundle.queries, bundle.vocab, ckpt, lookup,
                            bundle.catalog.ids(), range(1, 11))
        assert [l for l, _ in result.curve] == [float(v) for v in range(1, 11)]
        best = max(p for _, p in result.curve)
        winners = [l for l, p in result.curve if p == best]
        assert result.selected_l == min(winners)

    def test_duplicate_l_deduplicated_with_warning(self, world):
        bundle, ckpt, lookup = world
        with pytest.warns(UserWarning, match="duplicate"):
            result = sweep_norm(bundle.queries, bundle.vocab, ckpt, lookup,
                                bundle.catalog.ids(), [2.0, 2.0, 3.0])
        assert [l for l, _ in result.curve] == [2.0, 3.0]

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

    def test_sweep_deterministic(self, world):
        bundle, ckpt, lookup = world
        a = sweep_norm(bundle.queries, bundle.vocab, ckpt, lookup,
                       bundle.catalog.ids(), [1.0, 2.0])
        b = sweep_norm(bundle.queries, bundle.vocab, ckpt, lookup,
                       bundle.catalog.ids(), [1.0, 2.0])
        assert a.curve == b.curve and a.selected_l == b.selected_l

    def test_sweep_matches_direct_build(self, world):
        bundle, ckpt, lookup = world
        result = sweep_norm(bundle.queries, bundle.vocab, ckpt, lookup,
                            bundle.catalog.ids(), [4.0])
        direct, _ = build_table(bundle.catalog.ids(), lookup, ckpt, 4.0)
        report = run_probe(bundle.queries, bundle.vocab, ckpt, table=direct)
        assert report.macro_p1 == result.curve[0][1]

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
