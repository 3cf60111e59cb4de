"""Entity embedding construction, the direction oracle, and table io."""

import struct

import numpy as np
import numpy.testing as npt
import pytest

from pelt.checkpoint import fingerprint
from pelt.corpus import CorpusConfig, generate_corpus, index_occurrences, parse_corpus
from pelt.errors import (ConfigError, DegenerateDirectionError,
                         FingerprintError, FormatError, NoOccurrencesError)
from pelt.model import masked_outputs
from pelt.synth import synthetic_checkpoint, synthetic_occurrences
from pelt.table import (DirectionSet, EntityEmbeddingTable, build_table,
                        collect_directions, full_step_cosine,
                        gradient_direction_oracle, load_table, save_table,
                        serialize_table, sum_direction,
                        surrogate_gradient_deviation, table_from_directions,
                        verify_table)


@pytest.fixture(scope="module")
def setup():
    bundle = generate_corpus(CorpusConfig(n_entities=10, entity_slot_budget=200,
                                          lookup_per_entity=10,
                                          zero_train_entities=2, seed=21))
    ckpt = synthetic_checkpoint(dim=16, layers=1, heads=2,
                                vocab_size=len(bundle.vocab), max_len=32,
                                seed=21, dtype=np.float32)
    lookup = parse_corpus(bundle.lookup_lines, bundle.vocab)
    return bundle, ckpt, lookup


def _directions(r):
    """A one-entity DirectionSet holding the summed direction of ``r``."""
    r = np.asarray(r, dtype=np.float64)
    return DirectionSet(bytes(32), r.shape[1], {"e": (sum_direction(r), len(r))}, [])


def _empty_table(lookup, ckpt, norm_l=1.0):
    """The table build_table returns when no requested entity occurs."""
    return build_table(["ent_404"], lookup, ckpt, norm_l)[0]


class TestBuildEmbedding:
    """An entry is L times the unit direction of the summed vectors."""

    def test_hand_example(self):
        table = table_from_directions(_directions([[3.0, 0.0], [0.0, 4.0]]), 10.0)
        npt.assert_allclose(table.vector("e"), [6.0, 8.0], atol=1e-6)

    def test_single_vector_identity_at_own_norm(self):
        r = np.array([[1.0, 2.0, 2.0]])
        out = float(np.linalg.norm(r[0])) * sum_direction(r)
        npt.assert_allclose(out, r[0], atol=1e-9)

    def test_opposite_vectors_degenerate(self):
        v = np.array([1.0, -2.0, 0.5])
        with pytest.raises(DegenerateDirectionError):
            sum_direction(np.stack([v, -v]))

    def test_scaling_factor_never_matters(self):
        rng = np.random.default_rng(0)
        r = rng.normal(size=(7, 12))
        base = 4.0 * sum_direction(r)
        for c in (1e-3, 0.5, 3.0, 1e4):
            npt.assert_allclose(4.0 * sum_direction(c * r), base, atol=1e-9)

    def test_norm_invariant(self):
        rng = np.random.default_rng(1)
        for l in (1.0, 2.5, 7.0):
            out = table_from_directions(_directions(rng.normal(size=(5, 9))), l).vector("e")
            assert out.dtype == np.float32
            assert abs(np.linalg.norm(out.astype(np.float64)) - l) / l < 1e-5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        r = rng.normal(size=(64, 16))
        base = 3.0 * sum_direction(r)
        shuffled = 3.0 * sum_direction(r[rng.permutation(64)])
        npt.assert_allclose(shuffled, base, atol=1e-12)

    def test_nonpositive_norm_rejected(self):
        for l in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="finite and positive"):
                table_from_directions(_directions(np.ones((1, 3))), l)


def _one_by_one(ckpt, occurrences):
    """masked_outputs of each occurrence alone."""
    return np.vstack([masked_outputs(ckpt, [o.tokens], [o.mask_pos]) for o in occurrences])


class TestCollect:
    def test_one_pass_matches_each_entity_alone(self, setup):
        bundle, ckpt, lookup = setup
        ids = bundle.catalog.ids()
        occ_sets = index_occurrences(ids, lookup)
        together = collect_directions(ids, lookup, ckpt).directions
        assert len(together) > 2
        for eid, (direction, count) in together.items():
            alone = collect_directions([eid], lookup, ckpt).directions[eid]
            npt.assert_array_equal(direction, alone[0])
            assert count == alone[1] == len(occ_sets[eid])
            npt.assert_array_equal(direction,
                                   sum_direction(_one_by_one(ckpt, occ_sets[eid])))


class TestBuildTable:
    def test_every_stored_norm_is_l(self, setup):
        bundle, ckpt, lookup = setup
        table, skipped = build_table(bundle.catalog.ids(), lookup, ckpt, 7.0)
        assert len(table) > 0
        for entry in table.entries.values():
            norm = np.linalg.norm(entry.vector.astype(np.float64))
            assert abs(norm - 7.0) / 7.0 < 1e-5
            assert entry.count >= 1

    def test_absent_entity_in_skip_report(self, setup):
        bundle, ckpt, lookup = setup
        ids = bundle.catalog.ids() + ["ent_404"]
        table, skipped = build_table(ids, lookup, ckpt, 2.0)
        assert "ent_404" in skipped
        assert "ent_404" not in table

    def test_zero_train_entity_stored_from_lookup(self, setup):
        bundle, ckpt, lookup = setup
        zero = [e.entity_id for e in bundle.catalog if e.train_freq == 0]
        table, skipped = build_table(bundle.catalog.ids(), lookup, ckpt, 2.0)
        for eid in zero:
            assert eid in table
            assert table.entries[eid].count >= 1

    def test_deterministic_bytes(self, setup):
        bundle, ckpt, lookup = setup
        t1, _ = build_table(bundle.catalog.ids(), lookup, ckpt, 5.0)
        t2, _ = build_table(bundle.catalog.ids(), lookup, ckpt, 5.0)
        assert serialize_table(t1) == serialize_table(t2)

    def test_empty_table_warns(self, setup):
        bundle, ckpt, lookup = setup
        table, skipped = build_table(["ent_404", "ent_404"], lookup, ckpt, 2.0)
        assert len(table) == 0 and skipped == ["ent_404"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_l_rejected_before_collecting(self, setup, monkeypatch, value):
        bundle, ckpt, lookup = setup
        calls = []
        monkeypatch.setattr("pelt.table.masked_outputs", lambda *a: calls.append(a))
        with pytest.raises(ConfigError, match="finite and positive"):
            build_table(bundle.catalog.ids(), lookup, ckpt, value)
        assert calls == []

    def test_directions_reused_across_l(self, setup):
        bundle, ckpt, lookup = setup
        dirs = collect_directions(bundle.catalog.ids(), lookup, ckpt)
        t1 = table_from_directions(dirs, 1.0)
        t10 = table_from_directions(dirs, 10.0)
        for eid in t1.entries:
            a = t1.entries[eid].vector.astype(np.float64)
            b = t10.entries[eid].vector.astype(np.float64)
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert abs(cos - 1.0) < 1e-6


class TestOracle:
    def test_surrogate_deviation_tiny(self):
        ckpt = synthetic_checkpoint(dim=16, layers=1, heads=2, vocab_size=64,
                                    seed=3, dtype=np.float64)
        occ = synthetic_occurrences(64, occurrences=8, seed=3)
        report = gradient_direction_oracle("e", occ, ckpt, seed=3)
        assert report.surrogate_max_deviation < 1e-10

    def test_large_vocab_cosine_high_small_vocab_lower(self):
        ckpt = synthetic_checkpoint(dim=32, layers=1, heads=4, vocab_size=512,
                                    seed=4, dtype=np.float64)
        occ = synthetic_occurrences(512, occurrences=12, seed=4)
        big = gradient_direction_oracle("e", occ, ckpt, seed=4)
        rng = np.random.default_rng(5)
        small = gradient_direction_oracle(
            "e", occ, ckpt, partition_rows=rng.normal(0.0, 0.5, (2, 32)), seed=4)
        assert big.full_step_cosine >= 0.99
        assert small.full_step_cosine < big.full_step_cosine - 1e-3

    def test_helpers_run_on_raw_arrays(self):
        rng = np.random.default_rng(6)
        r = rng.normal(size=(6, 8))
        emb = rng.normal(size=(32, 8))
        assert surrogate_gradient_deviation(r, emb) < 1e-10
        assert -1.0 <= full_step_cosine(r, emb) <= 1.0

    def test_empty_set_rejected(self):
        ckpt = synthetic_checkpoint(dim=16, layers=0, heads=2, vocab_size=16,
                                    seed=7, dtype=np.float64)
        with pytest.raises(NoOccurrencesError):
            gradient_direction_oracle("e", (), ckpt)


class TestTableIO:
    def test_round_trip_bytes_identical(self, setup, tmp_path):
        bundle, ckpt, lookup = setup
        table, _ = build_table(bundle.catalog.ids(), lookup, ckpt, 7.0)
        p1, p2 = tmp_path / "t1.bin", tmp_path / "t2.bin"
        save_table(table, p1)
        loaded = load_table(p1, ckpt)
        save_table(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.norm_l == table.norm_l
        assert set(loaded.entries) == set(table.entries)

    def test_cross_checkpoint_refused_with_both_fingerprints(self, setup, tmp_path):
        bundle, ckpt, lookup = setup
        other = synthetic_checkpoint(dim=16, layers=1, heads=2,
                                     vocab_size=len(bundle.vocab), max_len=32,
                                     seed=99, dtype=np.float32)
        table, _ = build_table(bundle.catalog.ids(), lookup, ckpt, 3.0)
        path = tmp_path / "t.bin"
        save_table(table, path)
        with pytest.raises(FingerprintError) as err:
            load_table(path, other)
        assert fingerprint(ckpt).hex() in str(err.value)
        assert fingerprint(other).hex() in str(err.value)

    def test_empty_table_round_trip(self, setup, tmp_path):
        bundle, ckpt, lookup = setup
        table = _empty_table(lookup, ckpt, 5.0)
        path = tmp_path / "empty.bin"
        save_table(table, path)
        loaded = load_table(path, ckpt)
        assert len(loaded) == 0 and loaded.norm_l == 5.0

    def test_bad_magic_rejected(self, setup, tmp_path):
        bundle, ckpt, lookup = setup
        path = tmp_path / "bad.bin"
        raw = bytearray(serialize_table(_empty_table(lookup, ckpt)))
        raw[:8] = b"XXXXXXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_table(path, ckpt)

    def test_non_utf8_id_rejected(self, setup, tmp_path):
        bundle, ckpt, lookup = setup
        table, _ = build_table(bundle.catalog.ids()[:1], lookup, ckpt, 1.0)
        raw = bytearray(serialize_table(table))
        raw[raw.index(bundle.catalog.ids()[0].encode())] = 0xFF
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="UTF-8"):
            load_table(path, ckpt)

    def _patched(self, setup, tmp_path, patch):
        """A two-entry L=7 table file with ``patch(raw, table)`` applied."""
        bundle, ckpt, lookup = setup
        table, _ = build_table(bundle.catalog.ids()[:2], lookup, ckpt, 7.0)
        raw = bytearray(serialize_table(table))
        patch(raw, table)
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(raw))
        return path, ckpt

    def test_repeated_id_rejected(self, setup, tmp_path):
        def patch(raw, table):
            first, second = (eid.encode() for eid in table.entries)
            assert len(first) == len(second)
            at = raw.index(second)
            raw[at:at + len(second)] = first
        path, ckpt = self._patched(setup, tmp_path, patch)
        with pytest.raises(FormatError, match="appears twice"):
            load_table(path, ckpt)

    @pytest.mark.parametrize("value", [-7.0, 0.0, float("inf"), float("nan")])
    def test_bad_norm_constant_rejected(self, setup, tmp_path, value):
        def patch(raw, table):
            raw[48:52] = struct.pack("<f", value)  # magic, version, fingerprint, D
        path, ckpt = self._patched(setup, tmp_path, patch)
        with pytest.raises(FormatError, match="finite and positive"):
            load_table(path, ckpt)

    def test_vector_norm_other_than_l_rejected(self, setup, tmp_path):
        def patch(raw, table):
            # the last entry's vector, scaled to norm 7.007
            last = next(reversed(table.entries.values()))
            raw[-4 * len(last.vector):] = (1.001 * last.vector).astype("<f4").tobytes()
        path, ckpt = self._patched(setup, tmp_path, patch)
        with pytest.raises(FormatError, match="not L=7"):
            load_table(path, ckpt)

    def test_failed_save_keeps_previous_file(self, setup, tmp_path):
        bundle, ckpt, lookup = setup
        path = tmp_path / "t.bin"
        save_table(_empty_table(lookup, ckpt), path)
        before = path.read_bytes()
        bad = EntityEmbeddingTable(fingerprint(ckpt)[:31], ckpt.config.dim, 1.0, {})
        with pytest.raises(FormatError):
            save_table(bad, path)
        assert path.read_bytes() == before

    def test_dim_mismatch_rejected(self, setup):
        bundle, ckpt, _ = setup
        table = EntityEmbeddingTable(fingerprint(ckpt), ckpt.config.dim + 1, 1.0, {})
        with pytest.raises(ConfigError):
            verify_table(table, ckpt)


class TestSumDirection:
    def test_unit_norm(self):
        rng = np.random.default_rng(8)
        d = sum_direction(rng.normal(size=(9, 5)))
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12

    def test_float32_inputs_accumulate_in_float64(self):
        r = np.full((3, 4), 0.1, dtype=np.float32)
        d = sum_direction(r)
        assert d.dtype == np.float64
