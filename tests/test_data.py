"""Dataset format, splits, pair batching, synthetic generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paeff import data
from paeff.data import Dataset, EmbeddingRecord, SplitSpec
from paeff.errors import ContractError, DataError, NumericError, ParseError


def tiny_dataset():
    recs = [
        EmbeddingRecord("alice", "face", "alice_f0", np.array([1.0, 2.0]), "f", "UK", "adult"),
        EmbeddingRecord("alice", "voice", "alice_v0", np.array([0.5, -0.25, 3.0]), "f", "UK", "adult"),
        EmbeddingRecord("bob", "face", "bob_f0", np.array([-1.0, 0.125]), "m", "IT", "young"),
        EmbeddingRecord("bob", "voice", "bob_v0", np.array([0.0, 1e-17, -2.5]), "m", "IT", "young"),
    ]
    return Dataset(recs, face_dim=2, voice_dim=3)


class TestFormat:
    def test_round_trip_fields(self, tmp_path):
        path = tmp_path / "d.fve"
        data.write_dataset(path, tiny_dataset())
        loaded = data.load_dataset(path)
        assert len(loaded) == 4
        rec = loaded.by_clip("face", "alice_f0")
        assert rec.identity_id == "alice"
        assert rec.gender == "f" and rec.nationality == "UK" and rec.age_group == "adult"
        np.testing.assert_array_equal(rec.vector, [1.0, 2.0])

    def test_header_only_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.fve"
        path.write_text("#fve v1 face=4 voice=8\n")
        loaded = data.load_dataset(path)
        assert len(loaded) == 0
        assert loaded.face_dim == 4 and loaded.voice_dim == 8

    def test_write_load_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        recs = []
        for k in range(6):
            ident = f"id{k % 3}"
            recs.append(
                EmbeddingRecord(ident, "face", f"f{k}", rng.normal(size=5) * 10.0 ** rng.integers(-8, 8))
            )
            recs.append(
                EmbeddingRecord(ident, "voice", f"v{k}", rng.normal(size=4) * 10.0 ** rng.integers(-8, 8))
            )
        ds = Dataset(recs, face_dim=5, voice_dim=4)
        p1, p2 = tmp_path / "a.fve", tmp_path / "b.fve"
        data.write_dataset(p1, ds)
        data.write_dataset(p2, data.load_dataset(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "nan.fve"
        path.write_text("#fve v1 face=2 voice=2\n" "a\tface\tc0\t\t\t\t1.0\tnan\n")
        with pytest.raises(NumericError, match=":2"):
            data.load_dataset(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.fve"
        path.write_text("#fve v1 face=2 voice=2\n" "a\tface\tc0\t\t\t\t1.0\toops\n")
        with pytest.raises(ParseError, match=":2"):
            data.load_dataset(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.fve"
        path.write_text("a\tface\tc0\t\t\t\t1.0\t2.0\n")
        with pytest.raises(ParseError, match=":1"):
            data.load_dataset(path)

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "dims.fve"
        path.write_text("#fve v1 face=3 voice=2\n" "a\tface\tc0\t\t\t\t1.0\t2.0\n")
        with pytest.raises(DataError):
            data.load_dataset(path)

    def test_duplicate_clip_rejected(self):
        rec = EmbeddingRecord("a", "face", "c0", np.array([1.0]))
        with pytest.raises(DataError):
            Dataset([rec, rec], face_dim=1, voice_dim=1)

    @settings(max_examples=20, deadline=None)
    @given(values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12),
        min_size=3, max_size=3,
    ))
    def test_float_round_trip_exact(self, tmp_path_factory, values):
        ds = Dataset(
            [
                EmbeddingRecord("a", "face", "c0", np.array(values)),
                EmbeddingRecord("a", "voice", "c1", np.array(values)),
            ],
            face_dim=3,
            voice_dim=3,
        )
        path = tmp_path_factory.mktemp("fve") / "x.fve"
        data.write_dataset(path, ds)
        loaded = data.load_dataset(path)
        np.testing.assert_array_equal(loaded.records[0].vector, np.array(values))


class TestSplits:
    def test_unseen_overlap_rejected(self):
        ds = tiny_dataset()
        split = SplitSpec("unseen_unheard", frozenset({"alice"}), frozenset(), frozenset({"alice"}))
        with pytest.raises(DataError, match="overlap"):
            split.validate(ds)

    def test_unknown_identity_rejected(self):
        ds = tiny_dataset()
        split = SplitSpec("unseen_unheard", frozenset({"alice"}), frozenset(), frozenset({"zed"}))
        with pytest.raises(DataError, match="zed"):
            split.validate(ds)

    def test_unknown_clip_rejected(self):
        split = SplitSpec("seen_heard", frozenset({"alice_f0", "bob_f0"}), frozenset(), frozenset({"zed"}))
        with pytest.raises(DataError, match="unknown clips.*zed"):
            split.validate(tiny_dataset())

    def test_seen_heard_clip_disjointness(self):
        ds = tiny_dataset()
        split = SplitSpec(
            "seen_heard",
            frozenset({"alice_f0", "alice_v0", "bob_f0"}),
            frozenset(),
            frozenset({"alice_f0", "bob_v0"}),
        )
        with pytest.raises(DataError, match="overlap"):
            split.validate(ds)

    def test_split_file_round_trip(self, tmp_path):
        ids = frozenset({"a", "b", "c"})
        path = tmp_path / "s.ids"
        data.write_split_file(path, ids)
        assert data.read_split_file(path) == ids

    def test_make_unseen_split_disjoint_and_deterministic(self):
        ds = data.synth_generate(10, 2, 4, 4, 1.0, 0.0, seed=1, latent_dim=2)
        s1 = data.make_unseen_split(ds, n_val=2, n_test=3, seed=9)
        s2 = data.make_unseen_split(ds, n_val=2, n_test=3, seed=9)
        assert s1 == s2
        s1.validate(ds)
        assert len(s1.test_ids) == 3 and len(s1.val_ids) == 2 and len(s1.train_ids) == 5

    def test_make_seen_split_shares_identities(self):
        ds = data.synth_generate(4, 6, 4, 4, 1.0, 0.0, seed=2, latent_dim=2)
        split = data.make_seen_split(ds, val_frac=0.2, test_frac=0.2, seed=3)
        split.validate(ds)
        for part in ("train", "test"):
            assert set(data.group_by_identity(split.part_records(ds, part))) == set(ds.identities())

    def test_seen_heard_identities_come_from_selected_records(self):
        # Clip id c1 names a face of A and a voice of B; val selects both
        # records, and B owns no train clip.
        recs = [
            EmbeddingRecord("A", "face", "c1", np.array([1.0])),
            EmbeddingRecord("B", "voice", "c1", np.array([2.0])),
            EmbeddingRecord("A", "face", "a_f", np.array([3.0])),
            EmbeddingRecord("A", "voice", "a_v", np.array([4.0])),
            EmbeddingRecord("B", "face", "b_f", np.array([5.0])),
        ]
        ds = Dataset(recs, face_dim=1, voice_dim=1)
        split = SplitSpec("seen_heard", frozenset({"a_f", "a_v"}), frozenset({"c1"}), frozenset())
        assert {r.identity_id for r in split.part_records(ds, "val")} == {"A", "B"}
        with pytest.raises(DataError, match="must all appear in train"):
            split.validate(ds)


class TestGroupByIdentity:
    def test_keeps_identity_and_record_order(self):
        recs = [
            EmbeddingRecord("b", "voice", "b_v0", np.array([1.0])),
            EmbeddingRecord("a", "face", "a_f0", np.array([2.0])),
            EmbeddingRecord("b", "face", "b_f0", np.array([3.0])),
            EmbeddingRecord("c", "voice", "c_v0", np.array([4.0])),
            EmbeddingRecord("a", "face", "a_f1", np.array([5.0])),
            EmbeddingRecord("b", "voice", "b_v1", np.array([6.0])),
        ]
        groups = data.group_by_identity(recs)
        assert list(groups) == ["b", "a", "c"]
        clips = {i: {m: [r.clip_id for r in g[m]] for m in g} for i, g in groups.items()}
        assert clips == {
            "b": {"face": ["b_f0"], "voice": ["b_v0", "b_v1"]},
            "a": {"face": ["a_f0", "a_f1"], "voice": []},
            "c": {"face": [], "voice": ["c_v0"]},
        }
        assert groups["b"]["voice"][0] is recs[0]
        assert data.group_by_identity([]) == {}


class TestMakeBatches:
    def setup_method(self):
        self.ds = data.synth_generate(4, 3, 4, 5, 1.0, 0.1, seed=4, latent_dim=2)
        ids = self.ds.identities()
        self.split = SplitSpec("unseen_unheard", frozenset(ids), frozenset(), frozenset())

    def test_epoch_covers_all_identities(self):
        batches = data.make_batches(self.ds, self.split, batch_size=2, seed=0)
        assert len(batches) == 2
        labels = np.concatenate([b.labels for b in batches])
        assert set(labels.tolist()) == {0, 1, 2, 3}

    def test_same_seed_identical(self):
        a = data.make_batches(self.ds, self.split, batch_size=2, seed=7)
        b = data.make_batches(self.ds, self.split, batch_size=2, seed=7)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.faces.numpy(), bb.faces.numpy())
            np.testing.assert_array_equal(ba.voices.numpy(), bb.voices.numpy())
            np.testing.assert_array_equal(ba.labels, bb.labels)

    def test_label_is_index_in_sorted_train_identities(self):
        # Identities are stored out of order, so first-appearance order
        # would number them differently.
        recs = [
            EmbeddingRecord(i, m, f"{i}_{m}", np.array([float(k)]))
            for k, i in enumerate(["c", "a", "d", "b"])
            for m in ("face", "voice")
        ]
        ds = Dataset(recs, face_dim=1, voice_dim=1)
        split = SplitSpec("unseen_unheard", frozenset({"c", "a", "b"}), frozenset(), frozenset({"d"}))
        value = {"c": 0.0, "a": 1.0, "b": 3.0}
        for batch in data.make_batches(ds, split, batch_size=2, seed=1):
            for row, label in enumerate(batch.labels.tolist()):
                assert batch.faces.numpy()[row, 0] == value[["a", "b", "c"][label]]

    def test_rows_are_matched_pairs(self):
        groups = data.group_by_identity(self.ds.records)
        identities = sorted(groups)
        for batch in data.make_batches(self.ds, self.split, batch_size=2, seed=1):
            for row in range(batch.faces.shape[0]):
                pool = groups[identities[int(batch.labels[row])]]
                assert any(np.array_equal(batch.faces.numpy()[row], r.vector) for r in pool["face"])
                assert any(np.array_equal(batch.voices.numpy()[row], r.vector) for r in pool["voice"])

    def test_no_test_identity_in_train_batches(self):
        ds = data.synth_generate(8, 2, 4, 4, 1.0, 0.0, seed=5, latent_dim=2)
        split = data.make_unseen_split(ds, n_val=2, n_test=2, seed=6)
        train = sorted(data.group_by_identity(split.part_records(ds, "train")))
        assert not set(train) & (split.val_ids | split.test_ids)
        held_out = [r.vector for r in ds.records if r.identity_id not in split.train_ids]
        seen = set()
        for batch in data.make_batches(ds, split, batch_size=2, seed=2):
            assert set(batch.labels.tolist()) <= set(range(len(train)))
            seen.update(batch.labels.tolist())
            for row in batch.faces.numpy():
                assert not any(np.array_equal(row, v) for v in held_out)
        assert seen == set(range(len(train)))

    def test_batch_larger_than_pool_repeats(self):
        batches = data.make_batches(self.ds, self.split, batch_size=6, seed=3)
        assert len(batches) == 1
        assert batches[0].faces.shape[0] == 6
        assert set(batches[0].labels.tolist()) == {0, 1, 2, 3}

    def test_missing_modality_lists_identities(self):
        recs = [
            EmbeddingRecord("a", "face", "af", np.array([1.0])),
            EmbeddingRecord("a", "voice", "av", np.array([1.0])),
            EmbeddingRecord("b", "face", "bf", np.array([1.0])),
        ]
        ds = Dataset(recs, face_dim=1, voice_dim=1)
        split = SplitSpec("unseen_unheard", frozenset({"a", "b"}), frozenset(), frozenset())
        with pytest.raises(DataError, match="b"):
            data.make_batches(ds, split, batch_size=2, seed=0)

    def test_batch_size_validation(self):
        with pytest.raises(ContractError):
            data.make_batches(self.ds, self.split, batch_size=1, seed=0)


class TestSynthGenerate:
    def test_noiseless_coupled_samples_identical(self):
        ds = data.synth_generate(3, 4, 6, 5, cross_modal_coupling=1.0, noise=0.0, seed=7, latent_dim=3)
        groups = data.group_by_identity(ds.records)
        assert sorted(groups) == ds.identities()
        for pool in groups.values():
            assert len(pool["face"]) == 4
            for r in pool["face"][1:]:
                np.testing.assert_array_equal(pool["face"][0].vector, r.vector)

    def test_same_seed_identical(self, tmp_path):
        a = data.synth_generate(4, 2, 5, 6, 0.5, 0.2, seed=8, latent_dim=3)
        b = data.synth_generate(4, 2, 5, 6, 0.5, 0.2, seed=8, latent_dim=3)
        pa, pb = tmp_path / "a.fve", tmp_path / "b.fve"
        data.write_dataset(pa, a)
        data.write_dataset(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_bigger_generation_extends_smaller(self):
        small = data.synth_generate(3, 2, 4, 4, 0.0, 0.1, seed=9, latent_dim=2)
        big = data.synth_generate(5, 2, 4, 4, 0.0, 0.1, seed=9, latent_dim=2)
        for a, b in zip(small.records, big.records):
            np.testing.assert_array_equal(a.vector, b.vector)

    def test_invalid_params(self):
        with pytest.raises(ContractError):
            data.synth_generate(1, 2, 4, 4, 1.0, 0.1, seed=0)
        with pytest.raises(ContractError):
            data.synth_generate(3, 2, 4, 4, 1.5, 0.1, seed=0)
        with pytest.raises(ContractError):
            data.synth_generate(3, 2, 4, 4, 1.0, -0.1, seed=0)
        with pytest.raises(ContractError):
            data.synth_generate(3, 2, 4, 4, 1.0, 0.1, seed=0, latent_dim=99)

    def test_demographics_toggle(self):
        with_tags = data.synth_generate(3, 2, 4, 4, 1.0, 0.1, seed=10, latent_dim=2)
        assert all(r.gender is not None for r in with_tags.records)
        without = data.synth_generate(3, 2, 4, 4, 1.0, 0.1, seed=10, latent_dim=2, demographics=False)
        assert all(r.gender is None for r in without.records)

    def test_counts_and_dims(self):
        ds = data.synth_generate(4, 3, 7, 5, 1.0, 0.1, seed=11, latent_dim=4)
        assert len(ds) == 4 * 3 * 2
        assert ds.face_dim == 7 and ds.voice_dim == 5
        assert all(r.vector.size == (7 if r.modality == "face" else 5) for r in ds.records)
