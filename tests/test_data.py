"""Dataset format, splits, pair batching, synthetic generation."""

import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import record_walk as walk
from paeff import data
from paeff.data import Dataset, EmbeddingRecord, SplitSpec
from paeff.errors import ContractError, DataError, NumericError


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
        with pytest.raises(DataError, match=":2"):
            data.load_dataset(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.fve"
        path.write_text("a\tface\tc0\t\t\t\t1.0\t2.0\n")
        with pytest.raises(DataError, match=":1"):
            data.load_dataset(path)

    @pytest.mark.parametrize("header, message", [
        ("face=0 voice=2", "face dim must be at least 1, got 0"),
        ("face=2 voice=00", "voice dim must be at least 1, got 00"),
        ("face=5 face=6 voice=2", "declares the face dim twice"),
        ("face=2 voice=2 voice=2", "declares the voice dim twice"),
    ])
    def test_header_declares_each_dim_once_and_at_least_1(self, tmp_path, header, message):
        path = tmp_path / "header.fve"
        path.write_text(f"#fve v1 {header}\n" "a\tface\tc0\t\t\t\t1.0\t2.0\n")
        with pytest.raises(DataError, match=f":1: .*{message}"):
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
            assert split.part_rows(ds, part).identities == ds.identity_ids

    def test_split_makers_return_plain_str_ids(self):
        ds = data.synth_generate(10, 6, 4, 4, 1.0, 0.0, seed=1, latent_dim=2)
        for split in (data.make_unseen_split(ds, 2, 3, seed=9), data.make_seen_split(ds, 0.2, 0.2, seed=3)):
            assert {type(i) for part in (split.train_ids, split.val_ids, split.test_ids) for i in part} == {str}
            overlapping = dataclasses.replace(split, train_ids=split.train_ids | split.test_ids)
            with pytest.raises(DataError, match=r"overlap: \['"):
                overlapping.validate(ds)

    @pytest.mark.parametrize("n_val, n_test, part", [(0, 3, "val"), (2, 0, "test"), (2, -1, "test")])
    def test_make_unseen_split_rejects_an_empty_part(self, n_val, n_test, part):
        ds = data.synth_generate(10, 2, 4, 4, 1.0, 0.0, seed=1, latent_dim=2)
        with pytest.raises(ContractError, match=f"the {part} part needs at least 1 identity"):
            data.make_unseen_split(ds, n_val, n_test, seed=9)

    def test_make_seen_split_rejects_an_empty_part(self):
        # Two clips per identity and modality all go to train.
        ds = data.synth_generate(4, 2, 4, 4, 1.0, 0.0, seed=2, latent_dim=2)
        with pytest.raises(ContractError, match="the val part is empty"):
            data.make_seen_split(ds, val_frac=0.2, test_frac=0.2, seed=3)

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
        assert split.part_rows(ds, "val").identities == ["A", "B"]
        with pytest.raises(DataError, match="must all appear in train"):
            split.validate(ds)


class TestMakeBatches:
    def setup_method(self):
        self.ds = data.synth_generate(4, 3, 4, 5, 1.0, 0.1, seed=4, latent_dim=2)
        ids = self.ds.identity_ids
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
        groups = walk.group_by_identity(self.ds.records)
        identities = sorted(groups)
        for batch in data.make_batches(self.ds, self.split, batch_size=2, seed=1):
            for row in range(batch.faces.shape[0]):
                pool = groups[identities[int(batch.labels[row])]]
                assert any(np.array_equal(batch.faces.numpy()[row], r.vector) for r in pool["face"])
                assert any(np.array_equal(batch.voices.numpy()[row], r.vector) for r in pool["voice"])

    def test_no_test_identity_in_train_batches(self):
        ds = data.synth_generate(8, 2, 4, 4, 1.0, 0.0, seed=5, latent_dim=2)
        split = data.make_unseen_split(ds, n_val=2, n_test=2, seed=6)
        train = sorted(walk.group_by_identity(walk.part_records(ds, split, "train")))
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

    @staticmethod
    def scalar_loop(dataset, split, batch_size, seed):
        """The per-row builder the array draw replaced: one scalar draw per row and modality."""
        pools = walk.group_by_identity(walk.part_records(dataset, split, "train"))
        identities = sorted(pools)
        rng = np.random.default_rng(seed)
        stream = (identity for _ in itertools.count() for identity in rng.permutation(identities))
        out = []
        for _ in range(-(-len(identities) // batch_size)):
            chosen, in_batch = [], set()
            while len(chosen) < batch_size:
                identity = next(stream)
                if identity in in_batch and len(identities) >= batch_size:
                    continue
                chosen.append(identity)
                in_batch.add(identity)
            faces, voices = (
                np.stack([pools[i][m][rng.integers(len(pools[i][m]))].vector for i in chosen])
                for m in ("face", "voice")
            )
            out.append((faces, voices, [identities.index(i) for i in chosen]))
        return out

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("batch_size", [2, 3, 7, 16])
    def test_same_batches_as_scalar_loop(self, seed, batch_size):
        # Uneven pools (1 to 5 records, singletons among them) and, at 16 rows, fewer identities than the batch.
        ds = data.synth_generate(9, 5, 4, 3, 1.0, 0.1, seed=25, latent_dim=2)
        ids = ds.identity_ids
        kept = [r for k, r in enumerate(ds.records) if (k // 2) % 5 < 1 + ids.index(r.identity_id) % 5]
        ds = Dataset(kept, face_dim=4, voice_dim=3)
        split = SplitSpec("unseen_unheard", frozenset(ids), frozenset(), frozenset())
        sizes = {len(p[m]) for p in walk.group_by_identity(ds.records).values() for m in ("face", "voice")}
        assert sizes == {1, 2, 3, 4, 5}
        got = data.make_batches(ds, split, batch_size, seed)
        want = self.scalar_loop(ds, split, batch_size, seed)
        assert len(got) == len(want)
        for batch, (faces, voices, labels) in zip(got, want):
            np.testing.assert_array_equal(batch.faces.numpy(), faces)
            np.testing.assert_array_equal(batch.voices.numpy(), voices)
            assert batch.labels.tolist() == labels

    @staticmethod
    def uneven_dataset():
        """Pools of 1 to 5 records per identity and modality, singletons among them."""
        ds = data.synth_generate(9, 5, 4, 3, 1.0, 0.1, seed=25, latent_dim=2)
        ids = ds.identity_ids
        kept = [r for k, r in enumerate(ds.records) if (k // 2) % 5 < 1 + ids.index(r.identity_id) % 5]
        return Dataset(kept, face_dim=4, voice_dim=3)

    def assert_same_batches(self, ds, split, batch_size, seed):
        got = data.make_batches(ds, split, batch_size, seed)
        want = self.scalar_loop(ds, split, batch_size, seed)
        assert len(got) == len(want)
        for batch, (faces, voices, labels) in zip(got, want):
            np.testing.assert_array_equal(batch.faces.numpy(), faces)
            np.testing.assert_array_equal(batch.voices.numpy(), voices)
            assert batch.labels.tolist() == labels

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("batch_size", [2, 3, 7, 16])
    def test_same_batches_as_scalar_loop_from_interleaved_lines(self, tmp_path, seed, batch_size):
        # The file's lines interleave identities and modalities, so an identity's rows are not contiguous.
        ds = self.uneven_dataset()
        order = np.random.default_rng(seed).permutation(len(ds))
        path = tmp_path / "interleaved.fve"
        data.write_dataset(path, Dataset([ds.records[k] for k in order], face_dim=4, voice_dim=3))
        loaded = data.load_dataset(path)
        assert [r.identity_id for r in loaded.records] != sorted(r.identity_id for r in loaded.records)
        split = SplitSpec("unseen_unheard", frozenset(loaded.identity_ids), frozenset(), frozenset())
        self.assert_same_batches(loaded, split, batch_size, seed)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("batch_size", [2, 3, 7, 16])
    def test_same_batches_as_scalar_loop_on_a_seen_heard_split(self, seed, batch_size):
        ds = self.uneven_dataset()
        split = data.make_seen_split(ds, 0.2, 0.2, seed=seed)
        self.assert_same_batches(ds, split, batch_size, seed)


class TestRowLayout:
    @staticmethod
    def assert_records_view_their_rows(ds):
        for m, block in ds.blocks.items():
            recs = [r for r in ds.records if r.modality == m]
            assert block.shape == (len(recs), ds.face_dim if m == "face" else ds.voice_dim)
            for k, rec in enumerate(recs):
                assert np.shares_memory(rec.vector, block[k])
                assert rec.vector.shape == block[k].shape
            assert ds.clip_row[m] == {r.clip_id: k for k, r in enumerate(recs)}
            assert list(map(id, ds.block_records[m])) == list(map(id, recs))
            assert [ds.identity_ids[i] for i in ds.row_identity[m]] == [r.identity_id for r in recs]

    def test_synth_records_view_the_blocks(self):
        self.assert_records_view_their_rows(data.synth_generate(4, 3, 5, 6, 1.0, 0.1, seed=3, latent_dim=2))

    def test_loaded_records_view_the_blocks(self, tmp_path):
        data.write_dataset(tmp_path / "d.fve", tiny_dataset())
        self.assert_records_view_their_rows(data.load_dataset(tmp_path / "d.fve"))

    def test_records_constructor_stacks_once_onto_its_own_records(self):
        ds = tiny_dataset()
        self.assert_records_view_their_rows(ds)
        np.testing.assert_array_equal(ds.blocks["voice"], [[0.5, -0.25, 3.0], [0.0, 1e-17, -2.5]])

    def test_records_constructor_leaves_the_callers_records(self):
        a = data.synth_generate(3, 2, 4, 3, 1.0, 0.1, seed=3, latent_dim=2)
        b = Dataset(a.records[:4], face_dim=4, voice_dim=3)
        self.assert_records_view_their_rows(a)
        self.assert_records_view_their_rows(b)
        assert not any(np.shares_memory(rec.vector, block) for rec in b.records for block in a.blocks.values())

    def test_bench_sized_dataset_holds_one_copy_of_its_vectors(self):
        # 592 identities x 4 samples at the paper's face 512 / voice 192: 13.3 MB of vectors.
        tracemalloc.start()
        try:
            ds = data.synth_generate(592, 4, 512, 192, 0.8, 0.5, seed=1, latent_dim=16)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vectors = 592 * 4 * (512 + 192) * 8
        assert sum(block.nbytes for block in ds.blocks.values()) == vectors
        # A second copy would double both; the records, clip ids and identity indices take the rest.
        assert current < 1.35 * vectors
        assert peak < 1.5 * vectors


class TestSynthGenerate:
    def test_noiseless_coupled_samples_identical(self):
        ds = data.synth_generate(3, 4, 6, 5, rho=1.0, sigma=0.0, seed=7, latent_dim=3)
        groups = walk.group_by_identity(ds.records)
        assert sorted(groups) == ds.identity_ids
        for pool in groups.values():
            assert len(pool["face"]) == 4
            for r in pool["face"][1:]:
                np.testing.assert_array_equal(pool["face"][0].vector, r.vector)

    def test_generation_is_pinned(self):
        """Record fields and vector bytes of 3 seeds x 3 sample counts hash to a committed digest."""
        digest = hashlib.sha256()
        for seed, samples in itertools.product((0, 1, 2), (2, 3, 5)):
            for r in data.synth_generate(7, samples, 12, 10, 0.7, 0.3, seed=seed, latent_dim=4).records:
                digest.update(repr((r.identity_id, r.modality, r.clip_id, r.gender, r.nationality, r.age_group)).encode())
                digest.update(r.vector.tobytes())
        assert digest.hexdigest() == "3e75b081904bc645248bc442b398166ad5581069831a05413e90311e606e2728"

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

    @pytest.mark.parametrize("args, message", [
        ((1, 2, 4, 4, 1.0, 0.1, 0), "identities must be at least 2, got 1"),
        ((3, 1, 4, 4, 1.0, 0.1, 0), "samples_per_id must be at least 2, got 1"),
        ((3, 2, 0, 4, 1.0, 0.1, 0), "face_dim must be positive, got 0"),
        ((3, 2, 4, 4, 1.5, 0.1, 0), "rho must be in [0, 1], got 1.5"),
        ((3, 2, 4, 4, 1.0, -0.1, 0), "sigma must be finite and nonnegative, got -0.1"),
        ((3, 2, 4, 4, 1.0, 0.1, 0, 99), "latent_dim must be in [1, min(face_dim, voice_dim)], got 99"),
    ], ids=["identities", "samples_per_id", "face_dim", "rho", "sigma", "latent_dim"])
    def test_invalid_params(self, args, message):
        with pytest.raises(ContractError) as e:
            data.synth_generate(*args)
        assert str(e.value) == message

    def test_every_record_is_tagged(self):
        ds = data.synth_generate(3, 2, 4, 4, 1.0, 0.1, seed=10, latent_dim=2)
        assert all(r.gender is not None for r in ds.records)

    def test_counts_and_dims(self):
        ds = data.synth_generate(4, 3, 7, 5, 1.0, 0.1, seed=11, latent_dim=4)
        assert len(ds) == 4 * 3 * 2
        assert ds.face_dim == 7 and ds.voice_dim == 5
        assert all(r.vector.size == (7 if r.modality == "face" else 5) for r in ds.records)
