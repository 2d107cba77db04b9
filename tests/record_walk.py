"""Record walks: the split and trial references that tests compare row selection with.

``data.SplitSpec.part_rows`` selects a split part's block rows from the
dataset's per-row arrays, in ``PartRows`` order: identities sorted, each
identity's rows ascending. The walks below select the same part by going
over ``dataset.records`` in order, and group it by identity in that
order: identities sorted, each identity's records in record order. Trial
and split tests build their reference pools this way, so a reference and
the program share no selection code.
"""

import numpy as np

from paeff import data


def part_records(dataset, split, part):
    """The records ``part`` selects, in record order: a walk over ``dataset.records``."""
    ids = {"train": split.train_ids, "val": split.val_ids, "test": split.test_ids}[part]
    key = "identity_id" if split.mode == "unseen_unheard" else "clip_id"
    return [r for r in dataset.records if getattr(r, key) in ids]


def group_by_identity(records):
    """``{identity: {"face": [...], "voice": [...]}}``, identities sorted, records in input order."""
    groups = {}
    for r in records:
        groups.setdefault(r.identity_id, {"face": [], "voice": []})[r.modality].append(r)
    return dict(sorted(groups.items()))


def seen_split(dataset, val_frac, test_frac, seed):
    """``make_seen_split``'s three clip sets, from the identities' walked records: (train, val, test)."""
    rng = np.random.default_rng(seed)
    parts = (set(), set(), set())
    for pools in group_by_identity(dataset.records).values():
        for modality in data.MODALITIES:
            order = rng.permutation(sorted(r.clip_id for r in pools[modality])).tolist()
            n = len(order)
            n_test = max(1, int(round(n * test_frac))) if n >= 3 else 0
            n_val = max(1, int(round(n * val_frac))) if n >= 3 else 0
            parts[2].update(order[:n_test])
            parts[1].update(order[n_test : n_test + n_val])
            parts[0].update(order[n_test + n_val :])
    return parts


def shuffled_dataset(seed):
    """A dataset whose records follow no identity or modality order, with pools of uneven size.

    The records of ``synth_generate`` are dropped at random (about a third)
    and shuffled; one identity then loses its faces and another its voices.
    """
    ds = data.synth_generate(16, 6, 5, 4, 0.9, 0.2, seed=seed, latent_dim=3)
    rng = np.random.default_rng(seed)
    kept = [ds.records[k] for k in rng.permutation(len(ds)) if rng.random() > 0.3]
    ids = ds.identity_ids
    kept = [r for r in kept if (r.identity_id, r.modality) not in {(ids[1], "face"), (ids[-2], "voice")}]
    return data.Dataset(kept, ds.face_dim, ds.voice_dim)


class CountedWalks(list):
    """A record list that counts the walks over it; fetching a record by index is not a walk."""

    def __init__(self, records):
        super().__init__(records)
        self.walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()
