"""The parity command (``tests/parity.py``) at a reduced size, with the working tree on both sides."""

import json
import shutil

import pytest

import parity

SIZE = {"identities": 14, "samples_per_id": 3, "epochs": 1}


@pytest.fixture(scope="module")
def twice(tmp_path_factory):
    """The recipe's outputs from two runs on the working tree, in two directories."""
    root = tmp_path_factory.mktemp("parity")
    for side in ("a", "b"):
        parity.run_flow(parity.REPO / "src", root / side, **SIZE)
    return root / "a", root / "b"


def test_recipe_writes_every_output(twice):
    # Per split mode: synth's 5 files, then per arm train's 3 and each probe's eval 6.
    assert len(parity.digests(twice[0])) == 2 * (5 + 4 * (3 + 2 * 6))


def test_working_tree_matches_itself_though_manifest_paths_differ(twice):
    a, b = twice
    manifest = "seen_heard/egff/eval-face/manifest.json"
    assert (a / manifest).read_bytes() != (b / manifest).read_bytes()
    assert parity.differing(a, b) == []


def test_each_kind_of_difference_is_reported(twice, tmp_path):
    a, b = twice
    changed = shutil.copytree(b, tmp_path / "changed")
    roc = changed / "unseen_unheard/full/eval-voice/roc.csv"
    roc.write_bytes(roc.read_bytes() + b"\n")
    (changed / "seen_heard/baseline/train/history.jsonl").unlink()
    manifest_path = changed / "seen_heard/data/manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["seed"] += 1
    manifest_path.write_text(json.dumps(manifest))
    assert parity.differing(a, changed) == [
        "seen_heard/baseline/train/history.jsonl",
        "seen_heard/data/manifest.json",
        "unseen_unheard/full/eval-voice/roc.csv",
    ]


def test_failed_flow_raises_with_its_stderr(tmp_path):
    with pytest.raises(RuntimeError, match="the train part needs at least 2 identities, got -9"):
        parity.run_flow(parity.REPO / "src", tmp_path / "out", identities=3, samples_per_id=3, epochs=1)
