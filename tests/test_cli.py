"""Command line: malformed checkpoints map to the data-error exit code."""

import math
import struct

import pytest

from paeff import cli


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """An eval runner over a synthetic dataset, and the checkpoint trained on it."""
    root = tmp_path_factory.mktemp("cli")
    synth = ["synth", "--out", str(root), "--identities", "10", "--samples-per-id", "3", "--face-dim", "6",
             "--voice-dim", "5", "--latent-dim", "4", "--val-identities", "2", "--test-identities", "3"]
    assert cli.main(synth) == 0
    splits = ["--split-train", str(root / "train.ids"), "--split-val", str(root / "val.ids"),
              "--split-test", str(root / "test.ids")]
    train = ["train", "--data", str(root / "data.fve"), "--out", str(root / "run"), "--epochs", "1",
             "--proj-dim", "4", "--val-trials", "10"] + splits
    assert cli.main(train) == 0

    def evaluate(checkpoint_bytes: bytes) -> int:
        path = root / "candidate.paef"
        path.write_bytes(checkpoint_bytes)
        return cli.main(["eval", "--checkpoint", str(path), "--data", str(root / "data.fve"),
                         "--out", str(root / "eval"), "--max-trials", "20", "--matching-trials", "5",
                         "--nc-list", "2"] + splits)

    return evaluate, (root / "run" / "checkpoint.paef").read_bytes()


def without(blob: bytes, name: str) -> bytes:
    """The checkpoint blob with one parameter's record cut out."""
    offset = 8
    while offset < len(blob):
        (n,) = struct.unpack_from("<I", blob, offset)
        key = blob[offset + 4 : offset + 4 + n].decode()
        (rank,) = struct.unpack_from("<I", blob, offset + 4 + n)
        dims = struct.unpack_from(f"<{rank}I", blob, offset + 8 + n)
        end = offset + 8 + n + 4 * rank + 8 * math.prod(dims)
        if key == name:
            return blob[:offset] + blob[end:]
        offset = end
    raise KeyError(name)


def test_intact_checkpoint_evaluates(run):
    evaluate, checkpoint = run
    assert evaluate(checkpoint) == 0


@pytest.mark.parametrize("size", [6, 200])
def test_truncated_checkpoint_is_data_error(run, size):
    evaluate, checkpoint = run
    assert evaluate(checkpoint[:size]) == 2


@pytest.mark.parametrize("name", ["face_weight", "voice_weight", "cls_weight"])
def test_checkpoint_missing_weight_is_data_error(run, name):
    evaluate, checkpoint = run
    assert evaluate(without(checkpoint, name)) == 2
