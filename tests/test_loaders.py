"""Text loaders under corruption: a truncated, bit-flipped or key-dropped input raises only PaeffError.

The CLI maps PaeffError onto exit codes (2 for data), so any other
exception escaping a loader would end a run with a traceback instead.
"""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paeff import cli, config, data, evaluation, model
from paeff.errors import PaeffError

DATASET = data.synth_generate(identities=5, samples_per_id=2, face_dim=3, voice_dim=2,
                              rho=1.0, sigma=0.1, seed=0, latent_dim=2)
SPLIT = data.make_unseen_split(DATASET, n_val=1, n_test=2, seed=0)
EVAL_OPTIONS = {opt.key: opt for opt in cli.COMMAND_OPTIONS["eval"]}
CONFIG_TEXT = """# eval settings
eval.max_trials = 20
eval.nc_list = 2,4
eval.strata = random,G
eval.probe_modality = "face"
io.split_mode = seen_heard
"""
MANIFEST = {
    "command": "train",
    "config": {"model": asdict(model.ModelConfig(3, 2, 3, proj_dim=4)), "train": {"alpha1": 0.3}},
}

READERS = {
    "fve": data.load_dataset,
    "split": data.read_split_file,
    "trials": lambda path: evaluation.load_trial_list(path, DATASET),
    "config": lambda path: config.read_config_file(path, EVAL_OPTIONS),
    "manifest": lambda path: config.manifest_section(path, config.read_manifest(path), "model", cli.MODEL_FIELDS),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per loader: a scratch path and the bytes of a valid input, as the program writes it."""
    root = tmp_path_factory.mktemp("loaders")
    data.write_dataset(root / "fve", DATASET)
    data.write_split_file(root / "split", SPLIT.test_ids)
    trials = evaluation.build_verification_trials(DATASET, SPLIT, max_trials=6, seed=0)
    (root / "trials").write_text(
        "".join(f"{t.face.clip_id}\t{t.voice.clip_id}\t{int(t.is_match)}\n" for t in trials), encoding="utf-8"
    )
    (root / "config").write_text(CONFIG_TEXT, encoding="utf-8")
    (root / "manifest").write_text(json.dumps(MANIFEST, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {name: (root / f"{name}.corrupt", (root / name).read_bytes()) for name in READERS}


def key_paths(tree, prefix=()):
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def without_key(tree, path):
    out = dict(tree)
    if len(path) == 1:
        del out[path[0]]
    else:
        out[path[0]] = without_key(tree[path[0]], path[1:])
    return out


@st.composite
def corrupted(draw, name, blob):
    how = draw(st.sampled_from(["truncate", "flip", "drop"]))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if how == "flip":
        i = draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([blob[i] ^ (1 << draw(st.integers(0, 7)))]) + blob[i + 1 :]
    if name == "manifest":
        path = draw(st.sampled_from(list(key_paths(MANIFEST))))
        return json.dumps(without_key(MANIFEST, path)).encode()
    lines = blob.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    return b"\n".join(lines[:i] + lines[i + 1 :])


@pytest.mark.parametrize("name", list(READERS))
def test_valid_input_loads(files, name):
    path, blob = files[name]
    path.write_bytes(blob)
    READERS[name](path)


@pytest.mark.parametrize("name", list(READERS))
@settings(max_examples=150, deadline=None)
@given(draw=st.data())
def test_corrupted_input_raises_only_paeff_error(files, name, draw):
    path, blob = files[name]
    path.write_bytes(draw.draw(corrupted(name, blob)))
    try:
        READERS[name](path)
    except PaeffError:
        pass
