"""Byte-for-byte parity of the paeff flow at a git revision and in the working tree.

    python tests/parity.py REV [--identities N] [--samples-per-id N] [--epochs N]

Checks REV out with ``git worktree add --detach`` into a temporary
directory, then runs one recipe on that tree's ``src`` and on the working
tree's: ``paeff synth`` (40 identities x 6 samples, face 24, voice 16,
latent 8, seed 3) under each split mode; on each, ``paeff train`` (3
epochs, ``--proj-dim 8``, ``--lr0 0.01``) with the ablation arms full,
baseline, egff and egff_fa, each given as its flags (``ARMS``); and for
each of those ``paeff eval --strata random,G,N,A,GNA`` with each probe
modality. The options shrink the recipe.

Every output file is compared by sha256. A manifest is compared without
its paths and, for eval, without its digest of the train manifest (whose
bytes hold paths). The script prints each file that differs and exits 0
when none does, 1 when some do, and 2 when the flow fails on either tree.
The worktree is removed in every case.

Each tree runs the whole recipe in one child process, with ``PYTHONPATH``
set to its ``src``, BLAS pinned to one thread and no ``PAEFF_`` variables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SPLIT_MODES = ("unseen_unheard", "seen_heard")
# Each ablation arm's train flags; its outputs are written under its name.
ARMS = {
    "full": [],
    "baseline": ["--no-use-hyperbolic", "--fusion", "linear", "--alpha1", 0],
    "egff": ["--no-use-hyperbolic", "--alpha1", 0],
    "egff_fa": ["--no-use-hyperbolic"],
}
PROBES = ("voice", "face")


def flow(out: Path, identities: int = 40, samples_per_id: int = 6, epochs: int = 3) -> None:
    """Run the recipe with the ``paeff`` on ``sys.path``, writing every output under ``out``."""
    from paeff import cli

    def paeff(*argv) -> None:
        argv = [str(a) for a in argv]
        if cli.main(argv) != 0:
            raise SystemExit(f"paeff {' '.join(argv)} failed")

    for mode in SPLIT_MODES:
        data = out / mode / "data"
        paeff("synth", "--out", data, "--identities", identities, "--samples-per-id", samples_per_id,
              "--face-dim", 24, "--voice-dim", 16, "--latent-dim", 8, "--seed", 3, "--split-mode", mode)
        inputs = ["--data", data / "data.fve", "--split-mode", mode,
                  *(x for part in ("train", "val", "test") for x in (f"--split-{part}", data / f"{part}.ids"))]
        for arm, flags in ARMS.items():
            run = out / mode / arm
            paeff("train", *inputs, "--out", run / "train", "--epochs", epochs, "--proj-dim", 8, "--lr0", 0.01,
                  *flags)
            for probe in PROBES:
                paeff("eval", *inputs, "--checkpoint", run / "train" / "checkpoint.paef", "--out", run / f"eval-{probe}",
                      "--strata", "random,G,N,A,GNA", "--probe-modality", probe)


def _canonical(path: Path) -> bytes:
    """The bytes compared for ``path``: a manifest's without its paths, any other file's as they are."""
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["inputs"] = {name: None if name == "train_manifest" else entry["sha256"]
                          for name, entry in manifest["inputs"].items()}
    manifest["outputs"] = sorted(manifest["outputs"])
    return json.dumps(manifest, sort_keys=True).encode()


def digests(out: Path) -> dict[str, str]:
    """The sha256 of every file under ``out``, keyed by its path relative to ``out``."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(_canonical(p)).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def differing(a: Path, b: Path) -> list[str]:
    """The relative paths whose digests differ under ``a`` and ``b``, or that exist under only one."""
    da, db = digests(a), digests(b)
    return sorted(name for name in da.keys() | db.keys() if da.get(name) != db.get(name))


def run_flow(src: Path, out: Path, identities: int, samples_per_id: int, epochs: int) -> None:
    """Run :func:`flow` in a child process on the package in ``src``; a failed flow raises RuntimeError."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PAEFF_")}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--flow", str(out), "--identities", str(identities),
            "--samples-per-id", str(samples_per_id), "--epochs", str(epochs)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"the flow on {src} failed:\n{done.stderr}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare the working tree with")
    parser.add_argument("--identities", type=int, default=40)
    parser.add_argument("--samples-per-id", type=int, default=6)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--flow", type=Path, help=argparse.SUPPRESS)  # run the recipe here, on the paeff importable
    args = parser.parse_args(argv)
    size = (args.identities, args.samples_per_id, args.epochs)
    if args.flow is not None:
        flow(args.flow, *size)
        return 0
    if args.rev is None:
        parser.error("REV is required")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        tree = work / "tree"
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet", str(tree), args.rev],
                       check=True)
        try:
            run_flow(tree / "src", work / "rev", *size)
            run_flow(REPO / "src", work / "working", *size)
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 2
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force", str(tree)], check=True)
        changed = differing(work / "rev", work / "working")
        for name in changed:
            print(f"differs: {name}")
        print(f"{len(digests(work / 'working'))} files compared; {len(changed)} differ between {args.rev} "
              "and the working tree")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
