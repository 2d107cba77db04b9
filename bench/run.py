"""Benchmark of the paeff face-voice head: one workload per run, in a fresh process.

    python3 bench/run.py --workload {train-b256,train-b64,cli-large} --seed N --seconds S --trace {0,1}

Run from the root of a source tree. The workload runs in a child process
(``workload.py``) whose environment holds no ``PAEFF_*`` variable, finds
``paeff`` in ``src/`` and pins BLAS to one thread. Its files go to a
temporary directory under ``bench/out/`` that is removed when the run
ends; its full output (metrics, checks, BLAS, per-round figures and, when
traced, the spans) is kept as ``bench/out/{run,trace}-<workload>-seed<N>.json``.
The last line printed is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-b256", "train-b64", "cli-large")
CHILD_TIMEOUT_S = 170

# One BLAS thread: two threads on this head's small matrices cost twice the
# CPU and run slower and noisier than one.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PAEFF_")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # SIGTERM unwinds like an interrupt: subprocess.run kills and waits for the child, then tmp is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "paeff" / "__init__.py").is_file():
        print(f"bench: no paeff source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{'trace' if args.trace else 'run'}-{args.workload}-seed{args.seed}.json"
    out_file.unlink(missing_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), args.workload, str(args.seed), str(args.seconds),
             str(args.trace), tmp, str(out_file)],
            cwd=ROOT, env=child_env(), stdout=sys.stderr, timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if child.returncode != 0:
        print(f"bench: {args.workload} exited with {child.returncode}", file=sys.stderr)
        return 1

    result = json.loads(out_file.read_text())
    detail = result["detail"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": detail["rounds"],
                      "test_eer": detail["test_eer"], "test_auc": detail["test_auc"], "blas": detail["blas"],
                      "checks": detail["checks"], "failures": detail["failures"], "output": str(out_file)}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
