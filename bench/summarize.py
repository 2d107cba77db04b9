"""Medians and spreads of the runs saved under bench/out/.

    python3 bench/summarize.py [output dir]

For each workload: the number of runs, whether every run was correct, and
per end-to-end metric the median and the quartile spread (Q3 - Q1) / median,
with quartiles as ``statistics.quantiles(values, n=4)`` gives them. Traced
runs are listed with their per-layer metrics.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(out_dir: Path) -> None:
    runs, traces = defaultdict(list), defaultdict(list)
    for path in sorted(out_dir.glob("*.json")):
        result = json.loads(path.read_text())
        (traces if path.name.startswith("trace-") else runs)[result["detail"]["workload"]].append(result)
    for workload, results in runs.items():
        print(f"{workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
              f"failed/attempted: {sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:20s} median {statistics.median(values):12.4f} {unit:9s} spread {spread(values):.4f}")
        for name in ("test_eer", "test_auc"):
            values = [r["detail"][name] for r in results]
            print(f"  {name:20s} median {statistics.median(values):12.4f}           "
                  f"min {min(values):.4f} max {max(values):.4f}")
    for workload, results in traces.items():
        for r in results:
            print(f"{workload} traced, seed {r['detail']['seed']}:")
            for name, m in r["metrics"].items():
                print(f"  {name:45s} {m['value']:14.4f} {m['unit']}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent / "out")
