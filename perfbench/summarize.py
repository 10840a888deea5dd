"""Median, quartiles and spread of each metric over several benchmark runs.

    python3 perfbench/summarize.py [RECORD.json ...]

Reads the run records that perfbench/run.py writes (by default every
``.perfbench_runs/*-trace0.json`` in the current directory) and prints, per
workload and metric, the run count, median, quartiles and the spread: the
distance between the quartiles as a share of the median.
"""

import json
import sys
from pathlib import Path

import harness


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(Path(".perfbench_runs").glob("*-trace0.json"))
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        doc = json.loads(path.read_text())
        for name, value in doc["figures"].items():
            values.setdefault((doc["record"]["workload"], name), []).append(value)
    for (workload, name), vals in sorted(values.items()):
        q1, q2, q3 = harness.quartiles(vals)
        spread = harness.relative_spread(vals) if q2 else float("nan")
        print(f"{workload:22s} {name:30s} n={len(vals):2d} median={q2:.6g} "
              f"q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
