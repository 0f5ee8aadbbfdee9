"""Summarise benchmark runs: median, quartiles and spread of every metric.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Reads the run summaries ``run.py`` leaves in ``perfbench/out/`` and groups
them by trace mode and workload.  For each metric it gives the median over
the runs (one run per seed), the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (Q3 - Q1) / median,
which is how the benchmark's bounds are checked.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def describe(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    args = p.parse_args(argv)

    groups: dict[tuple[str, str], list[dict]] = {}
    for path in sorted((HERE / "out").glob("*-seed*-trace*.json")):
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        mode = "traced" if run["trace"] else "untraced"
        groups.setdefault((mode, run["workload"]), []).append(run)

    summary: dict = {}
    for (mode, workload), runs in sorted(groups.items()):
        names = runs[0]["metrics"]
        entry = {name: describe([r["metrics"][name]["value"] for r in runs])
                 for name in names}
        entry["seeds"] = sorted(r["seed"] for r in runs)
        entry["instances"] = runs[0]["untraced"]["instances"]
        entry["tail_percentile"] = runs[0]["untraced"]["tail_percentile"]
        entry["failed"] = sum(r["failed"] for r in runs)
        summary.setdefault(mode, {})[workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for mode, workloads in summary.items():
        for workload, entry in workloads.items():
            for name, d in entry.items():
                if isinstance(d, dict):
                    print(f"{mode:8} {workload:14} {name:45} median {d['median']:.6g}"
                          f"  spread {d.get('spread', float('nan')):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
