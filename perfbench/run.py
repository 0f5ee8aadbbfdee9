"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload points-locked --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh
single-threaded process (``worker.py``), so its peak RSS and set-up time
belong to it alone.  Set-up is measured in that process and, with
``--trace 0``, in ``SETUP_SAMPLES - 1`` set-up-only processes before it;
``setup_s`` is the median.  Times are reference seconds: wall seconds
scaled by the machine speed that probes read around them (``speed.py``).
The line before the result gives the wall-clock figures as well.
The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A summary of every run is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170         # every run ends within 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class RunError(Exception):
    pass


def spawn(args, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to completion and return its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD)
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(rec: dict, setup_s: float) -> dict:
    u = rec["untraced"]
    return {"setup_s": {"value": setup_s, "unit": "s"},
            "instance_s_p50": {"value": u["p50"], "unit": "s"},
            "instance_s_tail": {"value": u["tail"], "unit": "s"},
            "instances_per_s": {"value": u["per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"}}


def per_layer(rec: dict, bench: dict) -> dict:
    return {m["name"]: {"value": rec["layers"][m["name"]], "unit": m["unit"]}
            for m in bench["per_layer"]}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "jointtri" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'jointtri'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [spawn(args, deadline, True)
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        rec = spawn(args, deadline, False)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(rec)
    setup_s = statistics.median(s["setup_s"] for s in setups)

    u, w = rec["untraced"], rec["untraced"]["wall"]
    print(f"{args.workload} seed {args.seed}: {u['instances']} instances in "
          f"{rec['rounds']} rounds, p50 {u['p50']:.4f} s, tail "
          f"p{u['tail_percentile']:.1f} of {u['instances']} samples {u['tail']:.4f} s; "
          f"wall p50 {w['p50']:.4f} s, tail {w['tail']:.4f} s, "
          f"{w['per_s']:.4g}/s, median probe {rec['probe_s_median'] * 1e3:.3f} ms; "
          f"failed_ratio {rec['failed'] / rec['attempted']:.4f} "
          f"({rec['failed']}/{rec['attempted']}), digests checked "
          f"{rec['digest_checked']}/{rec['attempted']}; setup samples "
          + " ".join(f"{s['setup_s']:.3f}" for s in setups) + " (wall "
          + " ".join(f"{s['setup_wall_s']:.3f}" for s in setups) + ")")
    for msg in rec["problems"]:
        print(f"  FAILED {msg}")
    if args.trace:
        t = rec["traced"]
        print(f"traced p50 {t['p50']:.4f} s vs untraced {u['p50']:.4f} s "
              f"on the same {t['instances']} instances")
        metrics = per_layer(rec, bench)
    else:
        metrics = end_to_end(rec, setup_s)

    (HERE / "out").mkdir(exist_ok=True)
    summary = dict(rec, workload=args.workload, seed=args.seed, trace=args.trace,
                   seconds=args.seconds, metrics=metrics,
                   setup_samples=[s["setup_s"] for s in setups],
                   setup_wall_samples=[s["setup_wall_s"] for s in setups])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(HERE / "out" / name, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
