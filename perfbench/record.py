"""Record the expected output digests that every benchmark run checks.

    python3 perfbench/record.py --workload hunt-small --seeds 0-19 1000

For each seed, runs the rounds of the workload's instance stream that a run
of ``--seconds`` (default: ``run_seconds`` of BENCHMARK.json) covers,
untimed, and stores one digest per round in
``perfbench/expected/<workload>.json``.  Run it only on the commit whose
outputs are the reference: the digests say what the program must keep
producing.  An instance whose output already fails a check stops the
recording.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def seed_list(items: list[str]) -> list[int]:
    out = []
    for item in items:
        lo, _, hi = item.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seconds", type=float,
                   default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--seeds", nargs="+", required=True,
                   help="seeds and inclusive ranges such as 0-19")
    args = p.parse_args(argv)

    path = HERE / "expected" / f"{args.workload}.json"
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    count = wl.rounds_for(args.workload, args.seconds)
    for seed in seed_list(args.seeds):
        rounds = []
        for r in range(count):
            digests = []
            for inst in wl.instances(args.workload, seed, r):
                out = wl.solve(args.workload, inst)
                issues = wl.problems(out)
                if issues:
                    print(f"seed {seed} instance {inst.index}: {issues}", file=sys.stderr)
                    return 1
                digests.append(wl.digest(out))
            rounds.append(wl.round_digest(digests))
        table[str(seed)] = " ".join(rounds)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(table.items(), key=lambda kv: int(kv[0]))), fh, indent=0)
            fh.write("\n")
        print(f"{args.workload} seed {seed}: {count} rounds recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
