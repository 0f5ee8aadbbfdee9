"""One workload in one fresh, single-threaded process.

Set-up imports the program, generates the first round of instances and runs
one untimed warm-up round of small instances; ``setup_s`` runs from the
launcher's spawn time to the first timed instance.  The timed part is a
closed loop with one client: the next instance starts when the previous
verdict returns.  It runs the number of rounds that lasts ``--seconds`` on
the seed commit, and stops early, between two instances, once it has run
for ``WALL_CAP`` times ``--seconds`` on a slow host.  With ``--trace 1`` it
runs half of them, each instance once untraced and once traced, alternating
which goes first, so that drift in machine speed and warm-up affect both
sides alike.  Generating a round's instances happens between rounds and is
not timed; neither are the speed probes (``speed.py``) between instances,
which turn every reported time into reference seconds.  The last stdout
line is a JSON record for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WALL_CAP = 1.4       # the timed loop stops after this many times --seconds


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); below eleven samples, the minimum."""
    ordered = sorted(times)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


class Loop:
    """The closed loop and its per-instance records; with a tracer, the
    tracer is switched in around each instance."""

    def __init__(self, wl, workload: str, expected: list[str], clock: speed.Speed,
                 tracer=None):
        self.wl = wl
        self.workload = workload
        self.expected = expected
        self.clock = clock
        self.tracer = tracer
        self.times: list[float] = []      # wall seconds
        self.epochs: list[int] = []       # the probe after each instance
        self.failed_ids: set[int] = set()
        self.digest_checked = 0
        self.oracle_checked = 0
        self.oracle_agree = 0
        self.problems: list[str] = []
        self._digests: list[str] = []    # of the current round

    def one(self, inst) -> None:
        """Run one instance and keep its output digest ("" if it raised)."""
        if self.tracer is not None:
            self.tracer.instance = inst.index
            self.tracer.install()
        try:
            self._digests.append(self._timed(inst))
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    def _timed(self, inst) -> str:
        t0 = perf_counter()
        try:
            out = self.wl.solve(self.workload, inst)
        except Exception as exc:  # a failed instance is counted, not fatal
            t1 = perf_counter()
            issues, digest = [f"{type(exc).__name__}: {exc}"], ""
        else:
            t1 = perf_counter()
            issues, digest = self.wl.problems(out), self.wl.digest(out)
            if out.oracle_ran:
                self.oracle_checked += 1
                self.oracle_agree += (out.oracle is not None) == out.fast_yes
        self.times.append(t1 - t0)
        self.epochs.append(self.clock.epoch())
        self.clock.tick(t1 - t0)
        if issues:
            self.failed_ids.add(inst.index)
        self.problems += [f"instance {inst.index} ({inst.family} n={inst.n}): {m}"
                          for m in issues]
        return digest

    def check_round(self, r: int, batch) -> None:
        """Compare the round's digest with the committed one, if any; on a
        mismatch every instance of the round counts as failed."""
        digests, self._digests = self._digests, []
        if r >= len(self.expected):
            return
        self.digest_checked += len(batch)
        got = self.wl.round_digest(digests)
        if got != self.expected[r]:
            self.failed_ids.update(inst.index for inst in batch)
            self.problems.append(f"round {r}: output digest {got}, "
                                 f"expected {self.expected[r]}")

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def summary(self) -> dict:
        """Median, tail and throughput in reference seconds, and the same
        in wall seconds under ``wall``."""
        ref = [t * self.clock.factor_at(e) for t, e in zip(self.times, self.epochs)]
        out = _stats(ref)
        out["wall"] = _stats(self.times)
        return out


def _stats(times: list[float]) -> dict:
    value, pct = tail(times)
    return {"instances": len(times), "p50": statistics.median(times),
            "tail": value, "tail_percentile": pct, "per_s": len(times) / sum(times)}


def run_rounds(args, wl, first, count: int, loops: list[Loop]) -> int:
    """The timed loop; returns the number of whole rounds it ran."""
    stop_at = time.monotonic() + WALL_CAP * args.seconds
    for r in range(count):
        batch = first if r == 0 else wl.instances(args.workload, args.seed, r)
        for inst in batch:
            if time.monotonic() > stop_at:
                return r
            for lp in loops if inst.index % 2 == 0 else loops[::-1]:
                lp.one(inst)
        for lp in loops:
            lp.check_round(r, batch)
    return count


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the launcher just before spawning")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    first = wl.instances(args.workload, args.seed, 0)
    for inst in wl.warmup_instances(args.workload):
        wl.solve(args.workload, inst)
    setup_wall = time.monotonic() - args.spawned_at
    setup = {"setup_s": setup_wall * speed.factor(speed.probe()), "setup_wall_s": setup_wall}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    count = wl.rounds_for(args.workload, args.seconds)
    if args.trace:
        count = max(1, count // 2)
    clock = speed.Speed()
    loop = Loop(wl, args.workload, wl.expected_digests(args.workload, args.seed), clock)
    loops = [loop]
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        loops.append(Loop(wl, args.workload, loop.expected, clock, tracer))
    rounds = run_rounds(args, wl, first, count, loops)
    clock.finish()

    record = dict(setup, untraced=loop.summary(), rounds=rounds, probes=len(clock.probes),
                  probe_s_median=statistics.median(clock.probes),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if args.trace:
        traced = loops[1]
        record["traced"] = traced.summary()
        layers = tracer.layer_metrics(len(traced.times), clock.run_factor())
        layers["oracle.agree"] = traced.oracle_agree
        layers["oracle.checked"] = traced.oracle_checked
        layers["trace.instances"] = len(traced.times)
        layers["trace.overhead_s"] = record["traced"]["p50"] - record["untraced"]["p50"]
        record["layers"] = layers
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    record["attempted"] = sum(len(lp.times) for lp in loops)
    record["failed"] = sum(lp.failed for lp in loops)
    record["digest_checked"] = sum(lp.digest_checked for lp in loops)
    record["problems"] = [m for lp in loops for m in lp.problems][:20]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
