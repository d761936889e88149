#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report, for every
end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seconds S]

Every workload in BENCHMARK.json runs; run i of a set uses seed i + 1,
so every set sees the same inputs. A spread under a third of the bound
reads "steady"; under the bound, "ok"; otherwise "WIDE". With --sets 2
each later set's median is also compared with the first's: worse by
more than the bound reads "DRIFT". Exits 1 if any run fails its output
check, any spread is WIDE or any median DRIFTs.

It also lists the committed BENCH_*.json files whose perf trajectory
this benchmark supersedes; those files are left as they are.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s seed %d printed nothing (exit %d)"
                           % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print("  %s seed %d: output check FAILED (%d/%d ops)"
              % (workload, seed, result["failed"], result["attempted"]))
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first, later, better):
    """Relative amount by which `later` is worse than `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    superseded = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    print("perf trajectory: this benchmark supersedes %s (left unchanged)"
          % ", ".join(superseded))

    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for _ in range(args.sets):
            results = [run_once(workload, i + 1, args.seconds)
                       for i in range(args.runs)]
            bad |= any(not r["correct"] for r in results)
            sets.append(results)
        print("\n%s: %d run(s) x %d set(s), %g s each"
              % (workload, args.runs, args.sets, args.seconds))
        print("  %-20s %14s %14s %14s %8s %6s  %s"
              % ("metric", "median", "q1", "q3", "spread", "bound",
                 "verdict"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                if len(values) < 2:
                    print("  %-20s %14.6g %s" % (name, values[0], m["unit"]))
                    medians.append(values[0])
                    continue
                q1, med, q3 = quartiles(values)
                medians.append(med)
                spread = (q3 - q1) / med
                if spread < bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "ok"
                else:
                    verdict = "WIDE"
                    bad = True
                print("  %-20s %14.6g %14.6g %14.6g %8.4f %6.3f  %s %s"
                      % (name, med, q1, q3, spread, bound, verdict,
                         m["unit"]))
            for i, med in enumerate(medians[1:], start=2):
                drift = worse_by(medians[0], med, m["better"])
                verdict = "DRIFT" if drift > bound else "ok"
                bad |= drift > bound
                print("  %-20s set %d median worse by %+.4f (bound %.3f) %s"
                      % (name, i, drift, bound, verdict))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
