#!/usr/bin/env python3
"""Summarise host-clock traces written by traced perfbench runs.

    python3 perfbench/summarize.py [TRACE.json ...]

With no arguments it reads every .bench_build/perfbench/traces/*.json.
For each trace it prints the self time per layer (a span's duration
minus the part its child spans cover, summed per span-name prefix), the
span names with the most self time, and obs.trace_overhead_ratio: the
traced run's host items/s over the untraced run's.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def summarise(path):
    trace = json.loads(Path(path).read_text())
    meta = trace["otherData"]
    spans = benchlib.spans_from_trace(trace)
    self_ns = benchlib.self_times_ns(spans)
    total_ms = sum(self_ns) / 1e6
    print("%s  (workload %s, seed %s, %s s, %d spans)"
          % (path, meta["workload"], meta["seed"], meta["seconds"],
             len(spans)))
    print("  %-10s %12s %7s" % ("layer", "self ms", "share"))
    by_layer = benchlib.self_time_by_layer_ms(spans)
    for layer, ms in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("  %-10s %12.2f %6.1f%%" % (layer, ms, 100 * ms / total_ms))
    by_name = {}
    for s, t in zip(spans, self_ns):
        by_name[s[0]] = by_name.get(s[0], 0.0) + t / 1e6
    print("  top spans by self time:")
    for name, ms in sorted(by_name.items(), key=lambda kv: -kv[1])[:8]:
        print("    %-24s %12.2f ms" % (name, ms))
    print("  obs.trace_overhead_ratio %.4f (traced %.4g / untraced %.4g "
          "items/s)\n" % (meta["traced_items_per_s"]
                          / meta["untraced_items_per_s"],
                          meta["traced_items_per_s"],
                          meta["untraced_items_per_s"]))


def main():
    paths = sys.argv[1:]
    if not paths:
        out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        paths = sorted(str(p) for p in
                       (out / "perfbench" / "traces").glob("*.json"))
    if not paths:
        print("no traces; run perfbench/run.py with --trace 1 first",
              file=sys.stderr)
        return 1
    for p in paths:
        summarise(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
