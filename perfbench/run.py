#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload train_timing --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the library and
the runner from source into .bench_build/ (or $CARGO_TARGET_DIR);
later runs only rebuild what changed. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones, and the traced run also writes a host-clock Chrome
trace to .bench_build/perfbench/traces/<workload>.trace.json.

Exits 0 when every output check passes, 1 when one fails (the result
line is still printed), and 2 or 3 without a result when the
checkout is incomplete or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNNER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then let CMake rebuild whatever changed."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "vpps_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return out / "vpps_perfbench"


def runner_digest():
    """Digest of the runner's sources: a changed workload definition
    starts a fresh set of recorded references."""
    h = benchlib.FNV_OFFSET
    for path in sorted((HERE / "runner").iterdir()):
        h = benchlib.fnv1a64(path.read_bytes(), h)
    return "%016x" % h


def reference_digest(workload, seed, digest):
    """Record the sim-window digest for (workload, seed) on first use;
    return the recorded one."""
    path = build_dir() / "perfbench" / "refs" / (
        "%s-seed%d-%s.json" % (workload, seed, runner_digest()[:12]))
    if path.exists():
        return json.loads(path.read_text())["window_digest"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"window_digest": digest}) + "\n")
    return digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("perfbench: no library sources under %s; run from the root "
            "of a full checkout" % ROOT)
        return 2
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed:", e)
        return 3

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUNNER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: runner exceeded %d s" % RUNNER_TIMEOUT_S)
        return 4
    if proc.returncode != 0:
        log("perfbench: runner exited with code %d" % proc.returncode)
        return 4
    raw = json.loads(proc.stdout)

    recorded = reference_digest(args.workload, args.seed,
                                benchlib.window_digest(raw))
    attempted, failed, notes = benchlib.check_outputs(raw, recorded)
    metrics = benchlib.end_to_end(raw)
    if args.trace:
        metrics = benchlib.per_layer(raw)
        trace_path = (build_dir() / "perfbench" / "traces"
                      / ("%s.trace.json" % args.workload))
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(benchlib.chrome_trace(raw)))

    print("perfbench: workload=%s seed=%d seconds=%g trace=%d "
          "setups=%d process_s=%.2f" % (
              args.workload, args.seed, args.seconds, args.trace,
              len(raw["setup_s"]), raw["process_s"]))
    if benchlib.is_train(raw):
        print("  host threads: %d; script cache at timing start: %s"
              % (raw["host_threads"], raw["cache_at_start"]))
    else:
        print("  sizing probe: %.1f simulated us per request"
              % raw["req_us"])
    if args.trace:
        print("  host-clock trace: %s" % trace_path)
    print("  window digest: %s (recorded %s)"
          % (benchlib.window_digest(raw), recorded))
    for name, (value, unit) in metrics.items():
        print("  %-30s %14.6g %s" % (name, value, unit))
    print("  failed_op_ratio: %d / %d" % (len(failed), attempted))
    for note in notes:
        print("  CHECK FAILED: " + note)
    print(benchlib.result_line(not failed, attempted, len(failed), metrics))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
