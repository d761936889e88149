#!/usr/bin/env python3
"""Sim-parity check of the serving benches and the fig08 sweep.

Re-runs the benches from a build directory and compares what they
print with the committed results:

  serving_overload --json --faults     BENCH_SERVING.json
  fleet_failover --json --faults       BENCH_FLEET.json
  crash_recovery --json                BENCH_CRASH.json
  partition_tolerance --json --faults  BENCH_NET.json
  fig08_treelstm_throughput --vpps-only --json --threads 1
                                       BENCH_HOST_PARALLEL.json

For BENCH_FLEET, BENCH_CRASH and BENCH_NET, every committed field but
host_wall_ms must equal the printed one; rows match by config.
BENCH_SERVING predates the current JSON line (its results are packed
into `config`), so only its sim_us compares, rows matched by position.
BENCH_HOST_PARALLEL holds functional sweeps at 1 and 8 host threads;
each threads=1 batch's sim_us must equal the timing-only sweep's, rows
matched by batch.

Usage: python3 tools/sim_parity.py [build-dir]   (default: build)

Exits 0 when every committed row matches. Otherwise exits 1 and names
the first differing bench, config and field.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (bench argv, committed file, how rows match):
#   "config"    every field but host_wall_ms, rows matched by config
#   "position"  sim_us only, rows matched by position
#   "batch"     sim_us only, the committed threads=1 rows matched by
#               batch
CHECKS = [
    (["serving_overload", "--json", "--faults"], "BENCH_SERVING.json",
     "position"),
    (["fleet_failover", "--json", "--faults"], "BENCH_FLEET.json",
     "config"),
    (["crash_recovery", "--json"], "BENCH_CRASH.json", "config"),
    (["partition_tolerance", "--json", "--faults"], "BENCH_NET.json",
     "config"),
    (["fig08_treelstm_throughput", "--vpps-only", "--json", "--threads",
      "1"], "BENCH_HOST_PARALLEL.json", "batch"),
]

# Host wall-clock varies run to run; everything else is simulated.
HOST_FIELDS = {"host_wall_ms"}


def committed_rows(path):
    """Rows of a BENCH_*.json file: a document with a `results` list,
    or one JSON object per line."""
    text = path.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "results" in doc:
        return doc["results"]
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def printed_rows(build, argv):
    exe = build / "bench" / argv[0]
    if not exe.exists():
        raise SystemExit(f"sim_parity: FAIL no {exe}; build the benches")
    run = subprocess.run([str(exe), *argv[1:]], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, check=False)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise SystemExit(f"sim_parity: FAIL {' '.join(argv)} exited "
                         f"{run.returncode}")
    return [json.loads(line) for line in run.stdout.splitlines()
            if line.startswith("{")]


def config_fields(row):
    """A row's `config` string as a dict: "a=1,b=2" -> {a: 1, b: 2}."""
    return dict(kv.split("=", 1) for kv in row["config"].split(","))


def batch_rows(committed):
    """The committed threads=1 rows of a sweep, keyed by batch."""
    rows = {}
    for row in committed:
        fields = config_fields(row)
        if fields.get("threads") == "1" and "batch" in fields:
            rows[fields["batch"]] = row
    return rows


def first_difference(bench, committed, printed, match):
    """Name the first committed value the bench no longer prints, or
    return None."""
    if match == "batch":
        by_batch = {config_fields(row).get("batch"): row
                    for row in printed}
        for batch, want in batch_rows(committed).items():
            got = by_batch.get(batch, {})
            if got.get("sim_us") != want["sim_us"]:
                return (f"{bench} batch {batch} sim_us: committed "
                        f"{want['sim_us']}, printed {got.get('sim_us')}")
        return None
    if match == "position":
        if len(printed) != len(committed):
            return (f"{bench}: {len(committed)} committed rows, "
                    f"{len(printed)} printed")
        for i, (want, got) in enumerate(zip(committed, printed)):
            if got.get("sim_us") != want["sim_us"]:
                return (f"{bench} row {i} [{want['config']}] sim_us: "
                        f"committed {want['sim_us']}, printed "
                        f"{got.get('sim_us')}")
        return None
    by_config = {row["config"]: row for row in printed}
    for want in committed:
        config = want["config"]
        got = by_config.get(config)
        if got is None:
            return f"{bench} [{config}]: row not printed"
        for field, value in want.items():
            if field in HOST_FIELDS:
                continue
            if got.get(field) != value:
                return (f"{bench} [{config}] {field}: committed {value}, "
                        f"printed {got.get(field)}")
    return None


def main():
    build = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "build")
    counts = []
    for argv, name, match in CHECKS:
        committed = committed_rows(ROOT / name)
        printed = printed_rows(build, argv)
        diff = first_difference(argv[0], committed, printed, match)
        if diff is not None:
            print(f"sim_parity: FAIL {diff}")
            return 1
        checked = batch_rows(committed) if match == "batch" else committed
        counts.append(f"{argv[0]} {len(checked)}")
    print(f"sim_parity: every committed row matches ({', '.join(counts)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
