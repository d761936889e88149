#!/usr/bin/env python3
"""Sim-parity gate: every bench row against one golden, by one rule.

    python3 tools/sim_parity.py [build-dir] [bench ...]

Runs each named bench (default: every bench in bench/sim_golden.jsonl,
in the golden's order, which lists the slowest first) as
`<build-dir>/bench/<bench> --json`, plus `--faults` for the benches
whose golden rows include their soak. The benches run concurrently,
one process per CPU, with VPPS_FAULT_RATE and VPPS_FAULT_SEED removed
from their environment.

The rule: rows match by (bench, config), and every field of a printed
row but host_wall_ms must equal its golden row's, exactly. A golden
row that is not printed fails, and so does a printed row the golden
lacks. The first difference is named (bench, config, field and both
values) and the tool exits 1; so does a bench that exits nonzero.

Then it asserts each paper-shape claim that EXPERIMENTS.md calls
reproduced, on the rows just printed, and prints its margin. A claim
whose bench did not run is skipped; a failing claim is named and the
tool exits 1.

It always writes <build-dir>/sim_golden.jsonl: the golden with each
re-run bench's rows replaced by what it printed. A change that moves
the model on purpose copies that file over bench/sim_golden.jsonl, so
its whole effect is one reviewed diff.
"""

import concurrent.futures
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "sim_golden.jsonl"

# The soaks whose rows the golden holds.
EXTRA_FLAGS = {
    "serving_overload": ["--faults"],
    "fleet_failover": ["--faults"],
    "partition_tolerance": ["--faults"],
}

# Host wall-clock varies run to run; everything else is simulated.
HOST_FIELDS = {"host_wall_ms"}


def read_rows(path):
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def golden_benches(golden):
    """The golden's benches, in order of first appearance."""
    return list(dict.fromkeys(row["bench"] for row in golden))


def run_bench(build, bench):
    """Run one bench; return (its printed rows, an error or None)."""
    exe = build / "bench" / bench
    if not exe.exists():
        return [], f"no {exe}; build the benches"
    env = {k: v for k, v in os.environ.items()
           if k not in ("VPPS_FAULT_RATE", "VPPS_FAULT_SEED")}
    run = subprocess.run([str(exe), "--json", *EXTRA_FLAGS.get(bench, [])],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=env, check=False)
    rows = []
    for line in run.stdout.splitlines():
        if line.startswith("{"):
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                return rows, f"unparsable line: {line}"
    if run.returncode != 0:
        return rows, f"exited {run.returncode}\n{run.stderr}"
    return rows, None


def first_difference(golden, printed):
    """Name the first way @p printed ({bench: rows}) departs from the
    golden rows of its benches, or return None."""
    got = {}
    for rows in printed.values():
        for row in rows:
            key = (row["bench"], row["config"])
            if key in got:
                return f"{key[0]} [{key[1]}]: printed twice"
            got[key] = row
    for want in golden:
        if want["bench"] not in printed:
            continue
        key = (want["bench"], want["config"])
        row = got.pop(key, None)
        if row is None:
            return f"{key[0]} [{key[1]}]: golden row not printed"
        for field in [*want, *(f for f in row if f not in want)]:
            if field in HOST_FIELDS:
                continue
            if want.get(field, "absent") != row.get(field, "absent"):
                return (f"{key[0]} [{key[1]}] {field}: golden "
                        f"{want.get(field, 'absent')}, printed "
                        f"{row.get(field, 'absent')}")
    if got:
        bench, config = next(iter(got))
        return f"{bench} [{config}]: printed row not in the golden"
    return None


def rerecord(golden, printed):
    """The golden with each bench of @p printed ({bench: rows}) holding
    the rows it printed, host fields dropped, where its golden rows
    were (a new bench goes last)."""
    out = []
    placed = set()
    for row in golden:
        bench = row["bench"]
        if bench not in printed:
            out.append(row)
        elif bench not in placed:
            placed.add(bench)
            out.extend(simulated(r) for r in printed[bench])
    for bench, rows in printed.items():
        if bench not in placed:
            out.extend(simulated(r) for r in rows)
    return out


def simulated(row):
    return {k: v for k, v in row.items() if k not in HOST_FIELDS}


def write_rows(path, rows):
    path.write_text("".join(json.dumps(row, separators=(",", ":")) + "\n"
                            for row in rows))


# -- Paper-shape claims ---------------------------------------------------
#
# Each claim reads one bench's rows and returns (holds, margin text).

def config(row):
    """A row's config as a dict: "a=1,b" -> {a: "1", b: ""}."""
    return dict(kv.partition("=")[::2] for kv in row["config"].split(","))


def by_batch(rows, **match):
    """{batch: row} over the rows carrying a batch whose config has
    every key=value of @p match."""
    out = {}
    for row in rows:
        c = config(row)
        if "batch" in c and all(c.get(k) == v for k, v in match.items()):
            out[int(c["batch"])] = row
    return dict(sorted(out.items()))


def falls(values):
    """Smallest step down along @p values (negative if one rises)."""
    return min(a - b for a, b in zip(values, values[1:]))


def rises(values):
    """Smallest step up along @p values (negative if one falls)."""
    return falls(values[::-1])


def fig02_weights_largest(rows):
    leads = [r["weights_pct"] - max(r["activations_pct"],
                                    r["gradients_pct"], r["other_pct"])
             for r in rows]
    shares = [r["weights_pct"] for r in rows]
    return (min(leads) > 0,
            f"weights {min(shares):.1f}-{max(shares):.1f} % of loads, "
            f"smallest lead {min(leads):.1f} points")


SYSTEMS = ["vpps", "dynet_db", "dynet_ab", "tf_fold"]


def fig08_ordering(rows):
    leads = [r[f"{a}_inputs_per_sec"] / r[f"{b}_inputs_per_sec"] - 1
             for r in by_batch(rows).values()
             for a, b in zip(SYSTEMS, SYSTEMS[1:])]
    return min(leads) > 0, f"smallest lead {100 * min(leads):.1f} %"


def fig08_ratio_falls(rows):
    series = by_batch(rows)
    ratios = [r["vpps_over_best"] for r in series.values()]
    return (falls(ratios) > 0,
            f"{ratios[0]:.2f} at batch 1 to {ratios[-1]:.2f} at batch "
            f"{max(series)}, smallest fall {falls(ratios):.3f}")


def fig08_peak(rows):
    rates = {b: r["vpps_inputs_per_sec"] for b, r in by_batch(rows).items()}
    others = max(v for b, v in rates.items() if b != 16)
    return (rates[16] > others,
            f"batch 16 leads the next batch by "
            f"{100 * (rates[16] / others - 1):.2f} %")


def table1_exact(rows):
    products = {b * r["vpps_weight_mb"] for b, r in by_batch(rows).items()}
    return (len(products) == 1,
            f"{len(products)} distinct value(s) of MB x batch")


def table1_ratio_rises(rows):
    ratios = [r["ab_over_vpps"] for r in by_batch(rows).values()]
    return (rises(ratios) > 0,
            f"{ratios[0]:.1f} to {ratios[-1]:.1f}, smallest rise "
            f"{rises(ratios):.2f}")


def fig09_ctas(rows):
    ctas = [int(row["ctas_per_sm"]) for row in rows
            if "ctas_per_sm" in row]
    return ctas == [2, 2, 1], f"CTAs/SM {ctas}"


FIG09_HIDDEN = ["128", "256", "384"]


def fig09_mean_falls(rows):
    means = [statistics.mean(r["vpps_inputs_per_sec"] for r in
                             by_batch(rows, hidden=h).values())
             for h in FIG09_HIDDEN]
    drops = [100 * (1 - b / a) for a, b in zip(means, means[1:])]
    return (min(drops) > 0,
            "means " + ", ".join(f"{m:.1f}" for m in means) +
            f" (drops {drops[0]:.1f} %, {drops[1]:.1f} %)")


def fig09_vpps_wins(rows):
    ratios = [r["vpps_over_best"] for h in FIG09_HIDDEN
              for r in by_batch(rows, hidden=h).values()]
    return min(ratios) > 1, f"smallest VPPS/best {min(ratios):.3f}"


def fig10_gpu_bound(rows):
    lead = min(r["gpu_us_per_input"] / r["cpu_us_per_input"] - 1
               for b, r in by_batch(rows).items() if b <= 8)
    return lead > 0, f"GPU over CPU by at least {100 * lead:.1f} %"


def fig10_cpu_bound(rows):
    lead = min(r["cpu_us_per_input"] / r["gpu_us_per_input"] - 1
               for b, r in by_batch(rows).items() if b >= 16)
    return lead > 0, f"CPU over GPU by at least {100 * lead:.1f} %"


def fig12_tdrnn(rows):
    worst = max(r["vpps_over_best"]
                for r in by_batch(rows, app="TD-RNN").values())
    return worst < 1, f"largest VPPS/best {worst:.4f}"


def fig12_rvnn(rows):
    worst = max(r["vpps_over_best"]
                for b, r in by_batch(rows, app="RvNN").items() if b >= 16)
    return worst <= 1.02, f"largest VPPS/best from batch 16 {worst:.4f}"


def fig12_bilstm_peaks(rows):
    peaks = {}
    for app in ("BiLSTM", "BiLSTMwChar"):
        series = by_batch(rows, app=app)
        batch = max(series, key=lambda b: series[b]["vpps_over_best"])
        peaks[app] = (batch, series[batch]["vpps_over_best"])
    return (all(b <= 4 for b, _ in peaks.values()),
            ", ".join(f"{app} {ratio:.2f}x at batch {b}"
                      for app, (b, ratio) in peaks.items()))


def async_wins(rows):
    speedups = {b: r["speedup"] for b, r in by_batch(rows).items()}
    peak = max(speedups, key=speedups.get)
    second = max(v for b, v in speedups.items() if b != peak)
    return (min(speedups.values()) >= 1 and peak == 16,
            f"smallest speedup {min(speedups.values()):.3f}, peak "
            f"{speedups[peak]:.3f} at batch {peak} "
            f"({100 * (speedups[peak] / second - 1):.1f} % over the next)")


CLAIMS = [
    ("Fig 2: weights are the largest load category in every app",
     "fig02_dram_breakdown", fig02_weights_largest),
    ("Fig 8: VPPS > DyNet-DB > DyNet-AB > TF-Fold at every batch",
     "fig08_treelstm_throughput", fig08_ordering),
    ("Fig 8: VPPS/best falls monotonically with batch",
     "fig08_treelstm_throughput", fig08_ratio_falls),
    ("Fig 8: VPPS peaks at batch 16",
     "fig08_treelstm_throughput", fig08_peak),
    ("Table I: VPPS weight MB x batch is identical at every batch",
     "table1_weight_loads", table1_exact),
    ("Table I: DyNet-AB/VPPS rises monotonically with batch",
     "table1_weight_loads", table1_ratio_rises),
    ("Fig 9: 2, 2 and 1 CTAs/SM at hidden 128, 256 and 384",
     "fig09_hidden_sensitivity", fig09_ctas),
    ("Fig 9: mean VPPS rate falls with hidden size",
     "fig09_hidden_sensitivity", fig09_mean_falls),
    ("Fig 9: VPPS beats the best DyNet at every point",
     "fig09_hidden_sensitivity", fig09_vpps_wins),
    ("Fig 10: GPU-bound through batch 8",
     "fig10_time_breakdown", fig10_gpu_bound),
    ("Fig 10: CPU-bound from batch 16",
     "fig10_time_breakdown", fig10_cpu_bound),
    ("Fig 12: TD-RNN VPPS/best < 1 from batch 1",
     "fig12_other_apps", fig12_tdrnn),
    ("Fig 12: RvNN VPPS/best <= 1.02 from batch 16",
     "fig12_other_apps", fig12_rvnn),
    ("Fig 12: BiLSTM and BiLSTMwChar VPPS/best peak at batch <= 4",
     "fig12_other_apps", fig12_bilstm_peaks),
    ("ablation_async: async >= sync at every batch, peak at batch 16",
     "ablation_async", async_wins),
]


def check_claims(printed):
    """[(claim, holds, margin)] for every claim whose bench is in
    @p printed ({bench: rows})."""
    results = []
    for name, bench, claim in CLAIMS:
        if bench not in printed:
            continue
        try:
            holds, margin = claim(printed[bench])
        except (KeyError, ValueError) as e:
            holds = False
            margin = f"cannot evaluate on these rows ({type(e).__name__}: {e})"
        results.append((name, holds, margin))
    return results


def main(argv):
    build = pathlib.Path(argv[1] if len(argv) > 1 else "build")
    golden = read_rows(GOLDEN)
    benches = argv[2:] or golden_benches(golden)
    with concurrent.futures.ThreadPoolExecutor(os.cpu_count()) as pool:
        runs = list(pool.map(lambda b: run_bench(build, b), benches))
    printed = {b: rows for b, (rows, _) in zip(benches, runs)}

    failed = False
    for bench, (_, error) in zip(benches, runs):
        if error is not None:
            print(f"sim_parity: FAIL {bench}: {error}")
            failed = True
    diff = first_difference(golden, printed)
    if diff is not None:
        print(f"sim_parity: FAIL {diff}")
        failed = True
    elif not failed:
        counts = ", ".join(f"{b} {len(rows)}" for b, rows in printed.items())
        print(f"sim_parity: every row matches the golden ({counts})")

    for name, holds, margin in check_claims(printed):
        print(f"sim_parity: {'claim holds' if holds else 'FAIL claim'}: "
              f"{name} -- {margin}")
        failed = failed or not holds

    out = build / "sim_golden.jsonl"
    write_rows(out, rerecord(golden, printed))
    print(f"sim_parity: wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
