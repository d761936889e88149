"""Metric derivation, output checks and trace handling for perfbench.

The C++ runner (runner/) measures and prints raw observations; this
module turns them into the end-to-end metrics (untraced runs) or the
per-layer metrics (traced runs), checks the outputs, and converts the
traced run's spans into a host-clock Chrome trace. It has no
dependencies beyond the standard library so run.py, summarize.py,
steady.py and the tests can all import it.
"""

import json
import math
import statistics
import struct

# End-to-end metrics: name -> unit. Printed by every untraced run.
END_TO_END = {
    "setup_s": "s",
    "host_items_per_s": "items/s",
    "host_instr_per_s": "instr/s",
    "peak_rss_mb": "MB",
    "sim_items_per_s": "items/s",
    "sim_latency_ms_p50": "ms",
    "sim_latency_ms_p95": "ms",
}

# Per-layer metrics: name -> unit. Printed by every traced run; a metric
# whose layer a workload does not exercise reads 0.
PER_LAYER = {
    "gpusim.device_init_ms": "ms",
    "models.init_ms": "ms",
    "vpps.jit_host_ms": "ms",
    "graph.build_ms_p50": "ms",
    "graph.nodes_per_batch": "count",
    "vpps.fb_ms_p50": "ms",
    "vpps.fb_ms_p90": "ms",
    "vpps.script_gen_ms_p50": "ms",
    "vpps.checksum_ms_p50": "ms",
    "vpps.param_snapshot_ms_p50": "ms",
    "vpps.interpret_ms_p50": "ms",
    "vpps.interpret_ns_per_instr": "ns",
    "vpps.instructions_per_batch": "count",
    "vpps.script_kb_per_batch": "KiB",
    "vpps.script_cache_hit_ratio": "ratio",
    "vpps.script_cache_hits": "count",
    "vpps.script_cache_lookups": "count",
    "tensor.gemv_gmac_per_s": "GMAC/s",
    "tensor.gemvt_gmac_per_s": "GMAC/s",
    "tensor.outer_gmac_per_s": "GMAC/s",
    "vpps.infer_ms_p50": "ms",
    "serve.run_ms": "ms",
    "serve.loop_self_ms": "ms",
    "serve.routed": "count",
    "serve.hedges": "count",
    "serve.probes": "count",
    "durable.wal_appends": "count",
    "durable.syncs": "count",
    "durable.bytes_synced": "bytes",
    "net.messages": "count",
    "net.bytes_on_wire": "bytes",
    "vpps.sim_graph_us": "us",
    "vpps.sim_sched_us": "us",
    "vpps.sim_transfer_us": "us",
    "vpps.sim_kernel_us": "us",
    "obs.trace_overhead_ratio": "ratio",
}

WORKLOADS = ("train_timing", "train_functional", "serve_fleet")

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def nearest_rank(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it. p is in (0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fnv1a64(data, h=FNV_OFFSET):
    """FNV-1a 64 over bytes, continuing from digest h."""
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def digest(*sequences):
    """FNV-1a 64 over sequences of doubles, as 16 hex digits. Each value
    is packed as a little-endian IEEE double, so equal digests mean
    bitwise-equal inputs."""
    h = FNV_OFFSET
    for seq in sequences:
        h = fnv1a64(struct.pack("<%dd" % len(seq), *seq), h)
    return "%016x" % h


def float_from_bits(bits):
    return struct.unpack("<f", struct.pack("<I", int(bits)))[0]


def span_durations_ms(spans, name):
    return [(s[2] - s[1]) / 1e6 for s in spans if s[0] == name]


def self_times_ns(spans):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover. Spans are
    [name, start_ns, end_ns, parent_index, op]."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s[1]
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], s[2])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s[2] - s[1] - covered)
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def self_time_by_layer_ms(spans):
    """Total self time per layer (the span name's prefix), ms."""
    totals = {}
    for s, t in zip(spans, self_times_ns(spans)):
        layer = layer_of(s[0])
        totals[layer] = totals.get(layer, 0.0) + t / 1e6
    return totals


def _median_per_setup_ms(spans, names):
    per_setup = {}
    for s in spans:
        if s[0] in names and s[4] >= 0:
            per_setup[s[4]] = per_setup.get(s[4], 0.0) + (s[2] - s[1]) / 1e6
    return statistics.median(per_setup.values()) if per_setup else 0.0


def _p(values, p):
    return nearest_rank(values, p) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def is_train(raw):
    return raw["workload"].startswith("train_")


def window_digest(raw):
    """Digest of everything the workload's sim window must reproduce
    exactly for a given seed."""
    if is_train(raw):
        w = int(raw["window"])
        return digest(raw["kernel_us"][:w], raw["instructions"][:w],
                      raw["loss_bits"][:w], raw["step_sim_us"][:w],
                      [raw["window_wall_us"]])
    return digest(raw["window_latency_us"], raw["window_response_ids"],
                  raw["window_response_bits"],
                  [1.0 if raw["window_reconciled"] else 0.0])


def items_processed(raw):
    return len(raw["op_ms"]) * raw["items_per_op"]


def interval_rates(raw):
    """Host items/s and instructions/s of each complete interval of the
    timed run: one pass over the corpus (training: every pass does the
    same work) or one Fleet::run() chunk (serving)."""
    n = int(raw["interval_ops"])
    items, instr = [], []
    for lo in range(0, len(raw["op_ms"]) - n + 1, n):
        seconds = sum(raw["op_ms"][lo:lo + n]) / 1e3
        items.append(n * raw["items_per_op"] / seconds)
        instr.append(sum(raw["instructions"][lo:lo + n]) / seconds)
    return items, instr


def end_to_end(raw):
    """The end-to-end metrics of a run. Host rates are medians over the
    run's intervals, so a burst of interference from outside the
    process moves them less than a total over the whole run would."""
    if is_train(raw):
        w = int(raw["window"])
        sim_items = w * raw["items_per_op"] / (raw["window_wall_us"] * 1e-6)
        lat_ms = [u / 1e3 for u in raw["step_sim_us"][:w]]
    else:
        sim_items = raw["window_completed"] / (raw["window_sim_us"] * 1e-6)
        lat_ms = [u / 1e3 for u in raw["window_latency_us"]]
    items_rate, instr_rate = interval_rates(raw)
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "host_items_per_s": statistics.median(items_rate),
        "host_instr_per_s": statistics.median(instr_rate),
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_items_per_s": sim_items,
        "sim_latency_ms_p50": nearest_rank(lat_ms, 50),
        "sim_latency_ms_p95": nearest_rank(lat_ms, 95),
    }
    return {k: (values[k], END_TO_END[k]) for k in END_TO_END}


def per_layer(raw):
    """The per-layer metrics of a traced run."""
    spans = raw["spans"]
    train = is_train(raw)
    interpret_ms = span_durations_ms(spans, "vpps.interpret")
    request_ms = span_durations_ms(spans, "serve.request")
    lookups = raw["cache_lookups"]
    v = {
        "gpusim.device_init_ms": _median_per_setup_ms(
            spans, {"gpusim.device_init"}),
        "models.init_ms": _median_per_setup_ms(
            spans, {"data.corpus", "models.init"}),
        "vpps.jit_host_ms": _median_per_setup_ms(spans, {"vpps.jit"}),
        "graph.build_ms_p50": _p(span_durations_ms(spans, "graph.build"), 50),
        "vpps.fb_ms_p50": _p(span_durations_ms(spans, "vpps.fb"), 50),
        "vpps.fb_ms_p90": _p(span_durations_ms(spans, "vpps.fb"), 90),
        "vpps.script_gen_ms_p50": _p(
            span_durations_ms(spans, "vpps.generate"), 50),
        "vpps.checksum_ms_p50": _p(
            span_durations_ms(spans, "vpps.checksum"), 50),
        "vpps.param_snapshot_ms_p50": _p(
            span_durations_ms(spans, "vpps.param_snapshot"), 50),
        "vpps.interpret_ms_p50": _p(interpret_ms, 50),
        "vpps.interpret_ns_per_instr": (
            sum(interpret_ms) * 1e6 / sum(raw["replay_instructions"])),
        "vpps.script_cache_hit_ratio": (
            raw["cache_hits"] / lookups if lookups else 0.0),
        "vpps.script_cache_hits": raw["cache_hits"],
        "vpps.script_cache_lookups": lookups,
        "tensor.gemv_gmac_per_s": raw["tensor_gemv_gmacs"],
        "tensor.gemvt_gmac_per_s": raw["tensor_gemvt_gmacs"],
        "tensor.outer_gmac_per_s": raw["tensor_outer_gmacs"],
        "vpps.infer_ms_p50": _p(span_durations_ms(spans, "vpps.infer"), 50),
        "obs.trace_overhead_ratio": (traced_items_per_s(raw)
                                     / untraced_items_per_s(raw)),
    }
    if train:
        w = int(raw["window"])
        inputs = w * raw["items_per_op"]
        v["graph.nodes_per_batch"] = _mean(raw["nodes"][:w])
        v["vpps.instructions_per_batch"] = _mean(raw["instructions"][:w])
        v["vpps.script_kb_per_batch"] = (
            _mean(raw["replay_script_bytes"][:w]) / 1024.0)
        for k in ("serve.run_ms", "serve.loop_self_ms", "serve.routed",
                  "serve.hedges", "serve.probes", "durable.wal_appends",
                  "durable.syncs", "durable.bytes_synced", "net.messages",
                  "net.bytes_on_wire"):
            v[k] = 0.0
    else:
        inputs = raw["window_batches"]
        run_ms = sum(span_durations_ms(spans, "serve.fleet_run"))
        arrivals = raw["traced_items"]
        v["graph.nodes_per_batch"] = _mean(raw["replay_nodes"])
        v["vpps.instructions_per_batch"] = _mean(raw["replay_instructions"])
        v["vpps.script_kb_per_batch"] = (
            _mean(raw["replay_script_bytes"]) / 1024.0)
        v["serve.run_ms"] = run_ms / arrivals
        # Every routed dispatch was replayed. The replay's explicit
        # checksum call is extra: inside the fleet the executor
        # checksums the script within interpretation.
        dispatch_ms = sum(request_ms) - sum(
            span_durations_ms(spans, "vpps.checksum"))
        v["serve.loop_self_ms"] = (run_ms - dispatch_ms) / arrivals
        for k in ("serve.routed", "serve.hedges", "serve.probes",
                  "durable.wal_appends", "durable.syncs",
                  "durable.bytes_synced", "net.messages",
                  "net.bytes_on_wire"):
            v[k] = raw[k.replace(".", "_")]
    v["vpps.sim_graph_us"] = raw["window_graph_us"] / inputs
    v["vpps.sim_sched_us"] = raw["window_sched_us"] / inputs
    v["vpps.sim_transfer_us"] = raw["window_transfer_us"] / inputs
    v["vpps.sim_kernel_us"] = raw["window_kernel_us"] / inputs
    return {k: (float(v[k]), PER_LAYER[k]) for k in PER_LAYER}


def check_outputs(raw, stored_digest=None):
    """Check the run's outputs. Returns (attempted, failed op indices,
    messages). An op is one training batch or one arrival."""
    failed = set()
    notes = []
    if is_train(raw):
        ops = len(raw["op_ms"])
        per_pass = int(raw["interval_ops"])
        # Per-batch kernel time is a difference of the handle's running
        # sum, so a repeated batch matches its first pass only to
        # rounding; instruction counts are exact.
        for i in range(per_pass, ops):
            j = i % per_pass
            if (not math.isclose(raw["kernel_us"][i], raw["kernel_us"][j],
                                 rel_tol=1e-9)
                    or raw["instructions"][i] != raw["instructions"][j]):
                failed.add(i)
        if failed:
            notes.append("%d repeated batches changed sim kernel time or "
                         "instructions" % len(failed))
        bad_loss = [i for i, b in enumerate(raw["loss_bits"])
                    if not math.isfinite(float_from_bits(b))]
        failed.update(bad_loss)
        if bad_loss:
            notes.append("%d non-finite losses" % len(bad_loss))
        ref = raw.get("ref_loss_bits")
        if ref is not None:
            k = len(ref)
            diff = [i for i in range(k) if raw["loss_bits"][i] != ref[i]]
            if raw["ref_param_digest"] != raw["param_digest_at_ref"]:
                diff = list(range(k))
                notes.append("parameters differ from the 1-thread reference")
            if diff:
                notes.append("%d batches differ from the 1-thread reference"
                             % len(diff))
            failed.update(diff)
        if "replay_loss_bits" in raw:
            diff = [i for i in range(ops)
                    if raw["replay_loss_bits"][i] != raw["loss_bits"][i]
                    or raw["replay_kernel_us"][i] != raw["kernel_us"][i]]
            if diff:
                notes.append("%d replayed batches differ from fb()"
                             % len(diff))
            failed.update(diff)
        window_ops = range(int(raw["window"]))
    else:
        ops = int(raw["arrivals"])
        window_ops = range(int(raw["window_arrivals"]))
        missing = ops - int(raw["completed"])
        if missing or raw["nonfinite_responses"]:
            notes.append("%d arrivals not completed, %d non-finite "
                         "responses" % (missing, raw["nonfinite_responses"]))
        failed.update(range(ops - missing - int(raw["nonfinite_responses"]),
                            ops))
        if not raw["reconciled"] or not raw["window_reconciled"]:
            notes.append("fleet counters do not reconcile")
            failed.update(range(ops))
        if "replay_loss_bits" in raw:
            # The traced run replays every routed dispatch, hedge legs
            # and re-routes included.
            fleet_bits = dict(zip(raw["window_response_ids"],
                                  raw["window_response_bits"]))
            replayed = set(raw["replay_ids"])
            diff = {int(i) for i, b in zip(raw["replay_ids"],
                                           raw["replay_loss_bits"])
                    if i in fleet_bits and b != fleet_bits[i]}
            if (len(raw["replay_ids"]) != raw["serve_routed"]
                    or not replayed >= fleet_bits.keys()):
                notes.append("replayed %d dispatches of %d routed"
                             % (len(raw["replay_ids"]), raw["serve_routed"]))
                diff = set(window_ops)
            kernel = math.fsum(raw["replay_kernel_us"])
            if not math.isclose(kernel, raw["window_kernel_us"],
                                rel_tol=1e-9):
                notes.append("replayed sim kernel time %.3f us != fleet's "
                             "%.3f us" % (kernel, raw["window_kernel_us"]))
                diff = set(window_ops)
            if diff:
                notes.append("%d replayed requests differ from the fleet"
                             % len(diff))
            failed.update(diff)
    if stored_digest is not None and stored_digest != window_digest(raw):
        notes.append("sim window digest %s differs from the recorded %s"
                     % (window_digest(raw), stored_digest))
        failed.update(window_ops)
    return ops, sorted(failed), notes


def untraced_items_per_s(raw):
    return items_processed(raw) / raw["timed_s"]


def traced_items_per_s(raw):
    return raw["traced_items"] / raw["traced_timed_s"]


def chrome_trace(raw):
    """Host-clock Chrome trace of the traced run's spans (open in
    ui.perfetto.dev). Parent links ride in args for summarize.py."""
    events = []
    for i, s in enumerate(raw["spans"]):
        events.append({
            "name": s[0], "cat": layer_of(s[0]), "ph": "X", "pid": 1,
            "tid": 1, "ts": s[1] / 1e3, "dur": (s[2] - s[1]) / 1e3,
            "args": {"id": i, "parent": s[3], "op": s[4]},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "host steady_clock",
            "workload": raw["workload"],
            "seed": raw["seed"],
            "seconds": raw["seconds"],
            "untraced_items_per_s": untraced_items_per_s(raw),
            "traced_items_per_s": traced_items_per_s(raw),
        },
    }


def spans_from_trace(trace):
    """Inverse of chrome_trace(): span lists from a trace file."""
    spans = [None] * len(trace["traceEvents"])
    for e in trace["traceEvents"]:
        a = e["args"]
        start = round(e["ts"] * 1e3)
        spans[a["id"]] = [e["name"], start, start + round(e["dur"] * 1e3),
                          a["parent"], a["op"]]
    return spans


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })
