"""Tests for perfbench's own logic (no build needed):

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import struct
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import benchlib  # noqa: E402

ROOT = HERE.parent.parent


def bits(x):
    return float(struct.unpack("<I", struct.pack("<f", x))[0])


class NearestRankTest(unittest.TestCase):
    def test_textbook_values(self):
        values = [15, 20, 35, 40, 50]
        self.assertEqual(benchlib.nearest_rank(values, 5), 15)
        self.assertEqual(benchlib.nearest_rank(values, 30), 20)
        self.assertEqual(benchlib.nearest_rank(values, 40), 20)
        self.assertEqual(benchlib.nearest_rank(values, 50), 35)
        self.assertEqual(benchlib.nearest_rank(values, 100), 50)

    def test_returns_a_sample_and_ignores_order(self):
        values = [9.5, 1.25, 7.0, 3.0]
        self.assertEqual(benchlib.nearest_rank(values, 50), 3.0)
        self.assertEqual(benchlib.nearest_rank(values, 95), 9.5)

    def test_p95_of_200_leaves_ten_above(self):
        values = list(range(1, 201))
        p95 = benchlib.nearest_rank(values, 95)
        self.assertEqual(p95, 190)
        self.assertEqual(sum(v > p95 for v in values), 10)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([1], 0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # batch [0,100) > fb [10,90) > {generate [10,40), run [50,85)}
        spans = [
            ["train.batch", 0, 100, -1, 0],
            ["vpps.fb", 10, 90, 0, 0],
            ["vpps.generate", 10, 40, 1, 0],
            ["vpps.interpret", 50, 85, 1, 0],
        ]
        self.assertEqual(benchlib.self_times_ns(spans), [20, 15, 30, 35])
        by_layer = benchlib.self_time_by_layer_ms(spans)
        self.assertAlmostEqual(by_layer["vpps"], 80 / 1e6)
        self.assertAlmostEqual(by_layer["train"], 20 / 1e6)

    def test_self_times_sum_to_top_level_time(self):
        spans = [
            ["a.x", 0, 50, -1, 0], ["b.y", 5, 45, 0, 0],
            ["c.z", 6, 10, 1, 0], ["c.z", 20, 30, 1, 0],
            ["a.x", 60, 70, -1, 1],
        ]
        self.assertEqual(sum(benchlib.self_times_ns(spans)), 60)

    def test_overlapping_children_count_once(self):
        spans = [["p.p", 0, 10, -1, 0], ["c.c", 2, 6, 0, 0],
                 ["c.c", 4, 8, 0, 0]]
        self.assertEqual(benchlib.self_times_ns(spans)[0], 4)

    def test_trace_round_trip_keeps_nesting(self):
        spans = [["serve.request", 1000, 9000, -1, 3],
                 ["graph.build", 1000, 2000, 0, 3],
                 ["vpps.infer", 2000, 9000, 0, 3]]
        raw = {"spans": spans, "workload": "serve_fleet", "seed": 1,
               "seconds": 1, "op_ms": [1.0] * 5, "items_per_op": 2,
               "timed_s": 1.0, "traced_timed_s": 2.0, "traced_items": 10}
        trace = benchlib.chrome_trace(raw)
        self.assertEqual(benchlib.spans_from_trace(trace), spans)
        self.assertEqual(trace["otherData"]["traced_items_per_s"], 5.0)


class DigestTest(unittest.TestCase):
    def test_fnv_reference_vectors(self):
        self.assertEqual(benchlib.fnv1a64(b""), 0xCBF29CE484222325)
        self.assertEqual(benchlib.fnv1a64(b"a"), 0xAF63DC4C8601EC8C)
        self.assertEqual(benchlib.fnv1a64(b"foobar"), 0x85944171F73967E8)

    def test_digest_is_stable(self):
        seq = [0.1, 2.5e-7, 12345.678, float(bits(1.5))]
        self.assertEqual(benchlib.digest(seq), benchlib.digest(list(seq)))
        self.assertEqual(benchlib.digest(seq, [1.0]),
                         benchlib.digest(seq, [1.0]))
        # Pinned: a change here silently invalidates recorded digests.
        self.assertEqual(benchlib.digest([1.0, 2.0]), "2f121cea1c5c97f8")

    def test_digest_sees_every_bit_and_the_order(self):
        base = benchlib.digest([1.0, 2.0])
        self.assertNotEqual(base, benchlib.digest([2.0, 1.0]))
        nudged = struct.unpack("<d", struct.pack(
            "<Q", struct.unpack("<Q", struct.pack("<d", 2.0))[0] + 1))[0]
        self.assertNotEqual(base, benchlib.digest([1.0, nudged]))

    def test_window_digest_covers_only_the_window(self):
        raw = {"workload": "train_timing", "window": 2,
               "kernel_us": [1.0, 2.0, 3.0], "instructions": [5, 6, 7],
               "loss_bits": [0, 0, 0], "step_sim_us": [9.0, 8.0, 7.0],
               "window_wall_us": 17.0}
        d = benchlib.window_digest(raw)
        raw["kernel_us"][2] = 99.0
        self.assertEqual(benchlib.window_digest(raw), d)
        raw["kernel_us"][1] = 99.0
        self.assertNotEqual(benchlib.window_digest(raw), d)


class OutputCheckTest(unittest.TestCase):
    def train_raw(self):
        return {"workload": "train_functional", "window": 2,
                "items_per_op": 8, "interval_ops": 2,
                "op_ms": [1.0] * 5,
                "kernel_us": [3.0, 4.0, 3.0, 4.0, 3.0],
                "instructions": [10, 11, 10, 11, 10],
                "loss_bits": [bits(1.5), bits(1.25), bits(1.0),
                              bits(0.75), bits(0.5)],
                "step_sim_us": [5.0, 6.0, 5.0, 6.0, 5.0],
                "window_wall_us": 11.0,
                "ref_loss_bits": [bits(1.5), bits(1.25)],
                "ref_param_digest": "ab", "param_digest_at_ref": "ab"}

    def test_clean_run_passes(self):
        attempted, failed, notes = benchlib.check_outputs(self.train_raw())
        self.assertEqual((attempted, failed, notes), (5, [], []))

    def test_repeated_batch_must_match_first_pass(self):
        raw = self.train_raw()
        raw["instructions"][3] = 12
        self.assertEqual(benchlib.check_outputs(raw)[1], [3])

    def test_thread_reference_mismatch_fails_the_prefix(self):
        raw = self.train_raw()
        raw["param_digest_at_ref"] = "cd"
        self.assertEqual(benchlib.check_outputs(raw)[1], [0, 1])

    def test_recorded_digest_mismatch_fails_the_window(self):
        raw = self.train_raw()
        self.assertEqual(benchlib.check_outputs(raw, "0" * 16)[1], [0, 1])
        good = benchlib.window_digest(raw)
        self.assertEqual(benchlib.check_outputs(raw, good)[1], [])

    def serve_raw(self):
        # Request 1 was hedged: two dispatches ran it.
        return {"workload": "serve_fleet", "arrivals": 3, "completed": 3,
                "window_arrivals": 3, "nonfinite_responses": 0,
                "reconciled": True, "window_reconciled": True,
                "window_response_ids": [0, 1, 2],
                "window_response_bits": [bits(0.5), bits(0.25), bits(2.0)],
                "serve_routed": 4, "window_kernel_us": 10.0,
                "replay_ids": [0, 1, 1, 2],
                "replay_loss_bits": [bits(0.5), bits(0.25), bits(0.25),
                                     bits(2.0)],
                "replay_kernel_us": [2.0, 3.0, 3.0, 2.0]}

    def test_serve_replay_covers_hedge_legs(self):
        self.assertEqual(benchlib.check_outputs(self.serve_raw())[1], [])

    def test_serve_replay_must_cover_every_dispatch(self):
        raw = self.serve_raw()
        for k in ("replay_ids", "replay_loss_bits", "replay_kernel_us"):
            del raw[k][2]
        self.assertEqual(benchlib.check_outputs(raw)[1], [0, 1, 2])

    def test_serve_replay_must_match_kernel_time_and_bits(self):
        raw = self.serve_raw()
        raw["window_kernel_us"] = 12.0
        self.assertEqual(benchlib.check_outputs(raw)[1], [0, 1, 2])
        raw = self.serve_raw()
        raw["replay_loss_bits"][3] = bits(1.0)
        self.assertEqual(benchlib.check_outputs(raw)[1], [2])


def traced_raw(workload):
    """A minimal traced-run report in the runner's format."""
    spans = [["gpusim.device_init", 0, 2000000, -1, 0],
             ["models.init", 2000000, 3000000, -1, 0],
             ["vpps.jit", 3000000, 3100000, -1, 0],
             ["graph.build", 4000000, 4500000, -1, 0],
             ["vpps.generate", 4500000, 6000000, -1, 0],
             ["vpps.checksum", 6000000, 6100000, -1, 0],
             ["vpps.interpret", 6100000, 9000000, -1, 0]]
    raw = {"workload": workload, "window": 2, "items_per_op": 4,
           "interval_ops": 2, "setup_s": [0.2, 0.1, 0.3],
           "timed_s": 2.0, "traced_timed_s": 2.5, "traced_items": 16,
           "peak_rss_mb": 300.0,
           "op_ms": [100.0, 120.0, 90.0, 110.0],
           "instructions": [1000, 1100, 1000, 1100],
           "step_sim_us": [50.0, 60.0, 50.0, 60.0],
           "window_wall_us": 100.0, "cache_hits": 2, "cache_lookups": 4,
           "tensor_gemv_gmacs": 1.5, "tensor_gemvt_gmacs": 1.2,
           "tensor_outer_gmacs": 2.0, "window_graph_us": 8.0,
           "window_sched_us": 16.0, "window_transfer_us": 4.0,
           "window_kernel_us": 80.0, "nodes": [500, 600, 500, 600],
           "replay_instructions": [1000], "replay_script_bytes": [4096.0],
           "spans": spans}
    if workload == "serve_fleet":
        spans.append(["serve.fleet_run", 10000000, 20000000, -1, 0])
        spans.append(["serve.request", 20000000, 21000000, -1, 0])
        raw.update({"window_completed": 8, "window_sim_us": 1000.0,
                    "window_latency_us": [float(i) for i in range(1, 9)],
                    "window_batches": 8, "arrivals": 16,
                    "replay_ids": [0], "replay_nodes": [40]})
        for k in ("serve_routed", "serve_hedges", "serve_probes",
                  "durable_wal_appends", "durable_syncs",
                  "durable_bytes_synced", "net_messages",
                  "net_bytes_on_wire"):
            raw[k] = 3
    return raw


class MetricDerivationTest(unittest.TestCase):
    def test_host_rates_are_interval_medians(self):
        raw = traced_raw("train_timing")
        m = benchlib.end_to_end(raw)
        # intervals of 2 ops x 4 items: 8 / 0.22 s and 8 / 0.20 s
        self.assertAlmostEqual(m["host_items_per_s"][0],
                               (8 / 0.22 + 8 / 0.20) / 2)
        self.assertAlmostEqual(m["sim_items_per_s"][0], 8 / 100e-6)
        self.assertEqual(m["sim_latency_ms_p95"][0], 0.06)
        self.assertEqual(m["setup_s"][0], 0.2)

    def test_every_workload_emits_every_metric(self):
        for w in benchlib.WORKLOADS:
            raw = traced_raw(w)
            self.assertEqual(list(benchlib.end_to_end(raw)),
                             list(benchlib.END_TO_END))
            layer = benchlib.per_layer(raw)
            self.assertEqual(list(layer), list(benchlib.PER_LAYER))
            for name, (value, unit) in layer.items():
                self.assertIsInstance(value, float, name)
                self.assertEqual(unit, benchlib.PER_LAYER[name])

    def test_setup_layers_are_per_setup_medians(self):
        layer = benchlib.per_layer(traced_raw("train_timing"))
        self.assertEqual(layer["gpusim.device_init_ms"][0], 2.0)
        self.assertEqual(layer["models.init_ms"][0], 1.0)
        self.assertEqual(layer["serve.run_ms"][0], 0.0)


class MetricNamesTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_are_well_formed_and_unique(self):
        names = list(benchlib.END_TO_END) + list(benchlib.PER_LAYER)
        for name in names:
            self.assertRegex(name, self.NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_emitted_metrics_match_benchmark_json(self):
        e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(e2e, benchlib.END_TO_END)
        self.assertEqual(layer, benchlib.PER_LAYER)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         benchlib.WORKLOADS)

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


if __name__ == "__main__":
    unittest.main()
