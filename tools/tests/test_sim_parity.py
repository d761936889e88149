"""Tests for the sim-parity rule and the paper-shape claims (no build
needed; they run on the committed golden):

    python3 -m unittest discover -s tools/tests
"""

import copy
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import sim_parity  # noqa: E402

GOLDEN = sim_parity.read_rows(sim_parity.GOLDEN)


def grouped(rows):
    """{bench: rows}, as the benches print them."""
    out = {}
    for row in rows:
        out.setdefault(row["bench"], []).append(copy.deepcopy(row))
    return out


def find(rows, **match):
    """The one row of @p rows whose config has every key=value."""
    hits = [r for r in rows
            if all(sim_parity.config(r).get(k) == v
                   for k, v in match.items())]
    assert len(hits) == 1, (match, len(hits))
    return hits[0]


FIG08 = "fig08_treelstm_throughput"


class ParityRuleTest(unittest.TestCase):
    def test_golden_matches_itself(self):
        self.assertIsNone(sim_parity.first_difference(GOLDEN,
                                                      grouped(GOLDEN)))

    def test_edited_field_names_bench_config_and_field(self):
        printed = grouped(GOLDEN)
        row = find(printed[FIG08], batch="8")
        golden_value = row["dynet_ab_inputs_per_sec"]
        row["dynet_ab_inputs_per_sec"] += 1e-9
        diff = sim_parity.first_difference(GOLDEN, printed)
        self.assertIn(FIG08, diff)
        self.assertIn(f"[{row['config']}]", diff)
        self.assertIn("dynet_ab_inputs_per_sec", diff)
        self.assertIn(repr(golden_value), diff)
        self.assertIn(repr(row["dynet_ab_inputs_per_sec"]), diff)

    def test_added_or_dropped_field_fails(self):
        printed = grouped(GOLDEN)
        find(printed[FIG08], batch="8")["new_field"] = 1
        self.assertIn("new_field",
                      sim_parity.first_difference(GOLDEN, printed))
        printed = grouped(GOLDEN)
        del find(printed[FIG08], batch="8")["tf_fold_inputs_per_sec"]
        self.assertIn("tf_fold_inputs_per_sec",
                      sim_parity.first_difference(GOLDEN, printed))

    def test_missing_golden_row_fails(self):
        printed = grouped(GOLDEN)
        gone = printed["crash_recovery"].pop(3)
        diff = sim_parity.first_difference(GOLDEN, printed)
        self.assertIn(f"crash_recovery [{gone['config']}]", diff)
        self.assertIn("not printed", diff)

    def test_extra_printed_row_fails(self):
        printed = grouped(GOLDEN)
        extra = dict(printed["fig02_dram_breakdown"][0], config="app=GRU")
        printed["fig02_dram_breakdown"].append(extra)
        diff = sim_parity.first_difference(GOLDEN, printed)
        self.assertIn("fig02_dram_breakdown [app=GRU]", diff)
        self.assertIn("not in the golden", diff)

    def test_row_printed_twice_fails(self):
        printed = grouped(GOLDEN)
        printed["table2_jit_compilation"].append(
            printed["table2_jit_compilation"][0])
        self.assertIn("printed twice",
                      sim_parity.first_difference(GOLDEN, printed))

    def test_host_wall_ms_and_row_order_are_ignored(self):
        printed = grouped(GOLDEN)
        for bench, rows in printed.items():
            for i, row in enumerate(rows):
                row["host_wall_ms"] = 1000.0 + i
            rows.reverse()
        self.assertIsNone(sim_parity.first_difference(GOLDEN, printed))

    def test_only_rerun_benches_are_checked(self):
        printed = {FIG08: grouped(GOLDEN)[FIG08]}
        self.assertIsNone(sim_parity.first_difference(GOLDEN, printed))

    def test_rerecord_replaces_only_rerun_benches(self):
        printed = {FIG08: grouped(GOLDEN)[FIG08]}
        for row in printed[FIG08]:
            row["sim_us"] *= 2
            row["host_wall_ms"] = 5.0
        out = sim_parity.rerecord(GOLDEN, printed)
        self.assertEqual(len(out), len(GOLDEN))
        for want, got in zip(GOLDEN, out):
            self.assertEqual((want["bench"], want["config"]),
                             (got["bench"], got["config"]))
            self.assertNotIn("host_wall_ms", got)
            if want["bench"] == FIG08:
                self.assertEqual(got["sim_us"], 2 * want["sim_us"])
            else:
                self.assertEqual(got, want)

    def test_rerecord_appends_a_new_bench(self):
        row = {"bench": "new_bench", "config": "a=1", "sim_us": 1.0,
               "host_wall_ms": 2.0}
        out = sim_parity.rerecord(GOLDEN, {"new_bench": [row]})
        self.assertEqual(out[:-1], GOLDEN)
        self.assertEqual(out[-1], {"bench": "new_bench", "config": "a=1",
                                   "sim_us": 1.0})


def set_field(bench, field, value, **match):
    def mutate(printed):
        find(printed[bench], **match)[field] = value
    return mutate


def scale_field(bench, field, factor, **match):
    def mutate(printed):
        for row in printed[bench]:
            c = sim_parity.config(row)
            if field in row and all(c.get(k) == v
                                    for k, v in match.items()):
                row[field] *= factor
    return mutate


def swap_dynet(printed):
    row = find(printed[FIG08], batch="8")
    row["dynet_db_inputs_per_sec"], row["dynet_ab_inputs_per_sec"] = (
        row["dynet_ab_inputs_per_sec"], row["dynet_db_inputs_per_sec"])


# One hand-broken row set per claim, by claim name.
BREAKS = {
    "Fig 2: weights are the largest load category in every app":
        set_field("fig02_dram_breakdown", "gradients_pct", 70.0,
                  app="TD-LSTM"),
    "Fig 8: VPPS > DyNet-DB > DyNet-AB > TF-Fold at every batch":
        swap_dynet,
    "Fig 8: VPPS/best falls monotonically with batch":
        set_field(FIG08, "vpps_over_best", 2.0, batch="128"),
    "Fig 8: VPPS peaks at batch 16":
        set_field(FIG08, "vpps_inputs_per_sec", 900.0, batch="32"),
    "Table I: VPPS weight MB x batch is identical at every batch":
        scale_field("table1_weight_loads", "vpps_weight_mb", 1.0001,
                    batch="8"),
    "Table I: DyNet-AB/VPPS rises monotonically with batch":
        set_field("table1_weight_loads", "ab_over_vpps", 1.0,
                  batch="128"),
    "Fig 9: 2, 2 and 1 CTAs/SM at hidden 128, 256 and 384":
        set_field("fig09_hidden_sensitivity", "ctas_per_sm", 2,
                  app="Tree-LSTM", hidden="384", batch=None),
    "Fig 9: mean VPPS rate falls with hidden size":
        scale_field("fig09_hidden_sensitivity", "vpps_inputs_per_sec",
                    2.0, hidden="384"),
    "Fig 9: VPPS beats the best DyNet at every point":
        set_field("fig09_hidden_sensitivity", "vpps_over_best", 0.9,
                  hidden="256", batch="64"),
    "Fig 10: GPU-bound through batch 8":
        set_field("fig10_time_breakdown", "cpu_us_per_input", 5000.0,
                  batch="4"),
    "Fig 10: CPU-bound from batch 16":
        set_field("fig10_time_breakdown", "gpu_us_per_input", 5000.0,
                  batch="128"),
    "Fig 12: TD-RNN VPPS/best < 1 from batch 1":
        set_field("fig12_other_apps", "vpps_over_best", 1.05,
                  app="TD-RNN", batch="2"),
    "Fig 12: RvNN VPPS/best <= 1.02 from batch 16":
        set_field("fig12_other_apps", "vpps_over_best", 1.05,
                  app="RvNN", batch="64"),
    "Fig 12: BiLSTM and BiLSTMwChar VPPS/best peak at batch <= 4":
        set_field("fig12_other_apps", "vpps_over_best", 10.0,
                  app="BiLSTMwChar", batch="32"),
    "ablation_async: async >= sync at every batch, peak at batch 16":
        set_field("ablation_async", "speedup", 0.9, batch="1"),
}


class ShapeClaimTest(unittest.TestCase):
    def verdicts(self, printed):
        return {name: holds for name, holds, _ in
                sim_parity.check_claims(printed)}

    def test_every_claim_holds_on_the_golden(self):
        results = sim_parity.check_claims(grouped(GOLDEN))
        self.assertEqual(len(results), len(sim_parity.CLAIMS))
        for name, holds, margin in results:
            self.assertTrue(holds, f"{name}: {margin}")

    def test_every_claim_has_a_break(self):
        self.assertEqual(set(BREAKS),
                         {name for name, _, _ in sim_parity.CLAIMS})

    def test_each_claim_fails_on_its_broken_rows(self):
        for name, mutate in BREAKS.items():
            with self.subTest(claim=name):
                printed = grouped(GOLDEN)
                mutate(printed)
                verdicts = self.verdicts(printed)
                self.assertFalse(verdicts[name])

    def test_claims_of_benches_not_run_are_skipped(self):
        printed = {FIG08: grouped(GOLDEN)[FIG08]}
        names = {name for name, _, _ in sim_parity.check_claims(printed)}
        self.assertEqual(names, {name for name, bench, _ in
                                 sim_parity.CLAIMS if bench == FIG08})

    def test_rows_lacking_a_field_fail_the_claim(self):
        printed = grouped(GOLDEN)
        for row in printed[FIG08]:
            row.pop("tf_fold_inputs_per_sec")
        verdicts = self.verdicts(printed)
        self.assertFalse(
            verdicts["Fig 8: VPPS > DyNet-DB > DyNet-AB > TF-Fold at "
                     "every batch"])


if __name__ == "__main__":
    unittest.main()
