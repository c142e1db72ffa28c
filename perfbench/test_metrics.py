"""Tests for the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The derivation tests read canned documents in testdata/. The smoke test
runs run.py --smoke on every workload in both modes (the first run
builds the simulator, later ones take seconds) and checks that the
result line carries exactly the metrics BENCHMARK.json declares.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
DATA = HERE / "testdata"


def load(name):
    with open(DATA / name) as f:
        return json.load(f)


class PhaseMetrics(unittest.TestCase):
    def test_shares_ms_and_ns_per_event(self):
        # The timing document's jobs sum to 800 ms.
        m = metrics.phase_metrics(load("prof.json"), load("timing.json"),
                                  events=4000)
        self.assertAlmostEqual(m["sim.loop.share"], 0.4)
        self.assertAlmostEqual(m["sim.loop.ms"], 320.0)
        self.assertAlmostEqual(m["sim.loop.ns_per_event"], 80000.0)
        self.assertAlmostEqual(m["cache.llc.share"], 0.2)
        self.assertAlmostEqual(m["persist.flush_engine.ms"], 32.0)
        self.assertAlmostEqual(m["other.share"], 0.05)
        self.assertAlmostEqual(m["prof.attributed"], 0.95)
        shares = [v for k, v in m.items() if k.endswith(".share")]
        self.assertEqual(len(shares), len(metrics.PHASES))
        self.assertAlmostEqual(sum(shares), 1.0)

    def test_no_events_gives_zero_not_an_error(self):
        m = metrics.phase_metrics(load("prof.json"), load("timing.json"),
                                  events=0)
        self.assertEqual(m["noc.ns_per_event"], 0.0)


class RunnerMetrics(unittest.TestCase):
    def test_busy_frac_percentiles_and_inflation(self):
        baseline = {"jobs": [{"id": "canneal/LB/s1", "wallMs": 150},
                             {"id": "dedup/LB/s1", "wallMs": 50}]}
        m = metrics.runner_metrics(load("timing.json"), baseline)
        # 800 ms of jobs over 500 ms x 2 workers.
        self.assertAlmostEqual(m["exp.busy_frac"], 0.8)
        # LB cells ran 300/150 and 200/50 against --jobs 1.
        self.assertAlmostEqual(m["exp.job_inflation"], 3.0)
        self.assertAlmostEqual(m["exp.cell_wall_p50_ms"], 200.0)
        self.assertAlmostEqual(m["exp.cell_wall_max_ms"], 300.0)

    def test_fastest_grid_takes_each_cells_best_run(self):
        slow = load("timing.json")
        fast = json.loads(json.dumps(slow))
        for j in fast["jobs"]:
            if j["id"] == "canneal/LB/s1":
                j["wallMs"] = 100
        # Cells 100+100+200+200 ms over 2 workers, plus the smaller rest:
        # 0.7 - 0.8/2 = 0.3 s against 0.6 - 0.6/2 = 0.3 s.
        wall = metrics.fastest_grid_s([(0.7, slow), (0.6, fast)])
        self.assertAlmostEqual(wall, 0.3 + 0.3)

    def test_best_cells_ms(self):
        self.assertEqual(metrics.best_cells_ms(
            [{"a": 5, "b": 9}, {"a": 7, "b": 4}]), 9)

    def test_median_ratio(self):
        self.assertAlmostEqual(
            metrics.median_ratio([11, 22, 90], [10, 20, 30]), 1.1)


class StructuralMetrics(unittest.TestCase):
    TOTALS = {
        "core.ops": 1000, "core.wbStalls": 5,
        "l1.hits": 300, "l1.misses": 100, "llc.missesToMemory": 50,
        "llc.victimRetries": 7, "llc.pinWaits": 3,
        "mesh.packets": 4000, "mesh.flits": 9000,
        "mc.nvram.writes": 200, "mc.logWrites": 80,
        "persist.arbiter.epochsPersisted": 40,
        "persist.arbiter.flushIntra": 6, "persist.arbiter.flushInter": 3,
        "persist.arbiter.flushReplacement": 1,
        "persist.protocolMessages": 320, "persist.arbiter.splits": 2,
    }

    def test_per_op_and_per_epoch_ratios(self):
        m = metrics.structural_metrics(self.TOTALS, events=5000,
                                       job_ms=10.0)
        self.assertAlmostEqual(m["sim.events_per_op"], 5.0)
        self.assertAlmostEqual(m["sim.ns_per_event"], 2000.0)
        self.assertAlmostEqual(m["cpu.wb_stalls_per_kop"], 5.0)
        self.assertAlmostEqual(m["cache.l1_miss_ratio"], 0.25)
        self.assertAlmostEqual(m["cache.llc_mem_misses_per_op"], 0.05)
        self.assertAlmostEqual(m["noc.flits_per_op"], 9.0)
        self.assertAlmostEqual(m["nvm.log_writes_per_op"], 0.08)
        self.assertAlmostEqual(m["persist.conflict_frac"], 0.25)
        self.assertAlmostEqual(m["persist.msgs_per_epoch"], 8.0)
        self.assertEqual(m["persist.splits"], 2)

    def test_stat_totals_sum_cells_and_instances(self):
        totals = metrics.stat_totals(load("sweep.json"))
        self.assertEqual(totals, {
            "core.ops": 1000, "core.wbStalls": 3, "mc.nvram.writes": 40,
            "persist.arbiter.epochsPersisted": 9,
            "persist.protocolMessages": 70})

    def test_np_grid_without_epochs(self):
        m = metrics.structural_metrics({"core.ops": 10}, events=50,
                                       job_ms=1.0)
        self.assertEqual(m["persist.conflict_frac"], 0.0)
        self.assertEqual(m["persist.msgs_per_epoch"], 0.0)


class FailureCounting(unittest.TestCase):
    def test_sweep_document(self):
        # A violation, a failed run and a deadlock each fail their cell.
        self.assertEqual(metrics.count_failed_cells(load("sweep.json")),
                         (3, 4))

    def test_probe_report_counts_violations(self):
        ok = {"ok": True, "completed": True, "deadlocked": False,
              "timedOut": False, "violations": 0}
        report = {"jobs": [ok, dict(ok, violations=2),
                           dict(ok, timedOut=True)]}
        self.assertEqual(metrics.count_failed_cells(report), (2, 3))


class Fidelity(unittest.TestCase):
    def test_means_next_to_paper(self):
        fid = metrics.fidelity(11, load("sweep.json")["table"])
        self.assertEqual(fid["LB++"], (1.5, 1.22))

    def test_grid_without_baseline(self):
        table = {"cols": ["LB"], "means": [0]}
        self.assertEqual(metrics.fidelity(14, table), {})


class Provenance(unittest.TestCase):
    def test_refuses_mixed_build_types(self):
        a = {"provenance": {"buildType": "Release", "ipo": True}}
        b = {"provenance": {"buildType": "RelWithDebInfo", "ipo": False}}
        with self.assertRaises(ValueError):
            metrics.comparable(a, b)
        metrics.comparable(a, a)


class Smoke(unittest.TestCase):
    def test_every_workload_reports_the_declared_metrics(self):
        with open(HERE.parent / "BENCHMARK.json") as f:
            spec = json.load(f)
        declared = {0: {m["name"] for m in spec["end_to_end"]},
                    1: {m["name"] for m in spec["per_layer"]}}
        for w in spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    out = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--smoke",
                         "--workload", w["name"], "--seconds", "1",
                         "--trace", str(trace)],
                        capture_output=True, text=True, timeout=900)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]),
                                     declared[trace])


if __name__ == "__main__":
    unittest.main()
