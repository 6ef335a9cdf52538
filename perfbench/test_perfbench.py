#!/usr/bin/env python3
"""Self-tests of the benchmark (not of the simulator).

    python3 perfbench/test_perfbench.py        # from the root of a checkout

They invoke run.py with --seconds 0 (the fewest simulations a run makes)
and check that every metric of BENCHMARK.json is printed with its unit,
that same-seed invocations repeat the deterministic metrics bit for bit,
that each layer's counts are zero on the workloads that bypass it, and
that a planted twin failure makes the command exit non-zero. About two
minutes on a 4-core machine.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT_DIR = ROOT / ".bench_build" / "out"
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics measured on the host clock; every other per-layer
# metric is a count or a virtual-time quantity and must repeat exactly.
HOST_METRICS = {
    "sim.ns_per_event", "core.partition_s", "dtype.filetype_s",
    "node.make_node_comm_s", "node.host_share", "fs.integrity_register_s",
    "fs.integrity_host_share", "bb.host_share", "obs.export_s",
    "obs.export_bytes", "obs.host_share", "bench.trace_overhead_s",
}
# Layer metrics that must read 0 on every workload except the one named.
OWNED = {
    "ior-bb-integrity": [
        "bb.staged_segments", "bb.spills", "bb.drain_rank_s",
        "bb.drain_wait_rank_s", "bb.host_share", "fs.integrity_rank_s",
        "fs.integrity_blocks", "fs.integrity_register_s",
        "fs.integrity_host_share"],
    "btio-telemetry": [
        "obs.export_s", "obs.export_bytes", "obs.timeline_series",
        "obs.host_share", "core.view_switches"],
}
# Host shares that must be non-zero on their heavy workload.
HEAVY = {
    "bb.host_share": "ior-bb-integrity",
    "fs.integrity_host_share": "ior-bb-integrity",
    "node.host_share": "ior-ext2ph",
    "obs.host_share": "btio-telemetry",
}


def invoke(workload, trace, seed=1, extra=()):
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "0", "--trace",
               str(trace), *extra]
    return subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    timed = {}
    traced = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            cls.traced[workload] = invoke(workload, 1)
        cls.timed["ior-parcoll"] = invoke("ior-parcoll", 0)

    def check_printed(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stdout)
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in metrics])
        for metric in metrics:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            line = re.compile(rf"^{re.escape(metric['name'])}\s+\S+ "
                              rf"{re.escape(metric['unit'])}$", re.M)
            self.assertRegex(proc.stdout, line)

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_printed(self.timed["ior-parcoll"], SPEC["end_to_end"])
        for metric in result_of(self.timed["ior-parcoll"])["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_per_layer_metrics_printed_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_printed(self.traced[workload], SPEC["per_layer"])

    def test_same_seed_repeats_deterministic_metrics(self):
        again = invoke("ior-parcoll", 0)
        first = result_of(self.timed["ior-parcoll"])["metrics"]
        second = result_of(again)["metrics"]
        for name in ("virtual_bw_mib_s", "durable_bw_mib_s"):
            self.assertEqual(first[name]["value"], second[name]["value"])
        for workload in ("ior-parcoll", "btio-telemetry"):
            first = result_of(self.traced[workload])["metrics"]
            second = result_of(invoke(workload, 1))["metrics"]
            for name, metric in first.items():
                if name not in HOST_METRICS:
                    self.assertEqual(metric["value"], second[name]["value"],
                                     f"{workload} {name}")

    def test_bypassed_layers_count_zero(self):
        for owner, names in OWNED.items():
            for workload in WORKLOADS:
                metrics = result_of(self.traced[workload])["metrics"]
                for name in names:
                    value = metrics[name]["value"]
                    if workload == owner:
                        self.assertNotEqual(value, 0, f"{workload} {name}")
                    else:
                        self.assertEqual(value, 0, f"{workload} {name}")
        # Plain ext2ph never partitions: one group, no planner probe.
        ext2ph = result_of(self.traced["ior-ext2ph"])["metrics"]
        self.assertEqual(ext2ph["core.groups"]["value"], 1)
        self.assertEqual(ext2ph["core.partition_s"]["value"], 0)

    def test_intranode_calls_match_intranode_off_toggle(self):
        metrics = result_of(self.traced["ior-parcoll"])["metrics"]
        trace = json.loads(
            (OUT_DIR / "ior-parcoll-seed1-trace.json").read_text())
        off = trace["toggles"]["without.intranode"]
        self.assertEqual(off["intranode_calls"],
                         metrics["node.intranode_calls"]["value"])
        self.assertTrue(trace["spans"])

    def test_host_shares_nonzero_on_heavy_workload(self):
        for name, workload in HEAVY.items():
            metrics = result_of(self.traced[workload])["metrics"]
            self.assertNotEqual(metrics[name]["value"], 0, name)

    def test_twin_failure_exits_nonzero(self):
        # Silent wire corruption with integrity off: the twin's file no
        # longer matches the plain ext2ph digest.
        proc = invoke("ior-parcoll", 0,
                      extra=("--twin-fault", "seed=3;rpc-corrupt=0.5"))
        self.assertNotEqual(proc.returncode, 0)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
