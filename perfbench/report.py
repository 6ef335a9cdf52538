#!/usr/bin/env python3
"""Repeat benchmark invocations and summarize them.

    # Seed spread of the end-to-end metrics (median, quartiles, IQR/median):
    python3 perfbench/report.py spread --workload ior-ext2ph --seeds 1-10

    # Per-layer table of every workload from one traced run each, with the
    # host ratios (wall with the layer on / wall with it off):
    python3 perfbench/report.py layers --seed 1

Run from the root of a checkout; each invocation goes through run.py, so
the benchmark program is built first. Raw results are kept in
.bench_build/out.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layer toggles the traced run makes, and the host ratio each one gives.
RATIOS = [
    ("ior-bb-integrity", "bb.host_share", "bb on / bb off"),
    ("ior-bb-integrity", "fs.integrity_host_share",
     "integrity on / integrity off"),
    ("btio-telemetry", "obs.host_share", "telemetry on / telemetry off"),
    ("ior-ext2ph", "node.host_share", "ext2ph intranode auto / off"),
    ("ior-parcoll", "node.host_share", "parcoll intranode auto / off"),
]


def invoke(workload, seed, seconds, trace):
    """Run one invocation; return its parsed result line."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                 + proc.stdout)
    return json.loads(lines[-1])


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def spread(args):
    seeds = parse_seeds(args.seeds)
    values = {}
    for seed in seeds:
        result = invoke(args.workload, seed, args.seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name} {metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"spread-{args.workload}.json").write_text(
        json.dumps({"seeds": seeds, "values": values}, indent=1))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    print(f"\n| metric | median | Q1 | Q3 | IQR/median | bound |")
    print("|---|---|---|---|---|---|")
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / q2 if q2 else 0.0
        print(f"| {name} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {share:.4f} "
              f"| {bounds.get(name, '')} |")


def layers(args):
    results = {w: invoke(w, args.seed, args.seconds, 1)["metrics"]
               for w in WORKLOADS}
    names = [m["name"] for m in SPEC["per_layer"]]
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]][name]["unit"]
        cells = [f"{results[w][name]['value']:.4g}" for w in WORKLOADS]
        print(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    print("\n| workload | host ratio | value |")
    print("|---|---|---|")
    for workload, metric, label in RATIOS:
        share = results[workload][metric]["value"]
        print(f"| {workload} | {label} | {1.0 / (1.0 - share):.2f}x |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_spread = sub.add_parser("spread", help="end-to-end spread over seeds")
    p_spread.add_argument("--workload", required=True, choices=WORKLOADS)
    p_spread.add_argument("--seeds", default="1-10")
    p_spread.add_argument("--seconds", type=int,
                          default=SPEC["run_seconds"])
    p_layers = sub.add_parser("layers", help="per-layer table, all workloads")
    p_layers.add_argument("--seed", type=int, default=1)
    p_layers.add_argument("--seconds", type=int,
                          default=SPEC["run_seconds"])
    args = parser.parse_args()
    spread(args) if args.command == "spread" else layers(args)


if __name__ == "__main__":
    main()
