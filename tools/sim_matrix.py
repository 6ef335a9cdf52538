#!/usr/bin/env python3
"""Byte-identity matrix: run a named set of parcoll_sim runs with two
binaries and report every run whose stdout differs.

    tools/sim_matrix.py BASE_SIM CHANGE_SIM [--preset NAME] [--jobs N]

BASE_SIM and CHANGE_SIM are two parcoll_sim executables, typically built
from a parent commit and from a change (for example with `git archive` of
the parent into a scratch directory and a second cmake build there). Each
run's stdout, stderr's first line and exit status are compared; a
difference prints as a unified diff. The exit status is 1 if any run
differs, 0 otherwise. Runs that fail identically on both sides (say, a
byte-true run that cannot allocate under --mem-cap-gib) are reported but
are not differences. Byte-true runs hold the whole file in memory (a
byte-true tileio@32 peaks near 8 GiB), so they run one at a time; run the
matrix on an otherwise idle machine, or the kernel may kill a run that
would have failed with std::bad_alloc under the cap, and the two sides'
failures then differ.

Presets (`--list` prints every run of a preset):

  lifecycle  (default, 134 runs) {tileio@32, ior@32, flash@32, btio@36}
             x {independent, posix, sieving, ext2ph, parcoll} x {plain,
             --read, bb watermark, integrity detect, bb watermark +
             integrity repair, rpc-drop fault}; tileio and btio x the five
             impls with --byte-true bb watermark + integrity detect;
             tileio and btio x {ext2ph, parcoll} with --wall-report --gantt.
  bb         (88 runs) {tileio, ior, flash}@32 + btio@36 x {ext2ph,
             parcoll} x 11 burst-buffer settings (each drain policy, a
             small capacity, integrity, faults, a seeded schedule, a read,
             byte-true repair).
  intranode  (128 runs) {tileio, ior, flash}@32 + btio@36 x {ext2ph,
             parcoll} x intranode {off, on, auto} x mapping {block,
             cyclic}, plus --leader spread and rank-stall re-election;
             two-level reads (on, on + cyclic, auto + --cb-nodes 8); and
             --cores-per-node 16, written and read back, with --groups 2
             for parcoll too, so communicators live on one node.
  integrity  (210 runs) {tileio, ior, flash}@32 + btio@36 x {ext2ph,
             parcoll, independent, sieving} x 11 settings (detect,
             repair, detect --read, bb watermark + detect written and
             read, exhausted and zero rpc-corrupt retries, bb deadline
             under bb-corrupt at detect and at repair, --integrity-block
             4096, --intranode on); parcoll at detect per workload with
             --read, --intranode on (+ --read), --groups 2, --groups 4
             --read, --wall-report --gantt and --sample-interval 1e-3
             --top; byte-true tileio@16 (--groups 4) and btio@16 parcoll
             at detect, bb watermark + detect, and repair under
             media-corrupt.
  scale      (26 runs) wide communicators, where two-phase planning state
             per rank matters most: {tileio@1024, btio@256} x {ext2ph,
             parcoll} x {--intranode off, --intranode auto --read,
             --intranode on --mapping cyclic, --cb-nodes 16};
             flash@256 x {ext2ph, parcoll} x {--intranode on, --read};
             ior@512 ext2ph with --intranode off and with --read, and
             parcoll under a rank-stall fault (re-election); parcoll with
             --no-persistent-groups, so every call repeats the partition's
             exchange: ior@512, tileio@1024 --intranode on and btio@256
             --read. Each run takes seconds; IOR skips --cb-nodes, which at
             1024 ranks spins through about 2,000 near-empty cycles per
             call.

No preset passes --engine-stats, so every stdout line is simulated output
and must match exactly. `--ignore REGEX` drops matching lines on both sides
before comparing (for a change that is expected to move one line).
"""

import argparse
import concurrent.futures
import difflib
import re
import resource
import subprocess
import sys
import threading
import time

WORKLOADS = [("tileio", 32), ("ior", 32), ("flash", 32), ("btio", 36)]
IMPLS = ["independent", "posix", "sieving", "ext2ph", "parcoll"]
BB_WATERMARK = ["--bb", "--bb-drain", "watermark"]


def lifecycle():
    settings = [
        [],
        ["--read"],
        BB_WATERMARK,
        ["--integrity", "detect"],
        BB_WATERMARK + ["--integrity", "repair"],
        ["--fault", "seed=3;rpc-drop=0.02"],
    ]
    runs = []
    for workload, nprocs in WORKLOADS:
        for impl in IMPLS:
            for extra in settings:
                runs.append([workload, nprocs, impl] + extra)
    for workload, nprocs in [("tileio", 32), ("btio", 36)]:
        for impl in IMPLS:
            runs.append([workload, nprocs, impl, "--byte-true"] +
                        BB_WATERMARK + ["--integrity", "detect"])
    for workload, nprocs in [("tileio", 32), ("btio", 36)]:
        for impl in ["ext2ph", "parcoll"]:
            runs.append([workload, nprocs, impl, "--wall-report", "--gantt"])
    return runs


def bb():
    settings = [
        ["--bb", "--bb-drain", "immediate"],
        ["--bb", "--bb-drain", "watermark"],
        ["--bb", "--bb-drain", "deadline"],
        ["--bb", "--bb-drain", "arbitrate"],
        BB_WATERMARK + ["--bb-capacity", "1048576"],
        BB_WATERMARK + ["--integrity", "detect"],
        ["--bb", "--bb-drain", "deadline", "--integrity", "repair",
         "--fault", "seed=3;bb-corrupt=0.05"],
        ["--bb", "--bb-drain", "arbitrate", "--fault",
         "seed=7;rank-stall=3:0.01:0.5;ost-outage=2:0.01:0.05"],
        BB_WATERMARK + ["--schedule-seed", "7"],
        ["--bb", "--bb-drain", "immediate", "--read"],
        BB_WATERMARK + ["--byte-true", "--integrity", "repair"],
    ]
    return [[w, n, impl] + extra for w, n in WORKLOADS
            for impl in ["ext2ph", "parcoll"] for extra in settings]


def intranode():
    runs = []
    for workload, nprocs in WORKLOADS:
        for impl in ["ext2ph", "parcoll"]:
            for mode in ["off", "on", "auto"]:
                for mapping in ["block", "cyclic"]:
                    runs.append([workload, nprocs, impl, "--intranode", mode,
                                 "--mapping", mapping])
            for mapping in ["block", "cyclic"]:
                runs.append([workload, nprocs, impl, "--intranode", "on",
                             "--leader", "spread", "--mapping", mapping])
            for mode in ["off", "on"]:
                runs.append([workload, nprocs, impl, "--intranode", mode,
                             "--fault", "seed=7;rank-stall=3:0.01:0.5"])
            # Two-level reads, and communicators on one node (16 cores per
            # node), where the leader stage is the sole-leader branch.
            for extra in [["on", "--read"],
                          ["on", "--mapping", "cyclic", "--read"],
                          ["auto", "--cb-nodes", "8", "--read"]]:
                runs.append([workload, nprocs, impl, "--intranode"] + extra)
            one_node = [["--cores-per-node", "16"]]
            if impl == "parcoll":
                one_node.append(["--cores-per-node", "16", "--groups", "2"])
            for extra in one_node:
                for read in [[], ["--read"]]:
                    runs.append([workload, nprocs, impl, "--intranode", "on"]
                                + extra + read)
    return runs


def integrity():
    detect = ["--integrity", "detect"]
    bb_corrupt = ["--bb", "--bb-drain", "deadline", "--fault",
                  "seed=3;bb-corrupt=0.05", "--integrity"]
    settings = [
        detect,
        ["--integrity", "repair"],
        detect + ["--read"],
        BB_WATERMARK + detect,
        BB_WATERMARK + detect + ["--read"],
        detect + ["--fault", "seed=5;rpc-corrupt=0.2;max-retries=1"],
        detect + ["--fault", "seed=5;rpc-corrupt=1.0;max-retries=0"],
        bb_corrupt + ["detect"],
        bb_corrupt + ["repair"],
        detect + ["--integrity-block", "4096"],
        detect + ["--intranode", "on"],
    ]
    runs = [[w, n, impl] + extra for w, n in WORKLOADS
            for impl in ["ext2ph", "parcoll", "independent", "sieving"]
            for extra in settings]
    for workload, nprocs in WORKLOADS:
        for extra in [["--read"], ["--intranode", "on"],
                      ["--intranode", "on", "--read"], ["--groups", "2"],
                      ["--groups", "4", "--read"],
                      ["--wall-report", "--gantt"],
                      ["--sample-interval", "1e-3", "--top"]]:
            runs.append([workload, nprocs, "parcoll"] + detect + extra)
    for workload, extra in [("tileio", ["--groups", "4"]), ("btio", [])]:
        for setting in [detect, BB_WATERMARK + detect,
                        ["--integrity", "repair", "--fault",
                         "seed=9;media-corrupt=3:0.01"]]:
            runs.append([workload, 16, "parcoll", "--byte-true"] + extra +
                        setting)
    return runs


def scale():
    runs = []
    for workload, nprocs in [("tileio", 1024), ("btio", 256)]:
        for impl in ["ext2ph", "parcoll"]:
            for extra in [["--intranode", "off"],
                          ["--intranode", "auto", "--read"],
                          ["--intranode", "on", "--mapping", "cyclic"],
                          ["--cb-nodes", "16"]]:
                runs.append([workload, nprocs, impl] + extra)
    for impl in ["ext2ph", "parcoll"]:
        for extra in [["--intranode", "on"], ["--read"]]:
            runs.append(["flash", 256, impl] + extra)
    runs += [["ior", 512, "ext2ph", "--intranode", "off"],
             ["ior", 512, "ext2ph", "--read"],
             ["ior", 512, "parcoll", "--fault",
              "seed=7;rank-stall=3:0.01:0.5"],
             ["ior", 512, "parcoll", "--no-persistent-groups"],
             ["tileio", 1024, "parcoll", "--no-persistent-groups",
              "--intranode", "on"],
             ["btio", 256, "parcoll", "--no-persistent-groups", "--read"]]
    return runs


PRESETS = {"lifecycle": lifecycle, "bb": bb, "intranode": intranode,
           "integrity": integrity, "scale": scale}


def argv_of(binary, run):
    workload, nprocs, impl, *extra = run
    return [binary, "--workload", workload, "--nprocs", str(nprocs),
            "--impl", impl] + extra


def execute(argv, mem_cap):
    def cap():
        if mem_cap > 0:
            resource.setrlimit(resource.RLIMIT_AS, (mem_cap, mem_cap))

    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          preexec_fn=cap, check=False)
    err = proc.stderr.strip().splitlines()
    return (proc.returncode, proc.stdout, err[0] if err else "",
            time.monotonic() - start)


BYTE_TRUE_LANE = threading.Lock()


def compare(base, change, run, mem_cap, ignore):
    if "--byte-true" in run:
        with BYTE_TRUE_LANE:
            a = execute(argv_of(base, run), mem_cap)
            b = execute(argv_of(change, run), mem_cap)
    else:
        a = execute(argv_of(base, run), mem_cap)
        b = execute(argv_of(change, run), mem_cap)

    def lines(result):
        return [line for line in result[1].splitlines(keepends=True)
                if not (ignore and ignore.search(line))]

    same = a[0] == b[0] and a[2] == b[2] and lines(a) == lines(b)
    diff = "" if same else "".join(difflib.unified_diff(
        lines(a) + [f"exit {a[0]} {a[2]}\n"],
        lines(b) + [f"exit {b[0]} {b[2]}\n"], "base", "change"))
    return same, a[0], diff, a[3] + b[3]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        default="lifecycle")
    parser.add_argument("--jobs", type=int, default=2,
                        help="runs in flight at once (default 2)")
    parser.add_argument("--mem-cap-gib", type=float, default=8.0,
                        help="address-space cap per process; 0 = none")
    parser.add_argument("--ignore", help="drop stdout lines matching REGEX")
    parser.add_argument("--filter", help="only runs whose argv matches REGEX")
    parser.add_argument("--list", action="store_true",
                        help="print the preset's runs and exit")
    args = parser.parse_args()

    runs = PRESETS[args.preset]()
    if args.filter:
        pattern = re.compile(args.filter)
        runs = [r for r in runs if pattern.search(" ".join(map(str, r)))]
    if args.list:
        for run in runs:
            print(" ".join(argv_of("parcoll_sim", run)[1:]))
        return 0
    ignore = re.compile(args.ignore) if args.ignore else None
    mem_cap = int(args.mem_cap_gib * (1 << 30))

    differ = failed = 0
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(compare, args.base, args.change, run, mem_cap,
                               ignore) for run in runs]
        for run, future in zip(runs, futures):
            same, status, diff, seconds = future.result()
            label = " ".join(argv_of("parcoll_sim", run)[1:])
            if not same:
                differ += 1
                print(f"DIFF {label}\n{diff}", flush=True)
            elif status != 0:
                failed += 1
                print(f"both exit {status}: {label}", flush=True)
            else:
                print(f"same ({seconds:.1f}s): {label}", flush=True)
    print(f"{args.preset}: {len(runs)} runs, {differ} differ, "
          f"{failed} failed identically on both sides")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
