#!/usr/bin/env python3
"""The repository benchmark: builds tbp_perfbench and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

Run from the repository root.  The build lands in $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); spans and the scratch result store go to
.bench_out/.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
RUN_SECONDS = 30
BINARY_TIMEOUT_S = 170

WORKLOADS = [
    {"name": "memory-bound",
     "why": "mri, 8 launches at --jobs 4, no store: full simulation dominated by "
            "the memory system (MSHR overflow retry, DRAM), and launch-level "
            "parallelism"},
    {"name": "irregular-serial",
     "why": "bfs and mst at scale 16 on one thread, no store: single-thread "
            "simulator speed (SM issue, DRAM) and TBPoint's worst case (mst "
            "simulates every launch)"},
    {"name": "figure-suite",
     "why": "the 8 Type II kernels at scale 8, rows at --jobs 4: row scheduling, "
            "profiling, Ideal-SimPoint k-means, and the store (1 cold, 2 warm "
            "passes)"},
]

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("full_sim_s", "s", "lower", 0.25),
    ("tbp_s", "s", "lower", 0.25),
    ("sim_kcycles_per_s", "kcycles/s", "higher", 0.25),
    ("tbp_err_pct", "%", "lower", 0.02),
    ("tbp_sample_pct", "%", "lower", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("profile.busy_s", "s", "lower"),
    ("profile.launches", "count", "lower"),
    ("profile.warp_insts", "count", "lower"),
    ("sim.full.busy_s", "s", "lower"),
    ("sim.full.launches", "count", "lower"),
    ("sim.full.cycles", "count", "lower"),
    ("sim.full.ns_per_cycle", "ns", "lower"),
    ("sim.full.launch_p50_s", "s", "lower"),
    ("sim.full.launch_tail_s", "s", "lower"),
    ("sim.full.launch_tail_pct", "pct", "higher"),
    ("sim.sampled.busy_s", "s", "lower"),
    ("sim.sampled.cycles", "count", "lower"),
    ("sim.sampled.skipped_blocks", "count", "higher"),
    ("sim.sampled.ns_per_cycle", "ns", "lower"),
    ("sim.l1.mshr_stalls", "count", "lower"),
    ("sim.l2.mshr_stalls", "count", "lower"),
    ("sim.l1.misses", "count", "lower"),
    ("sim.dram.row_misses", "count", "lower"),
    ("sim.dram.scheduling_decisions", "count", "lower"),
    ("stall.memory", "count", "lower"),
    ("stall.idle", "count", "lower"),
    ("core.inter.busy_s", "s", "lower"),
    ("core.inter.representatives", "count", "lower"),
    ("core.regions.busy_s", "s", "lower"),
    ("core.regions.count", "count", "higher"),
    ("core.reconstruct.busy_s", "s", "lower"),
    ("core.inter_skip_share", "ratio", "higher"),
    ("core.speedup_vs_full", "ratio", "higher"),
    ("baselines.random.busy_s", "s", "lower"),
    ("baselines.systematic.busy_s", "s", "lower"),
    ("baselines.simpoint.busy_s", "s", "lower"),
    ("baselines.simpoint.k", "count", "lower"),
    ("baselines.units", "count", "lower"),
    ("store.put.busy_s", "s", "lower"),
    ("store.get.busy_s", "s", "lower"),
    ("store.puts", "count", "lower"),
    ("store.gets", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("parallel.jobs", "count", "higher"),
    ("parallel.busy_share", "ratio", "higher"),
    ("parallel.critical_path_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unspanned_s", "s", "lower"),
    ("ops_failed_pct", "%", "lower"),
]


def manifest():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def build():
    """Configures (once) and builds tbp_perfbench; returns the binary path."""
    if not (ROOT / "src" / "harness" / "experiment.hpp").is_file():
        sys.exit("perfbench: run from the repository root (src/ not found)")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "tbp_perfbench"], check=True, stdout=sys.stderr)
    return build_dir / "tbp_perfbench"


def run_workload(binary, args):
    """Runs the binary; returns its stdout lines, or exits non-zero."""
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {BINARY_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: tbp_perfbench exited with {proc.returncode}")
    return proc.stdout.splitlines()


def result_line(raw, trace):
    """The result object from the binary's raw values, with units."""
    wanted = PER_LAYER if trace else END_TO_END
    values = raw["values"]
    missing = [spec[0] for spec in wanted if spec[0] not in values]
    for name in missing:
        print(f"perfbench: metric {name} not reported", file=sys.stderr)
    return {
        "correct": bool(raw["correct"]) and not missing,
        "attempted": int(raw["attempted"]) + len(wanted),
        "failed": int(raw["failed"]) + len(missing),
        "metrics": {spec[0]: {"value": values[spec[0]], "unit": spec[1]}
                    for spec in wanted if spec[0] in values},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json in the current directory")
    args = parser.parse_args()
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    lines = run_workload(build(), args)
    for line in lines[:-1]:
        print(line)
    result = result_line(json.loads(lines[-1]), args.trace)
    for name, metric in result["metrics"].items():
        print(f"{name:32} {metric['value']:>18.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
