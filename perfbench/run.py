#!/usr/bin/env python3
"""Repository benchmark for Raven: builds the benchmark binary from source,
runs one workload (or all of them), checks every answer, and prints every
metric by name with its unit.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the `end_to_end` metrics of BENCHMARK.json, with `--trace 1` its
`per_layer` metrics. The lines before it are a readable report: host and
build, every metric the run measured with its unit and sample count, and
any wrong answer by statement. See perfbench/METRICS.md.

The build goes to $CARGO_TARGET_DIR when set, else `.bench_build`, at the
repository root; scratch files (.rvc tables, the server socket, span JSON)
go under `<build dir>/run/` and are removed after the run unless `--keep`
is given.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_scoring", "served_reads", "served_churn", "disk_analytics"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "raven_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "raven_perfbench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_one(binary, workload, seed, seconds, trace, keep):
    """Runs one workload in its own process; returns its report or None."""
    rel_build = os.path.relpath(build_dir(), ROOT)
    work = os.path.join(rel_build, "run", "%s-%d" % (workload, os.getpid()))
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    finally:
        if not keep:
            shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("%s: raven_perfbench exited with %d" % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def print_report(report):
    notes = report["notes"]
    print("== %s  seed %s  nproc %s  %s build  %s  git %s" % (
        notes.get("workload"), notes.get("seed"), notes.get("nproc"),
        notes.get("build_type"), notes.get("compiler"), notes.get("git_sha")))
    for key in ("reference_hash", "open_loop_rate", "slo_ms", "throughput_windows",
                "steal_windows", "coverage", "spans_file"):
        if key in notes:
            print("   %s: %s" % (key, notes[key]))
    for name, m in sorted(report["metrics"].items()):
        print("   %-36s %16.6g %-12s n=%d" % (name, m["value"], m["unit"], m["samples"]))
    for statement, f in sorted(report["failures"].items()):
        print("   FAILED %s x%d: %s" % (statement, f["count"], f["first"]))
    print("   attempted %d, failed %d" % (report["attempted"], report["failed"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directory (span JSON) after the run")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    try:
        wanted = listed_metrics(args.trace == 1)
    except (OSError, ValueError, KeyError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        report = run_one(binary, workload, args.seed, args.seconds,
                         args.trace == 1, args.keep)
        if report is None:
            return 1
        print_report(report)
        result["correct"] = result["correct"] and report["correct"]
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        for spec in wanted:
            m = report["metrics"].get(spec["name"])
            if m is None:
                log("%s: metric %s missing" % (workload, spec["name"]))
                return 1
            name = spec["name"] if len(workloads) == 1 else workload + "/" + spec["name"]
            result["metrics"][name] = {"value": m["value"], "unit": spec["unit"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
