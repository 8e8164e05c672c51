#!/usr/bin/env python3
"""Build the simulator's benchmark and run one workload (or all of them).

Usage, from the repository root:

    python3 perfbench/run.py --workload lan_long --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes
    python3 perfbench/run.py --workload wide_n32 --quick --trace 1

The program is compiled from ../src with perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). With
--trace 0 the result line carries every end_to_end metric of
BENCHMARK.json, with --trace 1 every per_layer metric. The names, units and
directions the program prints must match BENCHMARK.json exactly, in both
directions. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when
every correctness gate held.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lan_long", "wide_n32", "wan_faults"]
RUN_TIMEOUT_S = 170
SETUP_LAUNCHES = 41


class BenchError(Exception):
    pass


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configure and build the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "experiment.h")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "Makefile")):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", build_dir, "-j", "4"]):
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench"), build_dir


def check_metrics(declared, printed):
    """Names, units and directions must match in both directions."""
    want = {m["name"]: (m["unit"], m["better"]) for m in declared}
    got = {k: (v["unit"], v["better"]) for k, v in printed.items()}
    problems = []
    for name in sorted(set(want) - set(got)):
        problems.append("declared but not printed: " + name)
    for name in sorted(set(got) - set(want)):
        problems.append("printed but not declared: " + name)
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append("%s: BENCHMARK.json says %s/%s, program says %s/%s"
                            % ((name,) + want[name] + got[name]))
    return problems


def setup_seconds(binary, scratch, workload, seed):
    """setup_s: median over launches of the time from process start to the
    program's first simulated event (both read from the monotonic clock)."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        start_ns = time.monotonic_ns()
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--scratch", scratch, "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60)
        fields = proc.stdout.split()
        if proc.returncode != 0 or fields[:1] != ["first_event_ns"]:
            raise BenchError("%s: set-up launch failed (exit %d)"
                             % (workload, proc.returncode))
        times.append((int(fields[1]) - start_ns) / 1e9)
    return statistics.median(times)


def run_one(binary, build_dir, spec, workload, seed, seconds, trace, quick):
    """Run one workload in one mode; returns the parsed result object."""
    scratch = os.path.join(build_dir, "scratch")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing (exit %d)"
                         % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError("%s: last line is not JSON (exit %d): %s"
                         % (workload, proc.returncode, lines[-1]))
    if proc.returncode not in (0, 1):
        raise BenchError("%s exited with %d" % (workload, proc.returncode))
    if not trace:
        # Scaled like host_s_per_sim_s, by the run's calibration loop.
        raw = setup_seconds(binary, scratch, workload, seed)
        setup = raw * result["host_scale"]
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s",
                                        "better": "lower"}
        print("  setup_s = %.6g s (lower is better; raw %.6g s)" % (setup, raw))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    problems = check_metrics(declared, result["metrics"])
    if problems:
        raise BenchError("metrics do not match BENCHMARK.json:\n  "
                         + "\n  ".join(problems))
    if result["correct"] != (proc.returncode == 0):
        raise BenchError("%s: exit code and correctness disagree" % workload)
    return result


def contract_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    })


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="short horizons, no coverage assertions")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds else spec["run_seconds"]
        binary, build_dir = build()
        if args.workload != "all":
            result = run_one(binary, build_dir, spec, args.workload,
                             args.seed, seconds, args.trace, args.quick)
            for g in result["gates_failed"]:
                sys.stderr.write("correctness gate failed: %s\n" % g)
            print(contract_line(result["correct"], result["attempted"],
                                result["failed"], result["metrics"]))
            return 0 if result["correct"] else 1

        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                print("== %s, trace %d" % (workload, trace))
                result = run_one(binary, build_dir, spec, workload, args.seed,
                                 seconds, trace, args.quick)
                correct = correct and result["correct"]
                attempted += result["attempted"]
                failed += result["failed"]
                for g in result["gates_failed"]:
                    sys.stderr.write("%s: correctness gate failed: %s\n"
                                     % (workload, g))
                for name, m in result["metrics"].items():
                    metrics[workload + "/" + name] = m
        print(contract_line(correct, attempted, failed, metrics))
        return 0 if correct else 1
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
