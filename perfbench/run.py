#!/usr/bin/env python3
"""The coda repository benchmark.

    python3 perfbench/run.py --workload forecast_fit --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds the coda library and the benchmark
program from source into .bench_build/perfbench (the first run builds, later
runs reuse the build), runs one workload in one process, and prints the
program's report followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics BENCHMARK.json declares, with --trace 1 the per-layer
ones. See perfbench/NOTES.md for the workloads and metrics.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("coda sources not found under " + ROOT + "; run from a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def self_test():
    """Unit tests of the benchmark's statistics, plus a check that every
    metric BENCHMARK.json declares exists in the program's catalogue, with
    the same unit."""
    result = subprocess.run([os.path.join(BUILD, "perfbench_selftest")])
    if result.returncode != 0:
        fail("selftest failed")
    listing = subprocess.run([os.path.join(BUILD, "coda_perfbench"),
                              "--list-metrics"], capture_output=True,
                             text=True, check=True)
    catalogue = json.loads(listing.stdout)
    e2e, per_layer = declared_metrics()
    for key, declared in (("end_to_end", e2e), ("per_layer", per_layer)):
        units = {m["name"]: m["unit"] for m in catalogue[key]}
        for m in declared:
            if units.get(m["name"]) != m["unit"]:
                fail("BENCHMARK.json %s metric %s (%s) is not in the "
                     "program's catalogue" % (key, m["name"], m["unit"]))
    print("perfbench: BENCHMARK.json matches the metric catalogue")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    if args.self_test:
        self_test()
        return
    if not args.workload:
        parser.error("--workload is required")

    command = [os.path.join(BUILD, "coda_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Own process group, so a timeout also stops the forked children.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        fail("coda_perfbench exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    full = json.loads(lines[-1])
    e2e, per_layer = declared_metrics()
    wanted = per_layer if args.trace else e2e
    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing from the run" % m["name"])
        metrics[m["name"]] = got
    print(json.dumps({"correct": full["correct"],
                      "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
