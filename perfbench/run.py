#!/usr/bin/env python3
"""Build and run the ODRIPS benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 30 --trace 0

Builds perfbench/ (a CMake project that pulls the simulator in from the
repository root) into .bench_build/ as an optimised build, then runs the
benchmark. Its last stdout line is the JSON result. When
perfbench/digests.json records an output digest for the (workload, seed)
pair, the benchmark checks the run's digest against it.

Other modes:
    python3 perfbench/run.py --selftest         unit tests of the helpers
    python3 perfbench/run.py --record-digests   rewrite digests.json
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("sweep_cold", "longtrace", "fleet_day")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configure (once) and build @p target; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the simulator sources (CMakeLists.txt, src/) are not in "
             + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build of " + target + " failed")
    return os.path.join(BUILD, target)


def load_digests():
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f)


def run_bench(binary, workload, seed, seconds, trace, expect=None,
              capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if expect:
        cmd += ["--expect-digest", expect]
    return subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def record_digests(binary):
    """Re-record the prefix digest of the default and held-out seeds."""
    table = load_digests()
    for workload in WORKLOADS:
        table["digests"][workload] = {}
        for seed in (table["default_seed"], table["heldout_seed"]):
            proc = run_bench(binary, workload, seed, 1, 0, capture=True)
            lines = proc.stdout.splitlines()
            digest = [l.split()[1] for l in lines if l.startswith("digest ")]
            result = json.loads(lines[-1])
            if proc.returncode != 0 or not digest or not result["correct"]:
                fail("cannot record %s seed %d:\n%s"
                     % (workload, seed, proc.stdout))
            table["digests"][workload][str(seed)] = digest[0]
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_util_test")]).returncode)
    binary = build("perfbench")
    if args.record_digests:
        record_digests(binary)
        return
    if args.workload is None:
        fail("--workload is required")
    expect = load_digests()["digests"].get(args.workload, {}).get(
        str(args.seed))
    sys.exit(run_bench(binary, args.workload, args.seed, args.seconds,
                       args.trace, expect).returncode)


if __name__ == "__main__":
    main()
