#!/usr/bin/env bash
# Tracked perf harness: builds Release, runs bench/microbench plus
# end-to-end wall-clock timings (fig6a_techniques, longtrace
# throughput, and fleet_campaign device-days/s in cold / warm
# regimes), and emits the BENCH_kernel.json trajectory file.
#
# Schema (odrips-bench-v1): {"benchmarks": {<name>: {"ns_per_op": N,
# "bytes_per_second": N} | {"wall_clock_s": N}}}. scripts/check.sh
# bench diffs a fresh run against the committed BENCH_kernel.json and
# warns when any tracked benchmark regresses >25%.
#
# The figure binary is timed from here with `date`: simulator sources
# must not read host time (the wall-clock lint rule), so end-to-end
# wall clock is the harness's job.
#
# Every benchmark binary is run fail-loud: a non-zero exit aborts the
# harness with the binary's name instead of silently writing a JSON
# file with missing or stale numbers. The output file is written
# atomically (tmp + rename) so an aborted run never leaves a truncated
# trajectory behind.
#
# Usage: scripts/bench.sh [output.json]      (default: BENCH_kernel.json)
#        ODRIPS_BENCH_BUILD=dir overrides the Release build tree.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_kernel.json}"
jobs=$(nproc 2>/dev/null || echo 2)
build_dir="${ODRIPS_BENCH_BUILD:-build-bench}"

fail() {
    echo "bench.sh: FAIL: $*" >&2
    exit 1
}

generator=()
[ -d "$build_dir" ] || { command -v ninja >/dev/null 2>&1 && generator=(-G Ninja); }

echo "== bench.sh: Release build in $build_dir =="
build_log="$(mktemp)"
micro_json="$(mktemp)"
fleet_dir=""
trap 'rm -f "$build_log" "$micro_json"; [ -n "$fleet_dir" ] && rm -rf "$fleet_dir"' EXIT

# Ninja reports compile errors on stdout, so a bare >/dev/null would
# swallow them; keep the build log and replay its tail on failure.
cmake -B "$build_dir" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
    > "$build_log" 2>&1 \
    || { tail -40 "$build_log" >&2; fail "cmake configure failed"; }
cmake --build "$build_dir" -j "$jobs" \
    --target microbench fig6a_techniques longtrace_throughput \
    fleet_campaign arch_info \
    > "$build_log" 2>&1 \
    || { tail -40 "$build_log" >&2; fail "Release build failed"; }

echo "== bench.sh: microbench =="
"$build_dir/bench/microbench" --benchmark_format=json > "$micro_json" \
    || fail "microbench exited non-zero"

# Environment stamp: which kernels produced these numbers, on what CPU,
# at which commit. A perf delta without this block is unattributable.
arch_json="$("$build_dir/bench/arch_info")"
git_sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

echo "== bench.sh: fig6a_techniques wall clock (best of 3) =="
best_ns=""
for _ in 1 2 3; do
    t0=$(date +%s%N)
    "$build_dir/bench/fig6a_techniques" --jobs=1 >/dev/null 2>&1 \
        || fail "fig6a_techniques exited non-zero"
    t1=$(date +%s%N)
    dt=$((t1 - t0))
    if [ -z "$best_ns" ] || [ "$dt" -lt "$best_ns" ]; then
        best_ns="$dt"
    fi
done

long_cycles=1000
echo "== bench.sh: longtrace_throughput wall clock ($long_cycles cycles, best of 3) =="
long_best_ns=""
for _ in 1 2 3; do
    t0=$(date +%s%N)
    "$build_dir/bench/longtrace_throughput" "$long_cycles" >/dev/null \
        || fail "longtrace_throughput exited non-zero"
    t1=$(date +%s%N)
    dt=$((t1 - t0))
    if [ -z "$long_best_ns" ] || [ "$dt" -lt "$long_best_ns" ]; then
        long_best_ns="$dt"
    fi
done

# Fleet campaign throughput in device-days per host second, two
# regimes: the naive cold loop (fresh platform per device) and the
# warm engine (phase-matched checkpoint forks + in-process profile
# cache).
fleet_cold_devices=200
fleet_warm_devices=10000
echo "== bench.sh: fleet_campaign device-days/s (cold $fleet_cold_devices, warm $fleet_warm_devices) =="
fleet_dir="$(mktemp -d)"
t0=$(date +%s%N)
"$build_dir/bench/fleet_campaign" --devices="$fleet_cold_devices" \
    --cold --jobs="$jobs" >/dev/null 2>&1 \
    || fail "fleet_campaign --cold exited non-zero"
t1=$(date +%s%N)
fleet_cold_ns=$((t1 - t0))
t0=$(date +%s%N)
"$build_dir/bench/fleet_campaign" --devices="$fleet_warm_devices" \
    --jobs="$jobs" >/dev/null 2> "$fleet_dir/warm.err" \
    || fail "fleet_campaign warm exited non-zero"
t1=$(date +%s%N)
fleet_warm_ns=$((t1 - t0))
fleet_telemetry="$(grep -o 'fleet-campaign-telemetry: .*' "$fleet_dir/warm.err" | tail -1 | cut -d' ' -f2-)"
[ -n "$fleet_telemetry" ] \
    || fail "fleet_campaign emitted no telemetry line"

python3 - "$micro_json" "$best_ns" "$out" "$arch_json" "$git_sha" \
    "$long_best_ns" "$long_cycles" \
    "$fleet_cold_ns" "$fleet_warm_ns" \
    "$fleet_cold_devices" "$fleet_warm_devices" "$fleet_telemetry" \
    <<'PY'
import json
import os
import sys

micro_path, fig_ns, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
environment = json.loads(sys.argv[4])
environment["git_sha"] = sys.argv[5]
long_ns, long_cycles = int(sys.argv[6]), int(sys.argv[7])
fleet_cold_ns, fleet_warm_ns = int(sys.argv[8]), int(sys.argv[9])
fleet_cold_n, fleet_warm_n = int(sys.argv[10]), int(sys.argv[11])
fleet_tel = json.loads(sys.argv[12])
with open(micro_path) as f:
    micro = json.load(f)

scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
benches = {}
for b in micro.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    benches[b["name"]] = {
        "ns_per_op": round(b["real_time"] * scale[b.get("time_unit", "ns")], 1),
        "bytes_per_second": int(b.get("bytes_per_second", 0)),
    }
benches["fig6a_techniques"] = {"wall_clock_s": round(fig_ns / 1e9, 3)}
# Long-trace throughput: simulated standby cycles per host second over
# a >=1000-cycle trace (CsrSubset mutation model, incremental saves).
benches["longtrace_throughput"] = {
    "wall_clock_s": round(long_ns / 1e9, 3),
    "cycles_per_second": round(long_cycles / (long_ns / 1e9), 1),
}
# Fleet campaign throughput: device-days of connected standby
# evaluated per host second, per regime. The headline number is
# fleet_campaign_warm; cold is the naive foil.
benches["fleet_campaign_cold"] = {
    "wall_clock_s": round(fleet_cold_ns / 1e9, 3),
    "device_days_per_second":
        round(fleet_cold_n / (fleet_cold_ns / 1e9), 1),
}
benches["fleet_campaign_warm"] = {
    "wall_clock_s": round(fleet_warm_ns / 1e9, 3),
    "device_days_per_second":
        round(fleet_warm_n / (fleet_warm_ns / 1e9), 1),
}
# O(stats) proof + accelerator attribution for the fleet numbers.
environment["fleet_campaign"] = {
    "devices": fleet_tel["devices"],
    "cycles": fleet_tel["cycles"],
    "aggregation_bytes": fleet_tel["aggregation_bytes"],
    "pool_restores": fleet_tel["pool_restores"],
    "profile_cache_hits": fleet_tel["profile_cache_hits"],
}

# Preserve any history block the committed trajectory carries.
previous = None
try:
    with open(out_path) as f:
        previous = json.load(f).get("previous")
except (OSError, ValueError):
    pass

doc = {
    "schema": "odrips-bench-v1",
    "note": "Tracked perf trajectory; regenerate with scripts/bench.sh. "
            "scripts/check.sh bench warns when a fresh run regresses "
            ">25% vs these numbers.",
    "build_type": "Release",
    "environment": environment,
    "benchmarks": benches,
}
if previous is not None:
    doc["previous"] = previous

# Atomic write: a crash mid-dump must not leave a truncated trajectory
# where the committed baseline used to be.
tmp_path = out_path + ".tmp"
with open(tmp_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
os.replace(tmp_path, out_path)
print(f"bench.sh: wrote {out_path}")
PY
