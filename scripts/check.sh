#!/usr/bin/env bash
# CI gate: static analysis + sanitizers.
#
# Modes:
#  lint        tools/odrips-lint (per-line invariants plus the indexed
#              semantic passes: ckpt-coverage, layering, cross-file
#              unordered-iter, stale-allow), the linter's fixture
#              self-test, scripts/format.sh --check, and clang-tidy
#              over compile_commands.json when a clang-tidy binary is
#              installed. Writes build/lint-report.json
#              (machine-readable findings); on failure also prints the
#              findings scoped to files changed vs git HEAD. No
#              compiler needed for the first three, so this is the
#              cheapest gate.
#  tsan        build-tsan: -fsanitize=thread on the exec/concurrency
#              suites (`ctest -L odrips_tsan`) — catches data races in
#              the thread pool and parallel sweep runner. TSan and ASan
#              cannot be combined, so this is its own tree.
#  asan        build-asan: -fsanitize=address,undefined on everything
#              else (`ctest -LE odrips_tsan`).
#  bench       scripts/bench.sh into a scratch file (Release build,
#              -O2 -DNDEBUG), then diff against the committed
#              BENCH_kernel.json; warns when any tracked benchmark
#              regresses >25%. Not part of `all` — timings need an
#              otherwise idle machine.
#  simd        the security/SIMD differential suites (`ctest -L
#              odrips_simd`) three times: with native dispatch (the
#              best kernels the CPU supports: SHA-NI for both single-
#              and 8-stream SHA-256 where present), pinned to
#              ODRIPS_DISPATCH=avx2 (so the AVX2 8-lane SHA-256 kernel,
#              which native skips on SHA-NI hosts, still drives the MEE
#              end to end) and pinned to the portable reference with
#              ODRIPS_DISPATCH=scalar — so a bug in either side of the
#              scalar/SIMD equivalence cannot pass unnoticed.
#  ckpt        the checkpoint/fork differential suites (`ctest -L
#              odrips_ckpt`) three ways — native, ODRIPS_DISPATCH=scalar
#              and ODRIPS_CHECKPOINT=0 (the cold sweep path) — plus two
#              end-to-end bit-equality cross-checks: fig6a stdout with
#              checkpointing on/off for jobs {1,2,8} against the
#              committed tests/golden/fig6a_techniques.stdout, and the
#              longtrace summary with and without periodic
#              checkpoint/resume.
#  fleet       the fleet campaign suites (`ctest -L odrips_fleet`:
#              .odwl torture negatives, campaign determinism, quantile
#              sketches, jobs-sweep stability) plus end-to-end checks
#              on the fleet_campaign binary: the percentile report is
#              bit-identical across jobs {1,2,8} x ODRIPS_CHECKPOINT
#              {1,0} x ODRIPS_PROFILE_CACHE {1,0}, a population saved
#              to .odwl and replayed reproduces it byte for byte, the
#              naive cold loop agrees with the warm engine exactly,
#              and the warm engine's device-days/s rate beats the cold
#              loop by >=50x.
#  all         lint, then simd, then ckpt, then fleet, then tsan,
#              then asan (default).
#
# Usage: scripts/check.sh [lint|simd|ckpt|fleet|tsan|asan|bench]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
mode="${1:-all}"

generator=()
command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)

run_lint() {
    echo "== Lint gate (odrips-lint + format + clang-tidy) =="
    # Human output gates the run; a JSON artifact of the same findings
    # lands next to the build trees for diffable CI logs. A second,
    # advisory pass scoped to files changed vs HEAD localizes blame
    # when the full run fails.
    mkdir -p build
    if ! python3 tools/odrips-lint --root . --format json \
            > build/lint-report.json; then
        python3 tools/odrips-lint --root . || true
        echo "full report: build/lint-report.json; changed files only:"
        python3 tools/odrips-lint --root . --changed-only || true
        return 1
    fi
    python3 tools/test_odrips_lint.py
    scripts/format.sh --check

    if command -v clang-tidy >/dev/null 2>&1; then
        # Any configured build tree exports compile_commands.json
        # (CMAKE_EXPORT_COMPILE_COMMANDS is on); symlink the first one
        # found to the root where clang-tidy looks for it.
        local db=""
        for d in build build-warn build-tsan build-asan; do
            [ -f "$d/compile_commands.json" ] && { db="$d"; break; }
        done
        if [ -z "$db" ]; then
            cmake -B build "${generator[@]}" >/dev/null
            db="build"
        fi
        ln -sf "$db/compile_commands.json" compile_commands.json
        git ls-files 'src/**/*.cc' | xargs -P "$jobs" -n 8 \
            clang-tidy -p "$db" --quiet
        echo "clang-tidy: clean"
    else
        echo "clang-tidy not found; skipping (install clang-tools to enable)"
    fi
    echo "lint gate passed"
}

run_simd() {
    echo "== SIMD gate (ctest -L odrips_simd, native + avx2 + scalar) =="
    # Reuse an existing default tree as-is; the generator flag only
    # applies on first configure (it cannot change retroactively).
    local gen=()
    [ -d build ] || gen=("${generator[@]}")
    cmake -B build "${gen[@]}" >/dev/null
    cmake --build build -j "$jobs" \
        --target security_test simd_dispatch_test
    echo "-- native dispatch --"
    ctest --test-dir build -L odrips_simd --output-on-failure -j "$jobs"
    echo "-- ODRIPS_DISPATCH=avx2 --"
    ODRIPS_DISPATCH=avx2 \
        ctest --test-dir build -L odrips_simd --output-on-failure \
        -j "$jobs"
    echo "-- ODRIPS_DISPATCH=scalar --"
    ODRIPS_DISPATCH=scalar \
        ctest --test-dir build -L odrips_simd --output-on-failure \
        -j "$jobs"
}

run_ckpt() {
    echo "== Checkpoint gate (ctest -L odrips_ckpt + bit-equality cross-checks) =="
    local gen=()
    [ -d build ] || gen=("${generator[@]}")
    cmake -B build "${gen[@]}" >/dev/null
    cmake --build build -j "$jobs" \
        --target checkpoint_test checkpoint_parallel_test \
        fig6a_techniques longtrace_throughput

    echo "-- native --"
    ctest --test-dir build -L odrips_ckpt --output-on-failure -j "$jobs"
    echo "-- ODRIPS_DISPATCH=scalar --"
    ODRIPS_DISPATCH=scalar \
        ctest --test-dir build -L odrips_ckpt --output-on-failure \
        -j "$jobs"
    echo "-- ODRIPS_CHECKPOINT=0 (cold sweep path) --"
    ODRIPS_CHECKPOINT=0 \
        ctest --test-dir build -L odrips_ckpt --output-on-failure \
        -j "$jobs"

    # Warm-forked sweeps must not change a single figure: fig6a stdout
    # (the host-timed telemetry table goes to stderr) matches the
    # committed golden with checkpointing on and off, for every worker
    # count.
    echo "-- fig6a vs golden: ODRIPS_CHECKPOINT {1,0} x jobs {1,2,8} --"
    local ref scratch
    ref="$(mktemp)"
    scratch="$(mktemp)"
    local j c
    for j in 1 2 8; do
        for c in 1 0; do
            ODRIPS_JOBS=$j ODRIPS_CHECKPOINT=$c \
                ./build/bench/fig6a_techniques 2>/dev/null >"$scratch"
            if ! cmp -s tests/golden/fig6a_techniques.stdout \
                    "$scratch"; then
                echo "ckpt: fig6a output diverged from its golden" \
                     "(jobs=$j, checkpoint=$c)" >&2
                rm -f "$ref" "$scratch"
                exit 1
            fi
        done
    done

    # Periodic checkpoint/resume (full state -> disk -> fresh
    # simulator) must leave the longtrace summary bit-identical to an
    # uninterrupted run.
    echo "-- longtrace checkpoint/resume bit-equality --"
    ./build/bench/longtrace_throughput 60 2>/dev/null >"$ref"
    ./build/bench/longtrace_throughput 60 7 2>/dev/null >"$scratch"
    if ! cmp -s "$ref" "$scratch"; then
        echo "ckpt: longtrace checkpoint/resume diverged" >&2
        rm -f "$ref" "$scratch"
        exit 1
    fi
    rm -f "$ref" "$scratch"
    echo "checkpoint gate passed"
}

run_fleet() {
    echo "== Fleet gate (ctest -L odrips_fleet + campaign bit-equality) =="
    local gen=()
    [ -d build ] || gen=("${generator[@]}")
    cmake -B build "${gen[@]}" >/dev/null
    cmake --build build -j "$jobs" \
        --target odwl_test fleet_test fleet_parallel_test fleet_campaign

    echo "-- ctest -L odrips_fleet --"
    ctest --test-dir build -L odrips_fleet --output-on-failure -j "$jobs"

    # The percentile report depends only on the campaign
    # configuration: the worker count, the warm checkpoint pool and
    # the profile cache are pure accelerators. Any divergence
    # here means an accelerator changed the physics.
    echo "-- fleet_campaign bit-equality: jobs {1,2,8} x ODRIPS_CHECKPOINT {1,0} x ODRIPS_PROFILE_CACHE {1,0} --"
    local dir
    dir="$(mktemp -d)"
    ./build/bench/fleet_campaign --devices=600 --jobs=8 \
        2>/dev/null > "$dir/ref.txt"
    local j c p
    for j in 1 2 8; do
        for c in 1 0; do
            for p in 1 0; do
                ODRIPS_CHECKPOINT=$c ODRIPS_PROFILE_CACHE=$p \
                    ./build/bench/fleet_campaign --devices=600 \
                    --jobs="$j" 2>/dev/null > "$dir/scratch.txt"
                if ! cmp -s "$dir/ref.txt" "$dir/scratch.txt"; then
                    echo "fleet: campaign report diverged (jobs=$j," \
                         "checkpoint=$c, profile_cache=$p)" >&2
                    rm -rf "$dir"
                    exit 1
                fi
            done
        done
    done

    # A population saved to .odwl and replayed must reproduce the
    # in-memory population's report byte for byte.
    echo "-- .odwl population round-trip bit-equality --"
    ./build/bench/fleet_campaign --emit-odwl="$dir/pop.odwl" 2>/dev/null
    ./build/bench/fleet_campaign --odwl="$dir/pop.odwl" --devices=600 \
        --jobs=8 2>/dev/null > "$dir/scratch.txt"
    if ! cmp -s "$dir/ref.txt" "$dir/scratch.txt"; then
        echo "fleet: .odwl-replayed report diverged from in-memory" \
             "population" >&2
        rm -rf "$dir"
        exit 1
    fi

    # The naive cold loop is the semantic reference: same numbers,
    # none of the machinery.
    echo "-- naive cold loop == warm engine (40 devices) --"
    ./build/bench/fleet_campaign --devices=40 --jobs=1 \
        2>/dev/null > "$dir/warm40.txt"
    ./build/bench/fleet_campaign --devices=40 --cold --jobs=1 \
        2>/dev/null > "$dir/cold40.txt"
    if ! cmp -s "$dir/warm40.txt" "$dir/cold40.txt"; then
        echo "fleet: naive cold loop and warm engine disagree" >&2
        rm -rf "$dir"
        exit 1
    fi

    # The warm engine must be worth its machinery: device-days/s from
    # external `date` timing (simulator sources cannot read host time).
    echo "-- fleet speedup: warm fork vs naive cold rebuild (>=50x) --"
    local t0 t1 cold_ns warm_ns
    t0=$(date +%s%N)
    ./build/bench/fleet_campaign --devices=100 --cold --jobs="$jobs" \
        >/dev/null 2>&1
    t1=$(date +%s%N)
    cold_ns=$((t1 - t0))
    t0=$(date +%s%N)
    ./build/bench/fleet_campaign --devices=4000 --jobs="$jobs" \
        >/dev/null 2>&1
    t1=$(date +%s%N)
    warm_ns=$((t1 - t0))
    if ! python3 - "$cold_ns" "$warm_ns" <<'PY'
import sys

cold_ns, warm_ns = int(sys.argv[1]), int(sys.argv[2])
cold_rate = 100 / (cold_ns / 1e9)
warm_rate = 4000 / (warm_ns / 1e9)
speedup = warm_rate / cold_rate if cold_rate > 0 else float("inf")
print(f"fleet: cold {cold_rate:.1f} device-days/s, warm "
      f"{warm_rate:.1f} device-days/s ({speedup:.0f}x)")
if speedup < 50:
    sys.exit("fleet: warm engine is <50x the naive cold loop; the "
             "checkpoint pool is not earning its keep")
PY
    then
        rm -rf "$dir"
        exit 1
    fi
    rm -rf "$dir"
    echo "fleet gate passed"
}

run_tsan() {
    echo "== TSan build (ctest -L odrips_tsan) =="
    cmake -B build-tsan "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
    cmake --build build-tsan -j "$jobs"
    ctest --test-dir build-tsan -L odrips_tsan --output-on-failure -j "$jobs"
}

run_asan() {
    echo "== ASan/UBSan build (ctest -LE odrips_tsan) =="
    cmake -B build-asan "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -g" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
    cmake --build build-asan -j "$jobs"
    ctest --test-dir build-asan -LE odrips_tsan --output-on-failure -j "$jobs"
}

run_bench() {
    echo "== Bench gate (Release run vs committed BENCH_kernel.json) =="
    if [ ! -f BENCH_kernel.json ]; then
        echo "bench: no committed BENCH_kernel.json baseline; run" \
             "scripts/bench.sh and commit the result" >&2
        exit 1
    fi
    local fresh
    fresh="$(mktemp)"
    scripts/bench.sh "$fresh"
    python3 - "$fresh" BENCH_kernel.json <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    fresh = json.load(f)["benchmarks"]
with open(sys.argv[2]) as f:
    base = json.load(f)["benchmarks"]

warned = False
for name, entry in base.items():
    cur = fresh.get(name)
    if cur is None:
        print(f"bench: {name}: MISSING from fresh run")
        warned = True
        continue
    # lower-is-better keys, then higher-is-better ones (throughput).
    for key in ("ns_per_op", "wall_clock_s", "cycles_per_second",
                "device_days_per_second"):
        if key in entry and key in cur and entry[key] > 0 and cur[key] > 0:
            higher_better = key in ("cycles_per_second",
                                    "device_days_per_second")
            ratio = (entry[key] / cur[key] if higher_better
                     else cur[key] / entry[key])
            marker = ""
            if ratio > 1.25:
                marker = "  <-- WARNING: regressed >25%"
                warned = True
            print(f"bench: {name} {key}: {entry[key]} -> {cur[key]}"
                  f" ({ratio:.2f}x){marker}")

if warned:
    print("bench: WARNING: tracked benchmarks regressed >25% vs the "
          "committed baseline (see markers above)")
else:
    print("bench: all tracked benchmarks within 25% of the committed "
          "baseline")
PY
    rm -f "$fresh"
}

case "$mode" in
lint) run_lint ;;
simd) run_simd ;;
ckpt) run_ckpt ;;
fleet) run_fleet ;;
tsan) run_tsan ;;
asan) run_asan ;;
bench) run_bench ;;
all)
    run_lint
    run_simd
    run_ckpt
    run_fleet
    run_tsan
    run_asan
    ;;
*)
    echo "usage: $0 [lint|simd|ckpt|fleet|tsan|asan|bench]" >&2
    exit 2
    ;;
esac

echo "check.sh: all requested gates passed"
