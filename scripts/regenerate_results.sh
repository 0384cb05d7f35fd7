#!/usr/bin/env bash
# Rebuild everything, regenerate every table/figure of the paper into
# bench_output.txt, and run the full test suite into test_output.txt.
#
# The result benches are the ones with a committed stdout golden,
# tests/golden/<bench>.stdout. With --update-goldens, every golden
# whose bench now prints different bytes is rewritten and the diff is
# printed; name each golden change and its reason in CHANGES.md.
#
# Usage: scripts/regenerate_results.sh [--update-goldens]
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
case "${1:-}" in
"") ;;
--update-goldens) update=1 ;;
*)
    echo "usage: $0 [--update-goldens]" >&2
    exit 2
    ;;
esac

# The generator only applies on first configure; an existing tree
# keeps the one it was configured with.
generator=()
if [ ! -d build ] && command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
fi
cmake -B build "${generator[@]}"
cmake --build build -j "$(nproc 2>/dev/null || echo 2)"

fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT

for golden in tests/golden/*.stdout; do
    bench="$(basename "$golden" .stdout)"
    "build/bench/$bench" | tee "$fresh/$bench.stdout"
done 2>&1 | tee bench_output.txt

if [ "$update" = 1 ]; then
    changed=0
    for golden in tests/golden/*.stdout; do
        new="$fresh/$(basename "$golden")"
        if ! cmp -s "$golden" "$new"; then
            diff -u --label "a/$golden" --label "b/$golden" \
                "$golden" "$new" || true
            cp "$new" "$golden"
            changed=$((changed + 1))
        fi
    done
    echo "goldens: $changed file(s) rewritten"
fi

ctest --test-dir build 2>&1 | tee test_output.txt

echo
echo "done: bench_output.txt, test_output.txt"
