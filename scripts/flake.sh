#!/usr/bin/env bash
# Measure a test's flake rate: rerun one cargo test N times and count
# passes and failures.
#
# Usage: scripts/flake.sh <runs> <cargo test args...>
# Example:
#   scripts/flake.sh 100 --test hotpath -- \
#       concurrent_acks_all_producers_lose_nothing_under_chaos --exact
#
# The test is built once up front; every run then reuses the build.
# The output of each failing run is kept (FLAKE_LOG_DIR, default a fresh
# temp dir) and its panic line printed, so a rare failure is not lost.
# Exits 1 when any run failed.

set -uo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || ! [[ $1 =~ ^[0-9]+$ ]]; then
    sed -n '4,7p' "$0" >&2
    exit 2
fi
runs=$1
shift
logs=${FLAKE_LOG_DIR:-$(mktemp -d -t flake-XXXXXX)}
mkdir -p "$logs"

cargo test -q --no-run "$@" >/dev/null 2>&1 || { echo "build failed: cargo test --no-run $*" >&2; exit 2; }

pass=0
fail=0
for i in $(seq 1 "$runs"); do
    if cargo test -q "$@" >"$logs/run-$i.log" 2>&1; then
        pass=$((pass + 1))
        rm -f "$logs/run-$i.log"
    else
        fail=$((fail + 1))
        echo "run $i failed: $(grep -m1 -A1 'panicked at' "$logs/run-$i.log" | tail -n1)"
    fi
done
echo "runs=$runs pass=$pass fail=$fail (failing runs' output in $logs)"
[ "$fail" -eq 0 ]
