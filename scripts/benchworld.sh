#!/usr/bin/env sh
# benchworld.sh — world-benchmark harness with per-variant process
# isolation.
#
# Runs each benchmark variant in a FRESH geosim process (one exec per
# configuration), so no variant inherits another's heap growth, GC
# history or warmed allocator — the in-process `go test -bench` siblings
# skew exactly that way (BENCH_engine.json measured a 2.4x warm-up skew).
# The per-variant one-line JSON records are merged into a single JSON
# document on stdout, in run order, with no external tools (no jq).
#
# Usage:
#   scripts/benchworld.sh [vehicles] [sim_seconds] [out.json]
#
# Defaults: 100000 vehicles, 5 s simulated, stdout only. Variants:
#   - sequential baseline (GOMAXPROCS=host)
#   - sharded shards=8 at GOMAXPROCS 1, 2, 4, 8  (the scaling curve)
#
# events_per_sec covers the Run phase only; world assembly is excluded.
set -eu

VEHICLES="${1:-100000}"
SIM="${2:-5}"
OUT="${3:-}"

cd "$(dirname "$0")/.."

GEOSIM="$(mktemp -d)/geosim"
trap 'rm -rf "$(dirname "$GEOSIM")"' EXIT
go build -o "$GEOSIM" ./cmd/geosim

run_variant() { # args: GOMAXPROCS shards
    GOMAXPROCS="$1" "$GEOSIM" -bench-world \
        -bench-vehicles "$VEHICLES" -bench-shards "$2" -bench-sim "${SIM}s"
}

merge() {
    printf '{\n  "vehicles": %s,\n  "sim_seconds": %s,\n  "host_cpus": %s,\n  "runs": [\n' \
        "$VEHICLES" "$SIM" "$(nproc 2>/dev/null || echo 1)"
    first=1
    while IFS= read -r line; do
        [ -n "$line" ] || continue
        if [ "$first" -eq 1 ]; then first=0; else printf ',\n'; fi
        printf '    %s' "$line"
    done
    printf '\n  ]\n}\n'
}

{
    echo "benchworld: sequential baseline" >&2
    run_variant "$(nproc 2>/dev/null || echo 1)" 0
    for procs in 1 2 4 8; do
        echo "benchworld: shards=8 GOMAXPROCS=$procs" >&2
        run_variant "$procs" 8
    done
} | merge | if [ -n "$OUT" ]; then tee "$OUT"; else cat; fi
