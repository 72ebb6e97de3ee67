#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, for example:
#
#   bash perfbench/run.sh --workload fig7a-ab --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, campaign
# scratch directories, traces) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
