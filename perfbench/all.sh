#!/usr/bin/env bash
# Runs every benchmark workload once, end to end (untraced), and prints
# each workload's metrics by name with their units, then its result line.
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail

seed="${1:-1}"
seconds="${2:-20}"
cd "$(dirname "$0")/.."
for w in fig7a-ab fig9a-detect world-100k world-100k-sharded; do
    echo "== $w"
    bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>&1
done
