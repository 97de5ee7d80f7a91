#!/usr/bin/env bash
# Runs each benchmark workload for one second and fails unless its results
# pass their correctness checks with no failed operation. The workloads check
# against fine-grid and RK4 references that tier-1 never runs.
#
# Usage, from the repository root: bash .github/bench-checks.sh [context]
# context, when given, ends the error message (for example "at the numpy floor").
for workload in stefan_cases cli_coarse cli_sweep profile_fine; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1 \
    | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["failed"] == 0))' \
    || { echo "::error::benchmark workload $workload failed its checks${1:+ $1}"; exit 1; }
done
