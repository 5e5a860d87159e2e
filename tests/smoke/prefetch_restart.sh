#!/usr/bin/env bash
# Three-process malicious inference over TCP with the offline/online
# split, run twice.  First every party prefetches shape-keyed triple
# stores and persists its unconsumed store on shutdown; then every
# party restarts from the persisted stores, resuming mid-cursor.
# Prefetching is a scheduling decision, so both runs must reproduce the
# in-memory engine's labels (--check), and both exports must validate,
# preprocessing ledger included (produced == consumed + still stored).
#
# Usage: prefetch_restart.sh TRUSTDDL_PARTY CHECK_METRICS_PY
party=$1
check_metrics=$2
. "$(dirname "$0")/lib.sh"

stores="$work/stores"
mkdir -p "$stores"
for run in prefetch restart; do
  base=$(pick_port_base 5)
  flags=(--port-base "$base" --triple-prefetch --triple-store-dir "$stores")
  run_bg "$run.party1.log" "$party" --party-ids 1 "${flags[@]}"
  run_bg "$run.party2.log" "$party" --party-ids 2 "${flags[@]}"
  run_bg "$run.driver.log" "$party" --party-ids 0,3,4 "${flags[@]}" \
    --mode malicious --check --metrics-out "$work/$run.metrics.json"
  wait_all
  grep -q "check: MATCH" "$work/$run.driver.log"
  python3 "$check_metrics" "$work/$run.metrics.json"
  if [ "$run" = prefetch ]; then
    for i in 0 1 2; do
      test -s "$stores/party$i.infer.triples"
    done
  fi
done
