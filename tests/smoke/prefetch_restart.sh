#!/usr/bin/env bash
# Three-process malicious inference over TCP with persisted triple
# stores, run twice.  First every party deals ahead of its steps and
# persists its store (cursors and any held entries) on shutdown; then
# every party restarts from the persisted stores, resuming mid-cursor.
# Dealing ahead is a scheduling decision, so both runs must reproduce
# the in-memory engine's labels (--check), and both exports must
# validate, preprocessing ledger included (produced == consumed + still
# stored).  The removed --triple-prefetch flag must be a usage error.
#
# Usage: prefetch_restart.sh TRUSTDDL_PARTY CHECK_METRICS_PY
party=$1
check_metrics=$2
. "$(dirname "$0")/lib.sh"

stores="$work/stores"
mkdir -p "$stores"
for run in first restart; do
  base=$(pick_port_base 5)
  flags=(--port-base "$base" --triple-store-dir "$stores")
  run_bg "$run.party1.log" "$party" --party-ids 1 "${flags[@]}"
  run_bg "$run.party2.log" "$party" --party-ids 2 "${flags[@]}"
  run_bg "$run.driver.log" "$party" --party-ids 0,3,4 "${flags[@]}" \
    --mode malicious --check --metrics-out "$work/$run.metrics.json"
  wait_all
  grep -q "check: MATCH" "$work/$run.driver.log"
  python3 "$check_metrics" "$work/$run.metrics.json"
  if [ "$run" = first ]; then
    for i in 0 1 2; do
      test -s "$stores/party$i.infer.triples"
    done
  fi
done

status=0
"$party" --party-ids 0 --triple-prefetch > "$work/flag.log" 2>&1 || status=$?
test "$status" -eq 64
grep -q "unknown flag --triple-prefetch" "$work/flag.log"
