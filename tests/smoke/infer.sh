#!/usr/bin/env bash
# Three-process malicious-mode inference over TCP, every party honest:
# computing parties 1 and 2 run alone, party 0 shares a process with
# both owners.  That process must reconstruct the in-memory engine's
# labels exactly (--check), and its telemetry export must validate —
# the triple ledger included, with its triple.store.miss counter.
#
# Usage: infer.sh TRUSTDDL_PARTY CHECK_METRICS_PY
party=$1
check_metrics=$2
. "$(dirname "$0")/lib.sh"

base=$(pick_port_base 5)
run_bg party1.log "$party" --party-ids 1 --port-base "$base"
run_bg party2.log "$party" --party-ids 2 --port-base "$base"
run_bg owners.log "$party" --party-ids 0,3,4 --port-base "$base" \
  --mode malicious --check --metrics-out "$work/metrics.json"
wait_all
grep -q "check: MATCH" "$work/owners.log"
grep -q '"triple\.store\.miss"' "$work/metrics.json"
python3 "$check_metrics" "$work/metrics.json"
