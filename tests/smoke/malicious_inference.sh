#!/usr/bin/env bash
# Three-process malicious-mode inference over TCP.  Computing party 1
# mounts consistent-corruption (Case 3) attacks against every opening;
# the driver process (party 0 plus both owners) must reconstruct the
# in-memory engine's labels exactly (--check), and its telemetry export
# must validate with every detection event accusing party 1 in the
# exchange phase.
#
# Usage: malicious_inference.sh TRUSTDDL_PARTY CHECK_METRICS_PY
party=$1
check_metrics=$2
. "$(dirname "$0")/lib.sh"

base=$(pick_port_base 5)
flags=(--port-base "$base" --task malicious-inference)
run_bg party1.log "$party" --party-ids 1 "${flags[@]}"
run_bg party2.log "$party" --party-ids 2 "${flags[@]}"
run_bg driver.log "$party" --party-ids 0,3,4 "${flags[@]}" --check \
  --metrics-out "$work/metrics.json" --trace-out "$work/trace.jsonl"
wait_all
grep -q "check: MATCH" "$work/driver.log"
python3 "$check_metrics" "$work/metrics.json" --trace "$work/trace.jsonl" \
  --expect-suspect 1 --expect-phase exchange
