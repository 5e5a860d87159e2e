#!/usr/bin/env bash
# Four-process serving over TCP with one Byzantine serving edge: party
# 2 returns corrupted result shares, and the client must out-vote it on
# all 16 requests (4 concurrent threads) with labels matching the
# in-memory engine (--check).  The owner process's telemetry export
# must validate, serving ledger included, and show partial batches
# dispatched to idle parties.  The removed --serve-window-ms and
# --batch-openings flags must be usage errors.
#
# Usage: serve.sh TRUSTDDL_PARTY TRUSTDDL_CLIENT CHECK_METRICS_PY
party=$1
client=$2
check_metrics=$3
. "$(dirname "$0")/lib.sh"

base=$(pick_port_base 6)
run_bg party1.log "$party" --task serve --party-ids 1 --port-base "$base"
run_bg party2.log "$party" --task serve --party-ids 2 --port-base "$base" \
  --serve-corrupt-results
run_bg owner.log "$party" --task serve --party-ids 0,4 --port-base "$base" \
  --metrics-out "$work/serve_metrics.json"
run_bg client.log "$client" --port-base "$base" --requests 16 \
  --concurrency 4 --check
wait_all
grep -q "completed 16/16 requests" "$work/client.log"
grep -q "serve check: MATCH" "$work/client.log"
python3 "$check_metrics" "$work/serve_metrics.json"
python3 - "$work/serve_metrics.json" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["metrics"]["counters"]
sys.exit(0 if counters.get("serve.dispatch.idle", 0) > 0
         else "no batch was dispatched to idle parties")
PY

# rejects_flag FLAG VALUE: the removed FLAG is a usage error.
rejects_flag() {
  local status=0
  "$party" --task serve --party-ids 0 "$@" > "$work/flag.log" 2>&1 ||
    status=$?
  test "$status" -eq 64
  grep -q "unknown flag $1" "$work/flag.log"
}
rejects_flag --serve-window-ms 20
rejects_flag --batch-openings off
