#!/usr/bin/env bash
# Two 3-process serving pods behind one trustddl.fleet.v1 topology,
# with pod west SIGKILLed mid-traffic.  Eight routed clients
# rendezvous-hash their --client-id onto a home pod (the east/west
# names split ids 5..12 exactly 4/4) and send 12 requests each, 500 ms
# apart.  Once both pods have completed requests, each pod's paired
# metrics rendering is scraped and all three of west's processes are
# killed.  The fleet view must go from exit 0 (healthy) to exit 1 with
# west DEGRADED; every client must still complete 12/12 requests with
# labels matching the in-memory engine (--check); east's exit export
# must validate against its pair scrape, and both scrapes must carry
# their pod label.
#
# Usage: fleet_chaos.sh TRUSTDDL_PARTY TRUSTDDL_CLIENT CHECK_METRICS_PY
#                       FLEET_STATUS_PY
party=$1
client=$2
check_metrics=$3
fleet_status=$4
. "$(dirname "$0")/lib.sh"

# Per pod: five actor ports (port_base + actor id).  Then the admin
# ports of east's party 0 and party 1, and of west's.
base=$(pick_port_base 14)
east_admin=$((base + 10))
west_admin=$((base + 12))
fleet="$work/fleet.json"
cat > "$fleet" <<EOF
{
  "schema": "trustddl.fleet.v1",
  "clients": 8,
  "pods": [
    {"name": "east", "host": "127.0.0.1", "port_base": $base,
     "admin_ports": [$east_admin, $((east_admin + 1))]},
    {"name": "west", "host": "127.0.0.1", "port_base": $((base + 5)),
     "admin_ports": [$west_admin, $((west_admin + 1))]}
  ]
}
EOF

# west also exports metrics: its serving ledger must be live for the
# pair scrape, although the kill means its exit export is never written.
admin=$east_admin
for pod in east west; do
  serve=(--task serve --fleet "$fleet" --pod "$pod")
  run_bg "$pod.party1.log" "$party" "${serve[@]}" --party-ids 1 \
    --admin-port $((admin + 1))
  run_bg "$pod.party2.log" "$party" "${serve[@]}" --party-ids 2
  run_bg "$pod.owner.log" "$party" "${serve[@]}" --party-ids 0,4 \
    --admin-port "$admin" --metrics-out "$work/${pod}_metrics.json"
  admin=$((admin + 2))
done
east_pids=("${pids[@]:0:3}")
west_pids=("${pids[@]:3:3}")

# Gate on the fleet view, not on sleep: both pods must report healthy
# before any shares move, and the one-shot view must then exit 0.
for _ in $(seq 1 120); do
  if python3 "$fleet_status" --topology "$fleet" > /dev/null 2>&1; then
    break
  fi
  sleep 0.5
done
python3 "$fleet_status" --topology "$fleet" > "$work/fleet_healthy.log"

# One worker per client and a 500 ms gap keep the workload alive for
# several seconds, so the kill lands mid-traffic.
for id in 5 6 7 8 9 10 11 12; do
  run_bg "client$id.log" "$client" --fleet "$fleet" --client-id "$id" \
    --clients 8 --requests 12 --concurrency 1 --request-gap-ms 500 --check
done
client_pids=("${pids[@]:6}")

# wait_completed PORT: block until the /status ledger of the admin
# endpoint on PORT shows completed requests.
wait_completed() {
  python3 - "$1" <<'PY'
import json, sys, time, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}/status"
for _ in range(300):
    try:
        with urllib.request.urlopen(url, timeout=2) as response:
            ledgers = json.load(response)["ledgers"]
        if ledgers.get("serve.requests.completed", 0) >= 2:
            sys.exit(0)
    except (OSError, ValueError, KeyError):
        pass
    time.sleep(0.2)
sys.exit(f"no completed requests at {url}")
PY
}

# scrape_pair PORT OUT: one snapshot in both renderings, from PORT.
scrape_pair() {
  python3 - "$1" "$2" <<'PY'
import sys, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}/metrics?format=pair"
with urllib.request.urlopen(url, timeout=5) as response:
    open(sys.argv[2], "wb").write(response.read())
PY
}

wait_completed "$west_admin"
wait_completed "$east_admin"
scrape_pair "$east_admin" "$work/east_pair.json"
scrape_pair "$west_admin" "$work/west_pair.json"

# SIGKILL west's party processes (the children of their `timeout`
# wrappers), and reap the wrappers so the processes are gone before
# the fleet view polls again.
for pid in "${west_pids[@]}"; do
  pkill -KILL -P "$pid"
done
for pid in "${west_pids[@]}"; do
  wait "$pid" || true
done

# Degraded, not dead: exit 1 (some pods healthy), with west's endpoints
# rendered DOWN rather than crashing the poll.
status=0
python3 "$fleet_status" --topology "$fleet" > "$work/fleet_degraded.log" ||
  status=$?
test "$status" -eq 1
grep -q "pod west: DEGRADED" "$work/fleet_degraded.log"

# The clients homed on west fail over to east; every client completes
# all its requests and MATCHes.  Then east drains and exits cleanly.
for id in 5 6 7 8 9 10 11 12; do
  wait "${client_pids[$((id - 5))]}"
  grep -q "completed 12/12 requests" "$work/client$id.log"
  grep -q "serve check: MATCH" "$work/client$id.log"
done
for pid in "${east_pids[@]}"; do
  wait "$pid"
done
pids=()

# east's exit export passes every ledger check, and its paired
# rendering carries pod="east" on every serve.* sample; west's mid-run
# scrape proves it labeled its serving ledger too.  The prometheus
# text rides inside a JSON string, so the label quotes are escaped.
python3 "$check_metrics" "$work/east_metrics.json" --pair "$work/east_pair.json"
grep -q 'pod=\\"east\\"' "$work/east_pair.json"
grep -q 'pod=\\"west\\"' "$work/west_pair.json"
