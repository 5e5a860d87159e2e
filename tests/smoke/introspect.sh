#!/usr/bin/env bash
# Four-process serving under live introspection.  Every party process
# serves its admin endpoint and writes a phase trace, and a client fires
# 64 requests from 4 threads, 100 ms apart per thread, so the traffic
# outlasts the /status poll.  While the client is still running, the
# model-owner process's /status must show at least 8 completed requests;
# then its /healthz, /metrics (JSON, and one snapshot in both JSON and
# Prometheus form) and /events, and both other parties' /healthz, are
# scraped and the fleet view must exit 0.  The client must complete
# 64/64 requests with labels matching the in-memory engine (--check),
# the owner's exit export must validate against the live scrapes, and
# the four traces must join into complete per-request timelines.
#
# Usage: introspect.sh TRUSTDDL_PARTY TRUSTDDL_CLIENT CHECK_METRICS_PY
#                      FLEET_STATUS_PY MERGE_TRACES_PY
party=$1
client=$2
check_metrics=$3
fleet_status=$4
merge_traces=$5
. "$(dirname "$0")/lib.sh"

# Five actor ports and the client's (port_base + actor id), then the
# admin ports of party 0 (with the model owner), party 1 and party 2.
base=$(pick_port_base 9)
admin=$((base + 6))
serve=(--task serve --port-base "$base")
run_bg party1.log "$party" "${serve[@]}" --party-ids 1 \
  --admin-port $((admin + 1)) --trace-out "$work/party1.trace.jsonl"
run_bg party2.log "$party" "${serve[@]}" --party-ids 2 \
  --admin-port $((admin + 2)) --trace-out "$work/party2.trace.jsonl"
run_bg owner.log "$party" "${serve[@]}" --party-ids 0,4 \
  --admin-port "$admin" --metrics-out "$work/metrics.json" \
  --trace-out "$work/party0.trace.jsonl"
run_bg client.log "$client" --port-base "$base" --requests 64 \
  --concurrency 4 --request-gap-ms 100 --check \
  --trace-out "$work/client.trace.jsonl"
client_pid=${pids[3]}

# completed PORT: the serve.requests.completed ledger of the admin
# endpoint on PORT, or -1 while it does not answer.
completed() {
  python3 - "$1" <<'PY'
import json, sys, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}/status"
try:
    with urllib.request.urlopen(url, timeout=2) as response:
        print(json.load(response)["ledgers"].get("serve.requests.completed", 0))
except (OSError, ValueError, KeyError):
    print(-1)
PY
}

# scrape PORT TARGET OUT: GET TARGET from the admin endpoint on PORT
# into OUT; fails on a refused connection or an error status.
scrape() {
  python3 - "$1" "$2" "$3" <<'PY'
import sys, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}{sys.argv[2]}"
with urllib.request.urlopen(url, timeout=5) as response:
    open(sys.argv[3], "wb").write(response.read())
PY
}

# Mid-traffic gate: the scrapes below are live only if requests are
# completing while the client still runs.  Give up when the client
# exits first.
mid_traffic=0
for _ in $(seq 1 600); do
  kill -0 "$client_pid" 2> /dev/null || break
  if [ "$(completed "$admin")" -ge 8 ]; then
    if kill -0 "$client_pid" 2> /dev/null; then
      mid_traffic=1
    fi
    break
  fi
  sleep 0.1
done
if [ "$mid_traffic" -ne 1 ]; then
  echo "introspect: never saw 8 completed requests while the client ran" >&2
  exit 1
fi

# Mid-run scrapes: liveness, the live metrics document, one snapshot in
# both renderings, the event tail, the other parties' liveness and the
# fleet view.
scrape "$admin" /healthz "$work/healthz.json"
scrape "$admin" /metrics "$work/live_metrics.json"
scrape "$admin" "/metrics?format=pair" "$work/pair.json"
scrape "$admin" "/events?n=5" "$work/events.json"
scrape $((admin + 1)) /healthz "$work/party1_healthz.json"
scrape $((admin + 2)) /healthz "$work/party2_healthz.json"
python3 "$fleet_status" --ports "$admin,$((admin + 1)),$((admin + 2))" \
  > "$work/fleet.log"

wait_all
grep -q "completed 64/64 requests" "$work/client.log"
grep -q "serve check: MATCH" "$work/client.log"

# --scrape: the mid-run /metrics document is pointwise <= the exit
# export on every monotonic source; --pair: the JSON and Prometheus
# renderings of one snapshot agree sample for sample; --healthz: the
# liveness body validates.
python3 "$check_metrics" "$work/metrics.json" \
  --scrape "$work/live_metrics.json" --pair "$work/pair.json" \
  --healthz "$work/healthz.json"
# Every completed request resolves to a complete client -> owner
# dispatch -> 3-party batch chain.
python3 "$merge_traces" "$work/client.trace.jsonl" \
  "$work/party0.trace.jsonl" "$work/party1.trace.jsonl" \
  "$work/party2.trace.jsonl" --out "$work/TRACE_REPORT.md" \
  --require-complete
