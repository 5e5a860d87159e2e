# Helpers shared by the multi-process smokes (sourced, not run).
#
# Every process runs under `timeout`, the EXIT trap kills whatever is
# still alive and prints the logs of a failed run, and the port base is
# probed free at start so concurrent runs on one host do not collide.
set -euo pipefail

SMOKE_TIMEOUT=${SMOKE_TIMEOUT:-120}
work=$(mktemp -d "${TMPDIR:-/tmp}/trustddl_smoke.XXXXXX")
pids=()

cleanup() {
  local status=$?
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  if [ "$status" -ne 0 ]; then
    for log in "$work"/*.log; do
      [ -e "$log" ] && { echo "== $log"; cat "$log"; }
    done
  fi
  rm -rf "$work"
}
trap cleanup EXIT

# pick_port_base N: a base B with 127.0.0.1:B..B+N-1 all bindable,
# below the kernel's ephemeral range so no outgoing dial can take one.
pick_port_base() {
  python3 - "$1" <<'PY'
import random, socket, sys
count = int(sys.argv[1])
for _ in range(200):
    base = random.randrange(20000, 32000 - count)
    held = []
    try:
        for port in range(base, base + count):
            sock = socket.socket()
            held.append(sock)
            sock.bind(("127.0.0.1", port))
    except OSError:
        continue
    finally:
        for sock in held:
            sock.close()
    print(base)
    sys.exit(0)
sys.exit("no free port range")
PY
}

# run_bg LOG CMD...: start CMD in the background, output to $work/LOG.
run_bg() {
  local log=$1
  shift
  timeout "$SMOKE_TIMEOUT" "$@" > "$work/$log" 2>&1 &
  pids+=("$!")
}

# wait_all: every background process must exit 0.
wait_all() {
  local pid
  for pid in "${pids[@]}"; do
    wait "$pid"
  done
  pids=()
}
