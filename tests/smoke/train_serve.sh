#!/usr/bin/env bash
# Six-process multi-owner training over TCP: three trustddl_party
# processes host the computing parties and the sequencing model owner,
# three trustddl_owner processes secret-share minibatches from disjoint
# shards.  The revealed epoch weights must match the in-memory harness
# bit for bit (--check), and the export's training ledgers must balance.
#
# Usage: train_serve.sh TRUSTDDL_PARTY TRUSTDDL_OWNER CHECK_METRICS_PY
party=$1
owner=$2
check_metrics=$3
. "$(dirname "$0")/lib.sh"

base=$(pick_port_base 8)
flags=(--task train-serve --port-base "$base" --owners 3 --epochs 2)
run_bg party1.log "$party" --party-ids 1 "${flags[@]}"
run_bg party2.log "$party" --party-ids 2 "${flags[@]}"
run_bg driver.log "$party" --party-ids 0,4 "${flags[@]}" --check \
  --submissions 8 --metrics-out "$work/train_metrics.json"
for index in 0 1 2; do
  run_bg "owner$index.log" "$owner" --owner-index "$index" \
    --port-base "$base" --submissions 8
done
wait_all
grep -q "train check: MATCH" "$work/driver.log"
python3 "$check_metrics" "$work/train_metrics.json"
