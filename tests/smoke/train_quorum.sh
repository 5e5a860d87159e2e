#!/usr/bin/env bash
# Six-process robust training past a killed poisoner: three
# trustddl_party processes host the computing parties and the
# sequencing model owner, three trustddl_owner processes secret-share
# minibatches from disjoint shards.  Owner 2 poisons every submission
# (scale=10 gradient inflation) and exits abruptly after 3 of its 10
# submissions.  While it lives, coordinate-wise trimmed mean (trim=1,
# K=3) absorbs its updates; once it goes silent, the sequencer must
# degrade to quorum-2 rounds (dropped owner slots) instead of hanging.
# The final epoch must clear --min-accuracy 0.3, well above the
# 10-class chance floor, and the export's training ledgers must
# balance.
#
# Usage: train_quorum.sh TRUSTDDL_PARTY TRUSTDDL_OWNER CHECK_METRICS_PY
party=$1
owner=$2
check_metrics=$3
. "$(dirname "$0")/lib.sh"

base=$(pick_port_base 8)
flags=(--task train-serve --port-base "$base" --owners 3 --quorum 2
       --rounds-per-epoch 5 --epochs 2 --rows 192)
run_bg party1.log "$party" --party-ids 1 "${flags[@]}"
run_bg party2.log "$party" --party-ids 2 "${flags[@]}"
run_bg driver.log "$party" --party-ids 0,4 "${flags[@]}" \
  --min-accuracy 0.3 --metrics-out "$work/train_metrics.json"
owner_flags=(--port-base "$base" --rows 192 --submissions 10)
run_bg owner0.log "$owner" --owner-index 0 "${owner_flags[@]}"
run_bg owner1.log "$owner" --owner-index 1 "${owner_flags[@]}"
run_bg owner2.log "$owner" --owner-index 2 "${owner_flags[@]}" \
  --poison scale=10 --exit-after-submissions 3
wait_all
grep -q "min-accuracy check: PASS" "$work/driver.log"
# The count is printed either way; only a cut quorum round makes it > 0.
grep -Eq " [1-9][0-9]* dropped owner slots" "$work/driver.log"
python3 "$check_metrics" "$work/train_metrics.json"
