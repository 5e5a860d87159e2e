#!/usr/bin/env python3
"""Validate a trustddl.metrics.v1 export (and optionally its trace).

Stdlib only — no jsonschema dependency.  Checks, against
docs/metrics.schema.json's contract:

  * the file parses and carries the v1 schema tag;
  * every required section and cost/traffic key is present with the
    right type;
  * histogram bounds are the power-of-four ladder with 16 buckets and
    bucket counts summing to `count`;
  * the link matrices are square and cell sums are >= the totals
    (receipt rows of remote transports may be included; the totals are
    sender-row-only, counting each message once);
  * the `net.sent.bytes.*` counter sum equals traffic.total_bytes
    (transport metering and the metrics registry agree);
  * detection-event consistency: events are well formed and the
    per-kind event counts match both the cost section and the
    `detect.<kind>` counters;
  * serving-ledger consistency (only when the export carries serve.*
    counters): every admitted request has exactly one outcome
    (admitted == completed + rejected + deadline_missed) and the
    serve.batch.rows histogram saw every dispatched batch
    (count == serve.batches);
  * triple-ledger consistency (only when the export carries triple.*
    counters, i.e. a computing party's store ran in the process,
    prefetching or synchronous): per kind,
    triple.produced.<kind> == triple.consumed.<kind> + the
    triple.store.depth.<kind> gauge — every dealt entry was either
    consumed online or is still buffered, none vanished;
  * training-ledger consistency (only when the export carries train.*
    counters, i.e. a --task train-serve run): gradient coordinates
    (submitted == aggregated + trimmed), owner submissions
    (admitted == consumed + discarded) and round slots
    (expected == included + dropped) all balance.

Introspection-plane checks (PR 9):

  * admin-ledger consistency (only when the export carries admin.*
    counters, i.e. the process served its --admin-port endpoint and
    was scraped): the admin.requests.* counters sum to >= 1 and
    admin.http.errors is present;
  * --scrape LIVE_JSON: LIVE_JSON is a mid-run GET /metrics snapshot
    of the SAME process that wrote METRICS_JSON.  Every live counter,
    histogram count/sum and gauge peak must be <= its exit-time value
    (monotonic sources can only grow), and the live document must pass
    all structural checks itself;
  * --pair PAIR_JSON: PAIR_JSON is a GET /metrics?format=pair body
    ({"export": ..., "prometheus": "..."}).  Both views are rendered
    from one registry snapshot, so every Prometheus sample must match
    the JSON export exactly: equal counter/gauge/peak values, equal
    cumulative histogram buckets, _count and _sum.  Processes started
    with --pod label their serve.* families with {pod="<name>"}; the
    check strips that label after verifying it only ever appears on
    serve.* families and names the same pod on every sample;
  * --healthz HEALTH_JSON: shape-checks a GET /healthz body (status /
    role / uptime_us / peers with ages).

Usage:
  check_metrics.py METRICS_JSON [--trace TRACE_JSONL]
      [--expect-events N] [--expect-suspect P] [--expect-phase PH]
      [--scrape LIVE_JSON] [--pair PAIR_JSON] [--healthz HEALTH_JSON]

Exit code 0 when every check passes; 1 with a message on stderr
otherwise.
"""
import argparse
import json
import sys

KINDS = {
    "commitment_violation": "commitment_violations",
    "distance_anomaly": "distance_anomalies",
    "share_auth_failure": "share_auth_failures",
}

COST_KEYS = [
    "wall_seconds", "total_bytes", "total_messages", "proxy_bytes",
    "owner_bytes", "commitment_violations", "distance_anomalies",
    "share_auth_failures", "recovered_opens", "opening_rounds",
    "values_opened",
]

EVENT_KEYS = ["party", "suspect", "step", "kind", "phase", "recovery"]


def fail(message):
    print("check_metrics: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def require(condition, message):
    if not condition:
        fail(message)


def check_metrics_section(metrics):
    for section in ("counters", "gauges", "histograms"):
        require(section in metrics, "metrics missing '%s'" % section)
    for name, value in metrics["counters"].items():
        require(isinstance(value, int) and value >= 0,
                "counter %r is not a non-negative integer" % name)
    for name, gauge in metrics["gauges"].items():
        require(set(gauge) == {"value", "peak"},
                "gauge %r keys %r" % (name, sorted(gauge)))
    for name, hist in metrics["histograms"].items():
        for key in ("count", "sum", "bounds", "buckets"):
            require(key in hist, "histogram %r missing '%s'" % (name, key))
        require(len(hist["buckets"]) == 16,
                "histogram %r has %d buckets" % (name, len(hist["buckets"])))
        require(hist["bounds"] == [4 ** i for i in range(15)],
                "histogram %r bounds are not the 4^i ladder" % name)
        require(sum(hist["buckets"]) == hist["count"],
                "histogram %r buckets sum %d != count %d"
                % (name, sum(hist["buckets"]), hist["count"]))


def check_traffic_section(traffic, counters):
    for key in ("total_bytes", "total_messages", "links_bytes",
                "links_messages"):
        require(key in traffic, "traffic missing '%s'" % key)
    for key in ("links_bytes", "links_messages"):
        matrix = traffic[key]
        require(len(matrix) > 0 and all(len(row) == len(matrix)
                                        for row in matrix),
                "traffic.%s is not a square matrix" % key)
    cell_bytes = sum(sum(row) for row in traffic["links_bytes"])
    cell_messages = sum(sum(row) for row in traffic["links_messages"])
    require(cell_bytes >= traffic["total_bytes"],
            "links_bytes cells %d < total_bytes %d"
            % (cell_bytes, traffic["total_bytes"]))
    require(cell_messages >= traffic["total_messages"],
            "links_messages cells %d < total_messages %d"
            % (cell_messages, traffic["total_messages"]))

    sent_bytes = sum(value for name, value in counters.items()
                     if name.startswith("net.sent.bytes."))
    require(sent_bytes == traffic["total_bytes"],
            "net.sent.bytes.* counter sum %d != traffic.total_bytes %d"
            % (sent_bytes, traffic["total_bytes"]))
    sent_messages = sum(value for name, value in counters.items()
                        if name.startswith("net.sent.messages."))
    require(sent_messages == traffic["total_messages"],
            "net.sent.messages.* counter sum %d != traffic.total_messages %d"
            % (sent_messages, traffic["total_messages"]))


def check_serve_section(metrics):
    """Serving request-ledger invariants, skipped for non-serving runs.

    The owner's scheduler assigns every admitted request exactly one
    terminal outcome, so the counters must balance; any imbalance means
    a request was dropped or double-counted.
    """
    counters = metrics["counters"]
    if "serve.requests.admitted" not in counters:
        return
    admitted = counters["serve.requests.admitted"]
    outcomes = (counters.get("serve.requests.completed", 0)
                + counters.get("serve.requests.rejected", 0)
                + counters.get("serve.requests.deadline_missed", 0))
    require(admitted == outcomes,
            "serve.requests.admitted %d != completed+rejected+"
            "deadline_missed %d" % (admitted, outcomes))
    batches = counters.get("serve.batches", 0)
    rows_hist = metrics["histograms"].get("serve.batch.rows")
    if rows_hist is not None:
        require(rows_hist["count"] == batches,
                "serve.batch.rows count %d != serve.batches %d"
                % (rows_hist["count"], batches))


def check_triple_section(metrics):
    """Preprocessing-ledger invariants, skipped when no party ran here.

    Every computing party draws its material through one TripleStore,
    which counts every entry it deals (produced) and every entry the
    online phase takes (consumed); whatever remains buffered is the
    store-depth gauge.  A synchronous run buffers nothing, so there
    every entry is a store miss and produced == consumed.  An imbalance
    means material was dealt and lost, or served twice.
    """
    counters = metrics["counters"]
    kinds = sorted({name.split(".", 2)[2] for name in counters
                    if name.startswith(("triple.produced.",
                                        "triple.consumed."))})
    for kind in kinds:
        produced = counters.get("triple.produced." + kind, 0)
        consumed = counters.get("triple.consumed." + kind, 0)
        depth_gauge = metrics["gauges"].get("triple.store.depth." + kind)
        in_store = depth_gauge["value"] if depth_gauge is not None else 0
        require(produced == consumed + in_store,
                "triple.produced.%s %d != consumed %d + in-store %d"
                % (kind, produced, consumed, in_store))


def check_train_section(metrics):
    """Training-ledger invariants, skipped for non-training runs.

    Three ledgers must balance: every per-owner gradient coordinate
    submitted to the robust aggregator was either averaged into the
    step or trimmed as an extreme; every owner submission the sequencer
    admitted was either consumed by a round manifest or discarded at
    shutdown/dormancy; and every owner slot of a cut round was either
    included or dropped (quorum operation past a dormant owner).
    """
    counters = metrics["counters"]
    if "train.agg.values.submitted" not in counters:
        return
    submitted = counters["train.agg.values.submitted"]
    placed = (counters.get("train.agg.values.aggregated", 0)
              + counters.get("train.agg.values.trimmed", 0))
    require(submitted == placed,
            "train.agg.values.submitted %d != aggregated+trimmed %d"
            % (submitted, placed))
    admitted = counters.get("train.owner.submissions.admitted", 0)
    settled = (counters.get("train.owner.submissions.consumed", 0)
               + counters.get("train.owner.submissions.discarded", 0))
    require(admitted == settled,
            "train.owner.submissions.admitted %d != consumed+discarded %d"
            % (admitted, settled))
    expected = counters.get("train.owner.slots.expected", 0)
    filled = (counters.get("train.owner.slots.included", 0)
              + counters.get("train.owner.slots.dropped", 0))
    require(expected == filled,
            "train.owner.slots.expected %d != included+dropped %d"
            % (expected, filled))
    rounds = counters.get("train.rounds", 0)
    owners_hist = metrics["histograms"].get("train.round.owners")
    if owners_hist is not None:
        require(owners_hist["count"] == rounds,
                "train.round.owners count %d != train.rounds %d"
                % (owners_hist["count"], rounds))


def check_admin_section(metrics):
    """Admin-endpoint ledger, skipped when no admin server ran.

    Each GET increments exactly one admin.requests.<endpoint> counter
    before the response snapshot is taken, so a scraped process always
    exports at least one admin request (its own scrape is visible).
    """
    counters = metrics["counters"]
    served = {name: value for name, value in counters.items()
              if name.startswith("admin.requests.")}
    if not served:
        return
    require(sum(served.values()) >= 1,
            "admin.requests.* present but sum to 0")
    for name, value in served.items():
        endpoint = name[len("admin.requests."):]
        require(endpoint in ("healthz", "metrics", "events", "status"),
                "unknown admin endpoint counter %r" % name)


def prometheus_name(name):
    """Mirror obs::prometheus_name: trustddl_ prefix, non-alnum -> _."""
    return "trustddl_" + "".join(
        ch if ch.isalnum() else "_" for ch in name)


def prometheus_samples(text):
    """Parse exposition text into {sample_name: [(labels, value)]}."""
    samples = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        require(name_part and value_part,
                "prometheus line %d is not 'name value': %r"
                % (number, line))
        labels = ""
        name = name_part
        if "{" in name_part:
            name, _, rest = name_part.partition("{")
            labels = rest.rstrip("}")
        try:
            value = float(value_part)
        except ValueError:
            fail("prometheus line %d has non-numeric value %r"
                 % (number, value_part))
        samples.setdefault(name, []).append((labels, value))
    return samples


def split_pod(labels):
    """Strip a leading pod="..." label; returns (pod_or_None, rest).

    The admin server composes histogram bucket labels pod-then-le, so
    a pod label is always the first label when present.
    """
    if labels.startswith('pod="'):
        end = labels.index('"', len('pod="'))
        return labels[len('pod="'):end], labels[end + 1:].lstrip(",")
    return None, labels


def check_pair(path):
    """A ?format=pair body: prometheus text == JSON export, sample for
    sample.  Both views come from one snapshot, so any mismatch is a
    rendering bug, not scrape-time skew."""
    with open(path) as handle:
        pair = json.load(handle)
    for key in ("schema", "export", "prometheus"):
        require(key in pair, "pair document missing '%s'" % key)
    require(pair["schema"] == "trustddl.admin.pair.v1",
            "unknown pair schema %r" % pair["schema"])
    metrics = pair["export"]["metrics"]
    check_metrics_section(metrics)
    samples = prometheus_samples(pair["prometheus"])

    # A --pod process labels its serve.* families {pod="<name>"}; every
    # such sample must name the same pod, and no other family may carry
    # one.  `None` in the set marks an unlabeled serve sample, so a
    # half-labeled export also fails the <=1 check below.
    serve_pods = set()

    def family(name, prom):
        """Samples for one exported family, pod label verified/stripped."""
        stripped = []
        for labels, value in samples.get(prom, []):
            pod, rest = split_pod(labels)
            require(pod is None or name.startswith("serve."),
                    "non-serve sample %r carries pod=%r" % (prom, pod))
            if name.startswith("serve."):
                serve_pods.add(pod)
            stripped.append((rest, value))
        return stripped

    checked = 0
    for name, value in metrics["counters"].items():
        prom = prometheus_name(name)
        require(prom in samples, "counter %r missing from prometheus" % name)
        require(family(name, prom) == [("", float(value))],
                "counter %r: prometheus %r != export %d"
                % (name, samples[prom], value))
        checked += 1
    for name, gauge in metrics["gauges"].items():
        prom = prometheus_name(name)
        require(family(name, prom) == [("", float(gauge["value"]))],
                "gauge %r: prometheus %r != export %d"
                % (name, samples.get(prom), gauge["value"]))
        require(family(name, prom + "_peak")
                == [("", float(gauge["peak"]))],
                "gauge %r peak mismatch" % name)
        checked += 2
    for name, hist in metrics["histograms"].items():
        prom = prometheus_name(name)
        require(family(name, prom + "_count")
                == [("", float(hist["count"]))],
                "histogram %r count mismatch" % name)
        require(family(name, prom + "_sum") == [("", float(hist["sum"]))],
                "histogram %r sum mismatch" % name)
        buckets = family(name, prom + "_bucket")
        require(len(buckets) == 16,
                "histogram %r has %d prometheus buckets"
                % (name, len(buckets)))
        cumulative = 0
        for index, (labels, value) in enumerate(buckets):
            cumulative += hist["buckets"][index]
            expected_le = ("+Inf" if index == 15 else str(4 ** index))
            require(labels == 'le="%s"' % expected_le,
                    "histogram %r bucket %d labels %r"
                    % (name, index, labels))
            require(value == float(cumulative),
                    "histogram %r bucket le=%s: prometheus %g != "
                    "cumulative %d" % (name, expected_le, value, cumulative))
        checked += 18
    require(len(serve_pods) <= 1,
            "serve.* samples disagree on the pod label: %r"
            % sorted(str(pod) for pod in serve_pods))
    # Completeness the other way: no prometheus sample without a source.
    known = set()
    for name in metrics["counters"]:
        known.add(prometheus_name(name))
    for name in metrics["gauges"]:
        known.add(prometheus_name(name))
        known.add(prometheus_name(name) + "_peak")
    for name in metrics["histograms"]:
        prom = prometheus_name(name)
        known.update((prom + "_bucket", prom + "_count", prom + "_sum"))
    for prom in samples:
        require(prom in known,
                "prometheus sample %r has no source in the export" % prom)
    return checked


def check_scrape(live_path, exit_export):
    """A mid-run /metrics scrape vs the exit-time export: every
    monotonic source (counters, histogram count/sum/buckets, gauge
    peaks) may only have grown between the scrape and process exit."""
    with open(live_path) as handle:
        live = json.load(handle)
    require(live.get("schema") == "trustddl.metrics.v1",
            "live scrape schema %r" % live.get("schema"))
    check_metrics_section(live["metrics"])
    exit_metrics = exit_export["metrics"]

    checked = 0
    for name, value in live["metrics"]["counters"].items():
        final = exit_metrics["counters"].get(name)
        require(final is not None,
                "live counter %r absent from the exit export" % name)
        require(value <= final,
                "live counter %r %d > exit value %d" % (name, value, final))
        checked += 1
    for name, gauge in live["metrics"]["gauges"].items():
        final = exit_metrics["gauges"].get(name)
        require(final is not None,
                "live gauge %r absent from the exit export" % name)
        require(gauge["peak"] <= final["peak"],
                "live gauge %r peak %d > exit peak %d"
                % (name, gauge["peak"], final["peak"]))
        checked += 1
    for name, hist in live["metrics"]["histograms"].items():
        final = exit_metrics["histograms"].get(name)
        require(final is not None,
                "live histogram %r absent from the exit export" % name)
        require(hist["count"] <= final["count"],
                "live histogram %r count %d > exit count %d"
                % (name, hist["count"], final["count"]))
        require(hist["sum"] <= final["sum"],
                "live histogram %r sum %d > exit sum %d"
                % (name, hist["sum"], final["sum"]))
        for index in range(16):
            require(hist["buckets"][index] <= final["buckets"][index],
                    "live histogram %r bucket %d shrank" % (name, index))
        checked += 1
    return checked


def check_healthz(path):
    """Shape-check a GET /healthz body."""
    with open(path) as handle:
        health = json.load(handle)
    for key in ("status", "role", "task", "uptime_us", "stale_after_ms",
                "peers"):
        require(key in health, "healthz missing '%s'" % key)
    require(health["status"] in ("ok", "degraded"),
            "healthz status %r" % health["status"])
    require(isinstance(health["uptime_us"], int) and
            health["uptime_us"] >= 0, "healthz uptime_us is not a count")
    for index, peer in enumerate(health["peers"]):
        for key in ("peer", "last_seen_us", "age_us", "stale"):
            require(key in peer, "healthz peer %d missing '%s'"
                    % (index, key))
        require(isinstance(peer["stale"], bool),
                "healthz peer %d stale is not a bool" % index)
    stale = sum(1 for peer in health["peers"] if peer["stale"])
    require((health["status"] == "ok") == (stale == 0),
            "healthz status %r inconsistent with %d stale peers"
            % (health["status"], stale))
    return len(health["peers"])


def check_events_section(events, cost, counters, args):
    per_kind = {}
    for index, event in enumerate(events):
        for key in EVENT_KEYS:
            require(key in event, "event %d missing '%s'" % (index, key))
        require(event["party"] != event["suspect"],
                "event %d: observer accuses itself" % index)
        per_kind[event["kind"]] = per_kind.get(event["kind"], 0) + 1
        if args.expect_suspect is not None:
            require(event["suspect"] == args.expect_suspect,
                    "event %d suspect %d != expected %d"
                    % (index, event["suspect"], args.expect_suspect))
        if args.expect_phase is not None:
            require(event["phase"] == args.expect_phase,
                    "event %d phase %r != expected %r"
                    % (index, event["phase"], args.expect_phase))

    for kind, cost_key in KINDS.items():
        event_count = per_kind.get(kind, 0)
        require(event_count == cost[cost_key],
                "%d %s events != cost.%s %d"
                % (event_count, kind, cost_key, cost[cost_key]))
        counter = counters.get("detect." + kind, 0)
        require(event_count == counter,
                "%d %s events != detect.%s counter %d"
                % (event_count, kind, kind, counter))

    if args.expect_events is not None:
        require(len(events) == args.expect_events,
                "%d events != expected %d" % (len(events),
                                              args.expect_events))


def check_trace(path):
    spans = 0
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                fail("%s:%d is not valid JSON: %s" % (path, number, error))
            for key in ("kind", "name", "ts_us"):
                require(key in record, "%s:%d missing '%s'"
                        % (path, number, key))
            require(record["kind"] in ("span", "instant", "event", "meta"),
                    "%s:%d unknown kind %r" % (path, number, record["kind"]))
            spans += record["kind"] == "span"
    return spans


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("metrics", help="metrics export JSON path")
    parser.add_argument("--trace", help="optional trace JSONL to validate")
    parser.add_argument("--expect-events", type=int, default=None,
                        help="require exactly N detection events")
    parser.add_argument("--expect-suspect", type=int, default=None,
                        help="require every event to accuse this party")
    parser.add_argument("--expect-phase", default=None,
                        help="require every event in this phase")
    parser.add_argument("--scrape", default=None,
                        help="mid-run GET /metrics body of the same "
                             "process; checked monotone vs the export")
    parser.add_argument("--pair", default=None,
                        help="GET /metrics?format=pair body; prometheus "
                             "text checked sample-for-sample vs its export")
    parser.add_argument("--healthz", default=None,
                        help="GET /healthz body to shape-check")
    args = parser.parse_args()

    with open(args.metrics) as handle:
        try:
            export = json.load(handle)
        except json.JSONDecodeError as error:
            fail("%s is not valid JSON: %s" % (args.metrics, error))

    for section in ("schema", "metrics", "events", "traffic", "cost"):
        require(section in export, "missing top-level '%s'" % section)
    require(export["schema"] == "trustddl.metrics.v1",
            "unknown schema %r" % export["schema"])
    for key in COST_KEYS:
        require(key in export["cost"], "cost missing '%s'" % key)

    counters = export["metrics"]["counters"]
    check_metrics_section(export["metrics"])
    check_traffic_section(export["traffic"], counters)
    check_events_section(export["events"], export["cost"], counters, args)
    check_serve_section(export["metrics"])
    check_triple_section(export["metrics"])
    check_train_section(export["metrics"])
    check_admin_section(export["metrics"])

    summary = ("check_metrics: OK: %d counters, %d events, "
               "%d bytes / %d messages"
               % (len(counters), len(export["events"]),
                  export["traffic"]["total_bytes"],
                  export["traffic"]["total_messages"]))
    if args.trace:
        summary += ", %d trace spans" % check_trace(args.trace)
    if args.scrape:
        summary += (", %d live sources monotone"
                    % check_scrape(args.scrape, export))
    if args.pair:
        summary += ", %d prometheus samples equal" % check_pair(args.pair)
    if args.healthz:
        summary += ", %d healthz peers" % check_healthz(args.healthz)
    print(summary)


if __name__ == "__main__":
    main()
