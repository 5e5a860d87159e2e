// Shared observability export: one JSON document combining the
// metrics registry snapshot, the structured Byzantine detection event
// log, the transport traffic matrix and the engine cost report.
//
// Schema (validated by scripts/check_metrics.py against
// docs/metrics.schema.json):
//   {
//     "schema": "trustddl.metrics.v1",
//     "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
//     "events": [{"party", "suspect", "step", "kind", "phase",
//                 "recovery"}, ...],
//     "traffic": {"total_bytes", "total_messages",
//                 "links_bytes": [[...]], "links_messages": [[...]]},
//     "cost": {"wall_seconds", "total_bytes", ..., "values_opened"}
//   }
// Every core::Session writes this document (EngineConfig::metrics_out,
// trustddl_party --metrics-out), so the CI schema check covers every
// producer.
#pragma once

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "net/transport.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace trustddl::core {

/// Serialize the full export document (see header comment for the
/// layout).
std::string metrics_export_json(
    const obs::MetricsSnapshot& metrics,
    const std::vector<obs::DetectionEventRecord>& events,
    const net::TrafficSnapshot& traffic, const CostReport& cost);

}  // namespace trustddl::core
