#include "core/metrics_export.hpp"

#include <cstdio>

namespace trustddl::core {
namespace {

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

void append_link_matrix(std::string& out, const net::TrafficSnapshot& traffic,
                        bool bytes) {
  out += "[";
  for (std::size_t i = 0; i < traffic.links.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "[";
    for (std::size_t j = 0; j < traffic.links[i].size(); ++j) {
      if (j > 0) {
        out += ", ";
      }
      out += std::to_string(bytes ? traffic.links[i][j].bytes
                                  : traffic.links[i][j].messages);
    }
    out += "]";
  }
  out += "]";
}

}  // namespace

std::string metrics_export_json(
    const obs::MetricsSnapshot& metrics,
    const std::vector<obs::DetectionEventRecord>& events,
    const net::TrafficSnapshot& traffic, const CostReport& cost) {
  std::string out = "{\n";
  out += "  \"schema\": \"trustddl.metrics.v1\",\n";
  out += "  \"metrics\": " + metrics.to_json() + ",\n";
  out += "  \"events\": " + obs::EventLog::to_json(events) + ",\n";
  out += "  \"traffic\": {\"total_bytes\": " +
         std::to_string(traffic.total_bytes) +
         ", \"total_messages\": " + std::to_string(traffic.total_messages) +
         ", \"links_bytes\": ";
  append_link_matrix(out, traffic, /*bytes=*/true);
  out += ", \"links_messages\": ";
  append_link_matrix(out, traffic, /*bytes=*/false);
  out += "},\n";
  out += "  \"cost\": {";
  out += "\"wall_seconds\": " + format_double(cost.wall_seconds);
  out += ", \"total_bytes\": " + std::to_string(cost.total_bytes);
  out += ", \"total_messages\": " + std::to_string(cost.total_messages);
  out += ", \"proxy_bytes\": " + std::to_string(cost.proxy_bytes);
  out += ", \"owner_bytes\": " + std::to_string(cost.owner_bytes);
  out += ", \"commitment_violations\": " +
         std::to_string(cost.commitment_violations);
  out += ", \"distance_anomalies\": " + std::to_string(cost.distance_anomalies);
  out += ", \"share_auth_failures\": " +
         std::to_string(cost.share_auth_failures);
  out += ", \"recovered_opens\": " + std::to_string(cost.recovered_opens);
  out += ", \"opening_rounds\": " + std::to_string(cost.opening_rounds);
  out += ", \"values_opened\": " + std::to_string(cost.values_opened);
  out += "}\n}\n";
  return out;
}

}  // namespace trustddl::core
