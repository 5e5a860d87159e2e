#include "core/session.hpp"

#include <fstream>
#include <thread>

#include "common/logging.hpp"
#include "core/metrics_export.hpp"
#include "net/network.hpp"
#include "net/runtime.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"

namespace trustddl::core {
namespace {

constexpr const char* kLog = "core.session";

std::string failure_reason(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& failure) {
    return failure.what();
  } catch (...) {
    return "unknown";
  }
}

}  // namespace

void run_roles(const std::vector<Role>& roles) {
  const auto outcomes = net::run_parties(
      static_cast<int>(roles.size()),
      [&](net::PartyId i) { roles[static_cast<std::size_t>(i)].body(); },
      /*rethrow=*/false);
  const net::PartyOutcome* first_critical = nullptr;
  for (std::size_t i = 0; i < roles.size(); ++i) {
    if (outcomes[i].ok) {
      continue;
    }
    if (!roles[i].critical) {
      TRUSTDDL_LOG_WARN(kLog) << "tolerated actor " << roles[i].id
                              << " failed: "
                              << failure_reason(outcomes[i].error);
    } else if (first_critical == nullptr) {
      first_critical = &outcomes[i];
    }
  }
  if (first_critical != nullptr) {
    std::rethrow_exception(first_critical->error);
  }
}

CostReport collect_cost(const net::TrafficSnapshot& traffic,
                        double wall_seconds, const PartyLogs& logs,
                        int byzantine_party) {
  CostReport report;
  report.wall_seconds = wall_seconds;
  report.total_bytes = traffic.total_bytes;
  report.total_messages = traffic.total_messages;
  for (std::size_t i = 0; i < traffic.links.size(); ++i) {
    for (std::size_t j = 0; j < traffic.links[i].size(); ++j) {
      const bool proxy = i < kComputingParties && j < kComputingParties;
      (proxy ? report.proxy_bytes : report.owner_bytes) +=
          traffic.links[i][j].bytes;
    }
  }
  bool rounds_taken = false;
  for (int party = 0; party < kComputingParties; ++party) {
    const auto& log = logs[static_cast<std::size_t>(party)];
    if (!log) {
      continue;
    }
    report.commitment_violations +=
        log->count(mpc::DetectionEvent::Kind::kCommitmentViolation);
    report.distance_anomalies +=
        log->count(mpc::DetectionEvent::Kind::kDistanceAnomaly);
    report.share_auth_failures +=
        log->count(mpc::DetectionEvent::Kind::kShareAuthFailure);
    report.recovered_opens += log->recovered_opens;
    if (!rounds_taken && party != byzantine_party) {
      rounds_taken = true;
      report.opening_rounds = log->opens;
      report.values_opened = log->values_opened;
    }
  }
  return report;
}

void arm_telemetry(const std::string& metrics_out,
                   const std::string& trace_out) {
  if (!metrics_out.empty()) {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::global().reset();
  }
  if (!trace_out.empty()) {
    obs::Tracer::global().open(trace_out);
  }
  if (!metrics_out.empty() || !trace_out.empty()) {
    obs::EventLog::global().clear();
  }
}

nn::Sequential reference_model(const nn::ModelSpec& spec,
                               const EngineConfig& config) {
  Rng rng(config.seed);
  return nn::build_model(spec, rng);
}

std::string bind_address(const std::string& address,
                         const std::string& listen_host) {
  if (listen_host.empty()) {
    return address;
  }
  return listen_host + ":" + std::to_string(net::parse_address(address).port);
}

Session::Session(const EngineConfig& config) : config_(config) {
  // Free tensor/conv kernels pick their parallelism up from the
  // process-global config; pin it so the whole run (including
  // plaintext evaluation) honours this session's setting.
  kernels::set_global_config(config_.kernels);
  arm_telemetry(config_.metrics_out, config_.trace_out);
  tracing_ = !config_.trace_out.empty();
  if (config_.byzantine_party >= 0) {
    adversary_ = std::make_unique<mpc::StandardAdversary>(config_.byzantine);
  }
}

Session::Session(const EngineConfig& config, int num_actors)
    : Session(config) {
  net::NetworkConfig net_config;
  net_config.num_parties = num_actors;
  net_config.recv_timeout = config_.recv_timeout;
  net_config.emulate_latency = config_.emulate_latency;
  net_config.link_latency = config_.link_latency;
  network_ = std::make_unique<net::Network>(net_config);
  transport_ = network_.get();
}

Session::Session(const EngineConfig& config, net::Transport& transport)
    : Session(config) {
  transport.reset_traffic();
  transport_ = &transport;
}

Session::Session(const EngineConfig& config, const TcpMesh& mesh)
    : Session(config) {
  TRUSTDDL_REQUIRE(!mesh.hosted.empty(), "session: no hosted actor ids");
  for (const int id : mesh.hosted) {
    tcp_.push_back(std::make_unique<net::TcpTransport>(
        static_cast<net::PartyId>(id),
        bind_address(mesh.addresses[static_cast<std::size_t>(id)],
                     mesh.listen_host),
        mesh.net));
  }
  // Every hosted id is bound before any dials, so concurrent
  // rendezvous cannot deadlock on a not-yet-listening local peer.
  net::run_parties(static_cast<int>(tcp_.size()), [&](net::PartyId i) {
    net::TcpTransport& transport = *tcp_[static_cast<std::size_t>(i)];
    if (mesh.peers) {
      transport.connect(mesh.addresses, mesh.peers(transport.self()));
    } else {
      transport.connect(mesh.addresses);
    }
  });
  if (mesh.dynamic_from >= 0) {
    for (auto& transport : tcp_) {
      transport->accept_dynamic_peers(
          static_cast<net::PartyId>(mesh.dynamic_from));
    }
  }
}

Session::~Session() {
  if (tracing_) {
    obs::Tracer::global().close();
  }
}

net::Endpoint Session::endpoint(int id) {
  const auto party = static_cast<net::PartyId>(id);
  for (auto& transport : tcp_) {
    if (transport->self() == party) {
      return transport->endpoint(party);
    }
  }
  TRUSTDDL_REQUIRE(transport_ != nullptr,
                   "session: actor " + std::to_string(id) + " not hosted");
  return transport_->endpoint(party);
}

Role Session::party_role(int party,
                         std::function<mpc::DetectionLog()> body) {
  const auto slot = static_cast<std::size_t>(party);
  {
    const std::lock_guard<std::mutex> lock(logs_mu_);
    logs_[slot].emplace();
  }
  return Role{party,
              [this, slot, body = std::move(body)] {
                mpc::DetectionLog log = body();
                const std::lock_guard<std::mutex> lock(logs_mu_);
                logs_[slot] = std::move(log);
              },
              party != config_.byzantine_party};
}

void Session::run(const std::vector<Role>& roles) {
  watch_.reset();
  run_roles(roles);
  wall_ = watch_.elapsed_seconds();
}

double Session::wall_seconds() const {
  return wall_ >= 0.0 ? wall_ : watch_.elapsed_seconds();
}

net::TrafficSnapshot Session::traffic() const {
  if (tcp_.empty()) {
    return transport_->traffic();
  }
  const auto n = static_cast<std::size_t>(tcp_.front()->num_parties());
  net::TrafficSnapshot merged;
  merged.links.assign(n, std::vector<net::LinkMetrics>(n));
  for (const auto& transport : tcp_) {
    const net::TrafficSnapshot local = transport->traffic();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        merged.links[i][j].bytes += local.links[i][j].bytes;
        merged.links[i][j].messages += local.links[i][j].messages;
      }
    }
    merged.total_bytes += local.total_bytes;
    merged.total_messages += local.total_messages;
  }
  return merged;
}

CostReport Session::cost() const {
  const std::lock_guard<std::mutex> lock(logs_mu_);
  return collect_cost(traffic(), wall_seconds(), logs_,
                      config_.byzantine_party);
}

std::string Session::export_json(const obs::MetricsSnapshot& metrics) const {
  // One traffic snapshot for both sections, so a live scrape's cost
  // totals agree with its traffic matrix.
  const net::TrafficSnapshot traffic = this->traffic();
  const std::lock_guard<std::mutex> lock(logs_mu_);
  return metrics_export_json(
      metrics, obs::EventLog::global().snapshot(), traffic,
      collect_cost(traffic, wall_seconds(), logs_, config_.byzantine_party));
}

CostReport Session::finish() {
  if (!config_.metrics_out.empty()) {
    std::ofstream out(config_.metrics_out, std::ios::trunc);
    TRUSTDDL_REQUIRE(out.good(),
                     "metrics export: cannot open " + config_.metrics_out);
    out << export_json(obs::MetricsRegistry::global().snapshot());
    TRUSTDDL_REQUIRE(out.good(), "metrics export: write failed for " +
                                     config_.metrics_out);
  }
  if (tracing_) {
    obs::Tracer::global().close();
    tracing_ = false;
  }
  return cost();
}

void Session::close() {
  if (tcp_.empty()) {
    return;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  for (auto& transport : tcp_) {
    transport->shutdown();
  }
}

}  // namespace trustddl::core
