#include "fleet/client.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace trustddl::fleet {

FleetClient::FleetClient(std::uint64_t client_key,
                         std::vector<std::string> pod_names,
                         PodConnector connector, FleetClientOptions options,
                         PodProbe probe)
    : client_key_(client_key),
      router_(std::move(pod_names), options.router),
      connector_(std::move(connector)),
      options_(options),
      probe_(std::move(probe)) {
  TRUSTDDL_REQUIRE(connector_ != nullptr, "FleetClient: connector required");
  slots_.reserve(router_.num_pods());
  for (std::size_t p = 0; p < router_.num_pods(); ++p) {
    slots_.push_back(std::make_unique<PodSlot>());
  }
  served_by_pod_.assign(router_.num_pods(), 0);
}

std::shared_ptr<PodSession> FleetClient::ensure_session(std::size_t pod,
                                                        bool for_stop) {
  PodSlot& slot = *slots_[pod];
  const std::lock_guard<std::mutex> lock(slot.mu);
  if (!slot.session) {
    slot.session = connector_(pod, for_stop);  // may throw
  }
  return slot.session;
}

void FleetClient::drop_session(std::size_t pod,
                               const std::shared_ptr<PodSession>& sess) {
  PodSlot& slot = *slots_[pod];
  const std::lock_guard<std::mutex> lock(slot.mu);
  // Only clear the slot if it still holds the session we failed on —
  // another thread may already have reconnected.
  if (slot.session == sess) {
    slot.session.reset();
  }
}

bool FleetClient::try_pod(std::size_t pod, const RealTensor& images,
                          FleetResult& out) {
  if (probe_ && !probe_(pod)) {
    obs::count("fleet.probe.unhealthy");
    router_.mark_down(pod);
    return false;
  }
  std::shared_ptr<PodSession> session;
  try {
    session = ensure_session(pod, /*for_stop=*/false);
  } catch (const Error& e) {
    obs::count("fleet.connect.failures");
    TRUSTDDL_LOG_DEBUG("fleet") << "client " << client_key_
                                << ": connect to pod "
                                << router_.pod_name(pod)
                                << " failed: " << e.what();
    router_.mark_down(pod);
    return false;
  }
  serve::InferenceResult result;
  try {
    result = session->client().infer(images);
  } catch (const Error& e) {
    // A SIGKILLed pod surfaces as a dead socket (ProtocolError) or a
    // recv timeout; either way the session is suspect — drop it so
    // the next attempt reconnects fresh.
    obs::count("fleet.request.errors");
    TRUSTDDL_LOG_DEBUG("fleet") << "client " << client_key_
                                << ": request on pod "
                                << router_.pod_name(pod)
                                << " failed: " << e.what();
    drop_session(pod, session);
    router_.mark_down(pod);
    return false;
  }
  out.result = std::move(result);
  out.pod = pod;
  if (out.result.status == serve::Status::kOk) {
    router_.mark_up(pod);
    return true;
  }
  // Rejected after the per-pod retry budget, or a deadline miss: the
  // pod is alive but not serving this client in time — fail over, but
  // keep the (healthy) connection for the stop broadcast.
  router_.mark_down(pod);
  return false;
}

FleetResult FleetClient::infer(const RealTensor& images) {
  const auto order = router_.preference_order(client_key_);
  const int max_attempts =
      options_.max_pod_attempts > 0
          ? options_.max_pod_attempts
          : 2 * static_cast<int>(router_.num_pods());
  FleetResult out;
  obs::count("fleet.requests");
  int attempts = 0;
  while (attempts < max_attempts) {
    bool tried_any = false;
    for (const std::size_t pod : order) {
      if (attempts >= max_attempts) {
        break;
      }
      if (!router_.eligible(pod)) {
        continue;
      }
      tried_any = true;
      ++attempts;
      if (try_pod(pod, images, out)) {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++served_by_pod_[pod];
        failovers_ += static_cast<std::size_t>(out.failovers);
        return out;
      }
      obs::count("fleet.failovers");
      ++out.failovers;
    }
    if (!tried_any) {
      // Every pod is inside its down-cooldown: force one probe rather
      // than spinning — of the pod down the longest, so a pod that only
      // answered late (a deadline miss marks it down too) is retried
      // before a dead home pod is probed again.
      ++attempts;
      const std::size_t pod = router_.longest_down(order);
      if (try_pod(pod, images, out)) {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++served_by_pod_[pod];
        failovers_ += static_cast<std::size_t>(out.failovers);
        return out;
      }
      obs::count("fleet.failovers");
      ++out.failovers;
    }
  }
  // Fleet-wide failure; report the last attempt's (non-OK) result.
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    failovers_ += static_cast<std::size_t>(out.failovers);
  }
  return out;
}

void FleetClient::stop() {
  for (std::size_t pod = 0; pod < router_.num_pods(); ++pod) {
    try {
      const auto session = ensure_session(pod, /*for_stop=*/true);
      session->client().stop();
      obs::count("fleet.stops.sent");
    } catch (const Error& e) {
      // Dead pod — its scheduler is gone, nothing waits for our stop.
      obs::count("fleet.stops.failed");
      TRUSTDDL_LOG_DEBUG("fleet") << "client " << client_key_
                                  << ": stop to pod "
                                  << router_.pod_name(pod)
                                  << " failed: " << e.what();
    }
  }
}

std::vector<std::size_t> FleetClient::served_by_pod() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return served_by_pod_;
}

std::size_t FleetClient::total_failovers() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return failovers_;
}

}  // namespace trustddl::fleet
