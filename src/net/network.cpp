#include "net/network.hpp"

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace trustddl::net {
namespace {

/// Cached registry references — stable for the process lifetime, so
/// the enabled hot path skips the name lookup.
obs::Histogram& recv_wait_histogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::global().histogram("net.recv_wait_us");
  return histogram;
}

obs::Histogram& msg_bytes_histogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::global().histogram("net.msg_bytes");
  return histogram;
}

}  // namespace

Network::Network(NetworkConfig config) : config_(config) {
  TRUSTDDL_REQUIRE(config_.num_parties >= 2, "network needs >= 2 parties");
  const auto n = static_cast<std::size_t>(config_.num_parties);
  mailboxes_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    mailboxes_.push_back(std::make_unique<TagMailbox>());
  }
  link_metrics_.assign(n, std::vector<LinkMetrics>(n));
}

void Network::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  std::lock_guard<std::mutex> lock(injector_mu_);
  injector_ = std::move(injector);
}

void Network::send(Message message) {
  // Meter the traffic the sender put on the wire, even if a fault
  // later drops it: the bytes were still sent.
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    auto& link = link_metrics_[static_cast<std::size_t>(message.sender)]
                              [static_cast<std::size_t>(message.receiver)];
    link.messages += 1;
    link.bytes += message.wire_size();
  }
  if (obs::metrics_enabled()) {
    const std::string cls = tag_class(message.tag);
    obs::count("net.sent.messages." + cls);
    obs::count("net.sent.bytes." + cls, message.wire_size());
    msg_bytes_histogram().observe(message.wire_size());
  }

  FaultDecision decision;
  {
    std::lock_guard<std::mutex> lock(injector_mu_);
    if (injector_) {
      decision = injector_->on_message(message);
    }
  }
  if (decision.drop) {
    return;
  }
  if (decision.corrupt) {
    // Flip the last payload byte: enough to break any integrity check
    // while keeping length prefixes intact, so receivers exercise
    // their verification logic rather than their deserializer.
    if (!message.payload.empty()) {
      message.payload.back() ^= 0xa5;
    }
  }

  // Emulated latency and fault delays are charged to the *receiver*
  // via the delivery timestamp; the sending thread never sleeps, so
  // its fan-out to the other parties overlaps like real links.
  auto deliver_at = TagMailbox::Clock::now() + decision.delay;
  if (config_.emulate_latency) {
    deliver_at += config_.link_latency;
  }
  mailbox(message.receiver, message.sender)
      .push(std::move(message), deliver_at);
}

Bytes Network::blocking_recv(PartyId receiver, PartyId from,
                             const std::string& tag,
                             std::chrono::milliseconds timeout) {
  TRUSTDDL_REQUIRE(from >= 0 && from < config_.num_parties,
                   "recv: sender out of range");
  const bool timed = obs::metrics_enabled();
  const std::uint64_t start_us = timed ? obs::now_us() : 0;
  auto payload = mailbox(receiver, from).recv(tag, timeout);
  if (timed) {
    recv_wait_histogram().observe(obs::now_us() - start_us);
  }
  if (!payload) {
    if (mailbox(receiver, from).closed()) {
      throw_recv_closed(receiver, from, tag);
    }
    throw_recv_timeout(receiver, from, tag);
  }
  return std::move(*payload);
}

bool Network::probe(PartyId receiver, PartyId from, const std::string& tag,
                    Bytes& out) {
  TagMailbox& box = mailbox(receiver, from);
  if (box.try_recv(tag, out)) {
    return true;
  }
  if (box.closed()) {
    throw_recv_closed(receiver, from, tag);
  }
  return false;
}

void Network::close() {
  for (auto& box : mailboxes_) {
    box->close();
  }
}

TrafficSnapshot Network::traffic() const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  TrafficSnapshot snapshot;
  snapshot.links = link_metrics_;
  for (const auto& row : link_metrics_) {
    for (const auto& link : row) {
      snapshot.total_messages += link.messages;
      snapshot.total_bytes += link.bytes;
    }
  }
  return snapshot;
}

void Network::reset_traffic() {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  for (auto& row : link_metrics_) {
    for (auto& link : row) {
      link = LinkMetrics{};
    }
  }
}

}  // namespace trustddl::net
