// In-process simulated network (the mailbox Transport).
//
// One `Network` hosts N endpoints (one per actor thread).  Each ordered
// pair of endpoints has a mailbox; `Endpoint::recv` blocks until a
// message with a matching (sender, tag) arrives or the timeout expires
// (TimeoutError).  All links are metered: the benchmark harness reads
// bytes/messages per link to report the paper's communication costs.
//
// Latency emulation stamps messages with an earliest-delivery time and
// makes the *receiver* wait, so a sender fanning out to several peers
// pays the link latency once (overlapped), as on real links — not once
// per message.
#pragma once

#include <memory>
#include <vector>

#include "net/mailbox.hpp"
#include "net/transport.hpp"

namespace trustddl::net {

class Network final : public Transport {
 public:
  explicit Network(NetworkConfig config = {});
  ~Network() override = default;

  int num_parties() const override { return config_.num_parties; }
  const NetworkConfig& config() const { return config_; }
  std::chrono::milliseconds default_recv_timeout() const override {
    return config_.recv_timeout;
  }

  void send(Message message) override;
  Bytes blocking_recv(PartyId receiver, PartyId from, const std::string& tag,
                      std::chrono::milliseconds timeout) override;
  bool probe(PartyId receiver, PartyId from, const std::string& tag,
             Bytes& out) override;

  void set_fault_injector(std::shared_ptr<FaultInjector> injector) override;
  TrafficSnapshot traffic() const override;
  void reset_traffic() override;

  /// Tear the network down under its parties: every receive, blocked
  /// or later, that finds no queued match throws at once
  /// (throw_recv_closed), and so does a poll.  Sends are still
  /// metered and queued.
  void close();

 private:
  TagMailbox& mailbox(PartyId receiver, PartyId sender) {
    return *mailboxes_[static_cast<std::size_t>(receiver) *
                           static_cast<std::size_t>(config_.num_parties) +
                       static_cast<std::size_t>(sender)];
  }

  NetworkConfig config_;
  std::vector<std::unique_ptr<TagMailbox>> mailboxes_;

  mutable std::mutex metrics_mu_;
  std::vector<std::vector<LinkMetrics>> link_metrics_;

  std::mutex injector_mu_;
  std::shared_ptr<FaultInjector> injector_;
};

}  // namespace trustddl::net
