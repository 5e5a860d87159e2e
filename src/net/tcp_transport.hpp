// Real TCP transport: length-prefixed framed messages over a full
// mesh of peer connections between OS processes.
//
// Frame format (all integers little-endian):
//
//   magic(u32) | sender(u32) | tag_len(u32) | tag | payload_len(u64) | payload
//
// Rendezvous: every party binds a listener at construction; connect()
// dials every peer with a LOWER id (retrying with exponential backoff
// under NetworkConfig::connect) and accepts one connection from every
// HIGHER id, identified by a `magic | party_id` handshake.  Because
// listeners exist before anyone dials and the kernel backlog holds
// early arrivals, the sequential connect-then-accept order cannot
// deadlock.
//
// One reader thread per peer connection demultiplexes inbound frames
// into the same tag-keyed mailboxes the in-memory network uses, so
// recv timeouts map onto TimeoutError and the Byzantine/crash-fault
// handling in protocols_bt works unchanged over sockets.
// NetworkConfig::emulate_latency is honored the same way as in the
// in-memory network: inbound frames are stamped with a delivery time
// link_latency in the future, adding a modeled one-way delay on top
// of the real socket cost without blocking any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/mailbox.hpp"
#include "net/transport.hpp"

namespace trustddl::net {

/// Split "host:port" (e.g. "127.0.0.1:29500"); throws InvalidArgument
/// on malformed input.
struct TcpAddress {
  std::string host;
  std::uint16_t port = 0;
};
TcpAddress parse_address(const std::string& text);

/// One party's transport in a multi-process deployment.  Serves
/// exactly one endpoint (its own id); every other id is a remote peer.
class TcpTransport final : public Transport {
 public:
  /// Binds and listens on `listen_address` immediately (port 0 picks
  /// an ephemeral port, see bound_port()); peers attach via connect().
  TcpTransport(PartyId self, const std::string& listen_address,
               NetworkConfig config = {});
  ~TcpTransport() override;

  PartyId self() const { return self_; }
  std::uint16_t bound_port() const { return bound_port_; }

  /// Full-mesh rendezvous (see header comment).  `peer_addresses[i]`
  /// is party i's advertised listen address; the self entry is
  /// ignored.  Blocks until the mesh is up; throws TimeoutError when
  /// the RetryPolicy budget runs out.
  void connect(const std::vector<std::string>& peer_addresses);

  /// Subset-mesh rendezvous: link only the ids in `peers` (dialing
  /// the lower ones, accepting the higher ones).  `peer_addresses` is
  /// still indexed by party id; slots for non-peers may be empty.
  /// Topologies that are not a full mesh — e.g. serving, where clients
  /// talk to the parties and the model owner but parties never dial
  /// clients — must agree on pairs: for every a in b's list, b must be
  /// in a's list, or the rendezvous times out.
  void connect(const std::vector<std::string>& peer_addresses,
               const std::vector<PartyId>& peers);

  /// Fleet deployments: after the initial rendezvous, keep accepting
  /// connections from actors with id >= `min_id` on a background
  /// thread, for as long as the transport lives.  A hello from an id
  /// that is already connected replaces the link (the stale reader is
  /// joined first), so a client may drop and re-attach at any time.
  /// Ids at or above `min_id` also become *loss-tolerant*: send() to a
  /// departed or never-connected dynamic peer drops the frame (metered
  /// under net.dropped.*) instead of throwing, and a clean EOF from
  /// one marks it departed in HealthState rather than leaving a
  /// forever-stale heartbeat.  Call after connect(); at most once.
  void accept_dynamic_peers(PartyId min_id);

  /// Graceful teardown: closes every socket, joins the reader threads
  /// and closes the inboxes, so a receive or poll that finds nothing
  /// queued fails at once (throw_recv_closed).  Idempotent; also run
  /// by the destructor.
  void shutdown();

  int num_parties() const override { return config_.num_parties; }
  std::chrono::milliseconds default_recv_timeout() const override {
    return config_.recv_timeout;
  }
  Endpoint endpoint(PartyId id) override;

  void send(Message message) override;
  Bytes blocking_recv(PartyId receiver, PartyId from, const std::string& tag,
                      std::chrono::milliseconds timeout) override;
  bool probe(PartyId receiver, PartyId from, const std::string& tag,
             Bytes& out) override;

  void set_fault_injector(std::shared_ptr<FaultInjector> injector) override;

  /// Per-process view: row `self()` counts frames sent, column
  /// `self()` counts frames received.  Aggregating the send rows of
  /// every party's transport reproduces the in-memory network's
  /// snapshot exactly (each message metered once, at its sender).
  TrafficSnapshot traffic() const override;
  void reset_traffic() override;

 private:
  struct Peer {
    int fd = -1;
    std::mutex send_mu;
    std::thread reader;
  };

  void start_reader(PartyId peer_id);
  void reader_loop(PartyId peer_id);
  int connect_with_retry(PartyId peer_id, const TcpAddress& address);
  void accept_higher_peers(int expected);
  void acceptor_loop();
  /// Installs `fd` as the live connection for dynamic peer `peer_id`,
  /// tearing down and reaping any stale predecessor link first.
  void install_dynamic_peer(PartyId peer_id, int fd);

  PartyId self_;
  NetworkConfig config_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{true};
  bool shut_down_ = false;
  std::mutex shutdown_mu_;
  /// First dynamic (loss-tolerant, hot-attachable) actor id; -1 means
  /// accept_dynamic_peers was never called.
  std::atomic<PartyId> dynamic_min_id_{-1};
  std::thread acceptor_;

  std::vector<std::unique_ptr<Peer>> peers_;          // [party id]
  std::vector<std::unique_ptr<TagMailbox>> inboxes_;  // [sender id]

  mutable std::mutex metrics_mu_;
  std::vector<std::vector<LinkMetrics>> link_metrics_;

  std::mutex injector_mu_;
  std::shared_ptr<FaultInjector> injector_;
};

/// All parties in one process, each with its own TcpTransport over
/// real loopback sockets — the engine and benchmarks use this to run
/// the unmodified five-actor thread topology over genuine TCP.
/// Construction binds every party to 127.0.0.1 on an ephemeral port
/// and performs the whole mesh rendezvous.
class TcpFabric final : public Transport {
 public:
  explicit TcpFabric(NetworkConfig config = {});
  ~TcpFabric() override;

  TcpTransport& transport(PartyId id) {
    return *transports_[static_cast<std::size_t>(id)];
  }

  int num_parties() const override { return config_.num_parties; }
  std::chrono::milliseconds default_recv_timeout() const override {
    return config_.recv_timeout;
  }

  void send(Message message) override;
  Bytes blocking_recv(PartyId receiver, PartyId from, const std::string& tag,
                      std::chrono::milliseconds timeout) override;
  bool probe(PartyId receiver, PartyId from, const std::string& tag,
             Bytes& out) override;

  void set_fault_injector(std::shared_ptr<FaultInjector> injector) override;

  /// Send rows of every party's transport: one metering event per
  /// message, matching the in-memory network's snapshot shape.
  TrafficSnapshot traffic() const override;
  void reset_traffic() override;

 private:
  NetworkConfig config_;
  std::vector<std::unique_ptr<TcpTransport>> transports_;
};

}  // namespace trustddl::net
