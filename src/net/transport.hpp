// Transport abstraction for the inter-party network.
//
// Protocols talk to `Endpoint` (send / blocking tag-matched recv /
// try_recv); an Endpoint is a thin handle onto a `Transport`, of which
// two implementations exist:
//   * net::Network      — the in-process mailbox network (network.hpp),
//     parties on threads, optional emulated latency;
//   * net::TcpTransport — real length-prefixed frames over a full mesh
//     of TCP connections between OS processes (tcp_transport.hpp).
// Both meter every directed link and map receive expiry onto
// TimeoutError, so the Byzantine/crash-fault handling in mpc/ works
// identically over either.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_injector.hpp"
#include "net/message.hpp"

namespace trustddl::net {

/// Connection-establishment policy shared by the TCP rendezvous logic
/// (and any future reconnecting transport): how long to keep trying,
/// and how the retry backoff grows.
struct RetryPolicy {
  /// Total budget for establishing one peer connection (covers every
  /// retry) and for awaiting inbound peers.
  std::chrono::milliseconds connect_timeout{10000};
  std::chrono::milliseconds initial_backoff{20};
  double backoff_multiplier = 2.0;
  std::chrono::milliseconds max_backoff{500};
};

struct NetworkConfig {
  int num_parties = 3;
  /// Default recv() wait bound; protocols treat expiry as a dropped
  /// message.  Overridable per call via Endpoint::recv(from, tag, t).
  std::chrono::milliseconds recv_timeout{2000};
  /// If true, the in-memory network stamps each message with an
  /// earliest-delivery time `link_latency` in the future to emulate a
  /// LAN; off by default so tests stay fast.  Ignored by TcpTransport
  /// (real links have real latency).
  bool emulate_latency = false;
  std::chrono::microseconds link_latency{50};
  /// TCP rendezvous retry policy (unused by the in-memory network).
  RetryPolicy connect{};
};

/// Byte/message counters for one directed link.
struct LinkMetrics {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Aggregated traffic snapshot.
struct TrafficSnapshot {
  std::vector<std::vector<LinkMetrics>> links;  // [sender][receiver]
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;

  double total_megabytes() const {
    return static_cast<double>(total_bytes) / (1024.0 * 1024.0);
  }

  /// Zero every link counter and the totals (the matrix shape is
  /// kept).
  void reset();

  /// Per-link and total deltas since `before` (which must have the
  /// same matrix shape, or be empty).  Lets benches and the metrics
  /// layer measure a section of a run without re-creating transports.
  TrafficSnapshot diff(const TrafficSnapshot& before) const;
};

class Transport;

/// A party's handle onto a transport.  Cheap to copy; thread-affine
/// use is expected (one endpoint per party thread).
class Endpoint {
 public:
  Endpoint() = default;

  PartyId id() const { return id_; }
  int num_parties() const;

  /// Send `payload` to `to` under `tag`.
  void send(PartyId to, const std::string& tag, Bytes payload) const;

  /// Block until a message from `from` with tag `tag` arrives; throws
  /// TimeoutError after the transport's default timeout.
  Bytes recv(PartyId from, const std::string& tag) const;

  /// recv with an explicit timeout override.
  Bytes recv(PartyId from, const std::string& tag,
             std::chrono::milliseconds timeout) const;

  /// Non-blocking probe; returns true and fills `out` if available.
  bool try_recv(PartyId from, const std::string& tag, Bytes& out) const;

 private:
  friend class Transport;
  Endpoint(Transport* transport, PartyId id)
      : transport_(transport), id_(id) {}

  Transport* transport_ = nullptr;
  PartyId id_ = -1;
};

/// Abstract message transport between `num_parties()` actors.
///
/// The low-level send/blocking_recv/probe calls are public so that
/// composite transports (e.g. TcpFabric) can delegate, but protocol
/// code should always go through Endpoint.
class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual int num_parties() const = 0;
  virtual std::chrono::milliseconds default_recv_timeout() const = 0;

  /// Handle for party `id`.  Single-process transports serve every id;
  /// TcpTransport overrides this to reject ids other than its own.
  virtual Endpoint endpoint(PartyId id);

  /// Deliver a fully-formed message (sender/receiver/tag/payload set).
  virtual void send(Message message) = 0;

  /// Block until a (from, tag) match arrives or `timeout` expires
  /// (TimeoutError).
  virtual Bytes blocking_recv(PartyId receiver, PartyId from,
                              const std::string& tag,
                              std::chrono::milliseconds timeout) = 0;

  /// Non-blocking probe for a (from, tag) match.
  virtual bool probe(PartyId receiver, PartyId from, const std::string& tag,
                     Bytes& out) = 0;

  /// Install a transport fault injector (nullptr restores NoFaults).
  virtual void set_fault_injector(std::shared_ptr<FaultInjector> injector) = 0;

  /// Traffic counters since construction or the last reset.
  virtual TrafficSnapshot traffic() const = 0;
  virtual void reset_traffic() = 0;

 protected:
  Transport() = default;

  Endpoint make_endpoint(PartyId id) { return Endpoint(this, id); }
};

/// Shared TimeoutError wording so both transports (and tests matching
/// on the message) agree.
[[noreturn]] void throw_recv_timeout(PartyId receiver, PartyId from,
                                     const std::string& tag);

/// The ProtocolError a receive meets on a closed transport: nothing
/// will arrive, so it fails at once instead of waiting out a timeout.
[[noreturn]] void throw_recv_closed(PartyId receiver, PartyId from,
                                    const std::string& tag);

/// Collapse a message tag into its protocol class for per-class
/// metrics: the last '/'-separated segment ("12/c" -> "c",
/// "7/s2" -> "s2"), falling back to the first segment when the last is
/// purely numeric ("init/3" -> "init", "e/0/p/2" -> "e").  Tags with
/// no '/' map to themselves.
std::string tag_class(const std::string& tag);

}  // namespace trustddl::net
