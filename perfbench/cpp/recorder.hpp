// Benchmark-side instrumentation: a net::Transport decorator that
// records every send and receive, plus a span log for the public calls
// the benchmark makes.  Nothing here touches the library: the benchmark
// builds the transport, wraps it, and hands the wrapper's endpoints to
// the actor bodies.
//
// Two modes:
//   * kBoundary (untimed overhead ~ one virtual call per message): only
//     receive completions at the computing parties for the serve, train
//     and data tag classes are kept — the manifest pickups and batch
//     receipts that mark round and step boundaries.
//   * kFull (the traced run): every send, blocking receive, probe hit
//     and timeout, with its tag class, bytes and start/end times.
//     Probe misses are counted, and a run of misses for one (receiver,
//     sender, tag) at a computing party that ends in a hit is recorded
//     as one poll wait, so a party's idle manifest polling counts as
//     waiting, not as busy time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include <pthread.h>

#include "net/transport.hpp"
#include "serve/wire.hpp"

namespace perfbench {

using trustddl::net::PartyId;

/// Steady-clock nanoseconds (one epoch for every record of a run).
std::int64_t now_ns();
/// CPU time of the calling thread, nanoseconds.
std::int64_t thread_cpu_ns();
/// CPU time of the thread owning `clock`, nanoseconds.
std::int64_t clock_ns(clockid_t clock);

/// Tag classes of the benchmark's byte and wait accounting.
enum class TagClass : std::uint8_t {
  kOpen,    ///< computing party <-> computing party
  kDealer,  ///< req/, rsp/ (preprocessing material)
  kOwner,   ///< col/, crsp/ (outsourced Softmax, weight reveals)
  kSetup,   ///< init/ (parameter shares)
  kServe,   ///< srv/
  kTrain,   ///< trn/
  kData,    ///< everything else (engine batches and predictions)
};
inline constexpr std::size_t kTagClasses = 7;
const char* tag_class_name(TagClass cls);
TagClass classify(PartyId from, PartyId to, const std::string& tag);

enum class NetOp : std::uint8_t {
  kSend,      ///< actor = sender, peer = receiver
  kRecv,      ///< blocking receive that returned; actor = receiver
  kPollWait,  ///< probe misses ending in a hit at a computing party
  kProbeHit,  ///< probe that returned a message without a prior miss
  kTimeout,   ///< blocking receive that expired
};

struct NetEvent {
  NetOp op = NetOp::kSend;
  TagClass cls = TagClass::kData;
  PartyId actor = -1;
  PartyId peer = -1;
  std::uint64_t bytes = 0;  ///< Message::wire_size(), as metered
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::string tag;
};

/// A serving manifest as the model owner sent it (decoded from the
/// first of its three sends).
struct ManifestSend {
  std::int64_t t0 = 0;
  trustddl::serve::BatchManifest manifest;
};

class RecordingTransport final : public trustddl::net::Transport {
 public:
  enum class Mode { kBoundary, kFull };

  RecordingTransport(trustddl::net::Transport& inner, Mode mode);

  /// Called (on the receiving party's thread) for every receive
  /// completion boundary mode keeps; set before any actor starts.
  void set_boundary_hook(std::function<void(const NetEvent&)> hook) {
    boundary_hook_ = std::move(hook);
  }

  int num_parties() const override { return inner_.num_parties(); }
  std::chrono::milliseconds default_recv_timeout() const override {
    return inner_.default_recv_timeout();
  }
  void send(trustddl::net::Message message) override;
  trustddl::Bytes blocking_recv(PartyId receiver, PartyId from,
                                const std::string& tag,
                                std::chrono::milliseconds timeout) override;
  bool probe(PartyId receiver, PartyId from, const std::string& tag,
             trustddl::Bytes& out) override;
  void set_fault_injector(
      std::shared_ptr<trustddl::net::FaultInjector> injector) override {
    inner_.set_fault_injector(std::move(injector));
  }
  trustddl::net::TrafficSnapshot traffic() const override {
    return inner_.traffic();
  }
  void reset_traffic() override { inner_.reset_traffic(); }

  /// Close any open poll run of computing party `party` at its last
  /// probe (called when the party body returns).
  void close_poll(PartyId party);

  /// Recorded events and manifests; call after every actor joined.
  const std::vector<NetEvent>& events() const { return events_; }
  const std::vector<ManifestSend>& manifests() const { return manifests_; }
  std::uint64_t probe_calls() const { return probes_.load(); }
  std::uint64_t probe_hits() const { return probe_hits_.load(); }

 private:
  struct PollRun {
    bool open = false;
    PartyId from = -1;
    std::string tag;
    std::int64_t t0 = 0;
    std::int64_t last_t1 = 0;
  };

  void push(NetEvent event);
  void close_poll_locked(PartyId party);

  trustddl::net::Transport& inner_;
  Mode mode_;
  std::function<void(const NetEvent&)> boundary_hook_;
  std::mutex mu_;
  std::vector<NetEvent> events_;
  std::vector<ManifestSend> manifests_;
  std::array<PollRun, 3> polls_{};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> probe_hits_{0};
};

/// One timed public call (or setup step) made by the benchmark.
struct Span {
  std::string name;
  PartyId actor = -1;
  std::uint64_t id = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int64_t cpu0 = 0;
  std::int64_t cpu1 = 0;
};

/// In-memory span log, written out at exit by the report.
class SpanLog {
 public:
  void add(Span span);
  std::vector<Span> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span with thread CPU clocks.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, PartyId actor,
             std::uint64_t id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  Span span_;
};

}  // namespace perfbench
