// Model-owner service loop.
//
// Serves the computing parties' requests over the metered network.
// Each party speaks on two independent streams (see owner_link.hpp):
//
//  * unary stream ("req/<id>"): batched material fills (kBatchFill).
//    Material is dealt *statelessly* — entry (key, index) is generated
//    from a seed derived from the service seed, so the same range
//    request yields the same shares no matter which party asks first,
//    how far ahead each party's requests run, or whether the
//    service restarted in between.  A small response cache only saves
//    recomputation when the three parties request the same range
//    back-to-back; evicting it is always safe.
//  * collective stream ("col/<id>"): Softmax forward/backward,
//    reveals, stop.  The owner collects the three parties' shares for
//    one collective counter, robustly reconstructs (a Byzantine party
//    may send junk or stay silent), computes, re-shares, and responds
//    on "crsp/<id>".  Responses are cached so a slow-but-honest party
//    arriving after the group deadline is still served.
//
// The loop exits once at least two parties sent kStop (the fault model
// guarantees two honest parties) and pending groups are drained.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/owner_link.hpp"
#include "core/roles.hpp"
#include "mpc/context.hpp"
#include "mpc/robust_reconstruct.hpp"
#include "net/network.hpp"

namespace trustddl::core {

struct OwnerServiceConfig {
  int frac_bits = fx::kDefaultFracBits;
  std::uint64_t dist_tolerance = mpc::kDefaultDistTolerance;
  /// How long a collective op waits for stragglers before processing
  /// with the members present.
  std::chrono::milliseconds collect_timeout{1000};
  /// Master seed of the derived-seed material streams AND of the
  /// owner's re-sharing randomness.  Parties comparing runs must agree
  /// on it (the engine derives it from EngineConfig::seed).
  std::uint64_t seed = 0xdea1e5;
  /// Upper bound on entries per kBatchFill request (backpressure
  /// against a buggy or hostile party asking for gigabytes).
  std::uint32_t max_batch_entries = 8192;
};

class ModelOwnerService {
 public:
  ModelOwnerService(net::Endpoint endpoint, OwnerServiceConfig config);

  /// Serve until shutdown (see header comment).  Runs on the model
  /// owner's thread.
  void run();

  /// Makes run() return at its next loop iteration without waiting
  /// for party stops — used when the owner process itself is going
  /// down (scheduler chaos crash in pod-failover tests).  Safe to
  /// call from any thread.
  void request_stop() {
    abort_requested_.store(true, std::memory_order_relaxed);
  }

  /// Values reconstructed from kReveal requests, by key.
  const std::map<std::string, RingTensor>& revealed() const {
    return revealed_;
  }

  /// Anomalies observed while reconstructing collective inputs.
  std::size_t reconstruction_anomalies() const { return anomalies_; }

  /// kBatchFill requests served (all parties, all streams).
  std::uint64_t fills_served() const { return fills_served_; }

 private:
  struct Group {
    OwnerOp op = OwnerOp::kSoftmaxForward;
    std::array<std::optional<Bytes>, kComputingParties> payloads;
    std::chrono::steady_clock::time_point created;
    bool processed = false;
    std::array<std::optional<Bytes>, kComputingParties> responses;
    std::array<bool, kComputingParties> responded{};
  };

  struct FillCacheEntry;

  /// Unary-stream request (kBatchFill).
  void handle_unary(int party, const Bytes& payload, std::uint64_t id);
  /// Every party's response to a kBatchFill payload, freshly dealt.
  FillCacheEntry deal_fill(const Bytes& payload) const;
  /// Collective-stream request (softmax/reveal/stop).
  void handle_collective(int party, const Bytes& payload, std::uint64_t id);
  void process_group(std::uint64_t id, Group& group);

  RingTensor reconstruct_collective(const Group& group,
                                    std::size_t payload_offset_values);

  net::Endpoint endpoint_;
  OwnerServiceConfig config_;
  Rng rng_;

  std::array<std::uint64_t, kComputingParties> next_unary_{};
  std::array<std::uint64_t, kComputingParties> next_collective_{};
  int stop_count_ = 0;
  std::array<bool, kComputingParties> stopped_{};
  std::atomic<bool> abort_requested_{false};

  /// Fill-response cache keyed by the raw request payload: the three
  /// parties issue byte-identical requests for a range, so the second
  /// and third hit the cache instead of re-dealing.  A party's response
  /// moves out when it is sent; `served` marks whose did.  Bounded
  /// FIFO; dealing is stateless, so eviction never changes served
  /// material.
  static constexpr std::size_t kMaxFillCacheEntries = 64;
  struct FillCacheEntry {
    std::array<Bytes, kComputingParties> responses;
    int served = 0;
  };
  struct BytesHash {
    std::size_t operator()(const Bytes& bytes) const;
  };
  std::unordered_map<Bytes, FillCacheEntry, BytesHash> fill_cache_;
  std::deque<Bytes> fill_cache_fifo_;

  std::unordered_map<std::uint64_t, Group> groups_;
  std::map<std::string, RingTensor> revealed_;
  std::size_t anomalies_ = 0;
  std::uint64_t fills_served_ = 0;
};

}  // namespace trustddl::core
