// Party-side link to the model owner.
//
// TrustDDL's model owner deals preprocessing material (Beaver triples,
// comparison auxiliaries, truncation pairs — paper §III-A) and
// performs the outsourced Softmax computation (§III-C).  Computing
// parties pull both through this link; every byte crosses the metered
// network, so the benchmark's communication costs include dealing
// traffic.
//
// The link carries TWO independent per-party request streams:
//
//  * unary stream ("req/<id>" -> "rsp/<id>"): batched material fills.
//    Material is addressed by (stream key, index range) and dealt
//    statelessly from derived seeds, so requests need no cross-party
//    coordination — a background prefetch thread may issue them at any
//    time, interleaved differently on every party.  Thread-safe.
//  * collective stream ("col/<id>" -> "crsp/<id>"): Softmax
//    forward/backward, reveals, stop.  The owner groups the three
//    parties' payloads by this counter, so it must advance identically
//    on every party — these calls stay on the party's protocol thread
//    (SPMD), untouched by prefetch traffic.
//
// Splitting the streams is what makes the offline/online overlap safe:
// before, one shared counter meant any extra dealing request would
// desynchronize collective grouping across parties.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "mpc/beaver.hpp"
#include "net/network.hpp"

namespace trustddl::core {

/// Request opcodes for the model-owner service.  kBatchFill rides the
/// unary stream; the rest are collective.  Values are wire format.
enum class OwnerOp : std::uint8_t {
  kBatchFill = 0,  ///< fill N entries of one material stream
  kSoftmaxForward = 4,
  kSoftmaxBackward = 5,
  kReveal = 6,  ///< deliver a share for owner-side reconstruction
  kStop = 7,
};

class OwnerLink final : public mpc::TripleSource, public mpc::TripleBackend {
 public:
  OwnerLink(net::Endpoint endpoint, int party,
            std::chrono::milliseconds response_timeout =
                std::chrono::seconds(30))
      : endpoint_(endpoint),
        party_(party),
        response_timeout_(response_timeout) {}

  /// TripleBackend: fetch entries [start, start+count) of `key` in one
  /// round trip.  Thread-safe (prefetch producer + protocol thread).
  mpc::MaterialBatch fill(const mpc::TripleKey& key, std::uint64_t start,
                          std::size_t count) override;

  /// TripleSource — synchronous single-entry convenience over fill():
  /// each key's entries are handed out in stream order starting at 0,
  /// so a link used directly (no store) matches a store-backed run bit
  /// for bit.
  mpc::MaterialEntry next(const mpc::TripleKey& key) override;
  std::vector<mpc::MaterialEntry> next_many(
      const std::vector<mpc::TripleKey>& keys) override;

  /// Outsourced Softmax forward: send logit shares, receive fresh
  /// shares of the probabilities (collective op — the owner combines
  /// all three parties' shares).  Protocol thread only.
  mpc::PartyShare softmax_forward(const mpc::PartyShare& logits);

  /// Outsourced Softmax Jacobian-vector product for non-fused losses:
  /// send shares of probabilities and upstream gradient, receive
  /// shares of the logits gradient.  Protocol thread only.
  mpc::PartyShare softmax_backward(const mpc::PartyShare& probabilities,
                                   const mpc::PartyShare& grad);

  /// Send a share to the owner for reconstruction under `key`
  /// (trained weights, metrics).  Fire-and-forget, protocol thread
  /// only.
  void reveal(const std::string& key, const mpc::PartyShare& share);

  /// Tell the owner this party is done.  Protocol thread only; no
  /// dealing requests may follow.
  void stop();

  std::uint64_t requests_sent() const {
    std::lock_guard<std::mutex> lock(mu_);
    return unary_counter_ + collective_counter_;
  }

 private:
  /// Unary request: counter allocation + send are atomic under the
  /// lock, so ids reach the owner gap-free and in order per party.
  /// Returns the id whose reply unary_recv awaits — outside the lock,
  /// and tag-matched, so concurrent requesters cannot steal each
  /// other's replies.
  std::uint64_t unary_send(Bytes request);
  Bytes unary_recv(std::uint64_t id);
  Bytes collective_roundtrip(Bytes request);
  void collective_send(Bytes request);

  net::Endpoint endpoint_;
  int party_;
  std::chrono::milliseconds response_timeout_;

  mutable std::mutex mu_;
  std::uint64_t unary_counter_ = 0;
  std::uint64_t collective_counter_ = 0;
  /// Per-key stream cursor for direct (store-less) TripleSource use.
  std::unordered_map<mpc::TripleKey, std::uint64_t, mpc::TripleKeyHash>
      stream_cursor_;
};

}  // namespace trustddl::core
