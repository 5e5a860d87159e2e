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
//    time, interleaved differently on every party.  Thread-safe.  The
//    link is only the party's mpc::TripleStore's backend: the store
//    keeps the stream cursors and decides what to fetch.
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
#include <vector>

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

class OwnerLink final : public mpc::TripleBackend {
 public:
  OwnerLink(net::Endpoint endpoint, int party,
            std::chrono::milliseconds response_timeout =
                std::chrono::seconds(30))
      : endpoint_(endpoint),
        party_(party),
        response_timeout_(response_timeout) {}

  /// Fetch entries [start, start+count) of `key` in one round trip.
  /// Thread-safe (prefetch producer + protocol thread).
  mpc::MaterialBatch fill(const mpc::TripleKey& key, std::uint64_t start,
                          std::size_t count) override;

  /// One kBatchFill per range: every request is sent before the first
  /// reply is awaited, so the call costs one round trip.
  std::vector<mpc::MaterialBatch> fill_many(
      const std::vector<mpc::FillRange>& ranges) override;

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
};

}  // namespace trustddl::core
