// Client library for the secure inference serving layer.
//
// A client never sees the model and no single party ever sees the
// query: submit() secret-shares the input rows (mpc::share_secret, the
// paper's CreateShares) and fans one triple out to each computing
// party, then notifies the model owner for admission.  await() polls
// for the parties' result-share triples and robustly reconstructs the
// class probabilities as soon as ANY TWO of the three have arrived
// (after a short straggler grace once the second share lands) — the
// replicated 2-of-3 sharing means a crashed party cannot block the
// answer, and majority checking across the replicated share sets means
// a Byzantine party returning corrupted shares is out-voted
// (mpc::robust_reconstruct), extending guaranteed output delivery to
// the serving edge.
//
// infer() adds the retry loop: a kRejected verdict (bounded-queue
// backpressure) is retried with exponential backoff under a fresh seq;
// deadline misses are surfaced to the caller.
//
// Thread safety: one InferenceClient may be driven by many threads
// concurrently — seq assignment and the sharing RNG are mutex-guarded;
// everything else is per-seq tag traffic.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "net/transport.hpp"
#include "numeric/fixed_point.hpp"
#include "numeric/tensor.hpp"
#include "serve/wire.hpp"

namespace trustddl::serve {

struct ClientOptions {
  int frac_bits = fx::kDefaultFracBits;
  /// Decision-rule tolerance for robust reconstruction.
  std::uint64_t dist_tolerance = mpc::kDefaultDistTolerance;
  /// Seed of the client's sharing randomness.
  std::uint64_t seed = 1;
  /// Queue deadline the owner enforces for each request (0 = owner
  /// default).
  std::chrono::milliseconds deadline{2000};
  /// Client-side bound on waiting for result shares.
  std::chrono::milliseconds response_timeout{10000};
  /// Extra wait for the third share once two have arrived, trading a
  /// little latency for three-way majority checking.
  std::chrono::milliseconds straggler_grace{150};
  int max_retries = 3;
  /// Base of the exponential retry backoff.  The actual sleep before
  /// retry k is uniform in [base*2^k / 2, base*2^k] (decorrelated
  /// jitter from the client's own RNG), so a pod failing over a whole
  /// cohort of clients does not produce a synchronized retry storm
  /// against the next pod in the ring.
  std::chrono::milliseconds retry_backoff{25};
  /// Cap on the jittered backoff.
  std::chrono::milliseconds retry_backoff_max{1000};
};

/// Client slot `index`'s (0-based) options in a deployment running
/// `engine`: `options` with the engine's fixed-point format and
/// decision-rule tolerance, and a sharing seed derived from
/// `options.seed` — distinct per slot, identical in every process and
/// pod, so a request resubmitted anywhere is label-exact.
inline ClientOptions client_options(ClientOptions options,
                                    const core::EngineConfig& engine,
                                    int index) {
  options.frac_bits = engine.frac_bits;
  options.dist_tolerance = engine.dist_tolerance;
  options.seed =
      options.seed * 1000003 + 17 * static_cast<std::uint64_t>(index + 1);
  return options;
}

struct InferenceResult {
  Status status = Status::kDeadlineMissed;
  /// Argmax prediction per input row (empty unless status == kOk).
  std::vector<std::size_t> labels;
  /// Reconstructed class probabilities [rows, classes].
  RealTensor probabilities;
  /// Parties whose result share arrived and parsed.
  int responders = 0;
  /// Robust reconstruction flagged a deviating share set.
  bool anomaly = false;
  /// Party the deviation was attributed to (-1 if none/ambiguous).
  int suspect = -1;
  /// Submissions it took (1 = no retry).
  int attempts = 1;
};

class InferenceClient {
 public:
  /// `endpoint` must be a client actor (id >= kFirstClientId) on a
  /// transport that also carries the three parties and the model
  /// owner.
  InferenceClient(net::Endpoint endpoint, ClientOptions options);

  /// Share `images` ([rows, features] in [0,1]) to the parties and
  /// notify the owner; returns the request's seq.
  std::uint64_t submit(const RealTensor& images);

  /// Await the outcome of request `seq` covering `rows` input rows.
  InferenceResult await(std::uint64_t seq, std::size_t rows);

  /// submit() + await(), retrying rejected requests with backoff.
  InferenceResult infer(const RealTensor& images);

  /// Final message on this client's notice stream; the scheduler
  /// counts stops to know when serving may shut down.
  void stop();

 private:
  /// Correlation id carried by this client's trace records for request
  /// `seq` ("req:<client>:<seq>").
  std::string request_correlation(std::uint64_t seq) const;

  net::Endpoint endpoint_;
  ClientOptions options_;
  std::mutex mu_;           ///< guards rng_ and next_seq_
  Rng rng_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace trustddl::serve
