// In-memory harness for multi-owner training sessions: a core::Session
// role table of the three computing parties, the model owner
// (sequencer + owner service) and K data-owner clients over one
// in-memory Network.  It runs the configured epochs and returns the
// sequencer ledger, revealed epoch weights and traffic snapshot.  The TCP
// deployment (examples/trustddl_party --task train-serve +
// examples/trustddl_owner) runs the same bodies over TcpTransport and
// produces bit-identical weights for the same seeds.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "data/synthetic_mnist.hpp"
#include "net/transport.hpp"
#include "nn/model_zoo.hpp"
#include "train/owner_client.hpp"
#include "train/server.hpp"

namespace trustddl::train {

/// Behaviour of one harness-driven owner.
struct OwnerBehaviour {
  PoisonSpec poison;
  /// Exit abruptly (no stop notice) after this many submissions in
  /// this session; 0 runs to completion.  Models a killed owner
  /// process — the sequencer must degrade to quorum operation.
  std::size_t crash_after_submissions = 0;
};

struct TrainSessionConfig {
  nn::ModelSpec spec;
  core::EngineConfig engine;
  TrainConfig train;
  int num_owners = 3;
  /// Submissions each owner makes over its whole LIFETIME (across
  /// suspend/resume sessions: a resumed owner starts at the hello
  /// ack's seq and submits up to this bound).
  std::size_t submissions_per_owner = 4;
  std::size_t owner_batch_rows = 8;
  /// Per-owner behaviour; entries beyond the vector are honest.
  std::vector<OwnerBehaviour> owners;
  /// Training data, sharded round-robin across owners.
  data::Dataset dataset;
};

struct TrainSessionResult {
  SequencerStats sequencer;
  std::array<std::uint64_t, 3> party_rounds{};
  /// True on a shutdown manifest; false when the session suspended
  /// (train.max_rounds) and expects a resume session.
  bool clean = false;
  /// Epoch-end weight reveals: reveal_key(epoch, param) -> RingTensor.
  std::map<std::string, RingTensor> revealed;
  double wall_seconds = 0.0;
  net::TrafficSnapshot traffic;
  /// The session's cost report (core::collect_cost), detection
  /// counters included.
  core::CostReport cost;
};

/// Rows dataset.row % count == index — every owner gets a distinct,
/// near-equal shard.
data::Dataset owner_shard(const data::Dataset& dataset, int index, int count);

/// A computing party at config.engine.byzantine_party runs a
/// protocol-level adversary (config.engine.byzantine) and its failure
/// is tolerated; any other actor failure is rethrown after every
/// thread has joined.
TrainSessionResult run_training_session(const TrainSessionConfig& config);

/// Epoch weights -> plaintext model (defined with core::reveal_key).
using core::apply_revealed_weights;

}  // namespace trustddl::train
