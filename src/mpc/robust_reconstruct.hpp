// The decision rule of every robust reconstruction (paper Algorithm 4
// lines 15-20), shared by the computing parties' openings (open.cpp)
// and the owners.
//
// The data owner and the model owner receive the full share triples of
// all three computing parties (e.g. logits for Softmax outsourcing,
// trained weights, inference results).  A Byzantine computing party
// may send corrupted shares, so the owners apply the same redundancy
// machinery as the parties: share-copy cross-checks over the three
// replicated share-1 copies, six reconstructions, and the
// minimum-distance decision rule with a median fallback.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "mpc/sharing.hpp"
#include "numeric/kernels.hpp"

namespace trustddl::mpc {

/// One value's share triples by party; nullptr marks a party whose
/// shares are absent or discarded.
using ValueShares = std::array<const PartyShare*, kNumParties>;

/// Whether the two copies of `set`'s share-1 differ: its primary
/// holder's primary and its duplicate holder's duplicate, bit-exact by
/// construction.  Both holders must be present.
inline bool copies_differ(const ValueShares& shares, int set) {
  return shares[static_cast<std::size_t>(holder_of_primary(set))]->primary !=
         shares[static_cast<std::size_t>(holder_of_duplicate(set))]->duplicate;
}

/// candidates[set][hat]: s^set = [s]_1^set + [s]_2^set (hat 0) and
/// ŝ^set = [ŝ]_1^set + [s]_2^set (hat 1); nullopt when a share either
/// needs is missing or the set's share-1 copies conflict.
using Candidates =
    std::array<std::array<std::optional<RingTensor>, 2>, kNumSets>;

/// The candidate reconstructions of every value, built in parallel over
/// (value, set): all six, or the three sets only without `hats` (pair
/// exchanges carry no duplicates).  `conflicted[v][set]`, if given,
/// drops both of that set's.
std::vector<Candidates> build_candidates(
    const std::vector<ValueShares>& shares,
    const std::vector<std::array<bool, kNumSets>>& conflicted,
    const kernels::KernelConfig& config, bool hats = true);

/// What the decision rule concluded for one group of values.
struct Decision {
  bool anomaly = false;  ///< some valid candidate deviates from the pair
  int suspect = -1;      ///< the one party that can corrupt every deviation
  bool median = false;   ///< no pair agreed: fell back to the median
};

/// The minimum-distance decision rule over candidates[lo, hi) — one
/// protocol call's open set.  The pair (s^j, ŝ^k), j != k, valid for
/// every value of the group with the least summed distance wins and
/// its s^j is adopted.  Without such a pair, or beyond `tolerance` per
/// value, the group falls back to the elementwise median of every valid
/// candidate (guaranteed output delivery).  `observer` (-1 for an
/// owner) is never the suspect.  Appends the group's values to
/// `opened`; throws ProtocolError if a value has no candidate at all.
Decision decide_group(std::vector<Candidates>& candidates, std::size_t lo,
                      std::size_t hi, std::uint64_t tolerance, int observer,
                      std::vector<RingTensor>& opened);

/// Elementwise median of the signed interpretations of `candidates`.
RingTensor elementwise_median(const std::vector<const RingTensor*>& candidates);

struct ReconstructReport {
  bool anomaly = false;      ///< some reconstruction deviated
  int suspect = -1;          ///< attributed party, if identifiable
  bool ambiguous = false;    ///< fell back to the median
};

/// Robustly reconstruct a secret from the three party triples.
/// `present[i]` marks whether party i's triple was received at all
/// (crash/drop tolerance).  Throws ProtocolError if fewer than two
/// triples are usable.
RingTensor robust_reconstruct(
    const std::array<std::optional<PartyShare>, kNumParties>& triples,
    std::uint64_t tolerance, ReconstructReport* report = nullptr);

}  // namespace trustddl::mpc
