// RobustAggregate — coordinate-wise Byzantine-robust aggregation of K
// secret-shared vectors ("Secure Byzantine-Robust Machine Learning",
// He et al.; see DESIGN.md §11).
//
// Given K share triples of equal shape (one per data owner), the
// parties jointly select, per coordinate, the trimmed mean or median
// of the K submitted values — without ever opening the values
// themselves.  The coordinate ORDERING is computed via SecComp-BT over
// all K(K-1)/2 pairwise differences, stacked into a single comparison
// tensor so the whole aggregation costs the same two opening rounds as
// one SecComp (plus one more for the masked-open rescale, when used).
// With comparison triples (t, b, t ⊙ b) a comparison opens two values
// per coordinate instead of three.  aggregate_keys lists the material a
// call fetches, so a party plans it ahead from the same list.
// The revealed information is the per-coordinate rank permutation of
// the owners — the same leakage class as the ReLU sign reveal the
// framework already accepts (magnitudes stay masked by the positive
// auxiliary values).
//
// Selection is a public 0/1 mask per owner (local mul_public +
// share-wise sum), so the aggregate share is exactly the sum of the
// selected owners' shares, rescaled by 1/|selected| when the rule
// averages more than one value.
#pragma once

#include "mpc/open.hpp"
#include "mpc/protocols_bt.hpp"
#include "mpc/triple_store.hpp"

namespace trustddl::mpc {

/// Aggregation rule applied independently per coordinate.
enum class AggregationRule {
  /// Plain average of all K inputs — no robustness, no comparisons.
  /// Kept as the undefended baseline the benches degrade.
  kMean,
  /// Drop the `trim` largest and `trim` smallest values, average the
  /// rest.  trim is clamped so at least one value survives.
  kTrimmedMean,
  /// Middle value (odd K) or average of the two middle values (even
  /// K).  Equivalent to kTrimmedMean with maximal trim.
  kMedian,
};

const char* aggregation_rule_name(AggregationRule rule);

struct AggregateOptions {
  AggregationRule rule = AggregationRule::kTrimmedMean;
  /// Values trimmed per side under kTrimmedMean; effective trim is
  /// min(trim, (K-1)/2) so the selection window never empties.
  std::size_t trim = 1;
  /// How the 1/|selected| fixed-point rescale is truncated.  The
  /// training service uses kMaskedOpen so aggregates are value-exact
  /// across share re-randomizations (checkpoint restarts).
  TruncationMode trunc_mode = TruncationMode::kLocal;
};

/// Data-independent accounting for the obs ledger: per call,
/// values_submitted == values_aggregated + values_trimmed.
struct AggregateStats {
  std::uint64_t values_submitted = 0;   ///< K × numel
  std::uint64_t values_aggregated = 0;  ///< |selected| × numel
  std::uint64_t values_trimmed = 0;     ///< (K − |selected|) × numel
  std::uint64_t comparisons = 0;        ///< K(K−1)/2 × numel (0 for kMean)
  std::size_t selected_per_coord = 0;   ///< |selected| (same ∀ coords)
};

/// The keys one robust_aggregate_prepare call on `num_inputs` inputs of
/// `shape` fetches, in order: the truncation pair of the averaging
/// rescale when the rule averages several values under kMaskedOpen,
/// then one comparison's material (mpc::comparison_keys) of shape
/// {K(K-1)/2, numel} when the rule drops any input.  Nothing for one
/// input.  A party plans these keys ahead of the call.
std::vector<TripleKey> aggregate_keys(std::size_t num_inputs,
                                      const Shape& shape,
                                      const AggregateOptions& options,
                                      bool comp_triples);

/// Deferred robust aggregation: enqueues against `batch` and resolves
/// after the dependency chain flushed (flush_all).  Independent
/// aggregate calls prepared against the same batch — e.g. one per
/// model parameter — share ALL their opening rounds.
///
/// Preprocessing material (aggregate_keys) is fetched from `triples` at
/// prepare time, in one TripleStore::next_many; inputs must all share
/// one shape and inputs.size() ≥ 1.  The inputs are taken by value and
/// masked in place: callers done with them move them in.  The ranking
/// compares with comparison triples when `comp_triples`
/// (mpc::comparison_keys).
/// `frac_bits` is taken from the batch's context.  `stats`, when
/// non-null, is filled at prepare time (the counts are
/// data-independent).
DeferredShare robust_aggregate_prepare(OpenBatch& batch, TripleStore& triples,
                                       std::vector<PartyShare> inputs,
                                       const AggregateOptions& options,
                                       bool comp_triples,
                                       AggregateStats* stats = nullptr);

/// Eager wrapper: prepare + flush_all on a private batch.
PartyShare robust_aggregate(PartyContext& ctx, TripleStore& triples,
                            std::vector<PartyShare> inputs,
                            const AggregateOptions& options,
                            bool comp_triples,
                            AggregateStats* stats = nullptr);

/// Plaintext reference of the same selection semantics (dealer-side,
/// for tests and the undefended baseline): per coordinate, owners are
/// ranked by value with ties broken by owner index (equal values rank
/// in submission order), then the rule's window is averaged in double
/// precision.  Returns one real tensor of the input shape.
RealTensor robust_aggregate_reference(const std::vector<RealTensor>& inputs,
                                      const AggregateOptions& options);

}  // namespace trustddl::mpc
