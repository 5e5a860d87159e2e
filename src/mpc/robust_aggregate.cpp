#include "mpc/robust_aggregate.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "numeric/fixed_point.hpp"
#include "obs/trace.hpp"

namespace trustddl::mpc {
namespace {

/// Selected rank window [lo, hi) for K inputs under `rule`.  Ranks are
/// 0-based positions in the per-coordinate ascending order; the window
/// is the same for every coordinate, so |selected| is data-independent.
struct SelectionWindow {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t count() const { return hi - lo; }
};

SelectionWindow selection_window(std::size_t k, const AggregateOptions& opts) {
  switch (opts.rule) {
    case AggregationRule::kMean:
      return {0, k};
    case AggregationRule::kTrimmedMean: {
      const std::size_t trim = std::min(opts.trim, (k - 1) / 2);
      return {trim, k - trim};
    }
    case AggregationRule::kMedian:
      if (k % 2 == 1) {
        return {(k - 1) / 2, (k - 1) / 2 + 1};
      }
      return {k / 2 - 1, k / 2 + 1};
  }
  TRUSTDDL_REQUIRE(false, "robust_aggregate: unknown aggregation rule");
  return {};
}

RingTensor shift_public(const RingTensor& d, int frac_bits) {
  RingTensor shifted(d.shape());
  for (std::size_t i = 0; i < d.size(); ++i) {
    shifted[i] = fx::truncate(d[i], frac_bits);
  }
  return shifted;
}

/// Stack one operand of every pairwise comparison into a {npairs,
/// numel} share: row p holds the flattened share of input i (first) or
/// j (second) for the p-th pair (i, j), i < j, in lexicographic order.
PartyShare stack_pair_rows(const std::vector<PartyShare>& inputs,
                           std::size_t numel, std::size_t npairs,
                           bool first_of_pair) {
  const Shape stacked{npairs, numel};
  PartyShare out{RingTensor(stacked), RingTensor(stacked),
                 RingTensor(stacked)};
  std::size_t p = 0;
  for (std::size_t i = 0; i + 1 < inputs.size(); ++i) {
    for (std::size_t j = i + 1; j < inputs.size(); ++j, ++p) {
      const PartyShare& src = inputs[first_of_pair ? i : j];
      std::copy(src.primary.data(), src.primary.data() + numel,
                out.primary.data() + p * numel);
      std::copy(src.duplicate.data(), src.duplicate.data() + numel,
                out.duplicate.data() + p * numel);
      std::copy(src.second.data(), src.second.data() + numel,
                out.second.data() + p * numel);
    }
  }
  return out;
}

/// Average `acc` (sum of n_sel selected shares) and hand the result to
/// `out`: n_sel == 1 is exact, otherwise multiply by the fixed-point
/// encoding of 1/n_sel and rescale.  With kMaskedOpen the truncation
/// opening is enqueued against `batch` (it lands in the flush after
/// the caller's current round).
void finalize_average(OpenBatch& batch, DeferredShare out, PartyShare acc,
                      std::size_t n_sel, TruncationMode trunc_mode,
                      TruncPairShare pair) {
  if (n_sel == 1) {
    out.set(std::move(acc));
    return;
  }
  const int frac_bits = batch.context().frac_bits;
  PartyShare scaled =
      acc.scaled(fx::encode(1.0 / static_cast<double>(n_sel), frac_bits));
  if (trunc_mode == TruncationMode::kLocal) {
    scaled.truncate_local(frac_bits);
    out.set(std::move(scaled));
    return;
  }
  std::vector<PartyShare> masked;
  masked.push_back(scaled - pair.r);
  batch.enqueue(std::move(masked),
                [out, r_shifted = std::move(pair.r_shifted),
                 frac_bits](std::vector<RingTensor> opened) mutable {
                  r_shifted.add_public(shift_public(opened[0], frac_bits));
                  out.set(std::move(r_shifted));
                });
}

}  // namespace

const char* aggregation_rule_name(AggregationRule rule) {
  switch (rule) {
    case AggregationRule::kMean:
      return "mean";
    case AggregationRule::kTrimmedMean:
      return "trimmed_mean";
    case AggregationRule::kMedian:
      return "median";
  }
  return "unknown";
}

std::vector<TripleKey> aggregate_keys(std::size_t num_inputs,
                                      const Shape& shape,
                                      const AggregateOptions& options,
                                      bool comp_triples) {
  std::vector<TripleKey> keys;
  if (num_inputs <= 1) {
    return keys;
  }
  const std::size_t n_sel = selection_window(num_inputs, options).count();
  if (n_sel > 1 && options.trunc_mode == TruncationMode::kMaskedOpen) {
    keys.push_back(TripleKey::trunc_pair(shape));
  }
  if (n_sel < num_inputs) {
    for (TripleKey& key : comparison_keys(
             Shape{num_inputs * (num_inputs - 1) / 2, shape_size(shape)},
             comp_triples)) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

DeferredShare robust_aggregate_prepare(OpenBatch& batch, TripleStore& triples,
                                       std::vector<PartyShare> inputs,
                                       const AggregateOptions& options,
                                       bool comp_triples,
                                       AggregateStats* stats) {
  TRUSTDDL_REQUIRE(!inputs.empty(), "robust_aggregate: no inputs");
  const Shape shape = inputs[0].shape();
  for (const PartyShare& in : inputs) {
    TRUSTDDL_REQUIRE(in.shape() == shape,
                     "robust_aggregate: input shapes differ");
  }
  const std::size_t k = inputs.size();
  const std::size_t numel = shape_size(shape);
  const SelectionWindow window = selection_window(k, options);
  const std::size_t n_sel = window.count();
  const bool needs_comparison = n_sel < k;
  if (stats != nullptr) {
    stats->values_submitted = k * numel;
    stats->values_aggregated = n_sel * numel;
    stats->values_trimmed = (k - n_sel) * numel;
    stats->comparisons = needs_comparison ? k * (k - 1) / 2 * numel : 0;
    stats->selected_per_coord = n_sel;
  }

  DeferredShare out;
  if (k == 1) {
    out.set(std::move(inputs[0]));
    return out;
  }

  // All preprocessing material is fetched here in one round trip,
  // before any opening is enqueued, so the SPMD request order is a pure
  // function of (k, shape, options) at every party.
  const std::size_t npairs = k * (k - 1) / 2;
  std::vector<MaterialEntry> entries =
      triples.next_many(aggregate_keys(k, shape, options, comp_triples));
  std::size_t at = 0;
  TruncPairShare pair;
  if (n_sel > 1 && options.trunc_mode == TruncationMode::kMaskedOpen) {
    pair = std::move(entries[at++].pair);
  }

  if (!needs_comparison) {
    // Selection keeps every input: the rule degenerates to the plain
    // mean and no comparisons are spent (kMean, trim 0, or K ≤ 2).
    PartyShare sum = std::move(inputs[0]);
    for (std::size_t i = 1; i < k; ++i) {
      sum += inputs[i];
    }
    finalize_average(batch, out, std::move(sum), n_sel, options.trunc_mode,
                     std::move(pair));
    return out;
  }

  const PartyShare xs = stack_pair_rows(inputs, numel, npairs, true);
  const PartyShare ys = stack_pair_rows(inputs, numel, npairs, false);

  const TruncationMode trunc_mode = options.trunc_mode;
  sec_comp_bt_prepare_on(
      batch, xs, ys, take_comparison(entries, &at, comp_triples),
      [&batch, out, inputs = std::move(inputs), shape, numel, k, window,
       n_sel, trunc_mode, pair = std::move(pair)](RingTensor signs) mutable {
        // Per-coordinate rank of each owner: the number of owners it
        // beats, ties broken by owner index (i < j and equal values →
        // j outranks i), so ranks form a permutation of 0..k-1 at
        // every coordinate.
        std::vector<std::uint32_t> rank(k * numel, 0);
        std::size_t p = 0;
        for (std::size_t i = 0; i + 1 < k; ++i) {
          for (std::size_t j = i + 1; j < k; ++j, ++p) {
            const std::uint64_t* row = signs.data() + p * numel;
            for (std::size_t c = 0; c < numel; ++c) {
              if (static_cast<std::int64_t>(row[c]) > 0) {
                ++rank[i * numel + c];
              } else {
                ++rank[j * numel + c];
              }
            }
          }
        }
        PartyShare acc = zero_share(shape);
        RingTensor mask(shape);
        for (std::size_t owner = 0; owner < k; ++owner) {
          const std::uint32_t* owner_rank = rank.data() + owner * numel;
          for (std::size_t c = 0; c < numel; ++c) {
            mask[c] =
                (owner_rank[c] >= window.lo && owner_rank[c] < window.hi)
                    ? 1u
                    : 0u;
          }
          // Each owner's share is read once more: mask it in place.
          inputs[owner].mul_public(mask);
          acc += inputs[owner];
        }
        finalize_average(batch, out, std::move(acc), n_sel, trunc_mode,
                         std::move(pair));
      });
  return out;
}

PartyShare robust_aggregate(PartyContext& ctx, TripleStore& triples,
                            std::vector<PartyShare> inputs,
                            const AggregateOptions& options,
                            bool comp_triples, AggregateStats* stats) {
  obs::ScopedSpan span("proto.robust_aggregate", ctx.party, ctx.step);
  OpenBatch batch(ctx);
  DeferredShare out = robust_aggregate_prepare(
      batch, triples, std::move(inputs), options, comp_triples, stats);
  batch.flush_all();
  return out.take();
}

RealTensor robust_aggregate_reference(const std::vector<RealTensor>& inputs,
                                      const AggregateOptions& options) {
  TRUSTDDL_REQUIRE(!inputs.empty(), "robust_aggregate_reference: no inputs");
  const Shape shape = inputs[0].shape();
  for (const RealTensor& in : inputs) {
    TRUSTDDL_REQUIRE(in.shape() == shape,
                     "robust_aggregate_reference: input shapes differ");
  }
  const std::size_t k = inputs.size();
  const SelectionWindow window = selection_window(k, options);
  RealTensor out(shape);
  std::vector<std::pair<double, std::size_t>> order(k);
  for (std::size_t c = 0; c < out.size(); ++c) {
    for (std::size_t owner = 0; owner < k; ++owner) {
      order[owner] = {inputs[owner][c], owner};
    }
    std::sort(order.begin(), order.end());
    double sum = 0.0;
    for (std::size_t pos = window.lo; pos < window.hi; ++pos) {
      sum += order[pos].first;
    }
    out[c] = sum / static_cast<double>(window.count());
  }
  return out;
}

}  // namespace trustddl::mpc
