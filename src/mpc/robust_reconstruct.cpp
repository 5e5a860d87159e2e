#include "mpc/robust_reconstruct.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace trustddl::mpc {
namespace {

constexpr const char* kLog = "mpc.reconstruct";

/// Which reconstructions `party` can corrupt, from any observer's
/// point of view: its primary feeds s^party, its duplicate feeds
/// ŝ^{party+1}, its second feeds both s^{party+2} and ŝ^{party+2}.
bool corruptible_by(int party, int set, bool hat) {
  if (!hat) {
    return set == party || set == (party + 2) % kNumSets;
  }
  return set == (party + 1) % kNumSets || set == (party + 2) % kNumSets;
}

}  // namespace

std::vector<Candidates> build_candidates(
    const std::vector<ValueShares>& shares,
    const std::vector<std::array<bool, kNumSets>>& conflicted,
    const kernels::KernelConfig& config, bool hats) {
  std::vector<Candidates> candidates(shares.size());
  // Pure ring additions into disjoint [value][set] slots.
  kernels::parallel_for(
      config, shares.size() * kNumSets, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t v = i / kNumSets;
          const int set = static_cast<int>(i % kNumSets);
          const auto set_index = static_cast<std::size_t>(set);
          const auto holder = [&](int party) {
            return shares[v][static_cast<std::size_t>(party)];
          };
          const PartyShare* second = holder(holder_of_second(set));
          if (second == nullptr ||
              (!conflicted.empty() && conflicted[v][set_index])) {
            continue;
          }
          if (const PartyShare* primary = holder(holder_of_primary(set))) {
            candidates[v][set_index][0] = primary->primary + second->second;
          }
          const PartyShare* duplicate = holder(holder_of_duplicate(set));
          if (hats && duplicate != nullptr) {
            candidates[v][set_index][1] =
                duplicate->duplicate + second->second;
          }
        }
      });
  return candidates;
}

Decision decide_group(std::vector<Candidates>& candidates, std::size_t lo,
                      std::size_t hi, std::uint64_t tolerance, int observer,
                      std::vector<RingTensor>& opened) {
  // Minimum summed distance over pairs (s^j, ŝ^k), j != k, valid for
  // every value of the group; the first minimum wins ties.
  int best_j = -1;
  std::uint64_t best_dist = ~std::uint64_t{0};
  for (int j = 0; j < kNumSets; ++j) {
    for (int k = 0; k < kNumSets; ++k) {
      bool usable = j != k;
      std::uint64_t total = 0;
      for (std::size_t v = lo; usable && v < hi; ++v) {
        const auto& lhs = candidates[v][static_cast<std::size_t>(j)][0];
        const auto& rhs = candidates[v][static_cast<std::size_t>(k)][1];
        usable = lhs && rhs;
        if (usable) {
          const std::uint64_t d = ring_distance(*lhs, *rhs);
          total = (total > ~d) ? ~std::uint64_t{0} : total + d;
        }
      }
      if (usable && total < best_dist) {
        best_dist = total;
        best_j = j;
      }
    }
  }

  Decision decision;
  decision.anomaly = best_j < 0;
  if (best_j >= 0) {
    // deviations[set][hat]: some value's candidate of that kind
    // disagrees with the adopted s^j.
    bool deviations[kNumSets][2] = {};
    for (std::size_t v = lo; v < hi; ++v) {
      const RingTensor& chosen =
          *candidates[v][static_cast<std::size_t>(best_j)][0];
      for (int set = 0; set < kNumSets; ++set) {
        for (int hat = 0; hat < 2; ++hat) {
          const auto& candidate = candidates[v][static_cast<std::size_t>(set)]
                                            [static_cast<std::size_t>(hat)];
          if (candidate && ring_distance(*candidate, chosen) > tolerance) {
            decision.anomaly = true;
            deviations[set][hat] = true;
          }
        }
      }
    }
    // A party is the plausible culprit if it can touch EVERY deviating
    // candidate; exactly one such party means attribution.
    int implicated = 0;
    for (int party = 0; decision.anomaly && party < kNumParties; ++party) {
      bool explains_all = party != observer;
      for (int set = 0; set < kNumSets && explains_all; ++set) {
        for (int hat = 0; hat < 2; ++hat) {
          if (deviations[set][hat] && !corruptible_by(party, set, hat == 1)) {
            explains_all = false;
          }
        }
      }
      if (explains_all) {
        decision.suspect = party;
        ++implicated;
      }
    }
    if (implicated != 1) {
      decision.suspect = -1;
    }
  }

  decision.median = best_j < 0 || best_dist > tolerance * (hi - lo);
  for (std::size_t v = lo; v < hi; ++v) {
    if (!decision.median) {
      opened.push_back(
          std::move(*candidates[v][static_cast<std::size_t>(best_j)][0]));
      continue;
    }
    std::vector<const RingTensor*> valid;
    for (const auto& set : candidates[v]) {
      for (const auto& candidate : set) {
        if (candidate) {
          valid.push_back(&*candidate);
        }
      }
    }
    if (valid.empty()) {
      throw ProtocolError(
          "no usable reconstruction — more than one party failed, which "
          "exceeds the fault model");
    }
    opened.push_back(elementwise_median(valid));
  }
  return decision;
}

RingTensor elementwise_median(
    const std::vector<const RingTensor*>& candidates) {
  TRUSTDDL_ASSERT(!candidates.empty());
  RingTensor out(candidates[0]->shape());
  // Per-element medians over disjoint output chunks — exact at any
  // thread count.
  kernels::parallel_for(out.size(), 2048, [&](std::size_t lo,
                                              std::size_t hi) {
    std::vector<std::int64_t> scratch(candidates.size());
    for (std::size_t e = lo; e < hi; ++e) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        scratch[c] = static_cast<std::int64_t>((*candidates[c])[e]);
      }
      std::nth_element(
          scratch.begin(),
          scratch.begin() + static_cast<std::ptrdiff_t>(scratch.size() / 2),
          scratch.end());
      out[e] = static_cast<std::uint64_t>(scratch[scratch.size() / 2]);
    }
  });
  return out;
}

RingTensor robust_reconstruct(
    const std::array<std::optional<PartyShare>, kNumParties>& triples,
    std::uint64_t tolerance, ReconstructReport* report) {
  ReconstructReport local_report;
  ReconstructReport& out_report = report ? *report : local_report;
  out_report = ReconstructReport{};

  // Structural pre-filter: a party whose components do not all carry
  // the majority shape is treated as absent (garbage from a broken or
  // Byzantine sender must not poison the copy-conflict checks).
  ValueShares shares{};
  Shape expected;
  {
    std::array<Shape, kNumParties> shapes;
    for (int party = 0; party < kNumParties; ++party) {
      if (triples[static_cast<std::size_t>(party)].has_value()) {
        shapes[static_cast<std::size_t>(party)] =
            triples[static_cast<std::size_t>(party)]->primary.shape();
      }
    }
    for (int a = 0; a < kNumParties && expected.empty(); ++a) {
      for (int b = a + 1; b < kNumParties; ++b) {
        if (!shapes[static_cast<std::size_t>(a)].empty() &&
            shapes[static_cast<std::size_t>(a)] ==
                shapes[static_cast<std::size_t>(b)]) {
          expected = shapes[static_cast<std::size_t>(a)];
          break;
        }
      }
    }
    for (int party = 0; party < kNumParties; ++party) {
      const auto& triple = triples[static_cast<std::size_t>(party)];
      if (triple.has_value() && !expected.empty() &&
          triple->primary.shape() == expected &&
          triple->duplicate.shape() == expected &&
          triple->second.shape() == expected) {
        shares[static_cast<std::size_t>(party)] = &*triple;
      }
    }
  }

  // Share-copy cross-checks: a mismatch invalidates both
  // reconstructions of that set (one of the two holders lied, the
  // owner cannot tell which).
  std::vector<std::array<bool, kNumSets>> conflicted(1);
  for (int set = 0; set < kNumSets; ++set) {
    const int p1 = holder_of_primary(set);
    const int pd = holder_of_duplicate(set);
    if (shares[static_cast<std::size_t>(p1)] != nullptr &&
        shares[static_cast<std::size_t>(pd)] != nullptr &&
        copies_differ(shares, set)) {
      conflicted[0][static_cast<std::size_t>(set)] = true;
      out_report.anomaly = true;
      TRUSTDDL_LOG_WARN(kLog)
          << "conflicting share-1 copies for set " << set << " (holders "
          << p1 << " and " << pd << ")";
    }
  }

  std::vector<Candidates> candidates =
      build_candidates({shares}, conflicted, kernels::global_config());
  std::vector<RingTensor> opened;
  const Decision decision =
      decide_group(candidates, 0, 1, tolerance, /*observer=*/-1, opened);
  out_report.anomaly = out_report.anomaly || decision.anomaly;
  out_report.ambiguous = decision.median;
  out_report.suspect = decision.median ? -1 : decision.suspect;
  if (decision.median) {
    TRUSTDDL_LOG_WARN(kLog)
        << "no agreeing reconstruction pair — fell back to the median";
  } else if (decision.anomaly) {
    TRUSTDDL_LOG_WARN(kLog) << "reconstruction anomaly recovered"
                            << (out_report.suspect >= 0
                                    ? " — suspect party " +
                                          std::to_string(out_report.suspect)
                                    : "");
  }
  return std::move(opened[0]);
}

}  // namespace trustddl::mpc
