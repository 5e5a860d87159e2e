// Additive secret sharing (ASS) and TrustDDL's replicated 3-set share
// distribution (paper §II and §III-A, Fig. 1).
//
// For each secret s the dealer creates three independent 2-of-2
// additive sharings ("sets"):
//     s^j = { [s]_1^j , [s]_2^j },   [s]_1^j + [s]_2^j = s,  j = 1..3
// and distributes them so that party P_i (0-based i here) holds
//     primary   [s]_1^{i1}   with i1 = i
//     duplicate [ŝ]_1^{i2}   with i2 = (i+1) mod 3   (copy of P_{i2}'s primary)
//     second    [s]_2^{i3}   with i3 = (i+2) mod 3   (unique share 2 of set i3)
// Matching the paper: P1 holds {[s]_1^1, [ŝ]_1^2, [s]_2^3}, P2 holds
// {[s]_1^2, [ŝ]_1^3, [s]_2^1}, P3 holds {[s]_1^3, [ŝ]_1^1, [s]_2^2}.
//
// No party sees both shares of any set (privacy); any two parties
// jointly hold enough shares to reconstruct every set (resiliency).
#pragma once

#include <array>

#include "common/rng.hpp"
#include "numeric/tensor.hpp"

namespace trustddl::mpc {

/// Number of computing parties in the proxy layer (fixed 3PC design).
inline constexpr int kNumParties = 3;
/// Shares per set (the paper instantiates N = 2).
inline constexpr int kSharesPerSet = 2;
/// Number of replicated share sets.
inline constexpr int kNumSets = 3;

/// Set index of party i's primary share-1.
constexpr int set_primary(int party) { return party; }
/// Set index of party i's duplicated share-1 (the "hat" copy).
constexpr int set_duplicate(int party) { return (party + 1) % kNumSets; }
/// Set index of party i's share-2.
constexpr int set_second(int party) { return (party + 2) % kNumSets; }

/// Which party holds the unique share-2 of set j.
constexpr int holder_of_second(int set) { return (set + 1) % kNumSets; }
/// Which party holds the primary share-1 of set j.
constexpr int holder_of_primary(int set) { return set; }
/// Which party holds the duplicate share-1 of set j.
constexpr int holder_of_duplicate(int set) { return (set + 2) % kNumSets; }

/// Dealer-side view: all six shares of one secret.
/// sets[j][k] is [s]_{k+1}^{j+1} in the paper's notation.
struct ReplicatedSecret {
  std::array<std::array<RingTensor, kSharesPerSet>, kNumSets> sets;

  const Shape& shape() const { return sets[0][0].shape(); }

  /// Reconstruct set j (exact, dealer-side).
  RingTensor reconstruct_set(int set) const;
};

/// One computing party's holdings for one secret — the triple
/// ([s]_1^{i1}, [ŝ]_1^{i2}, [s]_2^{i3}) of the paper's protocols.
struct PartyShare {
  RingTensor primary;    ///< [s]_1^{i1}
  RingTensor duplicate;  ///< [ŝ]_1^{i2}
  RingTensor second;     ///< [s]_2^{i3}

  const Shape& shape() const { return primary.shape(); }

  /// Share-wise addition: valid because every component of the triple
  /// is an additive share of the same secret's sets.
  PartyShare& operator+=(const PartyShare& other);
  PartyShare& operator-=(const PartyShare& other);
  friend PartyShare operator+(PartyShare lhs, const PartyShare& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend PartyShare operator-(PartyShare lhs, const PartyShare& rhs) {
    lhs -= rhs;
    return lhs;
  }

  /// Multiply by a public ring constant (both shares of every set
  /// scale, so the secret scales).  The constant is a raw ring value;
  /// fixed-point callers must truncate afterwards.
  PartyShare scaled(std::uint64_t factor) const;

  /// Add a public constant to the secret: only share 2 of each set
  /// absorbs it, so exactly the party holding `second` adds it.
  void add_public(const RingTensor& constant);

  /// Elementwise product with a public tensor (applied to all three
  /// components; used for public masks such as the ReLU sign mask).
  void mul_public(const RingTensor& mask);

  /// Apply arithmetic right-shift truncation to every component
  /// (local fixed-point rescale; see protocols_bt.hpp for caveats).
  void truncate_local(int frac_bits);

  /// Reshape all components (local transformation, §III-C).
  PartyShare reshaped(const Shape& new_shape) const;
};

/// Split a secret tensor into three independent 2-of-2 sharings.
ReplicatedSecret create_replicated(const RingTensor& secret, Rng& rng);

/// Extract party i's triple from the dealer view.
PartyShare party_view(const ReplicatedSecret& dealer, int party);

/// Convenience: share a secret directly into per-party triples.
std::array<PartyShare, kNumParties> share_secret(const RingTensor& secret,
                                                 Rng& rng);

/// Dealer-side reconstruction from the three party triples (exact;
/// uses set 0).  Honest-parties-only helper for tests and the model
/// owner, NOT the robust protocol opening (see open.hpp).
RingTensor reconstruct(const std::array<PartyShare, kNumParties>& triples);

/// Zero-valued share triple of a given shape (all components zero —
/// a valid sharing of zero for every set).
PartyShare zero_share(const Shape& shape);

/// Apply a data-independent local transformation (§III-C) to every
/// component of a share triple (reshape, transpose, im2col, ...).
template <typename Fn>
PartyShare transform_share(const PartyShare& share, const Fn& fn) {
  PartyShare out;
  out.primary = fn(share.primary);
  out.duplicate = fn(share.duplicate);
  out.second = fn(share.second);
  return out;
}

/// Rank-2 transpose of a shared matrix (local transformation).
PartyShare transpose_share(const PartyShare& share);

}  // namespace trustddl::mpc
