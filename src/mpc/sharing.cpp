#include "mpc/sharing.hpp"

#include "common/error.hpp"

namespace trustddl::mpc {
namespace {

RingTensor random_ring_tensor(const Shape& shape, Rng& rng) {
  RingTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_u64();
  }
  return out;
}

}  // namespace

RingTensor ReplicatedSecret::reconstruct_set(int set) const {
  TRUSTDDL_ASSERT(set >= 0 && set < kNumSets);
  return sets[static_cast<std::size_t>(set)][0] +
         sets[static_cast<std::size_t>(set)][1];
}

PartyShare& PartyShare::operator+=(const PartyShare& other) {
  primary += other.primary;
  duplicate += other.duplicate;
  second += other.second;
  return *this;
}

PartyShare& PartyShare::operator-=(const PartyShare& other) {
  primary -= other.primary;
  duplicate -= other.duplicate;
  second -= other.second;
  return *this;
}

PartyShare PartyShare::scaled(std::uint64_t factor) const {
  PartyShare out(*this);
  out.primary.scale_inplace(factor);
  out.duplicate.scale_inplace(factor);
  out.second.scale_inplace(factor);
  return out;
}

void PartyShare::add_public(const RingTensor& constant) {
  second += constant;
}

void PartyShare::mul_public(const RingTensor& mask) {
  primary.hadamard_inplace(mask);
  duplicate.hadamard_inplace(mask);
  second.hadamard_inplace(mask);
}

void PartyShare::truncate_local(int frac_bits) {
  primary = truncate(primary, frac_bits);
  duplicate = truncate(duplicate, frac_bits);
  second = truncate(second, frac_bits);
}

PartyShare PartyShare::reshaped(const Shape& new_shape) const {
  PartyShare out;
  out.primary = primary.reshape(new_shape);
  out.duplicate = duplicate.reshape(new_shape);
  out.second = second.reshape(new_shape);
  return out;
}

ReplicatedSecret create_replicated(const RingTensor& secret, Rng& rng) {
  ReplicatedSecret out;
  for (int set = 0; set < kNumSets; ++set) {
    auto& pair = out.sets[static_cast<std::size_t>(set)];
    pair[0] = random_ring_tensor(secret.shape(), rng);
    pair[1] = secret - pair[0];
  }
  return out;
}

PartyShare party_view(const ReplicatedSecret& dealer, int party) {
  TRUSTDDL_REQUIRE(party >= 0 && party < kNumParties,
                   "party index out of range");
  PartyShare view;
  view.primary =
      dealer.sets[static_cast<std::size_t>(set_primary(party))][0];
  view.duplicate =
      dealer.sets[static_cast<std::size_t>(set_duplicate(party))][0];
  view.second = dealer.sets[static_cast<std::size_t>(set_second(party))][1];
  return view;
}

std::array<PartyShare, kNumParties> share_secret(const RingTensor& secret,
                                                 Rng& rng) {
  const ReplicatedSecret dealer = create_replicated(secret, rng);
  std::array<PartyShare, kNumParties> views;
  for (int party = 0; party < kNumParties; ++party) {
    views[static_cast<std::size_t>(party)] = party_view(dealer, party);
  }
  return views;
}

RingTensor reconstruct(const std::array<PartyShare, kNumParties>& triples) {
  // Set 0's share 1 is party 0's primary; its share 2 is held by
  // holder_of_second(0) = party 1 as its `second` component.
  return triples[0].primary +
         triples[static_cast<std::size_t>(holder_of_second(0))].second;
}

PartyShare zero_share(const Shape& shape) {
  PartyShare out;
  out.primary = RingTensor(shape);
  out.duplicate = RingTensor(shape);
  out.second = RingTensor(shape);
  return out;
}

PartyShare transpose_share(const PartyShare& share) {
  return transform_share(share, [](const RingTensor& component) {
    return transpose(component);
  });
}

}  // namespace trustddl::mpc
