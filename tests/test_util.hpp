// Shared helpers for multi-party protocol tests.
#pragma once

#include <array>
#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "mpc/adversary.hpp"
#include "mpc/context.hpp"
#include "mpc/triple_store.hpp"
#include "net/network.hpp"
#include "net/runtime.hpp"
#include "numeric/tensor.hpp"

namespace trustddl::testing {

/// Random real tensor with entries in [-bound, bound].
inline RealTensor random_real(const Shape& shape, Rng& rng,
                              double bound = 4.0) {
  RealTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_double(-bound, bound);
  }
  return out;
}

/// Random raw ring tensor.
inline RingTensor random_ring(const Shape& shape, Rng& rng) {
  RingTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_u64();
  }
  return out;
}

/// Fixture pieces for a 3-computing-party protocol run: a network, one
/// context per party, and an optional adversary attached to one party.
struct ThreePartyHarness {
  net::Network network;
  std::array<mpc::PartyContext, 3> contexts;
  std::unique_ptr<mpc::StandardAdversary> adversary;

  explicit ThreePartyHarness(
      mpc::SecurityMode mode = mpc::SecurityMode::kMalicious,
      net::NetworkConfig config =
          net::NetworkConfig{
              .num_parties = 3,
              .recv_timeout = std::chrono::milliseconds(300)})
      : network(config) {
    for (int party = 0; party < 3; ++party) {
      auto& ctx = contexts[static_cast<std::size_t>(party)];
      ctx.endpoint = network.endpoint(party);
      ctx.party = party;
      ctx.mode = mode;
    }
  }

  void make_byzantine(int party, mpc::ByzantineConfig config) {
    adversary = std::make_unique<mpc::StandardAdversary>(config);
    contexts[static_cast<std::size_t>(party)].adversary = adversary.get();
  }

  /// Run `body(ctx)` for each party on its own thread.
  void run(const std::function<void(mpc::PartyContext&)>& body) {
    net::run_parties(3, [&](net::PartyId party) {
      body(contexts[static_cast<std::size_t>(party)]);
    });
  }
};

/// The model owner's dealing for three in-process parties: one
/// TripleStore per party over its own DealerBackend, all under one
/// seed.  Each party's streams advance across calls, so successive
/// protocol runs over one PartyStores draw fresh material.
class PartyStores {
 public:
  PartyStores(std::uint64_t seed, int frac_bits) {
    for (int party = 0; party < 3; ++party) {
      const auto index = static_cast<std::size_t>(party);
      backends_[index] =
          std::make_unique<mpc::DealerBackend>(seed, frac_bits, party);
      stores_[index] =
          std::make_unique<mpc::TripleStore>(*backends_[index], party);
    }
  }

  /// Party `party`'s store.  Const because a fixture holding the
  /// stores hands them out from const accessors too.
  mpc::TripleStore& operator[](int party) const {
    return *stores_[static_cast<std::size_t>(party)];
  }

 private:
  std::array<std::unique_ptr<mpc::DealerBackend>, 3> backends_;
  std::array<std::unique_ptr<mpc::TripleStore>, 3> stores_;
};

}  // namespace trustddl::testing
