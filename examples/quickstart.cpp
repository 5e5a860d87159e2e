// Quickstart: the TrustDDL building blocks in ~80 lines.
//
//  1. Split two secret matrices into replicated shares (Fig. 1 layout).
//  2. Run SecMul-BT across three computing parties (threads) to obtain
//     shares of the product — with the commitment phase and redundant
//     reconstruction of paper Algorithm 4.
//  3. Open the result and verify it matches the plaintext product.
//  4. Re-run with one party acting Byzantine and watch the honest
//     parties detect it and still produce the correct product.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "common/rng.hpp"
#include "mpc/adversary.hpp"
#include "mpc/open.hpp"
#include "mpc/protocols_bt.hpp"
#include "mpc/triple_store.hpp"
#include "net/runtime.hpp"
#include "numeric/fixed_point.hpp"

using namespace trustddl;

namespace {

constexpr int kF = fx::kDefaultFracBits;

void run_once(bool with_byzantine) {
  Rng rng(42);

  // The data owner's secrets.
  const RealTensor x(Shape{2, 2}, {1.5, -2.0, 0.25, 3.0});
  const RealTensor y(Shape{2, 2}, {4.0, 0.5, -1.0, 2.0});

  // Fixed-point encode and split into the three replicated share sets.
  const auto x_views = mpc::share_secret(to_ring(x, kF), rng);
  const auto y_views = mpc::share_secret(to_ring(y, kF), rng);

  // One optional Byzantine party that corrupts its shares while still
  // honoring the commitment phase (Case 3 of the security proof).
  mpc::ByzantineConfig byz_config;
  byz_config.behavior = mpc::ByzantineConfig::Behavior::kConsistentCorruption;
  mpc::StandardAdversary adversary(byz_config);

  net::Network network(net::NetworkConfig{.num_parties = 3});
  std::array<mpc::PartyContext, 3> contexts;
  for (int party = 0; party < 3; ++party) {
    auto& ctx = contexts[static_cast<std::size_t>(party)];
    ctx.endpoint = network.endpoint(party);
    ctx.party = party;
  }
  if (with_byzantine) {
    contexts[1].adversary = &adversary;
  }

  std::array<RealTensor, 3> results;
  net::run_parties(3, [&](net::PartyId party) {
    auto& ctx = contexts[static_cast<std::size_t>(party)];
    // The model owner deals one Beaver triple for the multiplication;
    // each party draws its view through its own material store.
    mpc::DealerBackend dealer(/*master_seed=*/7, kF, party);
    mpc::TripleStore triples(dealer, party);

    // z = x (.) y on shares: Beaver masking + commitment + redundant
    // reconstruction, then a fixed-point rescale.
    mpc::PartyShare z = mpc::sec_mul_bt(
        ctx, x_views[static_cast<std::size_t>(party)],
        y_views[static_cast<std::size_t>(party)],
        triples.mul_triple(Shape{2, 2}));
    z = mpc::truncate_product_local(z, kF);

    // Robustly open the product (normally only an owner would).
    results[static_cast<std::size_t>(party)] =
        to_real(mpc::open_value(ctx, z), kF);
  });

  std::printf("%s:\n", with_byzantine
                           ? "With Byzantine party 1 corrupting its shares"
                           : "All parties honest");
  std::printf("  plaintext x*y = [%.3f %.3f; %.3f %.3f]\n", 1.5 * 4.0,
              -2.0 * 0.5, 0.25 * -1.0, 3.0 * 2.0);
  for (int party = 0; party < 3; ++party) {
    const auto& r = results[static_cast<std::size_t>(party)];
    std::printf("  party %d opened  [%.3f %.3f; %.3f %.3f]   "
                "(detections: %zu)\n",
                party, r[0], r[1], r[2], r[3],
                contexts[static_cast<std::size_t>(party)]
                    .detections.events.size());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== TrustDDL quickstart: one Byzantine-tolerant secure "
              "multiplication ===\n\n");
  run_once(/*with_byzantine=*/false);
  run_once(/*with_byzantine=*/true);
  std::printf("Honest parties always open the correct product — guaranteed "
              "output delivery.\n");
  return 0;
}
