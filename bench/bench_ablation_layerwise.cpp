// Ablation: layer-wise cost split of the Table I network under the
// Byzantine-tolerant protocols (promised in DESIGN.md §3).
//
// Each layer operation runs in isolation across the three computing
// parties; the metered network gives its party-to-party protocol
// traffic (preprocessing material comes from an in-process dealer here
// and is excluded — Table II's end-to-end numbers include it).  The
// split shows where TrustDDL's cost lives: the FC-980x100 layer's
// weight-sized mask opening f = W − B dominates, exactly the term that
// makes TrustDDL orders of magnitude heavier than Falcon-style
// re-sharing designs.  With reusable weight masks (the default) the
// forward row pays it once for the weight version and the backward row
// reuses it.
#include <cstdio>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/secure_model.hpp"
#include "mpc/triple_store.hpp"
#include "net/runtime.hpp"
#include "nn/layers.hpp"

using namespace trustddl;

namespace {

constexpr int kF = fx::kDefaultFracBits;

RealTensor random_real(const Shape& shape, Rng& rng, double bound) {
  RealTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_double(-bound, bound);
  }
  return out;
}

struct OpCost {
  double milliseconds = 0;
  double megabytes = 0;
  double messages = 0;
};

/// Run `body(ctx, party)` once per computing party and meter it.
template <typename Body>
OpCost measure(const Body& body) {
  net::Network network(net::NetworkConfig{.num_parties = 3});
  std::array<mpc::PartyContext, 3> contexts;
  for (int party = 0; party < 3; ++party) {
    auto& ctx = contexts[static_cast<std::size_t>(party)];
    ctx.endpoint = network.endpoint(party);
    ctx.party = party;
  }
  Stopwatch watch;
  net::run_parties(3, [&](net::PartyId party) {
    mpc::DealerBackend dealer(7, kF, party);
    mpc::TripleStore triples(dealer, party);
    core::SecureExecContext ctx;
    ctx.mpc = &contexts[static_cast<std::size_t>(party)];
    ctx.triples = &triples;
    ctx.trunc_mode = core::TruncationMode::kLocal;
    body(ctx, party);
  });
  const double wall = watch.elapsed_millis();
  const auto traffic = network.traffic();
  return OpCost{wall,
                static_cast<double>(traffic.total_bytes) / (1 << 20),
                static_cast<double>(traffic.total_messages)};
}

void print_row(const char* name, const OpCost& cost) {
  std::printf("%-26s %12.2f %12.3f %10.0f\n", name, cost.milliseconds,
              cost.megabytes, cost.messages);
}

}  // namespace

int main() {
  std::printf("=== Ablation: layer-wise protocol cost, Table I network, "
              "batch 1, malicious mode ===\n");
  std::printf("(party-to-party traffic only; dealing excluded here)\n\n");
  std::printf("%-26s %12s %12s %10s\n", "operation", "time (ms)",
              "comm (MB)", "messages");

  Rng rng(3);

  // --- Conv 5x5 pad 2 stride 2, 1 -> 5 channels, 28x28 input. ---
  ConvSpec conv;
  conv.in_channels = 1;
  conv.in_height = 28;
  conv.in_width = 28;
  conv.out_channels = 5;
  conv.kernel_h = 5;
  conv.kernel_w = 5;
  conv.pad = 2;
  conv.stride = 2;
  {
    const auto w = mpc::share_secret(
        to_ring(random_real(Shape{5, 25}, rng, 0.3), kF), rng);
    const auto b = mpc::share_secret(
        to_ring(random_real(Shape{5}, rng, 0.1), kF), rng);
    const auto x = mpc::share_secret(
        to_ring(random_real(Shape{1, 784}, rng, 0.5), kF), rng);
    const auto g = mpc::share_secret(
        to_ring(random_real(Shape{1, 980}, rng, 0.5), kF), rng);
    std::array<std::unique_ptr<core::SecureConv>, 3> layers;
    print_row("conv 5x5 forward", measure([&](core::SecureExecContext& ctx,
                                              int party) {
      const auto index = static_cast<std::size_t>(party);
      layers[index] = std::make_unique<core::SecureConv>(conv, w[index],
                                                         b[index]);
      (void)layers[index]->forward(ctx, x[index]);
    }));
    print_row("conv 5x5 backward",
              measure([&](core::SecureExecContext& ctx, int party) {
                (void)layers[static_cast<std::size_t>(party)]->backward(
                    ctx, g[static_cast<std::size_t>(party)],
                    /*input_grad=*/true);
              }));
  }

  // --- ReLU(980). ---
  {
    const auto x = mpc::share_secret(
        to_ring(random_real(Shape{1, 980}, rng, 1.0), kF), rng);
    print_row("relu(980)", measure([&](core::SecureExecContext& ctx,
                                       int party) {
      core::SecureRelu relu;
      (void)relu.forward(ctx, x[static_cast<std::size_t>(party)]);
    }));
  }

  // --- MaxPool 2x2 over 5x28x28 (pooled-variant extension). ---
  {
    nn::PoolSpec pool;
    pool.channels = 5;
    pool.in_height = 28;
    pool.in_width = 28;
    pool.window = 2;
    const auto x = mpc::share_secret(
        to_ring(random_real(Shape{1, pool.in_features()}, rng, 1.0), kF),
        rng);
    print_row("maxpool 2x2 (5x28x28)",
              measure([&](core::SecureExecContext& ctx, int party) {
                core::SecureMaxPool layer(pool);
                (void)layer.forward(ctx,
                                    x[static_cast<std::size_t>(party)]);
              }));
  }

  // --- FC 980 -> 100 and FC 100 -> 10. ---
  const auto dense_rows = [&](std::size_t in, std::size_t out,
                              const char* fwd_name, const char* bwd_name) {
    const auto w = mpc::share_secret(
        to_ring(random_real(Shape{in, out}, rng, 0.1), kF), rng);
    const auto b = mpc::share_secret(
        to_ring(random_real(Shape{1, out}, rng, 0.05), kF), rng);
    const auto x = mpc::share_secret(
        to_ring(random_real(Shape{1, in}, rng, 0.5), kF), rng);
    const auto g = mpc::share_secret(
        to_ring(random_real(Shape{1, out}, rng, 0.5), kF), rng);
    std::array<std::unique_ptr<core::SecureDense>, 3> layers;
    print_row(fwd_name, measure([&](core::SecureExecContext& ctx,
                                    int party) {
      const auto index = static_cast<std::size_t>(party);
      layers[index] = std::make_unique<core::SecureDense>(w[index],
                                                          b[index]);
      (void)layers[index]->forward(ctx, x[index]);
    }));
    print_row(bwd_name, measure([&](core::SecureExecContext& ctx,
                                    int party) {
      (void)layers[static_cast<std::size_t>(party)]->backward(
          ctx, g[static_cast<std::size_t>(party)], /*input_grad=*/true);
    }));
  };
  dense_rows(980, 100, "fc 980->100 forward", "fc 980->100 backward");
  dense_rows(100, 10, "fc 100->10 forward", "fc 100->10 backward");

  std::printf("\nThe FC 980->100 forward dominates: its first product "
              "opens f = W - B, a mask the size of the weight matrix — "
              "the structural reason Table II's TrustDDL communication "
              "sits far above Falcon-style re-sharing designs.  With "
              "reusable weight masks (the default) that opening is paid "
              "once per weight version: the backward row above and every "
              "later product against the same weights open only their "
              "activation-sized e.\n");
  return 0;
}
