#include "baselines/securenn/securenn.hpp"


#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "net/runtime.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "numeric/fixed_point.hpp"
#include "numeric/serde.hpp"

namespace trustddl::baselines::securenn {
namespace {

constexpr int kAssistant = 2;
constexpr auto kTimeout = std::chrono::seconds(30);

enum class Op : std::uint8_t {
  kMatMul = 0,
  kRelu = 1,
  kSoftmax = 2,
  kReveal = 3,
  kStop = 4,
};

RingTensor draw_ring(Rng& rng, const Shape& shape) {
  RingTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_u64();
  }
  return out;
}

RingTensor draw_positive(Rng& rng, const Shape& shape, int frac_bits) {
  RingTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = fx::encode(rng.next_double(0.5, 2.0), frac_bits);
  }
  return out;
}

std::string req_tag(std::uint64_t n) { return "a" + std::to_string(n); }

}  // namespace

Share Backend::matmul(Context& ctx, const Share& x, const Share& w) {
  const std::uint64_t n = ctx.next_step();
  const std::size_t m = x.value.rows();
  const std::size_t k = x.value.cols();
  const std::size_t cols = w.value.cols();
  TRUSTDDL_REQUIRE(w.value.rows() == k, "securenn matmul: shape mismatch");

  // PRF-derived triple shares (a_i, b_i shared with the assistant).
  const RingTensor a = draw_ring(ctx.common_assistant, Shape{m, k});
  const RingTensor b = draw_ring(ctx.common_assistant, Shape{k, cols});

  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(Op::kMatMul));
  request.write_u64(m);
  request.write_u64(k);
  request.write_u64(cols);
  ctx.endpoint.send(kAssistant, req_tag(n), request.take());

  // Beaver mask exchange with the peer.
  const RingTensor e_share = x.value - a;
  const RingTensor f_share = w.value - b;
  ByteWriter to_peer;
  write_tensor(to_peer, e_share);
  write_tensor(to_peer, f_share);
  const std::string exchange_tag = "e" + std::to_string(n);
  ctx.endpoint.send(ctx.peer(), exchange_tag, to_peer.take());
  ByteReader from_peer(ctx.endpoint.recv(ctx.peer(), exchange_tag, kTimeout));
  const RingTensor e = e_share + read_tensor(from_peer);
  const RingTensor f = f_share + read_tensor(from_peer);

  // c share: P0 derives it from the PRF, P1 receives the correction.
  RingTensor c(Shape{m, cols});
  if (ctx.party == 0) {
    c = draw_ring(ctx.common_assistant, Shape{m, cols});
  } else {
    ByteReader reader(
        ctx.endpoint.recv(kAssistant, "c" + std::to_string(n), kTimeout));
    c = read_tensor(reader);
  }

  RingTensor z = c + trustddl::matmul(e, b) + trustddl::matmul(a, f);
  if (ctx.party == 1) {
    z += trustddl::matmul(e, f);
  }
  return Share{truncate(z, ctx.frac_bits)};
}

RingTensor Backend::relu_mask(Context& ctx, const Share& x) {
  const std::uint64_t n = ctx.next_step();
  // Multiplicative positive mask known to both computing parties but
  // not to the assistant: scaling shares locally preserves the sum's
  // sign while hiding magnitudes from P2.
  const RingTensor s =
      draw_positive(ctx.common_peer, x.value.shape(), ctx.frac_bits);
  RingTensor u = x.value;
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] *= s[i];
  }
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(Op::kRelu));
  write_tensor(request, u);
  ctx.endpoint.send(kAssistant, req_tag(n), request.take());
  ByteReader reader(
      ctx.endpoint.recv(kAssistant, "m" + std::to_string(n), kTimeout));
  return read_tensor(reader);
}

void Backend::mul_public(Share& share, const RingTensor& mask) {
  share.value.hadamard_inplace(mask);
}

Share Backend::softmax(Context& ctx, const Share& logits) {
  const std::uint64_t n = ctx.next_step();
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(Op::kSoftmax));
  write_tensor(request, logits.value);
  ctx.endpoint.send(kAssistant, req_tag(n), request.take());
  if (ctx.party == 0) {
    return Share{draw_ring(ctx.common_assistant, logits.value.shape())};
  }
  ByteReader reader(
      ctx.endpoint.recv(kAssistant, "p" + std::to_string(n), kTimeout));
  return Share{read_tensor(reader)};
}

Share Backend::sub(const Share& lhs, const Share& rhs) {
  return Share{lhs.value - rhs.value};
}

void Backend::add_assign(Share& lhs, const Share& rhs) {
  lhs.value += rhs.value;
}

void Backend::sub_assign(Share& lhs, const Share& rhs) {
  lhs.value -= rhs.value;
}

void Backend::add_row_broadcast(Share& matrix, const Share& bias) {
  for (std::size_t r = 0; r < matrix.value.rows(); ++r) {
    for (std::size_t c = 0; c < matrix.value.cols(); ++c) {
      matrix.value.at(r, c) += bias.value.at(0, c);
    }
  }
}

void Backend::add_col_broadcast(Share& matrix, const Share& bias) {
  for (std::size_t r = 0; r < matrix.value.rows(); ++r) {
    for (std::size_t c = 0; c < matrix.value.cols(); ++c) {
      matrix.value.at(r, c) += bias.value[r];
    }
  }
}

Share Backend::scale_truncate(Context& ctx, const Share& share,
                              double factor) {
  const std::uint64_t encoded = fx::encode(factor, ctx.frac_bits);
  RingTensor scaled = share.value;
  scaled.scale_inplace(encoded);
  return Share{truncate(scaled, ctx.frac_bits)};
}

void Backend::reveal(Context& ctx, const Share& share) {
  const std::uint64_t n = ctx.next_step();
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(Op::kReveal));
  write_tensor(request, share.value);
  ctx.endpoint.send(kAssistant, req_tag(n), request.take());
}

namespace {

/// The P2 assistant: serves triple generation, ReLU signs and softmax
/// in strict request order (the computing parties are SPMD, so their
/// request sequences are identical).
class Assistant {
 public:
  Assistant(net::Endpoint endpoint, std::uint64_t session_seed,
            int frac_bits)
      : endpoint_(endpoint),
        rng_with_p0_(session_seed ^ 0x02020202ull),
        rng_with_p1_(session_seed ^ 0x03030303ull),
        frac_bits_(frac_bits) {}

  /// PRF-optimized dealing: P0 derives its share from the common PRF;
  /// only P1's correction crosses the wire.
  void deal_secret(const RingTensor& secret, const std::string& tag) {
    const RingTensor share0 = draw_ring(rng_with_p0_, secret.shape());
    ByteWriter writer;
    write_tensor(writer, secret - share0);
    endpoint_.send(1, tag, writer.take());
  }

  void run() {
    for (std::uint64_t n = 0;; ++n) {
      ByteReader req0(endpoint_.recv(0, req_tag(n), kTimeout));
      ByteReader req1(endpoint_.recv(1, req_tag(n), kTimeout));
      const auto op0 = static_cast<Op>(req0.read_u8());
      const auto op1 = static_cast<Op>(req1.read_u8());
      TRUSTDDL_ASSERT_MSG(op0 == op1, "assistant: desynchronized parties");
      switch (op0) {
        case Op::kMatMul: {
          const std::size_t m = req0.read_u64();
          const std::size_t k = req0.read_u64();
          const std::size_t cols = req0.read_u64();
          const RingTensor a0 = draw_ring(rng_with_p0_, Shape{m, k});
          const RingTensor b0 = draw_ring(rng_with_p0_, Shape{k, cols});
          const RingTensor c0 = draw_ring(rng_with_p0_, Shape{m, cols});
          const RingTensor a1 = draw_ring(rng_with_p1_, Shape{m, k});
          const RingTensor b1 = draw_ring(rng_with_p1_, Shape{k, cols});
          const RingTensor c = trustddl::matmul(a0 + a1, b0 + b1);
          ByteWriter writer;
          write_tensor(writer, c - c0);
          endpoint_.send(1, "c" + std::to_string(n), writer.take());
          break;
        }
        case Op::kRelu: {
          const RingTensor u0 = read_tensor(req0);
          const RingTensor u1 = read_tensor(req1);
          const RingTensor u = u0 + u1;
          RingTensor mask(u.shape());
          for (std::size_t i = 0; i < mask.size(); ++i) {
            mask[i] = (fx::sign(u[i]) > 0) ? 1u : 0u;
          }
          ByteWriter writer;
          write_tensor(writer, mask);
          const Bytes payload = writer.take();
          endpoint_.send(0, "m" + std::to_string(n), payload);
          endpoint_.send(1, "m" + std::to_string(n), payload);
          break;
        }
        case Op::kSoftmax: {
          const RingTensor l0 = read_tensor(req0);
          const RingTensor l1 = read_tensor(req1);
          const RealTensor probabilities =
              nn::softmax_rows(to_real(l0 + l1, frac_bits_));
          const RingTensor p = to_ring(probabilities, frac_bits_);
          const RingTensor p0 = draw_ring(rng_with_p0_, p.shape());
          ByteWriter writer;
          write_tensor(writer, p - p0);
          endpoint_.send(1, "p" + std::to_string(n), writer.take());
          break;
        }
        case Op::kReveal: {
          const RingTensor s0 = read_tensor(req0);
          const RingTensor s1 = read_tensor(req1);
          revealed_.push_back(s0 + s1);
          break;
        }
        case Op::kStop:
          return;
      }
    }
  }

  const std::vector<RingTensor>& revealed() const { return revealed_; }

 private:
  net::Endpoint endpoint_;
  Rng rng_with_p0_;
  Rng rng_with_p1_;
  int frac_bits_;
  std::vector<RingTensor> revealed_;
};

void send_stop(Context& ctx) {
  const std::uint64_t n = ctx.next_step();
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(Op::kStop));
  ctx.endpoint.send(kAssistant, req_tag(n), request.take());
}

/// Computing-party side of PRF-optimized dealing.
Share receive_secret(Context& ctx, const Shape& shape,
                     const std::string& tag) {
  if (ctx.party == 0) {
    return Share{draw_ring(ctx.common_assistant, shape)};
  }
  ByteReader reader(ctx.endpoint.recv(kAssistant, tag, kTimeout));
  return Share{read_tensor(reader)};
}

}  // namespace

SecureNnFramework::SecureNnFramework(nn::ModelSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed), model_([&] {
        Rng rng(seed);
        return nn::build_model(spec_, rng);
      }()) {}

StepCost SecureNnFramework::run_session(
    const RealTensor& images, const RealTensor* onehot, double learning_rate,
    int steps, std::vector<std::size_t>* predictions) {
  const int frac_bits = fx::kDefaultFracBits;
  net::NetworkConfig net_config;
  net_config.num_parties = 3;
  net_config.recv_timeout = kTimeout;
  net::Network network(net_config);

  const auto parameters = model_.parameters();
  Assistant assistant(network.endpoint(kAssistant), seed_, frac_bits);
  Stopwatch watch;

  // Parties 0 and 1 compute; the assistant deals all secrets, then
  // serves.  The lowest-id failure is rethrown after all join.
  net::run_parties(3, [&](net::PartyId party) {
    if (party == kAssistant) {
      for (std::size_t i = 0; i < parameters.size(); ++i) {
        assistant.deal_secret(to_ring(parameters[i]->value, frac_bits),
                              "w" + std::to_string(i));
      }
      assistant.deal_secret(to_ring(images, frac_bits), "x");
      if (onehot != nullptr) {
        assistant.deal_secret(to_ring(*onehot, frac_bits), "y");
      }
      assistant.run();
      return;
    }
    Context ctx(network.endpoint(party), party, seed_);
    ctx.frac_bits = frac_bits;
    std::vector<Share> params;
    for (std::size_t i = 0; i < parameters.size(); ++i) {
      params.push_back(receive_secret(ctx, parameters[i]->value.shape(),
                                      "w" + std::to_string(i)));
    }
    const Share x = receive_secret(ctx, images.shape(), "x");
    Share y;
    if (onehot != nullptr) {
      y = receive_secret(ctx, onehot->shape(), "y");
    }
    GenericNet<Backend> net(spec_, std::move(params));
    const double batch = static_cast<double>(images.rows());
    for (int step = 0; step < steps; ++step) {
      const Share probabilities = net.forward(ctx, x);
      if (onehot != nullptr) {
        net.backward(ctx, Backend::sub(probabilities, y));
        net.sgd(ctx, learning_rate / batch, frac_bits);
      } else {
        Backend::reveal(ctx, probabilities);
      }
    }
    if (onehot != nullptr) {
      // Reveal the trained weights so the framework object's
      // reference model reflects the secure training.
      for (const Share& parameter : net.parameter_shares()) {
        Backend::reveal(ctx, parameter);
      }
    }
    send_stop(ctx);
  });

  if (onehot != nullptr &&
      assistant.revealed().size() == parameters.size()) {
    for (std::size_t i = 0; i < parameters.size(); ++i) {
      parameters[i]->value = to_real(assistant.revealed()[i], frac_bits);
    }
  }

  if (predictions != nullptr && !assistant.revealed().empty()) {
    const RealTensor probabilities =
        to_real(assistant.revealed().back(), frac_bits);
    predictions->clear();
    for (std::size_t row = 0; row < probabilities.rows(); ++row) {
      std::size_t best = 0;
      for (std::size_t col = 1; col < probabilities.cols(); ++col) {
        if (probabilities.at(row, col) > probabilities.at(row, best)) {
          best = col;
        }
      }
      predictions->push_back(best);
    }
  }

  const auto traffic = network.traffic();
  return StepCost{watch.elapsed_seconds(), traffic.total_bytes,
                  traffic.total_messages};
}

StepCost SecureNnFramework::train(const RealTensor& images,
                                  const RealTensor& onehot,
                                  double learning_rate, int steps) {
  return run_session(images, &onehot, learning_rate, steps, nullptr);
}

StepCost SecureNnFramework::infer(const RealTensor& images, int repeats,
                                  std::vector<std::size_t>* predictions) {
  return run_session(images, nullptr, 0.0, repeats, predictions);
}

}  // namespace trustddl::baselines::securenn
