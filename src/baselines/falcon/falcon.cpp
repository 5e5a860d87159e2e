#include "baselines/falcon/falcon.hpp"

#include "common/sha256.hpp"
#include "common/stopwatch.hpp"
#include "net/runtime.hpp"
#include "nn/layers.hpp"
#include "numeric/fixed_point.hpp"
#include "numeric/serde.hpp"

namespace trustddl::baselines::falcon {
namespace {

constexpr auto kTimeout = std::chrono::seconds(5);

RingTensor draw_ring(Rng& rng, const Shape& shape) {
  RingTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_u64();
  }
  return out;
}

/// Zero-sharing mask: alpha_i = PRF(i,i+1) - PRF(i-1,i), summing to
/// zero over the three parties.
RingTensor zero_mask(Context& ctx, const Shape& shape) {
  return draw_ring(ctx.rng_next, shape) - draw_ring(ctx.rng_prev, shape);
}

Bytes digest_bytes(const RingTensor& tensor) {
  const Bytes payload = tensor_to_bytes(tensor);
  const Sha256Digest digest = Sha256::hash(payload);
  return Bytes(digest.begin(), digest.end());
}

/// Fixed-point rescale for RSS shares.  Local truncation of three
/// full-range additive components is wrong with constant probability
/// (the wrap multiple k in c0+c1+c2 = v + k*2^64 is usually nonzero),
/// so Falcon uses preprocessed truncation.  Here the mask r derives
/// from the pairwise PRFs with bounded components (r_j uniform in
/// [0, 2^61)); parties open d = z - r (one message each, two in
/// malicious mode) and rescale publicly:
///   z/2^f  =  (d >> f)  +  sum_j (r_j >> f)      (error <= 3 ulp)
/// r's boundedness hides the ~2^48-bit value statistically —
/// the same trade-off as TrustDDL's masked-open truncation
/// (DESIGN.md §4).
Share rss_truncate(Context& ctx, const Share& z, int shift_bits) {
  Share r;
  r.first = RingTensor(z.first.shape());
  r.second = RingTensor(z.first.shape());
  for (std::size_t i = 0; i < r.first.size(); ++i) {
    r.first[i] = ctx.rng_prev.next_u64() >> 3;
    r.second[i] = ctx.rng_next.next_u64() >> 3;
  }
  const RingTensor d = Backend::open(ctx, Backend::sub(z, r));
  RingTensor d_shift(d.shape());
  for (std::size_t i = 0; i < d.size(); ++i) {
    d_shift[i] = fx::truncate(d[i], shift_bits);
  }
  Share out;
  out.first = RingTensor(z.first.shape());
  out.second = RingTensor(z.first.shape());
  for (std::size_t i = 0; i < out.first.size(); ++i) {
    out.first[i] = r.first[i] >> shift_bits;    // r_j >= 0: plain shift
    out.second[i] = r.second[i] >> shift_bits;
  }
  // The public term is absorbed into component c_0, held by party 0
  // (as first) and party 2 (as second).
  if (ctx.party == 0) {
    out.first += d_shift;
  } else if (ctx.party == 2) {
    out.second += d_shift;
  }
  return out;
}

/// Multiplication core: local partial products (`product` abstracts
/// matmul vs hadamard), zero-masked re-sharing (one message to the
/// previous party), and in malicious mode a verification tensor plus
/// digest cross-checks.
template <typename ProductFn>
Share multiply(Context& ctx, const Share& x, const Share& w,
               const Shape& out_shape, const ProductFn& product) {
  const std::uint64_t n = ctx.next_step();
  RingTensor local = product(x.first, w.first) +
                     product(x.first, w.second) +
                     product(x.second, w.first);
  local += zero_mask(ctx, out_shape);

  const std::string tag = "r" + std::to_string(n);
  ctx.endpoint.send(ctx.prev(), tag, tensor_to_bytes(local));
  if (ctx.malicious) {
    // Digest of the re-shared component so the receiver can check
    // transport integrity, plus an equal-size verification tensor
    // standing in for Falcon's triple-sacrifice traffic.
    ctx.endpoint.send(ctx.prev(), tag + "/h", digest_bytes(local));
    ctx.endpoint.send(ctx.next(), tag + "/v", tensor_to_bytes(local));
  }

  const Bytes received = ctx.endpoint.recv(ctx.next(), tag, kTimeout);
  if (ctx.malicious) {
    const Bytes expected_digest =
        ctx.endpoint.recv(ctx.next(), tag + "/h", kTimeout);
    const Sha256Digest actual = Sha256::hash(received);
    if (!std::equal(actual.begin(), actual.end(), expected_digest.begin(),
                    expected_digest.end())) {
      throw FalconAbort("re-sharing digest mismatch at step " +
                        std::to_string(n));
    }
    // Drain the verification tensor (content stands in for the
    // sacrifice check).
    (void)ctx.endpoint.recv(ctx.prev(), tag + "/v", kTimeout);
  }
  Share out;
  out.first = local;
  out.second = tensor_from_bytes(received);
  return rss_truncate(ctx, out, ctx.frac_bits);
}

}  // namespace

Share Backend::matmul(Context& ctx, const Share& x, const Share& w) {
  TRUSTDDL_REQUIRE(x.first.rank() == 2 && w.first.rank() == 2 &&
                       x.first.cols() == w.first.rows(),
                   "falcon matmul: shape mismatch");
  const Shape out_shape{x.first.rows(), w.first.cols()};
  return multiply(ctx, x, w, out_shape,
                  [](const RingTensor& lhs, const RingTensor& rhs) {
                    return trustddl::matmul(lhs, rhs);
                  });
}

RingTensor Backend::open(Context& ctx, const Share& share) {
  const std::uint64_t n = ctx.next_step();
  const std::string tag = "o" + std::to_string(n);
  // Party i is missing component c_{i+2}, held by parties i+1 (as its
  // second) and i+2 (as its first).  Semi-honest: one copy; malicious:
  // both copies, compared (Falcon's consistent opening).
  ctx.endpoint.send(ctx.prev(), tag, tensor_to_bytes(share.second));
  if (ctx.malicious) {
    ctx.endpoint.send(ctx.next(), tag + "/2", tensor_to_bytes(share.first));
  }
  const RingTensor missing =
      tensor_from_bytes(ctx.endpoint.recv(ctx.next(), tag, kTimeout));
  if (ctx.malicious) {
    const RingTensor copy = tensor_from_bytes(
        ctx.endpoint.recv(ctx.prev(), tag + "/2", kTimeout));
    if (copy != missing) {
      throw FalconAbort("inconsistent opening at step " + std::to_string(n));
    }
  }
  return share.first + share.second + missing;
}

RingTensor Backend::relu_mask(Context& ctx, const Share& x) {
  // Positive multiplicative mask shared in RSS form via the pairwise
  // PRFs: component c_j is derived by both of its holders.
  Share t;
  t.first = RingTensor(x.first.shape());
  t.second = RingTensor(x.first.shape());
  for (std::size_t i = 0; i < t.first.size(); ++i) {
    t.first[i] = fx::encode(ctx.rng_prev.next_double(0.2, 1.0),
                            ctx.frac_bits);
    t.second[i] = fx::encode(ctx.rng_next.next_double(0.2, 1.0),
                             ctx.frac_bits);
  }
  const std::uint64_t n = ctx.next_step();
  (void)n;
  // u = t (.) x via one RSS multiplication WITHOUT truncation (the
  // sign of the 2f-scaled product equals the sign of x since t > 0).
  RingTensor local = hadamard(t.first, x.first) +
                     hadamard(t.first, x.second) +
                     hadamard(t.second, x.first);
  local += zero_mask(ctx, x.first.shape());
  const std::string tag = "u" + std::to_string(ctx.next_step());
  ctx.endpoint.send(ctx.prev(), tag, tensor_to_bytes(local));
  const RingTensor received =
      tensor_from_bytes(ctx.endpoint.recv(ctx.next(), tag, kTimeout));
  Share u{local, received};
  const RingTensor opened = open(ctx, u);
  RingTensor mask(opened.shape());
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = (fx::sign(opened[i]) > 0) ? 1u : 0u;
  }
  return mask;
}

void Backend::mul_public(Share& share, const RingTensor& mask) {
  share.first.hadamard_inplace(mask);
  share.second.hadamard_inplace(mask);
}

Share Backend::softmax(Context& ctx, const Share& logits) {
  const std::uint64_t n = ctx.next_step();
  const std::string up_tag = "s" + std::to_string(n);
  const std::string down_tag = "d" + std::to_string(n);
  // Designated party 0 reconstructs the (few) logits, computes softmax
  // and re-shares (cost-model simplification, DESIGN.md §5).
  if (ctx.party == 0) {
    const RingTensor c1 =
        tensor_from_bytes(ctx.endpoint.recv(1, up_tag, kTimeout));
    const RingTensor c2 =
        tensor_from_bytes(ctx.endpoint.recv(2, up_tag, kTimeout));
    const RingTensor value = logits.first + c1 + c2;
    const RealTensor probabilities =
        nn::softmax_rows(to_real(value, ctx.frac_bits));
    const RingTensor p = to_ring(probabilities, ctx.frac_bits);
    // Component c1' derives from the PRF with party 1; c2' and c0' are
    // sent explicitly.
    const RingTensor p1 = draw_ring(ctx.rng_next, p.shape());
    const RingTensor p2 = draw_ring(ctx.rng_local, p.shape());
    const RingTensor p0 = p - p1 - p2;
    ctx.endpoint.send(1, down_tag, tensor_to_bytes(p2));
    ctx.endpoint.send(2, down_tag + "/2", tensor_to_bytes(p2));
    ctx.endpoint.send(2, down_tag + "/0", tensor_to_bytes(p0));
    return Share{p0, p1};
  }
  ctx.endpoint.send(0, up_tag, tensor_to_bytes(logits.first));
  if (ctx.party == 1) {
    const RingTensor p1 = draw_ring(ctx.rng_prev, logits.first.shape());
    const RingTensor p2 =
        tensor_from_bytes(ctx.endpoint.recv(0, down_tag, kTimeout));
    return Share{p1, p2};
  }
  const RingTensor p2 =
      tensor_from_bytes(ctx.endpoint.recv(0, down_tag + "/2", kTimeout));
  const RingTensor p0 =
      tensor_from_bytes(ctx.endpoint.recv(0, down_tag + "/0", kTimeout));
  return Share{p2, p0};
}

Share Backend::sub(const Share& lhs, const Share& rhs) {
  return Share{lhs.first - rhs.first, lhs.second - rhs.second};
}

void Backend::add_assign(Share& lhs, const Share& rhs) {
  lhs.first += rhs.first;
  lhs.second += rhs.second;
}

void Backend::sub_assign(Share& lhs, const Share& rhs) {
  lhs.first -= rhs.first;
  lhs.second -= rhs.second;
}

void Backend::add_row_broadcast(Share& matrix, const Share& bias) {
  const auto add = [](RingTensor& component, const RingTensor& row) {
    for (std::size_t r = 0; r < component.rows(); ++r) {
      for (std::size_t c = 0; c < component.cols(); ++c) {
        component.at(r, c) += row.at(0, c);
      }
    }
  };
  add(matrix.first, bias.first);
  add(matrix.second, bias.second);
}

void Backend::add_col_broadcast(Share& matrix, const Share& bias) {
  const auto add = [](RingTensor& component, const RingTensor& column) {
    for (std::size_t r = 0; r < component.rows(); ++r) {
      for (std::size_t c = 0; c < component.cols(); ++c) {
        component.at(r, c) += column[r];
      }
    }
  };
  add(matrix.first, bias.first);
  add(matrix.second, bias.second);
}

Share Backend::scale_truncate(Context& ctx, const Share& share,
                              double factor) {
  const std::uint64_t encoded = fx::encode(factor, ctx.frac_bits);
  Share out = share;
  out.first.scale_inplace(encoded);
  out.second.scale_inplace(encoded);
  return rss_truncate(ctx, out, ctx.frac_bits);
}

Share Backend::matmul_grad(Context& ctx, const Share& x, const Share& w) {
  TRUSTDDL_REQUIRE(x.first.rank() == 2 && w.first.rank() == 2 &&
                       x.first.cols() == w.first.rows(),
                   "falcon matmul_grad: shape mismatch");
  // Like matmul but WITHOUT the rescale: the 2f scale is carried in
  // the gradient accumulator and removed once in rescale_grad.
  const std::uint64_t n = ctx.next_step();
  const Shape out_shape{x.first.rows(), w.first.cols()};
  RingTensor local = trustddl::matmul(x.first, w.first) +
                     trustddl::matmul(x.first, w.second) +
                     trustddl::matmul(x.second, w.first);
  local += zero_mask(ctx, out_shape);
  const std::string tag = "g" + std::to_string(n);
  ctx.endpoint.send(ctx.prev(), tag, tensor_to_bytes(local));
  if (ctx.malicious) {
    ctx.endpoint.send(ctx.prev(), tag + "/h", digest_bytes(local));
    ctx.endpoint.send(ctx.next(), tag + "/v", tensor_to_bytes(local));
  }
  const Bytes received = ctx.endpoint.recv(ctx.next(), tag, kTimeout);
  if (ctx.malicious) {
    const Bytes expected_digest =
        ctx.endpoint.recv(ctx.next(), tag + "/h", kTimeout);
    const Sha256Digest actual = Sha256::hash(received);
    if (!std::equal(actual.begin(), actual.end(), expected_digest.begin(),
                    expected_digest.end())) {
      throw FalconAbort("gradient re-sharing digest mismatch at step " +
                        std::to_string(n));
    }
    (void)ctx.endpoint.recv(ctx.prev(), tag + "/v", kTimeout);
  }
  Share out;
  out.first = local;
  out.second = tensor_from_bytes(received);
  return out;
}

Share Backend::rescale_grad(Context& ctx, const Share& grad, double factor) {
  // grad carries 2f fractional bits; lr-scaling adds f more, and one
  // opening rescales by 2f so the weight delta lands back at f.
  const std::uint64_t encoded = fx::encode(factor, ctx.frac_bits);
  Share out = grad;
  out.first.scale_inplace(encoded);
  out.second.scale_inplace(encoded);
  return rss_truncate(ctx, out, 2 * ctx.frac_bits);
}

namespace {

/// Party-0-side dealing: component c1 derives from the PRF with party
/// 1; c0 goes to party 2, c2 to parties 1 and 2.
Share deal(Context& ctx, const RingTensor& secret, const std::string& tag) {
  TRUSTDDL_ASSERT(ctx.party == 0);
  const RingTensor c1 = draw_ring(ctx.rng_next, secret.shape());
  const RingTensor c2 = draw_ring(ctx.rng_local, secret.shape());
  const RingTensor c0 = secret - c1 - c2;
  ctx.endpoint.send(1, tag + "/2", tensor_to_bytes(c2));
  ctx.endpoint.send(2, tag + "/2", tensor_to_bytes(c2));
  ctx.endpoint.send(2, tag + "/0", tensor_to_bytes(c0));
  return Share{c0, c1};
}

Share receive_dealt(Context& ctx, const Shape& shape,
                    const std::string& tag) {
  TRUSTDDL_ASSERT(ctx.party != 0);
  if (ctx.party == 1) {
    const RingTensor c1 = draw_ring(ctx.rng_prev, shape);
    const RingTensor c2 = tensor_from_bytes(
        ctx.endpoint.recv(0, tag + "/2", kTimeout));
    return Share{c1, c2};
  }
  const RingTensor c2 =
      tensor_from_bytes(ctx.endpoint.recv(0, tag + "/2", kTimeout));
  const RingTensor c0 =
      tensor_from_bytes(ctx.endpoint.recv(0, tag + "/0", kTimeout));
  return Share{c2, c0};
}

}  // namespace

FalconFramework::FalconFramework(nn::ModelSpec spec, bool malicious,
                                 std::uint64_t seed)
    : spec_(std::move(spec)),
      malicious_(malicious),
      seed_(seed),
      model_([&] {
        Rng rng(seed);
        return nn::build_model(spec_, rng);
      }()) {}

StepCost FalconFramework::run_session(const RealTensor& images,
                                      const RealTensor* onehot,
                                      double learning_rate, int steps,
                                      std::vector<std::size_t>* predictions) {
  const int frac_bits = fx::kDefaultFracBits;
  net::NetworkConfig net_config;
  net_config.num_parties = 3;
  net_config.recv_timeout = kTimeout;
  net::Network network(net_config);
  if (fault_injector_) {
    network.set_fault_injector(fault_injector_);
  }

  const auto parameters = model_.parameters();
  Stopwatch watch;
  std::vector<RingTensor> revealed;
  std::vector<RingTensor> trained;
  const auto outcomes = net::run_parties(
      3,
      [&](net::PartyId party) {
        Context ctx(network.endpoint(party), party, seed_, malicious_);
        ctx.frac_bits = frac_bits;
        std::vector<Share> params;
        for (std::size_t i = 0; i < parameters.size(); ++i) {
          const RingTensor secret =
              to_ring(parameters[i]->value, frac_bits);
          const std::string tag = "w" + std::to_string(i);
          params.push_back(party == 0
                               ? deal(ctx, secret, tag)
                               : receive_dealt(ctx, secret.shape(), tag));
        }
        const RingTensor x_ring = to_ring(images, frac_bits);
        const Share x = party == 0 ? deal(ctx, x_ring, "x")
                                   : receive_dealt(ctx, x_ring.shape(), "x");
        Share y;
        if (onehot != nullptr) {
          const RingTensor y_ring = to_ring(*onehot, frac_bits);
          y = party == 0 ? deal(ctx, y_ring, "y")
                         : receive_dealt(ctx, y_ring.shape(), "y");
        }

        GenericNet<Backend> net(spec_, std::move(params));
        const double batch = static_cast<double>(images.rows());
        for (int step = 0; step < steps; ++step) {
          const Share probabilities = net.forward(ctx, x);
          if (onehot != nullptr) {
            net.backward(ctx, Backend::sub(probabilities, y));
            net.sgd(ctx, learning_rate / batch, frac_bits);
          } else {
            const RingTensor opened = Backend::open(ctx, probabilities);
            if (party == 0) {
              revealed.push_back(opened);
            }
          }
        }
        if (onehot != nullptr) {
          for (const Share& parameter : net.parameter_shares()) {
            const RingTensor opened = Backend::open(ctx, parameter);
            if (party == 0) {
              trained.push_back(opened);
            }
          }
        }
      },
      /*rethrow=*/false);
  // An abort is the meaningful outcome; peers blocked on the aborted
  // step time out as a side effect.
  for (const auto& outcome : outcomes) {
    if (!outcome.ok) {
      try {
        std::rethrow_exception(outcome.error);
      } catch (const FalconAbort&) {
        throw;
      } catch (...) {
      }
    }
  }
  for (const auto& outcome : outcomes) {
    if (!outcome.ok) {
      std::rethrow_exception(outcome.error);
    }
  }

  if (onehot != nullptr && trained.size() == parameters.size()) {
    for (std::size_t i = 0; i < parameters.size(); ++i) {
      parameters[i]->value = to_real(trained[i], frac_bits);
    }
  }

  if (predictions != nullptr && !revealed.empty()) {
    const RealTensor probabilities = to_real(revealed.back(), frac_bits);
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

StepCost FalconFramework::train(const RealTensor& images,
                                const RealTensor& onehot,
                                double learning_rate, int steps) {
  return run_session(images, &onehot, learning_rate, steps, nullptr);
}

StepCost FalconFramework::infer(const RealTensor& images, int repeats,
                                std::vector<std::size_t>* predictions) {
  return run_session(images, nullptr, 0.0, repeats, predictions);
}

}  // namespace trustddl::baselines::falcon
