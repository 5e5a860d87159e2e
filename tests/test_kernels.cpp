// Differential and determinism tests for the parallel compute-kernel
// subsystem (numeric/kernels.hpp):
//
//  * blocked matmul vs the naive oracle over ring-wraparound inputs,
//    non-square and degenerate shapes — bit-exact in Z_{2^64};
//  * thread-count sweeps (1, 2, 8) asserting bit-identical outputs for
//    ring AND double kernels (doubles may differ from naive by
//    reassociation, but never across thread counts);
//  * parallel_for / parallel_chunks coverage, partition determinism
//    and exception propagation;
//  * the conv/tensor fast paths (im2col, transpose, sum_rows,
//    sum_cols) against straightforward reference loops.
#include "numeric/kernels.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "numeric/conv.hpp"
#include "numeric/tensor.hpp"

namespace trustddl {
namespace {

kernels::KernelConfig config_with_threads(int threads) {
  kernels::KernelConfig config;
  config.threads = threads;
  return config;
}

/// Ring tensor whose entries exercise the full 64-bit range, so every
/// product and sum wraps around.
RingTensor random_ring(const Shape& shape, Rng& rng) {
  RingTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_u64();
  }
  return out;
}

RealTensor random_real(const Shape& shape, Rng& rng) {
  RealTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_double(-3.0, 3.0);
  }
  return out;
}

/// Straightforward reference im2col (the seed's element-at-a-time
/// formulation) used as the differential oracle.
template <typename T>
Tensor<T> im2col_reference(const Tensor<T>& image, const ConvSpec& spec) {
  const std::size_t out_h = spec.out_height();
  const std::size_t out_w = spec.out_width();
  Tensor<T> columns(Shape{spec.col_rows(), spec.col_cols()});
  for (std::size_t channel = 0; channel < spec.in_channels; ++channel) {
    for (std::size_t ky = 0; ky < spec.kernel_h; ++ky) {
      for (std::size_t kx = 0; kx < spec.kernel_w; ++kx) {
        const std::size_t row =
            (channel * spec.kernel_h + ky) * spec.kernel_w + kx;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t in_y =
                static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                static_cast<std::ptrdiff_t>(spec.pad);
            const std::ptrdiff_t in_x =
                static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                static_cast<std::ptrdiff_t>(spec.pad);
            T value = T{};
            if (in_y >= 0 &&
                in_y < static_cast<std::ptrdiff_t>(spec.in_height) &&
                in_x >= 0 &&
                in_x < static_cast<std::ptrdiff_t>(spec.in_width)) {
              value = image[(channel * spec.in_height +
                             static_cast<std::size_t>(in_y)) *
                                spec.in_width +
                            static_cast<std::size_t>(in_x)];
            }
            columns.at(row, oy * out_w + ox) = value;
          }
        }
      }
    }
  }
  return columns;
}

// --- parallel_for infrastructure -----------------------------------

TEST(KernelParallelForTest, CoversEveryIndexExactlyOnce) {
  const kernels::KernelConfig config = config_with_threads(8);
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{100}, std::size_t{100000}}) {
    std::vector<std::atomic<int>> hits(count);
    kernels::parallel_for(config, count, 1,
                          [&](std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i) {
                              hits[i].fetch_add(1);
                            }
                          });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << count;
    }
  }
}

TEST(KernelParallelForTest, ChunkPlanIsDeterministicAndOrdered) {
  const kernels::KernelConfig config = config_with_threads(4);
  const std::size_t count = 1000;
  const std::size_t chunks = kernels::plan_chunk_count(config, count, 10);
  EXPECT_EQ(chunks, 4u);
  // parallel_chunks must hand out exactly `chunks` disjoint, ordered,
  // covering ranges, with chunk indices below the plan.
  std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks, {0, 0});
  kernels::parallel_chunks(config, count, 10,
                           [&](std::size_t chunk, std::size_t lo,
                               std::size_t hi) {
                             ASSERT_LT(chunk, chunks);
                             ranges[chunk] = {lo, hi};
                           });
  std::size_t expected_lo = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(ranges[c].first, expected_lo);
    EXPECT_GT(ranges[c].second, ranges[c].first);
    expected_lo = ranges[c].second;
  }
  EXPECT_EQ(expected_lo, count);
}

TEST(KernelParallelForTest, GrainKeepsSmallWorkInline) {
  const kernels::KernelConfig config = config_with_threads(8);
  // 100 items at grain 4096 -> one chunk.
  EXPECT_EQ(kernels::plan_chunk_count(config, 100, 4096), 1u);
  // grain 1 caps at the thread count.
  EXPECT_EQ(kernels::plan_chunk_count(config, 100, 1), 8u);
  // chunk count never exceeds what the grain supports.
  EXPECT_EQ(kernels::plan_chunk_count(config, 10, 5), 2u);
}

TEST(KernelParallelForTest, PropagatesBodyException) {
  const kernels::KernelConfig config = config_with_threads(4);
  EXPECT_THROW(
      kernels::parallel_for(config, 1000, 1,
                            [](std::size_t lo, std::size_t) {
                              if (lo == 0) {
                                throw std::runtime_error("boom");
                              }
                            }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<std::size_t> total{0};
  kernels::parallel_for(config, 100, 1,
                        [&](std::size_t lo, std::size_t hi) {
                          total.fetch_add(hi - lo);
                        });
  EXPECT_EQ(total.load(), 100u);
}

TEST(KernelParallelForTest, NestedCallsRunInline) {
  const kernels::KernelConfig config = config_with_threads(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  kernels::parallel_for(config, 64, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      kernels::parallel_for(config, 64, 1,
                            [&](std::size_t jlo, std::size_t jhi) {
                              for (std::size_t j = jlo; j < jhi; ++j) {
                                hits[i * 64 + j].fetch_add(1);
                              }
                            });
    }
  });
  for (auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
}

// --- blocked matmul: differential vs naive --------------------------

TEST(KernelMatmulTest, RingBlockedMatchesNaiveOnWraparoundInputs) {
  Rng rng(7);
  const kernels::KernelConfig config = config_with_threads(4);
  // Non-square shapes around/below/above the block sizes, plus the
  // degenerate single-row/column cases.
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1},    {1, 64, 1},    {64, 1, 64},   {5, 25, 196},
      {3, 130, 7},  {65, 129, 131}, {128, 128, 128}, {2, 300, 2},
      {200, 3, 177}};
  for (const auto& [m, k, n] : shapes) {
    const RingTensor a = random_ring(Shape{m, k}, rng);
    const RingTensor b = random_ring(Shape{k, n}, rng);
    const RingTensor naive = kernels::matmul_naive(a, b);
    const RingTensor blocked = kernels::matmul_blocked(config, a, b);
    ASSERT_EQ(naive, blocked) << m << "x" << k << "x" << n;
    // The dispatcher must agree with both.
    ASSERT_EQ(kernels::matmul(config, a, b), naive);
  }
}

TEST(KernelMatmulTest, RingBitIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const RingTensor a = random_ring(Shape{70, 140}, rng);
  const RingTensor b = random_ring(Shape{140, 90}, rng);
  const RingTensor reference =
      kernels::matmul_blocked(config_with_threads(1), a, b);
  EXPECT_EQ(reference, kernels::matmul_naive(a, b));
  for (int threads : {2, 8}) {
    const RingTensor result =
        kernels::matmul_blocked(config_with_threads(threads), a, b);
    ASSERT_EQ(result, reference) << "threads=" << threads;
  }
}

TEST(KernelMatmulTest, DoubleBitIdenticalAcrossThreadCounts) {
  Rng rng(13);
  const RealTensor a = random_real(Shape{70, 140}, rng);
  const RealTensor b = random_real(Shape{140, 90}, rng);
  const RealTensor reference =
      kernels::matmul_blocked(config_with_threads(1), a, b);
  for (int threads : {2, 8}) {
    const RealTensor result =
        kernels::matmul_blocked(config_with_threads(threads), a, b);
    ASSERT_EQ(result, reference) << "threads=" << threads;
  }
  // Against naive only up to reassociation error.
  const RealTensor naive = kernels::matmul_naive(a, b);
  EXPECT_LT(max_abs_diff(reference, naive), 1e-9);
}

TEST(KernelMatmulTest, DegenerateShapes) {
  const kernels::KernelConfig config = config_with_threads(4);
  // Zero-sized inner/outer dimensions must yield all-zero outputs of
  // the right shape rather than crashing.
  RingTensor a(Shape{0, 5});
  RingTensor b(Shape{5, 3});
  const RingTensor empty_rows = kernels::matmul_blocked(config, a, b);
  EXPECT_EQ(empty_rows.rows(), 0u);
  EXPECT_EQ(empty_rows.cols(), 3u);
  RingTensor c(Shape{4, 0});
  RingTensor d(Shape{0, 6});
  const RingTensor zero_inner = kernels::matmul_blocked(config, c, d);
  EXPECT_EQ(zero_inner.rows(), 4u);
  EXPECT_EQ(zero_inner.cols(), 6u);
  for (std::size_t i = 0; i < zero_inner.size(); ++i) {
    EXPECT_EQ(zero_inner[i], 0u);
  }
}

TEST(KernelMatmulTest, RespectsTinyBlockSizes) {
  // Pathological block configuration (all 1s) still produces exact
  // results — the blocking only re-tiles the iteration space.
  Rng rng(17);
  kernels::KernelConfig config = config_with_threads(3);
  config.block_m = 1;
  config.block_k = 1;
  config.block_n = 1;
  const RingTensor a = random_ring(Shape{9, 31}, rng);
  const RingTensor b = random_ring(Shape{31, 13}, rng);
  EXPECT_EQ(kernels::matmul_blocked(config, a, b),
            kernels::matmul_naive(a, b));
}

TEST(KernelHadamardTest, MatchesSerialAtAnyThreadCount) {
  Rng rng(19);
  const RingTensor a = random_ring(Shape{513}, rng);
  const RingTensor b = random_ring(Shape{513}, rng);
  const RingTensor expected = hadamard(a, b);
  for (int threads : {1, 2, 8}) {
    kernels::KernelConfig config = config_with_threads(threads);
    config.grain = 16;  // force real chunking
    ASSERT_EQ(kernels::hadamard_parallel(config, a, b), expected);
  }
}

// --- tensor/conv fast paths vs references ---------------------------

TEST(KernelFastPathTest, TransposeMatchesReference) {
  Rng rng(23);
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 17}, {33, 1}, {40, 64}, {129, 65}}) {
    const RingTensor input = random_ring(Shape{rows, cols}, rng);
    const RingTensor output = transpose(input);
    ASSERT_EQ(output.rows(), cols);
    ASSERT_EQ(output.cols(), rows);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        ASSERT_EQ(output.at(j, i), input.at(i, j));
      }
    }
  }
}

TEST(KernelFastPathTest, SumRowsAndColsMatchReference) {
  Rng rng(29);
  const RingTensor input = random_ring(Shape{37, 211}, rng);
  const RingTensor rows = sum_rows(input);
  const RingTensor cols = sum_cols(input);
  for (std::size_t j = 0; j < input.cols(); ++j) {
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < input.rows(); ++i) {
      expected += input.at(i, j);
    }
    ASSERT_EQ(rows.at(0, j), expected);
  }
  for (std::size_t i = 0; i < input.rows(); ++i) {
    std::uint64_t expected = 0;
    for (std::size_t j = 0; j < input.cols(); ++j) {
      expected += input.at(i, j);
    }
    ASSERT_EQ(cols[i], expected);
  }
}

TEST(KernelFastPathTest, Im2colMatchesReferenceOnRingInputs) {
  Rng rng(31);
  ConvSpec spec;
  spec.in_channels = 3;
  spec.in_height = 11;
  spec.in_width = 9;
  spec.kernel_h = 3;
  spec.kernel_w = 5;
  spec.stride = 2;
  spec.pad = 2;
  const RingTensor image(
      Shape{spec.in_channels * spec.in_height * spec.in_width},
      [&] {
        std::vector<std::uint64_t> values(spec.in_channels * spec.in_height *
                                          spec.in_width);
        for (auto& value : values) {
          value = rng.next_u64();
        }
        return values;
      }());
  EXPECT_EQ(im2col(image, spec), im2col_reference(image, spec));
  // Round trip through col2im against the reference columns too.
  const RingTensor columns = im2col(image, spec);
  const RingTensor back = col2im(columns, spec);
  const RingTensor reference_back = col2im(im2col_reference(image, spec), spec);
  EXPECT_EQ(back, reference_back);
}

TEST(KernelFastPathTest, BatchIm2colMatchesPerSample) {
  Rng rng(37);
  ConvSpec spec;
  spec.in_channels = 1;
  spec.in_height = 28;
  spec.in_width = 28;
  spec.kernel_h = 5;
  spec.kernel_w = 5;
  spec.stride = 2;
  spec.pad = 2;
  const std::size_t batch = 4;
  const std::size_t in_size =
      spec.in_channels * spec.in_height * spec.in_width;
  const RingTensor input = random_ring(Shape{batch, in_size}, rng);
  const RingTensor batched = batch_im2col(input, spec);
  const std::size_t pixels = spec.col_cols();
  for (std::size_t sample = 0; sample < batch; ++sample) {
    RingTensor image(Shape{in_size});
    for (std::size_t i = 0; i < in_size; ++i) {
      image[i] = input.at(sample, i);
    }
    const RingTensor expected = im2col_reference(image, spec);
    for (std::size_t row = 0; row < spec.col_rows(); ++row) {
      for (std::size_t pixel = 0; pixel < pixels; ++pixel) {
        ASSERT_EQ(batched.at(row, sample * pixels + pixel),
                  expected.at(row, pixel));
      }
    }
  }
}

// --- configuration ---------------------------------------------------

TEST(KernelConfigTest, ResolvedThreadsIsPositive) {
  kernels::KernelConfig config;
  config.threads = 0;
  EXPECT_GE(config.resolved_threads(), 1);
  config.threads = 5;
  EXPECT_EQ(config.resolved_threads(), 5);
}

TEST(KernelConfigTest, GlobalConfigRoundTrips) {
  const kernels::KernelConfig saved = kernels::global_config();
  kernels::KernelConfig modified = saved;
  modified.threads = 3;
  modified.block_n = 77;
  kernels::set_global_config(modified);
  EXPECT_EQ(kernels::global_config().threads, 3);
  EXPECT_EQ(kernels::global_config().block_n, 77u);
  kernels::set_global_config(saved);
}

}  // namespace
}  // namespace trustddl
