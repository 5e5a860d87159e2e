// Differential tests for the explicit-SIMD layer (numeric/simd.hpp):
// every vectorized kernel must agree exactly with its scalar
// reference on every backend the CPU supports — on wraparound-heavy
// ring inputs, on every tail length (n % lanes != 0), and at
// unaligned offsets into an aligned buffer.  Ring arithmetic is exact
// mod 2^64 so equality is bitwise; the double kernels keep a fixed
// per-element operation order (no FMA), so their equality is bitwise
// too.
//
// The suite names all start with "Simd" so CI can re-run them with
// TRUSTDDL_SIMD pinned to each backend under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "numeric/simd.hpp"

namespace trustddl {
namespace {

/// Backends this machine can actually run (scalar always first).
std::vector<simd::Backend> testable_backends() {
  std::vector<simd::Backend> backends{simd::Backend::kScalar};
  for (simd::Backend candidate :
       {simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::cpu_supports(candidate)) {
      backends.push_back(candidate);
    }
  }
  return backends;
}

/// Restores automatic backend selection when a test scope exits.
struct BackendGuard {
  ~BackendGuard() { simd::clear_forced_backend(); }
};

/// Wraparound-heavy ring values: boundary constants interleaved with
/// full-range randomness so every carry/overflow path is exercised.
std::vector<std::uint64_t> ring_input(std::size_t count, std::uint64_t seed) {
  static constexpr std::uint64_t kEdges[] = {
      0,
      1,
      2,
      0xFFFFFFFFFFFFFFFFull,
      0xFFFFFFFFFFFFFFFEull,
      0x8000000000000000ull,
      0x7FFFFFFFFFFFFFFFull,
      0x00000000FFFFFFFFull,
      0xFFFFFFFF00000000ull,
  };
  Rng rng(seed);
  std::vector<std::uint64_t> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = (i % 3 == 0) ? kEdges[(i / 3) % (sizeof(kEdges) / 8)]
                          : rng.next_u64();
  }
  return out;
}

std::vector<double> real_input(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = rng.next_double(-1e6, 1e6);
  }
  return out;
}

// Lengths covering empty, sub-lane, every tail residue of the 4-lane
// (and 8-element unrolled) loops, and a few larger spans.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8,
                                9, 11, 15, 16, 17, 31, 33, 100, 257};
// Element offsets into a shared buffer: 0 is cache-line aligned
// (tensor storage), the rest force 8/16/24-byte misalignment.
const std::size_t kOffsets[] = {0, 1, 2, 3};

/// Runs `kernel(dst, n)` for every backend/length/offset combination
/// and compares against the scalar result computed the same way.
template <typename T, typename Kernel>
void differential_sweep(const Kernel& kernel, std::uint64_t seed) {
  constexpr std::size_t kSpan = 512;
  const auto backends = testable_backends();
  BackendGuard guard;
  for (std::size_t length : kLengths) {
    for (std::size_t offset : kOffsets) {
      ASSERT_LE(offset + length, kSpan);
      ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
      std::vector<T> expected(kSpan);
      kernel(expected.data() + offset, length, seed);
      for (simd::Backend backend : backends) {
        ASSERT_TRUE(simd::force_backend(backend));
        std::vector<T> actual(kSpan);
        kernel(actual.data() + offset, length, seed);
        EXPECT_EQ(actual, expected)
            << "backend=" << simd::backend_name(backend)
            << " length=" << length << " offset=" << offset;
      }
    }
  }
}

TEST(SimdDifferentialTest, RingAdd) {
  differential_sweep<std::uint64_t>(
      [](std::uint64_t* dst, std::size_t n, std::uint64_t seed) {
        const auto a = ring_input(n, seed);
        const auto b = ring_input(n, seed ^ 0xABCDEF);
        simd::ring_add(dst, a.data(), b.data(), n);
      },
      101);
}

TEST(SimdDifferentialTest, RingSub) {
  differential_sweep<std::uint64_t>(
      [](std::uint64_t* dst, std::size_t n, std::uint64_t seed) {
        const auto a = ring_input(n, seed);
        const auto b = ring_input(n, seed ^ 0xABCDEF);
        simd::ring_sub(dst, a.data(), b.data(), n);
      },
      102);
}

TEST(SimdDifferentialTest, RingMul) {
  differential_sweep<std::uint64_t>(
      [](std::uint64_t* dst, std::size_t n, std::uint64_t seed) {
        const auto a = ring_input(n, seed);
        const auto b = ring_input(n, seed ^ 0xABCDEF);
        simd::ring_mul(dst, a.data(), b.data(), n);
      },
      103);
}

TEST(SimdDifferentialTest, RingScale) {
  differential_sweep<std::uint64_t>(
      [](std::uint64_t* dst, std::size_t n, std::uint64_t seed) {
        const auto a = ring_input(n, seed);
        simd::ring_scale(dst, a.data(), 0xFFFFFFFFFFFFFFFBull, n);
      },
      104);
}

TEST(SimdDifferentialTest, RingAxpyAccumulatesInPlace) {
  differential_sweep<std::uint64_t>(
      [](std::uint64_t* dst, std::size_t n, std::uint64_t seed) {
        const auto b = ring_input(n, seed);
        const auto c0 = ring_input(n, seed ^ 0x5EED);
        for (std::size_t i = 0; i < n; ++i) {
          dst[i] = c0[i];
        }
        simd::ring_axpy(dst, 0x9E3779B97F4A7C15ull, b.data(), n);
      },
      105);
}

TEST(SimdDifferentialTest, RingTruncateAllShifts) {
  for (int frac_bits : {0, 1, 13, 16, 31, 32, 52, 63}) {
    differential_sweep<std::uint64_t>(
        [frac_bits](std::uint64_t* dst, std::size_t n, std::uint64_t seed) {
          const auto a = ring_input(n, seed);
          simd::ring_truncate(dst, a.data(), frac_bits, n);
        },
        106 + static_cast<std::uint64_t>(frac_bits));
  }
}

TEST(SimdDifferentialTest, RingOpsAliasDstWithA) {
  // The tensor in-place operators call the kernels with dst == a.
  const auto backends = testable_backends();
  BackendGuard guard;
  for (std::size_t length : kLengths) {
    const auto a0 = ring_input(length, 42);
    const auto b = ring_input(length, 43);
    ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
    std::vector<std::uint64_t> expected = a0;
    simd::ring_mul(expected.data(), expected.data(), b.data(), length);
    for (simd::Backend backend : backends) {
      ASSERT_TRUE(simd::force_backend(backend));
      std::vector<std::uint64_t> actual = a0;
      simd::ring_mul(actual.data(), actual.data(), b.data(), length);
      EXPECT_EQ(actual, expected)
          << "backend=" << simd::backend_name(backend)
          << " length=" << length;
    }
  }
}

TEST(SimdDifferentialTest, RealAxpyBitIdentical) {
  differential_sweep<double>(
      [](double* dst, std::size_t n, std::uint64_t seed) {
        const auto b = real_input(n, seed);
        const auto c0 = real_input(n, seed ^ 0x5EED);
        for (std::size_t i = 0; i < n; ++i) {
          dst[i] = c0[i];
        }
        simd::real_axpy(dst, 1.0 / 3.0, b.data(), n);
      },
      107);
}

TEST(SimdDifferentialTest, RealMulBitIdentical) {
  differential_sweep<double>(
      [](double* dst, std::size_t n, std::uint64_t seed) {
        const auto a = real_input(n, seed);
        const auto b = real_input(n, seed ^ 0xABCDEF);
        simd::real_mul(dst, a.data(), b.data(), n);
      },
      108);
}

TEST(SimdDifferentialTest, ForceBackendRejectsUnsupported) {
  BackendGuard guard;
#if !defined(__aarch64__)
  EXPECT_FALSE(simd::force_backend(simd::Backend::kNeon));
#endif
#if !defined(__x86_64__) && !defined(_M_X64)
  EXPECT_FALSE(simd::force_backend(simd::Backend::kAvx2));
#endif
  EXPECT_TRUE(simd::force_backend(simd::Backend::kScalar));
}

/// Message lengths hitting every padding case: empty, sub-block,
/// exactly at the 55/56 pad split, block boundaries, multi-block, and
/// a long tail.
std::vector<Bytes> digest_messages() {
  const std::size_t lengths[] = {0,  1,  3,   55,  56,  57,  63, 64,
                                 65, 119, 120, 127, 128, 129, 1000, 4096};
  Rng rng(777);
  std::vector<Bytes> messages;
  for (std::size_t length : lengths) {
    Bytes message(length);
    for (auto& byte : message) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    messages.push_back(std::move(message));
  }
  return messages;
}

TEST(SimdSha256Test, SingleStreamMatchesScalarOnEveryBackend) {
  const auto messages = digest_messages();
  const auto backends = testable_backends();
  BackendGuard guard;
  for (const Bytes& message : messages) {
    ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
    const auto expected = Sha256::hash(message);
    for (simd::Backend backend : backends) {
      ASSERT_TRUE(simd::force_backend(backend));
      EXPECT_EQ(Sha256::hex(Sha256::hash(message)), Sha256::hex(expected))
          << "backend=" << simd::backend_name(backend)
          << " bytes=" << message.size();
    }
  }
}

TEST(SimdSha256Test, IncrementalChunkingIsBackendInvariant) {
  // The bulk-block fast path in Sha256::update must produce the same
  // digest regardless of how the stream is chunked.
  Rng rng(888);
  Bytes message(777);
  for (auto& byte : message) {
    byte = static_cast<std::uint8_t>(rng.next_u64());
  }
  const auto backends = testable_backends();
  BackendGuard guard;
  ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
  const auto expected = Sha256::hash(message);
  for (simd::Backend backend : backends) {
    ASSERT_TRUE(simd::force_backend(backend));
    for (std::size_t chunk : {1u, 7u, 64u, 65u, 300u}) {
      Sha256 hasher;
      for (std::size_t at = 0; at < message.size(); at += chunk) {
        hasher.update(message.data() + at,
                      std::min(chunk, message.size() - at));
      }
      EXPECT_EQ(Sha256::hex(hasher.finish()), Sha256::hex(expected))
          << "backend=" << simd::backend_name(backend)
          << " chunk=" << chunk;
    }
  }
}

}  // namespace
}  // namespace trustddl
