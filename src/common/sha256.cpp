#include "common/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "numeric/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TRUSTDDL_SHA_X86 1
#include <immintrin.h>
#endif

namespace trustddl {
namespace {

using State = std::array<std::uint32_t, 8>;

constexpr State kInitState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* bytes) {
  return (static_cast<std::uint32_t>(bytes[0]) << 24) |
         (static_cast<std::uint32_t>(bytes[1]) << 16) |
         (static_cast<std::uint32_t>(bytes[2]) << 8) |
         static_cast<std::uint32_t>(bytes[3]);
}

/// The portable FIPS 180-4 compressor — the reference every
/// accelerated path must match byte for byte.
void compress_scalar(State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = load_be32(block + 4 * i);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(TRUSTDDL_SHA_X86)

/// SHA-NI compressor: the hardware message-schedule/round engine
/// (sha256msg1/msg2/rnds2) with the standard ABEF/CDGH state packing.
/// Schedule bookkeeping: quad q consumes message words W[4q..4q+3];
/// the msg1 half of producing W-quad q+4 runs at quads [1, 12], the
/// alignr+msg2 half at quads [3, 14].
__attribute__((target("sha,ssse3,sse4.1"))) void compress_sha_ni(
    State& state, const std::uint8_t* data, std::size_t count) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);

  // Pack a,b,..,h into ABEF / CDGH vector order.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH

  for (std::size_t blk = 0; blk < count; ++blk, data += 64) {
    const __m128i save0 = state0;
    const __m128i save1 = state1;
    __m128i m[4];
    for (int q = 0; q < 16; ++q) {
      __m128i& m0 = m[q % 4];
      __m128i& m1 = m[(q + 1) % 4];
      __m128i& m3 = m[(q + 3) % 4];
      if (q < 4) {
        m0 = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(data + 16 * q)),
            kByteSwap);
      }
      __m128i msg = _mm_add_epi32(
          m0, _mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(&kRoundConstants[4 * q])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (q >= 3 && q <= 14) {
        m1 = _mm_add_epi32(m1, _mm_alignr_epi8(m0, m3, 4));
        m1 = _mm_sha256msg2_epu32(m1, m0);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (q >= 1 && q <= 12) {
        m3 = _mm_sha256msg1_epu32(m3, m0);
      }
    }
    state0 = _mm_add_epi32(state0, save0);
    state1 = _mm_add_epi32(state1, save1);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

bool sha_ni_enabled() {
  return simd::cpu_has_sha_ni() &&
         simd::active_backend() != simd::Backend::kScalar;
}

#endif  // TRUSTDDL_SHA_X86

void compress_blocks(State& state, const std::uint8_t* data,
                     std::size_t count) {
#if defined(TRUSTDDL_SHA_X86)
  if (sha_ni_enabled()) {
    compress_sha_ni(state, data, count);
    return;
  }
#endif
  for (std::size_t i = 0; i < count; ++i) {
    compress_scalar(state, data + 64 * i);
  }
}

void store_digest(const State& state, Sha256Digest& digest) {
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

}  // namespace

Sha256::Sha256() : state_(kInitState) {}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t count) {
  compress_blocks(state_, data, count);
}

void Sha256::update(const std::uint8_t* data, std::size_t size) {
  TRUSTDDL_ASSERT_MSG(!finished_, "Sha256 reused after finish()");
  total_bytes_ += size;
  if (buffered_ > 0) {
    const std::size_t take = std::min(size, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    size -= take;
    if (buffered_ == buffer_.size()) {
      process_blocks(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Bulk fast path: full blocks compress straight from the caller's
  // buffer (one SHA-NI sweep when available) instead of staging each
  // through the 64-byte buffer.
  if (size >= buffer_.size()) {
    const std::size_t blocks = size / buffer_.size();
    process_blocks(data, blocks);
    data += blocks * buffer_.size();
    size -= blocks * buffer_.size();
  }
  if (size > 0) {
    std::memcpy(buffer_.data(), data, size);
    buffered_ = size;
  }
}

Sha256Digest Sha256::finish() {
  TRUSTDDL_ASSERT_MSG(!finished_, "Sha256 reused after finish()");
  finished_ = true;

  const std::uint64_t bit_length = total_bytes_ * 8;
  // Append 0x80 then zero padding so that length ≡ 56 (mod 64).
  std::uint8_t pad = 0x80;
  finished_ = false;  // allow the padding updates below
  update(&pad, 1);
  const std::uint8_t zero = 0x00;
  while (buffered_ != 56) {
    update(&zero, 1);
  }
  finished_ = true;

  std::uint8_t length_bytes[8];
  for (int i = 0; i < 8; ++i) {
    length_bytes[i] = static_cast<std::uint8_t>(bit_length >> (8 * (7 - i)));
  }
  std::memcpy(buffer_.data() + 56, length_bytes, 8);
  process_blocks(buffer_.data(), 1);

  Sha256Digest digest;
  store_digest(state_, digest);
  return digest;
}

Sha256Digest Sha256::hash(const Bytes& data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finish();
}

Sha256Digest Sha256::hash(const std::string& text) {
  Sha256 hasher;
  hasher.update(text);
  return hasher.finish();
}

std::string Sha256::hex(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0x0f]);
  }
  return out;
}

}  // namespace trustddl
