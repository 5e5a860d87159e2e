// SHA-256 (FIPS 180-4), used for the commitment phase of the
// Byzantine-tolerant protocols (paper §III-B: parties commit to the
// hash of their shares before exchanging them).
//
// The portable compressor has one accelerated path, selected at
// runtime via numeric/simd.hpp (TRUSTDDL_SIMD=scalar disables it): the
// x86 SHA extensions (sha256rnds2/msg1/msg2) when the CPU has them,
// used by Sha256::update's bulk-block fast path.  Both paths produce
// byte-identical digests (asserted against NIST vectors and a
// per-backend differential test).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace trustddl {

/// A 256-bit digest.
using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256();

  /// Absorb `size` bytes.
  void update(const std::uint8_t* data, std::size_t size);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(const std::string& text) {
    update(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  }

  /// Finish and return the digest.  The hasher must not be reused.
  Sha256Digest finish();

  /// One-shot convenience.
  static Sha256Digest hash(const Bytes& data);
  static Sha256Digest hash(const std::string& text);

  /// Hex string of a digest (for logging and test vectors).
  static std::string hex(const Sha256Digest& digest);

 private:
  void process_blocks(const std::uint8_t* data, std::size_t count);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace trustddl
