// Byte-level serialization used for network messages and commitment
// hashing.  Little-endian, length-prefixed containers; readers throw
// SerializationError on truncated input rather than reading past the
// end.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/default_init.hpp"
#include "common/error.hpp"

namespace trustddl {

/// A byte buffer whose resize() leaves new bytes unwritten (see
/// default_init.hpp): payloads are read or written into right after.
using Bytes =
    std::vector<std::uint8_t, DefaultInit<std::allocator<std::uint8_t>>>;

/// Appends primitive values and containers to a byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Room for `size` more bytes, so a writer that knows its output's
  /// size appends without reallocating.
  void reserve(std::size_t size) { buffer_.reserve(buffer_.size() + size); }

  void write_u8(std::uint8_t value) { buffer_.push_back(value); }

  void write_u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  void write_u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  void write_i64(std::int64_t value) {
    write_u64(static_cast<std::uint64_t>(value));
  }

  void write_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    write_u64(bits);
  }

  void write_bytes(const Bytes& data) {
    write_u64(data.size());
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  }

  void write_string(const std::string& text) {
    write_u64(text.size());
    buffer_.insert(buffer_.end(), text.begin(), text.end());
  }

  void write_u64_vector(const std::vector<std::uint64_t>& values) {
    write_u64(values.size());
    write_u64_span(values.data(), values.size());
  }

  /// Bulk little-endian append of `count` 64-bit words (fast path for
  /// tensor payloads).
  void write_u64_span(const std::uint64_t* values, std::size_t count) {
    if (count == 0) {
      return;  // an empty span's pointer may be null: no memcpy
    }
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t old_size = buffer_.size();
      buffer_.resize(old_size + count * 8);
      std::memcpy(buffer_.data() + old_size, values, count * 8);
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        write_u64(values[i]);
      }
    }
  }

  /// Raw append without a length prefix (for fixed-size digests).
  void write_raw(const std::uint8_t* data, std::size_t size) {
    buffer_.insert(buffer_.end(), data, data + size);
  }

  const Bytes& bytes() const { return buffer_; }
  Bytes take() { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

/// Reads primitives back out of a byte vector; throws on truncation.
/// Borrows lvalue buffers and takes ownership of rvalues, so passing
/// the temporary returned by a receive call is safe.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(data) {}
  explicit ByteReader(Bytes&& data)
      : owned_(std::move(data)), data_(owned_) {}

  ByteReader(const ByteReader&) = delete;
  ByteReader& operator=(const ByteReader&) = delete;

  std::uint8_t read_u8() {
    require(1);
    return data_[pos_++];
  }

  std::uint32_t read_u32() {
    require(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    }
    return value;
  }

  std::uint64_t read_u64() {
    require(8);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    }
    return value;
  }

  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }

  double read_double() {
    const std::uint64_t bits = read_u64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  Bytes read_bytes() {
    const std::uint64_t size = read_u64();
    require(size);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + size));
    pos_ += size;
    return out;
  }

  std::string read_string() {
    const std::uint64_t size = read_u64();
    require(size);
    std::string out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                    data_.begin() + static_cast<std::ptrdiff_t>(pos_ + size));
    pos_ += size;
    return out;
  }

  std::vector<std::uint64_t> read_u64_vector() {
    const std::uint64_t count = read_u64();
    if (count > remaining() / 8) {  // reject before allocating
      throw SerializationError("u64 vector length exceeds payload");
    }
    std::vector<std::uint64_t> out(count);
    read_u64_span(out.data(), count);
    return out;
  }

  /// Bulk little-endian read of `count` 64-bit words.
  void read_u64_span(std::uint64_t* values, std::size_t count) {
    if (count > remaining() / 8) {
      throw SerializationError("u64 span length exceeds payload");
    }
    require(count * 8);
    if (count == 0) {
      return;  // an empty span's pointer may be null: no memcpy
    }
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(values, data_.data() + pos_, count * 8);
      pos_ += count * 8;
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        values[i] = read_u64();
      }
    }
  }

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void require(std::uint64_t count) const {
    // Subtraction form avoids overflow when a hostile length prefix is
    // near 2^64.
    if (count > data_.size() - pos_) {
      throw SerializationError("truncated message: need " +
                               std::to_string(count) + " bytes, have " +
                               std::to_string(data_.size() - pos_));
    }
  }

  Bytes owned_;  // storage when constructed from an rvalue
  const Bytes& data_;
  std::size_t pos_ = 0;
};

}  // namespace trustddl
