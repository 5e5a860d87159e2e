// Serialization of shares, triples and tensors (mpc/share_serde.hpp,
// numeric/serde.hpp), including robustness to hostile payloads.
#include "mpc/share_serde.hpp"

#include <algorithm>
#include <iterator>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "numeric/serde.hpp"
#include "test_util.hpp"

namespace trustddl::mpc {
namespace {

using testing::random_ring;

TEST(ShareSerdeTest, PartyShareRoundTrip) {
  Rng rng(1);
  const auto views = share_secret(random_ring(Shape{3, 4}, rng), rng);
  for (const auto& view : views) {
    ByteWriter writer;
    write_party_share(writer, view);
    ByteReader reader(writer.bytes());
    const PartyShare restored = read_party_share(reader);
    EXPECT_EQ(restored.primary, view.primary);
    EXPECT_EQ(restored.duplicate, view.duplicate);
    EXPECT_EQ(restored.second, view.second);
    EXPECT_TRUE(reader.at_end());
  }
}

TEST(ShareSerdeTest, BeaverTripleRoundTrip) {
  Rng rng(2);
  const auto triples = deal_matmul_triple(3, 4, 2, rng);
  ByteWriter writer;
  write_beaver_share(writer, triples[1]);
  ByteReader reader(writer.bytes());
  const BeaverTripleShare restored = read_beaver_share(reader);
  EXPECT_EQ(restored.a.primary, triples[1].a.primary);
  EXPECT_EQ(restored.b.second, triples[1].b.second);
  EXPECT_EQ(restored.c.duplicate, triples[1].c.duplicate);
}

TEST(ShareSerdeTest, TruncPairRoundTrip) {
  Rng rng(3);
  const auto pairs = deal_trunc_pair(Shape{7}, 20, rng);
  ByteWriter writer;
  write_trunc_pair(writer, pairs[2]);
  ByteReader reader(writer.bytes());
  const TruncPairShare restored = read_trunc_pair(reader);
  EXPECT_EQ(restored.r.primary, pairs[2].r.primary);
  EXPECT_EQ(restored.r_shifted.second, pairs[2].r_shifted.second);
}

TEST(ShareSerdeTest, TruncatedPayloadThrows) {
  Rng rng(4);
  const auto views = share_secret(random_ring(Shape{8}, rng), rng);
  ByteWriter writer;
  write_party_share(writer, views[0]);
  Bytes data = writer.take();
  data.resize(data.size() / 2);
  ByteReader reader(data);
  EXPECT_THROW(read_party_share(reader), SerializationError);
}

TEST(ShareSerdeTest, MutatedShareVectorsDecodeOrThrowSerializationError) {
  // Seeded mutation fuzzing of the decoder every opening runs on peer
  // bytes: bit flips, truncations, extensions, and hostile values in
  // the count, rank and dim fields.  Any other exception (or a crash
  // under the sanitizers) fails the test.
  Rng rng(12);
  const std::vector<PartyShare> shares = {
      share_secret(random_ring(Shape{3}, rng), rng)[0],
      share_secret(random_ring(Shape{2, 2}, rng), rng)[1]};
  const std::uint64_t hostile[] = {0,          1,          2,     8,
                                   9,          1024,       1025,  1ull << 32,
                                   1ull << 61, 1ull << 63, ~0ull};
  for (const bool pairs : {false, true}) {
    const Bytes valid = write_share_vector(shares, pairs);
    const auto restored = read_share_vector(valid, pairs);
    ASSERT_EQ(restored.size(), shares.size());
    for (std::size_t v = 0; v < shares.size(); ++v) {
      EXPECT_EQ(restored[v].primary, shares[v].primary);
      EXPECT_EQ(restored[v].second, shares[v].second);
      if (!pairs) {
        EXPECT_EQ(restored[v].duplicate, shares[v].duplicate);
      }
    }
    // Offsets of the u64 header fields: the count, then each tensor's
    // rank and dims.
    std::vector<std::size_t> fields = {0};
    std::size_t offset = 8;
    for (const auto& share : shares) {
      for (int component = 0; component < (pairs ? 2 : 3); ++component) {
        for (std::size_t f = 0; f <= share.shape().size(); ++f) {
          fields.push_back(offset + 8 * f);
        }
        offset += 8 * (1 + share.shape().size() + shape_size(share.shape()));
      }
    }
    ASSERT_EQ(offset, valid.size());
    std::size_t decoded = 0;
    for (int trial = 0; trial < 4000; ++trial) {
      Bytes mutant = valid;
      switch (trial % 4) {
        case 0:
          mutant[rng.next_u64() % mutant.size()] ^=
              static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
          break;
        case 1:
          mutant.resize(rng.next_u64() % mutant.size());
          break;
        case 2:
          for (std::uint64_t extra = 1 + rng.next_u64() % 16; extra > 0;
               --extra) {
            mutant.push_back(static_cast<std::uint8_t>(rng.next_u64()));
          }
          break;
        default: {
          ByteWriter field;
          const std::size_t pick = rng.next_u64() % (std::size(hostile) + 1);
          field.write_u64(pick < std::size(hostile) ? hostile[pick]
                                                    : rng.next_u64());
          std::copy(field.bytes().begin(), field.bytes().end(),
                    mutant.begin() + static_cast<std::ptrdiff_t>(
                                         fields[rng.next_u64() %
                                                fields.size()]));
          break;
        }
      }
      try {
        (void)read_share_vector(mutant, pairs);
        ++decoded;
      } catch (const SerializationError&) {
      }
    }
    // Extensions and most bit flips in tensor data still decode.
    EXPECT_GT(decoded, 0u);
  }
}

TEST(TensorSerdeTest, RoundTripVariousShapes) {
  Rng rng(5);
  for (const Shape& shape :
       {Shape{1}, Shape{16}, Shape{3, 5}, Shape{2, 3, 4}}) {
    const RingTensor tensor = random_ring(shape, rng);
    EXPECT_EQ(tensor_from_bytes(tensor_to_bytes(tensor)), tensor);
  }
}

TEST(TensorSerdeTest, HostileRankRejected) {
  ByteWriter writer;
  writer.write_u64(99);  // absurd rank
  EXPECT_THROW(tensor_from_bytes(writer.bytes()), SerializationError);
}

TEST(TensorSerdeTest, HostileSizeRejectedBeforeAllocation) {
  // Rank-2 headers with no payload: dims whose product is huge, and
  // dims whose product wraps to zero.
  for (const std::uint64_t dim :
       {std::uint64_t{1} << 30, std::uint64_t{1} << 32}) {
    ByteWriter writer;
    writer.write_u64(2);
    writer.write_u64(dim);
    writer.write_u64(dim);
    EXPECT_THROW(tensor_from_bytes(writer.bytes()), SerializationError)
        << "dim " << dim;
  }
}

TEST(TensorSerdeTest, TrailingBytesRejected) {
  Rng rng(7);
  Bytes data = tensor_to_bytes(random_ring(Shape{2}, rng));
  data.push_back(0);
  EXPECT_THROW(tensor_from_bytes(data), SerializationError);
}

TEST(TensorSerdeTest, BitFlipChangesTensor) {
  Rng rng(8);
  const RingTensor tensor = random_ring(Shape{4}, rng);
  Bytes data = tensor_to_bytes(tensor);
  data.back() ^= 0x01;
  EXPECT_NE(tensor_from_bytes(data), tensor);
}

}  // namespace
}  // namespace trustddl::mpc
