#include "mpc/share_serde.hpp"

#include "common/error.hpp"
#include "numeric/serde.hpp"

namespace trustddl::mpc {

void write_party_share(ByteWriter& writer, const PartyShare& share) {
  write_tensor(writer, share.primary);
  write_tensor(writer, share.duplicate);
  write_tensor(writer, share.second);
}

PartyShare read_party_share(ByteReader& reader) {
  PartyShare share;
  share.primary = read_tensor(reader);
  share.duplicate = read_tensor(reader);
  share.second = read_tensor(reader);
  return share;
}

Bytes write_share_vector(const std::vector<PartyShare>& shares, bool pairs) {
  std::size_t size = 8;
  for (const auto& share : shares) {
    size += tensor_wire_size(share.primary.shape()) +
            tensor_wire_size(share.second.shape()) +
            (pairs ? 0 : tensor_wire_size(share.duplicate.shape()));
  }
  ByteWriter writer;
  writer.reserve(size);
  writer.write_u64(shares.size());
  for (const auto& share : shares) {
    if (pairs) {
      write_tensor(writer, share.primary);
      write_tensor(writer, share.second);
    } else {
      write_party_share(writer, share);
    }
  }
  return writer.take();
}

std::vector<PartyShare> read_share_vector(const Bytes& data, bool pairs) {
  ByteReader reader(data);
  const std::uint64_t count = reader.read_u64();
  if (count > 1024) {
    throw SerializationError("share vector too large");
  }
  std::vector<PartyShare> shares(count);
  for (auto& share : shares) {
    if (pairs) {
      share.primary = read_tensor(reader);
      share.second = read_tensor(reader);
    } else {
      share = read_party_share(reader);
    }
  }
  return shares;
}

void write_beaver_share(ByteWriter& writer, const BeaverTripleShare& triple) {
  write_party_share(writer, triple.a);
  write_party_share(writer, triple.b);
  write_party_share(writer, triple.c);
}

BeaverTripleShare read_beaver_share(ByteReader& reader) {
  BeaverTripleShare triple;
  triple.a = read_party_share(reader);
  triple.b = read_party_share(reader);
  triple.c = read_party_share(reader);
  return triple;
}

void write_trunc_pair(ByteWriter& writer, const TruncPairShare& pair) {
  write_party_share(writer, pair.r);
  write_party_share(writer, pair.r_shifted);
}

TruncPairShare read_trunc_pair(ByteReader& reader) {
  TruncPairShare pair;
  pair.r = read_party_share(reader);
  pair.r_shifted = read_party_share(reader);
  return pair;
}

void write_material_entry(ByteWriter& writer, TripleKind kind,
                          const MaterialEntry& entry) {
  switch (kind) {
    case TripleKind::kMul:
    case TripleKind::kMatMul:
    case TripleKind::kCompTriple:
      write_beaver_share(writer, entry.triple);
      break;
    case TripleKind::kMaskedMatMul:
    case TripleKind::kMaskedConv:
      write_party_share(writer, entry.triple.a);
      write_party_share(writer, entry.triple.c);
      break;
    case TripleKind::kCompAux:
    case TripleKind::kWeightMask:
      write_party_share(writer, entry.share);
      break;
    case TripleKind::kTruncPair:
      write_trunc_pair(writer, entry.pair);
      break;
  }
}

MaterialEntry read_material_entry(ByteReader& reader, TripleKind kind) {
  MaterialEntry entry;
  switch (kind) {
    case TripleKind::kMul:
    case TripleKind::kMatMul:
    case TripleKind::kCompTriple:
      entry.triple = read_beaver_share(reader);
      break;
    case TripleKind::kMaskedMatMul:
    case TripleKind::kMaskedConv:
      entry.triple.a = read_party_share(reader);
      entry.triple.c = read_party_share(reader);
      break;
    case TripleKind::kCompAux:
    case TripleKind::kWeightMask:
      entry.share = read_party_share(reader);
      break;
    case TripleKind::kTruncPair:
      entry.pair = read_trunc_pair(reader);
      break;
    default:
      throw SerializationError("unknown material kind");
  }
  return entry;
}

MaterialBatch read_fill_response(Bytes response, TripleKind kind,
                                 std::size_t count) {
  ByteReader reader(std::move(response));
  if (reader.read_u32() != count) {
    throw ProtocolError("owner served short material batch");
  }
  MaterialBatch batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(read_material_entry(reader, kind));
  }
  return batch;
}

std::size_t min_material_entry_bytes(TripleKind kind) {
  // Every tensor starts with its u64 rank.
  constexpr std::size_t kShareBytes = 3 * 8;
  switch (kind) {
    case TripleKind::kMul:
    case TripleKind::kMatMul:
    case TripleKind::kCompTriple:
      return 3 * kShareBytes;
    case TripleKind::kMaskedMatMul:
    case TripleKind::kMaskedConv:
    case TripleKind::kTruncPair:
      return 2 * kShareBytes;
    default:
      return kShareBytes;
  }
}

}  // namespace trustddl::mpc
