// Serialization of share triples and preprocessing material for
// owner <-> party messages, and of the share vectors parties exchange
// in an opening.
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "mpc/beaver.hpp"
#include "mpc/sharing.hpp"

namespace trustddl::mpc {

void write_party_share(ByteWriter& writer, const PartyShare& share);
PartyShare read_party_share(ByteReader& reader);

/// A share vector as the openings send it: a u64 count, then each
/// share's three components — or, with `pairs`, only the (primary,
/// second) pair of the HbC and crash-fault exchanges.
Bytes write_share_vector(const std::vector<PartyShare>& shares, bool pairs);
/// Throws SerializationError on a malformed vector.
std::vector<PartyShare> read_share_vector(const Bytes& data, bool pairs);

void write_beaver_share(ByteWriter& writer, const BeaverTripleShare& triple);
BeaverTripleShare read_beaver_share(ByteReader& reader);

void write_trunc_pair(ByteWriter& writer, const TruncPairShare& pair);
TruncPairShare read_trunc_pair(ByteReader& reader);

/// One material entry in its kind's layout — the shared format of the
/// owner service's fill responses and persisted TDST stores.  A
/// masked-matmul or masked-conv entry carries only a and c.
void write_material_entry(ByteWriter& writer, TripleKind kind,
                          const MaterialEntry& entry);
MaterialEntry read_material_entry(ByteReader& reader, TripleKind kind);

/// One party's entries from a fill response (deal_fill_responses'
/// format: a u32 count, then the entries).  Throws ProtocolError when
/// the response carries other than `count` entries, SerializationError
/// when it is malformed.
MaterialBatch read_fill_response(Bytes response, TripleKind kind,
                                 std::size_t count);

/// Fewest bytes any entry of `kind` encodes to (its tensor headers):
/// a count of entries claimed by a header can be checked against the
/// bytes left before anything is allocated for them.
std::size_t min_material_entry_bytes(TripleKind kind);

}  // namespace trustddl::mpc
