#include "mpc/triple_store.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "mpc/share_serde.hpp"
#include "obs/metrics.hpp"

namespace trustddl::mpc {
namespace {

/// "TDST" little-endian: triple-store file magic.
constexpr std::uint32_t kStoreMagic = 0x54534454;
/// 2: per key {kind, dims, cursor, depth, entries}; version 1 also
/// carried a per-key target, so its files fail to load.
constexpr std::uint32_t kStoreVersion = 2;

/// Bytes a party receives for one entry of `key`: three share
/// components of 8-byte values.
std::size_t entry_bytes(const TripleKey& key) {
  const std::size_t values = material_values(key);
  constexpr std::size_t kPerValue = 3 * sizeof(std::uint64_t);
  return values > ~std::size_t{0} / kPerValue ? ~std::size_t{0}
                                              : values * kPerValue;
}

void count_kind(const char* stem, TripleKind kind, std::uint64_t delta) {
  if (obs::metrics_enabled()) {
    obs::count(std::string(stem) + triple_kind_name(kind), delta);
  }
}

void gauge_kind(TripleKind kind, std::int64_t delta) {
  if (obs::metrics_enabled()) {
    obs::gauge_add(std::string("triple.store.depth.") +
                       triple_kind_name(kind),
                   delta);
  }
}

}  // namespace

TripleStore::TripleStore(TripleBackend& backend, int party)
    : backend_(backend), party_(party) {}

TripleStore::Slot& TripleStore::slot_for(const TripleKey& key) {
  auto [it, inserted] = streams_.try_emplace(key);
  if (inserted) {
    it->second.entry_bytes = entry_bytes(key);
  }
  return *it;
}

FillTicket TripleStore::send(Slot& slot) {
  Stream& stream = slot.second;
  const FillTicket ticket =
      backend_.send_fill(FillRange{slot.first, stream.next_fill, 1});
  ++stream.next_fill;
  held_bytes_ += stream.entry_bytes;
  return ticket;
}

void TripleStore::send_planned() {
  while (!plan_.empty()) {
    Slot& slot = *plan_.front();
    Stream& stream = slot.second;
    if (stream.sent_early > 0) {
      --stream.sent_early;
      plan_.pop_front();
      continue;
    }
    // Stay within the window; an entry larger than it goes alone.
    if (held_bytes_ > 0 && held_bytes_ + stream.entry_bytes > window_bytes_) {
      return;
    }
    plan_.pop_front();
    --stream.unsent;
    stream.in_flight.push_back(send(slot));
  }
}

void TripleStore::plan(const std::vector<TripleKey>& keys) {
  std::size_t unit_bytes = 0;
  for (const TripleKey& key : keys) {
    Slot& slot = slot_for(key);
    Stream& stream = slot.second;
    unit_bytes += stream.entry_bytes;
    ++stream.claimed;
    if (stream.held.size() + stream.in_flight.size() + stream.unsent <
        stream.claimed) {
      ++stream.unsent;
      plan_.push_back(&slot);
    }
  }
  window_bytes_ = std::max(window_bytes_, unit_bytes / kWindowDivisor);
  send_planned();
}

std::vector<MaterialEntry> TripleStore::next_many(
    const std::vector<TripleKey>& keys) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<MaterialEntry> entries(keys.size());
  std::vector<Slot*> slots(keys.size());
  std::vector<std::optional<FillTicket>> awaited(keys.size());
  std::size_t missed = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Slot& slot = slot_for(keys[i]);
    slots[i] = &slot;
    Stream& stream = slot.second;
    if (stream.claimed > 0) {
      --stream.claimed;
    }
    if (!stream.held.empty()) {
      entries[i] = std::move(stream.held.front());
      stream.held.pop_front();
      gauge_kind(keys[i].kind, -1);
    } else if (!stream.in_flight.empty()) {
      awaited[i] = stream.in_flight.front();
      stream.in_flight.pop_front();
    } else {
      // Not sent yet: the key's next planned entry, taken out of plan
      // order, or else an entry nobody planned.
      if (stream.unsent > 0) {
        --stream.unsent;
        ++stream.sent_early;
      } else {
        ++missed;
      }
      awaited[i] = send(slot);
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (awaited[i]) {
      MaterialBatch batch = backend_.receive_fill(*awaited[i]);
      if (batch.size() != 1) {
        throw ProtocolError("triple backend returned short batch");
      }
      entries[i] = std::move(batch[0]);
      count_kind("triple.produced.", keys[i].kind, 1);
    }
    held_bytes_ -= slots[i]->second.entry_bytes;
    count_kind("triple.consumed.", keys[i].kind, 1);
  }
  misses_ += missed;
  if (obs::metrics_enabled()) {
    obs::count("triple.store.miss", missed);
    // A held entry waited for nothing; the others for this call.
    const auto waited = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    for (const std::optional<FillTicket>& ticket : awaited) {
      obs::observe("triple.online_wait.us", ticket ? waited : 0);
    }
  }
  send_planned();
  return entries;
}

MaterialEntry TripleStore::next(const TripleKey& key) {
  return std::move(next_many({key}).at(0));
}

void TripleStore::drain() {
  for (auto& [key, stream] : streams_) {
    for (const FillTicket& ticket : stream.in_flight) {
      MaterialBatch batch = backend_.receive_fill(ticket);
      if (batch.size() != 1) {
        throw ProtocolError("triple backend returned short batch");
      }
      stream.held.push_back(std::move(batch[0]));
      count_kind("triple.produced.", key.kind, 1);
      gauge_kind(key.kind, 1);
    }
    stream.in_flight.clear();
  }
}

void TripleStore::retire_versions_before(std::uint64_t version) {
  for (auto it = streams_.begin(); it != streams_.end();) {
    const TripleKey& key = it->first;
    const Stream& stream = it->second;
    // A stream plan_ still points at (unsent or sent_early) stays.
    const bool drained = key.versioned() && key.dims[1] < version &&
                         stream.held.empty() && stream.in_flight.empty() &&
                         stream.unsent == 0 && stream.sent_early == 0;
    it = drained ? streams_.erase(it) : std::next(it);
  }
}

std::size_t TripleStore::depth() const {
  std::size_t total = 0;
  for (const auto& [key, stream] : streams_) {
    total += stream.held.size();
  }
  return total;
}

std::size_t TripleStore::depth(const TripleKey& key) const {
  const auto it = streams_.find(key);
  return it == streams_.end() ? 0 : it->second.held.size();
}

std::size_t TripleStore::in_flight() const {
  std::size_t total = 0;
  for (const auto& [key, stream] : streams_) {
    total += stream.in_flight.size();
  }
  return total;
}

std::uint64_t TripleStore::consumed(const TripleKey& key) const {
  const auto it = streams_.find(key);
  if (it == streams_.end()) {
    return 0;
  }
  const Stream& stream = it->second;
  return stream.next_fill - stream.in_flight.size() - stream.held.size();
}

void TripleStore::save(const std::string& path,
                       std::uint64_t provenance) const {
  TRUSTDDL_REQUIRE(in_flight() == 0,
                   "triple store: save with fills in flight (drain first)");
  ByteWriter writer;
  writer.write_u32(kStoreMagic);
  writer.write_u32(kStoreVersion);
  writer.write_u64(provenance);
  writer.write_u32(static_cast<std::uint32_t>(party_));

  writer.write_u64(streams_.size());
  for (const auto& [key, stream] : streams_) {
    writer.write_u8(static_cast<std::uint8_t>(key.kind));
    writer.write_u64(key.dims.size());
    for (std::size_t dim : key.dims) {
      writer.write_u64(dim);
    }
    writer.write_u64(stream.next_fill - stream.held.size());  // cursor
    writer.write_u64(stream.held.size());
    for (const MaterialEntry& entry : stream.held) {
      write_material_entry(writer, key.kind, entry);
    }
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw Error("triple store: cannot write " + path);
  }
  const Bytes& bytes = writer.bytes();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw Error("triple store: short write to " + path);
  }
}

bool TripleStore::load(const std::string& path, std::uint64_t provenance) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return false;
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes bytes(static_cast<std::size_t>(size));
  if (!in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw SerializationError("triple store: short read from " + path);
  }
  ByteReader reader(std::move(bytes));
  if (reader.read_u32() != kStoreMagic) {
    throw SerializationError("triple store: bad magic in " + path);
  }
  if (reader.read_u32() != kStoreVersion) {
    throw SerializationError("triple store: unsupported version in " + path);
  }
  if (reader.read_u64() != provenance) {
    throw SerializationError(
        "triple store: provenance mismatch (file dealt under a different "
        "seed): " +
        path);
  }
  if (reader.read_u32() != static_cast<std::uint32_t>(party_)) {
    throw SerializationError("triple store: file belongs to another party: " +
                             path);
  }
  const std::uint64_t num_keys = reader.read_u64();
  for (std::uint64_t k = 0; k < num_keys; ++k) {
    TripleKey key;
    key.kind = static_cast<TripleKind>(reader.read_u8());
    const std::uint64_t rank = reader.read_u64();
    if (rank > kMaxKeyDims) {
      throw SerializationError("triple store: shape rank too large");
    }
    key.dims.resize(rank);
    for (auto& dim : key.dims) {
      dim = reader.read_u64();
    }
    // Rejects unknown kinds, bad arity and impossible conv geometry
    // before anything is sized from the key.
    (void)material_cost(key);
    const std::uint64_t cursor = reader.read_u64();
    const std::uint64_t depth = reader.read_u64();
    // A depth the remaining bytes cannot hold, or one that would carry
    // the cursor past 2^64, is a corrupt header.
    if (depth > reader.remaining() / min_material_entry_bytes(key.kind) ||
        cursor > ~std::uint64_t{0} - depth) {
      throw SerializationError("triple store: entry counts exceed the file");
    }

    Stream& stream = slot_for(key).second;
    if (stream.next_fill != 0 || !stream.held.empty()) {
      throw SerializationError("triple store: load into a non-empty store");
    }
    for (std::uint64_t i = 0; i < depth; ++i) {
      stream.held.push_back(read_material_entry(reader, key.kind));
    }
    stream.next_fill = cursor + depth;
    held_bytes_ += static_cast<std::size_t>(depth) * stream.entry_bytes;
    count_kind("triple.produced.", key.kind, depth);
    gauge_kind(key.kind, static_cast<std::int64_t>(depth));
  }
  if (!reader.at_end()) {
    throw SerializationError("triple store: trailing bytes in " + path);
  }
  return true;
}

}  // namespace trustddl::mpc
