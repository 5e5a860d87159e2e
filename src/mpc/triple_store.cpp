#include "mpc/triple_store.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "common/error.hpp"
#include "mpc/share_serde.hpp"
#include "obs/metrics.hpp"

namespace trustddl::mpc {
namespace {

/// "TDST" little-endian: triple-store file magic.
constexpr std::uint32_t kStoreMagic = 0x54534454;
constexpr std::uint32_t kStoreVersion = 1;

std::size_t next_pow2(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n) {
    cap <<= 1;
  }
  return cap;
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
    : backend_(backend), party_(party) {
  (void)party_;  // identifies the store in errors/persistence only
}

std::shared_ptr<TripleStore::KeyQueue> TripleStore::queue_for(
    const TripleKey& key) {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto& slot = queues_[key];
  if (!slot) {
    slot = std::make_shared<KeyQueue>();
  }
  return slot;
}

std::shared_ptr<TripleStore::KeyQueue> TripleStore::find_queue(
    const TripleKey& key) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  const auto it = queues_.find(key);
  return it == queues_.end() ? nullptr : it->second;
}

bool TripleStore::pop(KeyQueue& queue, MaterialEntry& out) {
  const std::uint64_t head = queue.head.load(std::memory_order_relaxed);
  if (head == queue.tail.load(std::memory_order_acquire)) {
    return false;
  }
  out = std::move(queue.ring[head & (queue.capacity() - 1)]);
  queue.head.store(head + 1, std::memory_order_release);
  return true;
}

std::vector<MaterialEntry> TripleStore::next_many(
    const std::vector<TripleKey>& keys) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<MaterialEntry> entries(keys.size());
  std::vector<FillRange> misses;
  std::vector<std::size_t> missed_at;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::shared_ptr<KeyQueue> queue = queue_for(keys[i]);
    // Hot path: a buffered entry, no lock.  Otherwise reserve the
    // stream's next index under the fill mutex, unless the producer
    // filled while we were acquiring it.  A reserved index precedes
    // everything the producer buffers after it, so a later pop of the
    // same key in this call still lands in stream order.
    bool popped = pop(*queue, entries[i]);
    if (!popped) {
      std::lock_guard<std::mutex> lock(queue->fill_mu);
      popped = pop(*queue, entries[i]);
      if (!popped) {
        misses.push_back(FillRange{keys[i], queue->next_fill++, 1});
        missed_at.push_back(i);
      }
    }
    if (popped) {
      count_kind("triple.consumed.", keys[i].kind, 1);
      gauge_kind(keys[i].kind, -1);
    }
  }
  if (!misses.empty()) {
    std::vector<MaterialBatch> batches = backend_.fill_many(misses);
    if (batches.size() != misses.size()) {
      throw ProtocolError("triple backend returned short batch");
    }
    for (std::size_t j = 0; j < misses.size(); ++j) {
      if (batches[j].size() != 1) {
        throw ProtocolError("triple backend returned short batch");
      }
      entries[missed_at[j]] = std::move(batches[j][0]);
      count_kind("triple.produced.", misses[j].key.kind, 1);
      count_kind("triple.consumed.", misses[j].key.kind, 1);
    }
    misses_.fetch_add(misses.size(), std::memory_order_relaxed);
  }
  if (obs::metrics_enabled()) {
    obs::count("triple.store.miss", misses.size());
    // A popped entry waited for nothing, a missed one for the call's
    // one fetch.
    const auto waited = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      obs::observe("triple.online_wait.us", i < misses.size() ? waited : 0);
    }
  }
  return entries;
}

MaterialEntry TripleStore::next(const TripleKey& key) {
  return std::move(next_many({key}).at(0));
}

void TripleStore::grow_ring(KeyQueue& queue, std::size_t min_capacity) {
  const std::size_t new_cap = next_pow2(min_capacity);
  if (new_cap <= queue.capacity()) {
    return;
  }
  std::vector<MaterialEntry> fresh(new_cap);
  const std::uint64_t head = queue.head.load(std::memory_order_relaxed);
  const std::uint64_t tail = queue.tail.load(std::memory_order_relaxed);
  for (std::uint64_t i = head; i != tail; ++i) {
    fresh[i & (new_cap - 1)] =
        std::move(queue.ring[i & (queue.capacity() - 1)]);
  }
  queue.ring = std::move(fresh);
}

void TripleStore::demand(const TripleKey& key, std::size_t count) {
  const std::shared_ptr<KeyQueue> queue = queue_for(key);
  std::lock_guard<std::mutex> lock(queue->fill_mu);
  count = std::min(count, kMaxTarget);
  // A versioned stream owes `count` entries past what was consumed; a
  // steady one keeps `count` buffered.
  const std::uint64_t consumed = queue->next_fill - queue->depth_now();
  const std::size_t wanted =
      key.versioned() ? static_cast<std::size_t>(consumed) + count : count;
  queue->target = std::max(queue->target, wanted);
  grow_ring(*queue, std::max<std::size_t>(
                        key.versioned()
                            ? static_cast<std::size_t>(queue->target - consumed)
                            : queue->target,
                        queue->depth_now()));
}

std::size_t TripleStore::target(const TripleKey& key) const {
  const std::shared_ptr<KeyQueue> queue = find_queue(key);
  if (queue == nullptr) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(queue->fill_mu);
  return queue->target;
}

void TripleStore::retire_versions_before(std::uint64_t version) {
  std::lock_guard<std::mutex> lock(map_mu_);
  for (auto it = queues_.begin(); it != queues_.end();) {
    const TripleKey& key = it->first;
    bool drained = false;
    if (key.versioned() && key.dims[1] < version) {
      std::lock_guard<std::mutex> fill_lock(it->second->fill_mu);
      drained = it->second->depth_now() == 0 &&
                it->second->wanted(/*versioned=*/true) == 0;
    }
    it = drained ? queues_.erase(it) : std::next(it);
  }
}

std::vector<TripleKey> TripleStore::keys_below(
    double low_water_fraction) const {
  std::vector<TripleKey> out;
  std::lock_guard<std::mutex> lock(map_mu_);
  for (const auto& [key, queue] : queues_) {
    std::lock_guard<std::mutex> fill_lock(queue->fill_mu);
    const bool below =
        key.versioned()
            ? queue->wanted(/*versioned=*/true) > 0
            : static_cast<double>(queue->depth_now()) <
                  low_water_fraction * static_cast<double>(queue->target);
    if (below) {
      out.push_back(key);
    }
  }
  return out;
}

std::size_t TripleStore::fill_locked(const TripleKey& key, KeyQueue& queue,
                                     std::size_t want) {
  const std::uint64_t head = queue.head.load(std::memory_order_acquire);
  const std::uint64_t tail = queue.tail.load(std::memory_order_relaxed);
  const std::size_t depth = static_cast<std::size_t>(tail - head);
  const std::size_t space = queue.capacity() - depth;
  if (want > space) {
    want = space;
  }
  if (want == 0) {
    return 0;
  }
  MaterialBatch batch = backend_.fill(key, queue.next_fill, want);
  if (batch.size() != want) {
    throw ProtocolError("triple backend returned short batch");
  }
  for (std::size_t i = 0; i < want; ++i) {
    queue.ring[(tail + i) & (queue.capacity() - 1)] = std::move(batch[i]);
  }
  queue.tail.store(tail + want, std::memory_order_release);
  queue.next_fill += want;
  count_kind("triple.produced.", key.kind, want);
  gauge_kind(key.kind, static_cast<std::int64_t>(want));
  if (obs::metrics_enabled()) {
    obs::observe("triple.refill.batch", want);
  }
  return want;
}

std::size_t TripleStore::refill(const TripleKey& key,
                                std::size_t max_entries) {
  // A queue retired since the caller listed it has nothing left to
  // fetch; do not resurrect it.
  const std::shared_ptr<KeyQueue> queue = find_queue(key);
  if (queue == nullptr) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(queue->fill_mu);
  return fill_locked(key, *queue,
                     std::min(queue->wanted(key.versioned()), max_entries));
}

std::size_t TripleStore::refill_toward_targets(std::size_t max_entries) {
  std::vector<TripleKey> keys;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    keys.reserve(queues_.size());
    for (const auto& [key, queue] : queues_) {
      (void)queue;
      keys.push_back(key);
    }
  }
  std::size_t added = 0;
  for (const auto& key : keys) {
    added += refill(key, max_entries);
  }
  return added;
}

std::size_t TripleStore::depth() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  std::size_t total = 0;
  for (const auto& [key, queue] : queues_) {
    (void)key;
    total += queue->depth_now();
  }
  return total;
}

std::size_t TripleStore::depth(const TripleKey& key) const {
  const std::shared_ptr<KeyQueue> queue = find_queue(key);
  return queue == nullptr ? 0 : queue->depth_now();
}

std::uint64_t TripleStore::consumed(const TripleKey& key) const {
  const std::shared_ptr<KeyQueue> queue = find_queue(key);
  if (queue == nullptr) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(queue->fill_mu);
  return queue->next_fill - queue->depth_now();
}

std::uint64_t TripleStore::misses() const {
  return misses_.load(std::memory_order_relaxed);
}

void TripleStore::save(const std::string& path,
                       std::uint64_t provenance) const {
  ByteWriter writer;
  writer.write_u32(kStoreMagic);
  writer.write_u32(kStoreVersion);
  writer.write_u64(provenance);
  writer.write_u32(static_cast<std::uint32_t>(party_));

  std::lock_guard<std::mutex> lock(map_mu_);
  writer.write_u64(queues_.size());
  for (const auto& [key, queue] : queues_) {
    std::lock_guard<std::mutex> fill_lock(queue->fill_mu);
    const std::uint64_t head = queue->head.load(std::memory_order_acquire);
    const std::uint64_t tail = queue->tail.load(std::memory_order_acquire);
    const std::uint64_t depth = tail - head;
    writer.write_u8(static_cast<std::uint8_t>(key.kind));
    writer.write_u64(key.dims.size());
    for (std::size_t dim : key.dims) {
      writer.write_u64(dim);
    }
    writer.write_u64(queue->next_fill - depth);  // stream cursor
    writer.write_u64(queue->target);
    writer.write_u64(depth);
    for (std::uint64_t i = head; i != tail; ++i) {
      write_material_entry(writer, key.kind,
                           queue->ring[i & (queue->capacity() - 1)]);
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
    const std::uint64_t first_index = reader.read_u64();
    const std::uint64_t target = reader.read_u64();
    const std::uint64_t depth = reader.read_u64();
    // Counts are checked before anything is sized from them: a depth
    // the remaining bytes cannot hold, or a target (for a versioned
    // key: what it still owes) past kMaxTarget, is a corrupt header.
    const std::uint64_t owed =
        key.versioned() ? (target > first_index ? target - first_index : 0)
                        : target;
    if (depth > reader.remaining() / min_material_entry_bytes(key.kind) ||
        depth > kMaxTarget || owed > kMaxTarget ||
        first_index > ~std::uint64_t{0} - depth) {
      throw SerializationError("triple store: entry counts exceed the file");
    }

    const std::shared_ptr<KeyQueue> owned = queue_for(key);
    KeyQueue& queue = *owned;
    std::lock_guard<std::mutex> lock(queue.fill_mu);
    if (queue.next_fill != 0 || queue.depth_now() != 0) {
      throw SerializationError("triple store: load into a non-empty store");
    }
    queue.target = static_cast<std::size_t>(
        std::max<std::uint64_t>(target, key.versioned() ? 0 : depth));
    grow_ring(queue, std::max<std::size_t>(
                         static_cast<std::size_t>(std::max(owed, depth)), 1));
    for (std::uint64_t i = 0; i < depth; ++i) {
      queue.ring[i & (queue.capacity() - 1)] =
          read_material_entry(reader, key.kind);
    }
    queue.tail.store(depth, std::memory_order_release);
    queue.next_fill = first_index + depth;
    count_kind("triple.produced.", key.kind, depth);
    gauge_kind(key.kind, static_cast<std::int64_t>(depth));
  }
  if (!reader.at_end()) {
    throw SerializationError("triple store: trailing bytes in " + path);
  }
  return true;
}

}  // namespace trustddl::mpc
