// Shape-keyed material store: the one place a computing party draws
// dealt material from (Beaver triples, comparison auxiliaries,
// truncation pairs, reusable masks), and the online half of the
// offline/online split (FALCON-style: correlated randomness is
// produced ahead of time so the online phase is pure communication +
// local compute).
//
// A store sits over one TripleBackend: the party's core::OwnerLink
// when the model owner deals over the network, a DealerBackend when
// dealing is in process.  It keeps every stream's cursor.  Without
// planned demand it buffers nothing and every entry is a *miss*,
// fetched synchronously at its cursor; with prefetch a producer fills
// per-stream rings ahead of the consumer.
//
// One SPSC ring per (kind, dims) stream: the party's protocol thread
// is the only consumer, the background producer (or the party thread
// itself between serving batches) is the only refiller.  The hot path
// — popping a buffered entry — is lock-free: one acquire load and one
// release store on the ring indices.  A miss reserves the stream's
// next index under the per-key fill mutex; next_many fetches all of a
// call's misses in one TripleBackend::fill_many (one round trip over
// the owner link), so correctness never depends on the producer
// keeping up.
//
// Determinism: entries are consumed strictly in stream order per key,
// starting at index 0, regardless of whether they arrived via a batch
// refill, a miss, or a disk restore.  Combined with derived-seed
// dealing (beaver.hpp) this makes store-backed runs with and without
// prefetch bit-identical.
//
// Versioned streams (reusable weight masks, TripleKey::versioned) are
// finite: their targets count entries to deliver over the stream's
// life, so the producer never refetches a weight version that is done,
// and retire_versions_before() drops their drained queues once the
// weights moved past them.
//
// Instrumented under `triple.*`: per-kind produced/consumed counters
// and store-depth gauges, `triple.refill.batch` (entries per refill),
// `triple.online_wait.us` (time the online path spent waiting for
// material — ~0 when prefetch keeps up), `triple.store.miss`.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpc/beaver.hpp"

namespace trustddl::mpc {

class TripleStore final {
 public:
  /// Bound on entries one key may hold or still owe (its buffered
  /// depth, its target, or for a versioned key its target minus its
  /// cursor).  demand() clamps to it and load() rejects files beyond
  /// it, so a header can never size a ring past ~60 MB.
  static constexpr std::size_t kMaxTarget = std::size_t{1} << 16;

  TripleStore(TripleBackend& backend, int party);

  /// The next entry of each of `keys`, in call order; a key may repeat
  /// (a max-pool's comparisons share one shape).  Buffered entries are
  /// popped; each dry key's entry is fetched at its stream cursor, all
  /// of them in one TripleBackend::fill_many call, so material one
  /// operation needs from several streams costs one round trip.
  std::vector<MaterialEntry> next_many(const std::vector<TripleKey>& keys);

  /// The next entry of stream `key` (next_many of one key).
  MaterialEntry next(const TripleKey& key);

  BeaverTripleShare mul_triple(const Shape& shape) {
    return std::move(next(TripleKey::mul(shape)).triple);
  }
  BeaverTripleShare matmul_triple(std::size_t m, std::size_t k,
                                  std::size_t n) {
    return std::move(next(TripleKey::matmul(m, k, n)).triple);
  }
  PartyShare comp_aux(const Shape& shape) {
    return std::move(next(TripleKey::comp_aux(shape)).share);
  }
  TruncPairShare trunc_pair(const Shape& shape) {
    return std::move(next(TripleKey::trunc_pair(shape)).pair);
  }

  /// Raise the refill target for `key` to at least `count` entries —
  /// a depth to keep, or for a versioned key `count` entries beyond
  /// those already consumed — and reserve ring capacity.  NOT safe
  /// concurrently with pops of the same key (may reallocate the ring):
  /// call during planning, before the online phase, or from the
  /// consumer thread itself.
  void demand(const TripleKey& key, std::size_t count);

  /// Current refill target for `key` (0 if never demanded).
  std::size_t target(const TripleKey& key) const;

  /// Forget the drained queues of versioned streams whose weight
  /// version is below `version`.  Consumer thread only; versions only
  /// move forward, so those streams are never popped again.
  void retire_versions_before(std::uint64_t version);

  /// Keys whose depth sits below `low_water_fraction` of their target,
  /// and versioned keys still owed entries (producer work list).
  std::vector<TripleKey> keys_below(double low_water_fraction) const;

  /// Refill `key` toward its target, fetching at most `max_entries` in
  /// one backend round trip.  Returns entries added.  Thread-safe
  /// against the consumer; single producer per store.
  std::size_t refill(const TripleKey& key, std::size_t max_entries);

  /// One pass over all keys, refilling each toward its target
  /// (at most `max_entries` per key per call).  Returns entries added.
  std::size_t refill_toward_targets(std::size_t max_entries);

  /// Entries currently buffered (across all keys / for one key).
  std::size_t depth() const;
  std::size_t depth(const TripleKey& key) const;

  /// Stream cursor: entries of `key` handed to the consumer so far
  /// (equals the index the next pop will receive minus buffered depth
  /// bookkeeping; after a restore it starts at the persisted cursor).
  std::uint64_t consumed(const TripleKey& key) const;

  /// Entries the store did not hold when asked for, fetched at their
  /// stream cursor instead.
  std::uint64_t misses() const;

  /// Persist buffered entries and stream cursors (versioned binary
  /// format).  `provenance` ties the file to the dealing seed — a
  /// restore under a different seed must fail loudly rather than serve
  /// material from the wrong stream.  Call with producer stopped.
  void save(const std::string& path, std::uint64_t provenance) const;

  /// Restore a saved store.  Returns false if `path` does not exist;
  /// throws SerializationError on a malformed file or provenance
  /// mismatch.  Call before the online phase starts.
  bool load(const std::string& path, std::uint64_t provenance);

 private:
  struct KeyQueue {
    std::vector<MaterialEntry> ring;  ///< capacity is a power of two
    std::atomic<std::uint64_t> head{0};  ///< next pop (consumer-owned)
    std::atomic<std::uint64_t> tail{0};  ///< next push (producer-owned)
    /// Stream index of the next backend fetch; guarded by fill_mu.
    std::uint64_t next_fill = 0;
    std::size_t target = 0;
    mutable std::mutex fill_mu;

    std::size_t capacity() const { return ring.size(); }
    std::size_t depth_now() const {
      return static_cast<std::size_t>(
          tail.load(std::memory_order_acquire) -
          head.load(std::memory_order_acquire));
    }
    /// Entries a refill should fetch now (caller holds fill_mu): up to
    /// the target depth, or for a versioned key up to the target count.
    std::size_t wanted(bool versioned) const {
      const std::uint64_t have =
          versioned ? next_fill : static_cast<std::uint64_t>(depth_now());
      return have < target ? static_cast<std::size_t>(target - have) : 0;
    }
  };

  /// Shared so a queue retired by the consumer stays alive for a
  /// producer that listed it a moment earlier.
  std::shared_ptr<KeyQueue> queue_for(const TripleKey& key);
  std::shared_ptr<KeyQueue> find_queue(const TripleKey& key) const;

  /// Pop the oldest buffered entry of `queue` into `out`; false when
  /// the ring is empty.  Consumer thread only.
  static bool pop(KeyQueue& queue, MaterialEntry& out);

  /// Fill up to `want` entries into `queue` (caller holds fill_mu).
  std::size_t fill_locked(const TripleKey& key, KeyQueue& queue,
                          std::size_t want);

  void grow_ring(KeyQueue& queue, std::size_t min_capacity);

  TripleBackend& backend_;
  int party_;

  mutable std::mutex map_mu_;
  std::unordered_map<TripleKey, std::shared_ptr<KeyQueue>, TripleKeyHash>
      queues_;

  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace trustddl::mpc
