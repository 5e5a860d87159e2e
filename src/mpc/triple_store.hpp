// Shape-keyed material store: the one place a computing party draws
// dealt material from (Beaver triples, comparison auxiliaries,
// truncation pairs, reusable masks), and the online half of the
// offline/online split (FALCON-style: correlated randomness is
// produced ahead of time so the online phase is pure communication +
// local compute).
//
// A store sits over one TripleBackend: the party's core::OwnerLink
// when the model owner deals over the network, a DealerBackend when
// dealing is in process.  Per (kind, dims) stream it keeps the stream
// cursor, the entries it holds and the ranges it sent and still
// awaits.
//
// Send-ahead: the party plans what it will consume next, in the order
// it will consume it (plan(), from the same key lists the fetching code
// uses: core::SecureModel::step_keys, mpc::aggregate_keys and the
// training round's train::round_keys), and the store sends those
// requests while the bytes it holds or awaits stay under a window —
// half of the largest unit planned so far (kWindowDivisor).  Popping
// entries frees window, so each next_many() sends more before it
// returns: the dealer deals about half a unit ahead while the party
// computes.  An entry nobody planned is a *miss*, fetched at its
// stream cursor; all of one call's sends go out before its first
// receive, so one call costs at most one round trip.  No thread of its
// own: the party's protocol thread owns the store and its backend.
//
// Determinism: each key's stream is consumed strictly in index order
// from 0, whether an entry was held, sent ahead, sent on demand, or
// restored from disk.  Combined with derived-seed dealing
// (beaver.hpp) this keeps results independent of what was sent ahead.
//
// Versioned streams (reusable weight masks, TripleKey::versioned) are
// finite: retire_versions_before() drops their drained state once the
// weights moved past them.
//
// Persistence: a store given a StoreFile restores it at construction
// and drains and saves to it in persist() (or its destructor), so its
// stream cursors and held entries survive a restart.
//
// Instrumented under `triple.*`: per-kind produced (received) and
// consumed counters and held-entry gauges (`triple.store.depth.*`),
// `triple.online_wait.us` (per entry, the time its next_many call
// spent to hand it out when it was not already held: blocked on an
// in-flight fill or on a fetch), `triple.store.miss`.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpc/beaver.hpp"

namespace trustddl::mpc {

/// Where a store persists: a TDST file, and the provenance tag that
/// ties it to the dealing seed.  No path: nothing persists.
struct StoreFile {
  std::string path;
  std::uint64_t provenance = 0;
};

class TripleStore final {
 public:
  /// The window is 1/kWindowDivisor of the largest unit planned so far,
  /// counting each entry's real bytes (material_values × 3 components
  /// × 8 B).  Measured on perfbench byzantine-lan (Table I CNN training
  /// at 2 ms links, 4-CPU host, seeds 2 and 3):
  ///
  ///   request order      window       p50          peak RSS
  ///   consumption order  half a step  257–276 ms   262–274 MB
  ///   consumption order  one step     232–242 ms   318–319 MB (+21%)
  ///   merged order       one step     244–258 ms   315–328 MB (+23%)
  ///   merged order       half a step  320–345 ms   308–315 MB (+20%)
  ///
  /// against 343–371 ms and 264 MB fetching each entry when needed
  /// ("merged": a key's later uses folded into its first, the weight
  /// masks after the step).
  /// Half a unit in consumption order takes most of the gain for ~2%
  /// more memory; a whole unit buys ~10% more speed for ~20% more.
  static constexpr std::size_t kWindowDivisor = 2;

  /// Restores `file` (load) when its path names an existing file.
  TripleStore(TripleBackend& backend, int party, StoreFile file = {});
  /// persist(), logging a failure instead of throwing it.
  ~TripleStore();

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  /// Plan one unit (an engine step, a serving batch, a training
  /// owner's step, an aggregation): `keys` in the order next_many will
  /// consume them, after everything planned before.  Entries the store
  /// already holds or awaits beyond earlier plans count against the
  /// unit, so a restored store is drawn down first.  Sends up to the
  /// window.
  void plan(const std::vector<TripleKey>& keys);

  /// The next entry of each of `keys`, in call order; a key may repeat
  /// (a max-pool's comparisons share one shape).  Each entry comes
  /// from the first of: the key's held entries, its oldest fill in
  /// flight, its next planned entry not sent yet (sent now), or a miss
  /// at its cursor.  Every send precedes the first receive, then the
  /// store tops the window up.
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

  /// Receive every fill in flight into the held entries (before save).
  void drain();

  /// With a file path set, drain() and save the store to it.  Runs
  /// once (later calls and the destructor do nothing); call it while
  /// the backend can still receive.
  void persist();

  /// Forget the drained streams of versioned keys whose weight version
  /// is below `version`; versions only move forward, so those streams
  /// are never drawn from again.
  void retire_versions_before(std::uint64_t version);

  /// Entries held (across all keys / for one key).
  std::size_t depth() const;
  std::size_t depth(const TripleKey& key) const;

  /// Entries sent and not received yet.
  std::size_t in_flight() const;

  /// Bytes held or awaited, and the window that bounds sending ahead.
  std::size_t held_bytes() const { return held_bytes_; }
  std::size_t window_bytes() const { return window_bytes_; }

  /// Stream cursor: entries of `key` handed out so far (after a
  /// restore, counting from the persisted cursor).
  std::uint64_t consumed(const TripleKey& key) const;

  /// Entries nobody planned, fetched at their stream cursor.
  std::uint64_t misses() const { return misses_; }

  /// Persist held entries and stream cursors (versioned binary
  /// format).  `provenance` ties the file to the dealing seed — a
  /// restore under a different seed must fail loudly rather than serve
  /// material from the wrong stream.  Call after drain().
  void save(const std::string& path, std::uint64_t provenance) const;

  /// Restore a saved store.  Returns false if `path` does not exist;
  /// throws SerializationError on a malformed file or provenance
  /// mismatch.  Call before anything is planned or drawn.
  bool load(const std::string& path, std::uint64_t provenance);

 private:
  struct Stream {
    std::size_t entry_bytes = 0;
    std::deque<MaterialEntry> held;
    std::deque<FillTicket> in_flight;  ///< oldest first, one entry each
    /// Stream index of the next send.
    std::uint64_t next_fill = 0;
    /// Planned entries not consumed yet; held, awaited and unsent
    /// entries together always cover them.
    std::size_t claimed = 0;
    /// Planned entries not sent yet.
    std::size_t unsent = 0;
    /// Entries of plan_ that next_many already sent; skipped there.
    std::size_t sent_early = 0;
  };
  using Slot = std::pair<const TripleKey, Stream>;

  Slot& slot_for(const TripleKey& key);

  /// Send the stream's next entry.
  FillTicket send(Slot& slot);

  /// Send planned entries, in plan order, while they fit the window.
  void send_planned();

  TripleBackend& backend_;
  int party_;
  StoreFile file_;
  bool persisted_ = false;
  /// Node-based: plan_ keeps pointers into it.
  std::unordered_map<TripleKey, Stream, TripleKeyHash> streams_;
  std::deque<Slot*> plan_;
  std::size_t window_bytes_ = 0;
  std::size_t held_bytes_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace trustddl::mpc
