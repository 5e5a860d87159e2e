// Robust opening of replicated-shared values — the reconstruction core
// shared by SecMul-BT, SecMatMul-BT and SecComp-BT (paper §III-B,
// Algorithm 4 lines 3-20 / Algorithm 5 lines 3-17).
//
// Every opening is one round whose phases depend on the security mode
// (DESIGN.md §4 "Opening round"):
//
//   HbC          exchange(pairs) → median of the three sets
//   crash-fault  heartbeat → exchange(pairs) → median of the sets left
//   malicious    commit → confirm → exchange(triples) → decide
//   optimistic   commit → confirm → exchange(pairs) → agree →
//                verdict/forward → [escalate(triples) → decide]
//
// Commitments are SHA-256 digests that every party sends and confirms
// before any share moves.  `decide` is the decision rule the owners use
// too (robust_reconstruct.hpp): the six reconstructions
// s^j = [s]_1^j + [s]_2^j and ŝ^j = [ŝ]_1^j + [s]_2^j per value, the
// minimum-distance pair (s^j, ŝ^k), j ≠ k, and a median fallback.
// Reconstructions that need a party whose commitment check failed (or
// whose messages never arrived) are dropped; one Byzantine party can
// corrupt at most {s^a, ŝ^{a+1}, s^{a+2}, ŝ^{a+2}}, so a clean pair
// always survives and every honest party recovers without aborting
// (guaranteed output delivery).  The optimistic round escalates to the
// triples only when some party saw its sets disagree.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "mpc/context.hpp"
#include "mpc/sharing.hpp"

namespace trustddl::mpc {

/// Open several shared values to all computing parties in one round
/// trip (one commitment covers all of them, as Algorithm 4 opens e and
/// f together).  Returns the public values in input order.
/// Throws ProtocolError if fewer than two parties' data is usable.
std::vector<RingTensor> open_values(PartyContext& ctx,
                                    const std::vector<PartyShare>& values);

/// Multi-call variant used by OpenBatch: one network round covers all
/// `values`, but the minimum-distance decision rule runs independently
/// over each consecutive group of `group_sizes[i]` values — exactly as
/// if each group had been opened by its own open_values call.  This
/// keeps pair selection (and therefore the adopted reconstruction,
/// which can differ by share-local truncation ulps between pairs)
/// bit-identical to the unbatched schedule.  group_sizes must sum to
/// values.size().
std::vector<RingTensor> open_values_grouped(
    PartyContext& ctx, const std::vector<PartyShare>& values,
    const std::vector<std::size_t>& group_sizes);

/// Single-value convenience wrapper.
RingTensor open_value(PartyContext& ctx, const PartyShare& value);

/// Handle to a value that becomes available once the OpenBatch that
/// produced it has flushed the round(s) it depends on.  Copies share
/// the slot, so a protocol `_prepare` call can hand the caller a
/// handle while the batch keeps another to fill in.
template <typename T>
class Deferred {
 public:
  Deferred() : slot_(std::make_shared<std::optional<T>>()) {}

  bool ready() const { return slot_->has_value(); }

  /// The resolved value; only valid after the owning batch flushed
  /// every round this result depends on (see OpenBatch::flush_all).
  const T& get() const {
    TRUSTDDL_REQUIRE(slot_->has_value(),
                     "Deferred::get before the owning OpenBatch flushed");
    return **slot_;
  }

  /// Move the resolved value out.
  T take() {
    TRUSTDDL_REQUIRE(slot_->has_value(),
                     "Deferred::take before the owning OpenBatch flushed");
    return std::move(**slot_);
  }

  void set(T value) { *slot_ = std::move(value); }

 private:
  std::shared_ptr<std::optional<T>> slot_;
};

using DeferredShare = Deferred<PartyShare>;
using DeferredTensor = Deferred<RingTensor>;

/// Round scheduler for robust openings (see DESIGN.md §"Round
/// scheduling").
///
/// Protocol calls that would each pay a full
/// commitment→confirmation→exchange round trip instead *enqueue* their
/// masked shares here together with a continuation; `flush()` then
/// runs ONE opening round (one commitment covering every pending
/// value, exactly like Algorithm 4 opens e and f together) and
/// dispatches the reconstructed public values back to the per-call
/// continuations in enqueue order.  Continuations may enqueue further
/// openings (data-dependent follow-ups such as the masked-open
/// truncation of a product); those run in the NEXT flush, so
/// `flush_all()` loops until the dependency chains are drained.
///
/// SPMD alignment: all parties execute the same protocol program, so
/// they enqueue the same openings in the same order and call flush at
/// the same points — each flush consumes exactly one step-counter
/// value at every party and the message tags stay aligned.  Batching
/// changes neither the reconstructed values nor the detection
/// machinery: the commitment and share-authentication checks cover the
/// whole round, while the six-way minimum-distance rule runs per
/// enqueued group (open_values_grouped), so each protocol call adopts
/// the same reconstruction pair it would have chosen unbatched.
class OpenBatch {
 public:
  using Continuation = std::function<void(std::vector<RingTensor>)>;

  explicit OpenBatch(PartyContext& ctx) : ctx_(ctx) {}
  OpenBatch(const OpenBatch&) = delete;
  OpenBatch& operator=(const OpenBatch&) = delete;
  ~OpenBatch();

  PartyContext& context() { return ctx_; }

  /// Enqueue `values` for the next flush; `on_open` receives their
  /// reconstructed public values (input order preserved).
  void enqueue(std::vector<PartyShare> values, Continuation on_open);

  /// Convenience: enqueue a single value and get a handle to its
  /// public reconstruction.
  DeferredTensor enqueue_value(PartyShare value);

  /// Number of openings (enqueue calls) awaiting the next flush.
  std::size_t pending() const { return pending_.size(); }

  /// One commitment/confirmation/exchange round over everything
  /// pending; no-op when nothing is queued.
  void flush();

  /// Flush until continuations stop enqueueing follow-up openings.
  void flush_all();

  /// Lifetime stats, for tests and benches.
  std::uint64_t flushes() const { return flushes_; }
  std::uint64_t openings_enqueued() const { return enqueued_; }

 private:
  struct PendingOpen {
    std::size_t count = 0;
    Continuation on_open;
  };

  PartyContext& ctx_;
  std::vector<PartyShare> queue_;
  std::vector<PendingOpen> pending_;
  std::uint64_t flushes_ = 0;
  std::uint64_t enqueued_ = 0;
};

}  // namespace trustddl::mpc
