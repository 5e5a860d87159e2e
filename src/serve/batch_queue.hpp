// Bounded admission queue with work-conserving batching for the
// serving layer.
//
// The queue is deliberately free of threads and clocks (callers pass
// `now` and whether a batch is in flight), so the flush/expiry state
// machine is deterministic and directly unit-testable.  Policy
// (DESIGN.md §9):
//
//   * admission   — push() refuses beyond `queue_capacity`
//                   (backpressure; the scheduler answers kRejected);
//   * expiry      — expire(now) removes entries whose deadline passed
//                   (the scheduler answers kDeadlineMissed);
//   * flush       — should_flush(now, idle) once pending rows reach
//                   `max_batch_rows`, in flight or not; a partial batch
//                   only once the parties are idle (no batch in
//                   flight) AND the newest entry has been pending for
//                   one kIdlePoll, so a burst whose notices trickle in
//                   still forms full batches;
//   * batch shape — pop_batch() takes entries in arrival order until
//                   adding the next one would exceed `max_batch_rows`
//                   (a single oversized request still dispatches
//                   alone).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "net/message.hpp"

namespace trustddl::serve {

/// The scheduler's sleep between polls that found nothing to do, and
/// the quiet time a partial batch waits for more notices before it
/// leaves an idle owner.
constexpr std::chrono::microseconds kIdlePoll{200};

/// Knobs of the owner-side batch sequencer (and the party-side input
/// wait); one struct so every deployment configures serving in one
/// place.
struct ServeConfig {
  /// Dispatch a batch as soon as this many rows are pending, even while
  /// another is in flight; fewer rows leave once the parties are idle.
  std::size_t max_batch_rows = 8;
  /// Bounded queue: requests beyond this many pending are rejected.
  std::size_t queue_capacity = 64;
  /// Queue deadline applied when a notice carries deadline_ms == 0.
  std::chrono::milliseconds default_deadline{5000};
  /// How long a party waits for one client's input share before
  /// substituting a zero share (crash degradation; the client still
  /// reconstructs from the other two parties).
  std::chrono::milliseconds input_wait{2000};
  /// Chaos knob: the scheduler abandons its loop (no shutdown
  /// manifests, queue contents dropped) after dispatching this many
  /// batches — simulates an owner crash for pod-failover tests.
  /// 0 = run to completion.
  std::size_t max_batches = 0;
};

class BatchQueue {
 public:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    net::PartyId client = 0;
    std::uint64_t seq = 0;
    std::size_t rows = 0;
    Clock::time_point admitted;
    Clock::time_point deadline;
  };

  BatchQueue(std::size_t capacity, std::size_t max_batch_rows)
      : capacity_(capacity), max_batch_rows_(max_batch_rows) {}

  /// Admit one request; false when the queue is full.
  bool push(Entry entry);

  /// Remove and return every entry whose deadline passed.
  std::vector<Entry> expire(Clock::time_point now);

  /// True when a batch should be dispatched at `now`; `idle` says no
  /// dispatched batch is still in flight.
  bool should_flush(Clock::time_point now, bool idle) const;

  /// Pending rows fill a batch: it leaves whether or not the parties
  /// are idle.
  bool full() const { return pending_rows_ >= max_batch_rows_; }

  /// Pop the next batch (non-empty; see header comment for shape).
  std::vector<Entry> pop_batch();

  std::size_t size() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }
  std::size_t pending_rows() const { return pending_rows_; }

 private:
  std::size_t capacity_;
  std::size_t max_batch_rows_;
  std::deque<Entry> pending_;
  std::size_t pending_rows_ = 0;
};

}  // namespace trustddl::serve
