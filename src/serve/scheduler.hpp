// Owner-side batch sequencer for the serving layer.
//
// Dynamic batching needs every computing party to execute IDENTICAL
// batches (the MPC protocols are SPMD — a one-request disagreement
// desynchronises every subsequent opening).  Local timers at the
// parties cannot guarantee that, and a party-elected leader would hand
// a Byzantine party a denial-of-service lever.  The model owner is
// trusted in the paper's deployment model (it already deals all
// preprocessing material and computes outsourced Softmax), so it is
// the natural single sequencer: clients notify it of submitted
// requests, it runs the bounded BatchQueue, and it broadcasts each
// batch manifest to the three parties, which follow in lockstep.
//
// Dispatch is work-conserving.  Every serving batch ends in the
// outsourced Softmax the owner itself answers, so the owner knows,
// with no extra message, how many dispatched batches are still in
// flight: batches dispatched minus Softmax forwards answered.  A full
// batch leaves at once; a partial batch leaves as soon as none is in
// flight (after one quiet kIdlePoll).  No party can advance the count
// alone: a Softmax group is answered only once all three parties, or
// two after the owner's collect timeout, sent their shares.  If it
// never advances, full batches still leave and partial ones end in
// the deadline sweep, so the scheduler always terminates.
//
// The scheduler owns the request lifecycle ledger: every admitted
// notice ends in exactly one of {completed (dispatched in a manifest),
// rejected, deadline_missed} — the serve.requests.* counters satisfy
//   admitted == completed + rejected + deadline_missed
// by construction, and scripts/check_metrics.py enforces it.
#pragma once

#include <atomic>
#include <cstdint>

#include "net/transport.hpp"
#include "serve/batch_queue.hpp"
#include "serve/wire.hpp"

namespace trustddl::serve {

struct SchedulerStats {
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_rows = 0;
};

class BatchScheduler {
 public:
  /// `endpoint` must be the model owner's; clients occupy actor ids
  /// kFirstClientId .. kFirstClientId + num_clients - 1.
  /// `answered_batches` counts the dispatched batches whose Softmax was
  /// answered (core::ModelOwnerService::softmax_forwards_answered); it
  /// is written by another thread and must outlive the scheduler.
  BatchScheduler(net::Endpoint endpoint, ServeConfig config, int num_clients,
                 const std::atomic<std::uint64_t>& answered_batches);

  /// Sequence batches until every client sent its stop notice and the
  /// queue drained; then broadcast the shutdown manifest.  Runs on the
  /// model owner's thread (alongside, not inside, ModelOwnerService).
  void run();

  const SchedulerStats& stats() const { return stats_; }

 private:
  void handle_notice(net::PartyId client, const RequestNotice& notice);
  void dispatch(std::vector<BatchQueue::Entry> batch);
  void send_control(net::PartyId client, std::uint64_t seq, Status status);

  net::Endpoint endpoint_;
  ServeConfig config_;
  int num_clients_;
  const std::atomic<std::uint64_t>& answered_batches_;
  BatchQueue queue_;
  SchedulerStats stats_;
  std::uint64_t next_manifest_ = 0;
  /// High bits of every minted BatchManifest::trace_id (wall-clock
  /// seconds at construction), making batch correlation ids unique
  /// across restarts and across pods.
  std::uint64_t trace_id_base_ = 0;
};

}  // namespace trustddl::serve
